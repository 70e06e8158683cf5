import io
import json

import pytest

from tddsim.cli import build_world, plan_scenario, prepare_scenario
from tddsim.config import load_config
from tddsim.engine import run_until
from tddsim.errors import SimulationError
from tddsim.trace import TraceRecorder

from conftest import SCENARIOS


def run_scenario(name, trace, duration_ms=None):
    cfg = load_config(str(SCENARIOS / f"{name}.yaml"))
    if duration_ms is not None:
        cfg.sim.duration_us = duration_ms * 1000
    prep = prepare_scenario(cfg, trace)
    run_until(build_world(prep, plan_scenario(prep), trace))
    trace.close()
    return prep


def whole_run_recorder():
    """A recorder that is never advanced: it sorts the whole run at the end."""
    trace = TraceRecorder()
    trace.advance = lambda watermark_us: None
    return trace


def test_out_of_order_records_within_the_lag_come_out_sorted():
    out = io.StringIO()
    trace = TraceRecorder(write=out.write)
    for t in (5.0, 3.0, 4.0, 1.0):
        trace.record(t, "x", at=t)
    trace.advance(4)
    assert [json.loads(line)["t"] for line in out.getvalue().splitlines()] == [1.0, 3.0]
    assert trace.buffered == 2
    trace.record(4.5, "x")
    trace.close()
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["t"] for r in records] == [1.0, 3.0, 4.0, 4.5, 5.0]
    assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]
    assert trace.buffered == 0


def test_equal_times_keep_insertion_order():
    trace = TraceRecorder()
    for name in ("a", "b", "c"):
        trace.record(2.0, "x", name=name)
    trace.record(1.0, "x", name="first")
    trace.advance(2)
    trace.record(2.0, "x", name="d")
    trace.close()
    assert [(r["name"], r["seq"]) for r in trace.sorted_records()] == [
        ("first", 0), ("a", 1), ("b", 2), ("c", 3), ("d", 4),
    ]


def test_record_below_a_written_watermark_raises():
    trace = TraceRecorder()
    trace.record(10.0, "x")
    trace.advance(10)
    trace.record(10.0, "x")  # at the watermark is still in order
    with pytest.raises(SimulationError, match="t=9.999") as raised:
        trace.record(9.999, "x")
    assert not isinstance(raised.value, AssertionError)  # a fault, not a failed assert
    trace.close()
    assert trace.closed
    with pytest.raises(SimulationError):
        trace.record(1e9, "x")
    assert [r["t"] for r in trace.sorted_records()] == [10.0, 10.0]


def test_queries_mid_run_number_buffered_records_without_writing_them():
    trace = TraceRecorder()
    trace.record(3.0, "b")
    trace.record(1.0, "a")
    trace.advance(2)
    trace.record(2.5, "b")
    assert [(r["t"], r["seq"]) for r in trace.sorted_records()] == [(1.0, 0), (2.5, 1), (3.0, 2)]
    assert [r["t"] for r in trace.iter_kind("b")] == [2.5, 3.0]
    assert trace.buffered == 2
    trace.record(2.0, "a")  # queries do not move the watermark
    assert [r["t"] for r in trace.iter_kind("a")] == [1.0, 2.0]


def test_disabled_recorder_keeps_nothing():
    trace = TraceRecorder(enabled=False)
    trace.record(1.0, "x")
    trace.close()
    trace.record(0.0, "x")
    assert trace.to_jsonl() == ""


@pytest.mark.parametrize("name,duration_ms", [
    ("saturated_dl", 100), ("tpc", None), ("reports", None),
])
def test_streamed_file_equals_the_in_memory_trace(name, duration_ms, tmp_path):
    path = tmp_path / "trace.jsonl"
    with open(path, "w") as fh:
        run_scenario(name, TraceRecorder(write=fh.write), duration_ms)
    memory = TraceRecorder()
    run_scenario(name, memory, duration_ms)
    whole = whole_run_recorder()
    run_scenario(name, whole, duration_ms)
    assert path.read_text() == memory.to_jsonl() == whole.to_jsonl()
    assert memory.buffered == 0


def test_buffer_holds_at_most_two_intervals_at_a_flush():
    trace = TraceRecorder()
    recorded = 0
    flushes = []  # (watermark, records so far, buffered before, buffered after)
    record, advance = trace.record, trace.advance

    def counting_record(t_us, kind, **fields):
        nonlocal recorded
        record(t_us, kind, **fields)
        recorded += 1

    def observed_advance(watermark_us):
        before = trace.buffered
        advance(watermark_us)
        flushes.append((watermark_us, recorded, before, trace.buffered))

    trace.record, trace.advance = counting_record, observed_advance
    prep = run_scenario("saturated_dl", trace, duration_ms=32)
    interval = prep.structure.interval_duration_us
    times = [r["t"] for r in trace.sorted_records()]

    engine_flushes = flushes[:-1]  # the last one is close()
    assert len(engine_flushes) == 32_000 // interval + 1
    previous = -float("inf")
    for watermark, so_far, before, after in engine_flushes:
        # Buffered: exactly the records not below the previous watermark,
        # which is two intervals behind this tick, and after the flush
        # exactly those not below this one.
        assert watermark - previous in (interval, float("inf"))
        assert before == so_far - sum(t < previous for t in times)
        assert after == so_far - sum(t < watermark for t in times)
        previous = watermark
    # So the buffer holds about two intervals' records, not the run's.
    per_interval = len(times) / len(engine_flushes)
    assert max(before for _, _, before, _ in engine_flushes) < 3 * per_interval
