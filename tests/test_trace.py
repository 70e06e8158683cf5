import gc
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tddsim.beamforming import BeamformingConfig, BfMode, run_beamforming
from tddsim.channel import LinkBudgetConfig
from tddsim.cli import build_world, plan_scenario, prepare_scenario
from tddsim.config import ScenarioConfig, load_config
from tddsim.engine import run_until
from tddsim.errors import SimulationError
from tddsim.schedule import sp_window
from tddsim import trace as trace_module
from tddsim.trace import BOOL, KINDS, LIST, NUMBER, STRING, TraceRecorder

from conftest import SCENARIOS, make_ap, make_node


def run_scenario(name, trace, duration_ms=None):
    cfg = load_config(str(SCENARIOS / f"{name}.yaml"))
    if duration_ms is not None:
        cfg.sim.duration_us = duration_ms * 1000
    prep = prepare_scenario(cfg, trace)
    run_until(build_world(prep, plan_scenario(prep), trace))
    trace.close()
    return prep


def row_fields(trace, row):
    """Every field of a `(t, shape, *values)` row: its shape's fixed ones too."""
    _, names, fixed = trace._shapes[row[1]]
    return {**fixed, **dict(zip(names, row[2:]))}


def whole_run_recorder():
    """A recorder that is never advanced: it sorts the whole run at the end."""
    trace = TraceRecorder()
    trace.advance = lambda watermark_us: None
    return trace


def test_out_of_order_records_within_the_lag_come_out_sorted():
    out = io.StringIO()
    trace = TraceRecorder(write=out.write)
    for t in (5.0, 3.0, 4.0, 1.0):
        trace.record(t, "link_dead", last_rx=t)
    trace.advance(4)
    assert [json.loads(line)["t"] for line in out.getvalue().splitlines()] == [1.0, 3.0]
    assert trace.buffered == 2
    trace.record(4.5, "link_dead")
    trace.close()
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["t"] for r in records] == [1.0, 3.0, 4.0, 4.5, 5.0]
    assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]
    assert trace.buffered == 0


def test_equal_times_keep_insertion_order():
    trace = TraceRecorder()
    for name in ("a", "b", "c"):
        trace.record(2.0, "announce", node=name)
    trace.record(1.0, "announce", node="first")
    trace.advance(2)
    trace.record(2.0, "announce", node="d")
    trace.close()
    assert [(r["node"], r["seq"]) for r in trace.sorted_records()] == [
        ("first", 0), ("a", 1), ("b", 2), ("c", 3), ("d", 4),
    ]


def test_record_below_a_written_watermark_raises():
    trace = TraceRecorder()
    trace.record(10.0, "announce")
    trace.advance(10)
    trace.record(10.0, "announce")  # at the watermark is still in order
    with pytest.raises(SimulationError, match="t=9.999") as raised:
        trace.record(9.999, "announce")
    assert not isinstance(raised.value, AssertionError)  # a fault, not a failed assert
    trace.close()
    assert trace.closed
    with pytest.raises(SimulationError):
        trace.record(1e9, "announce")
    assert [r["t"] for r in trace.sorted_records()] == [10.0, 10.0]


def test_queries_mid_run_number_buffered_records_without_writing_them():
    trace = TraceRecorder()
    trace.record(3.0, "announce")
    trace.record(1.0, "slot")
    trace.advance(2)
    trace.record(2.5, "announce")
    assert [(r["t"], r["seq"]) for r in trace.sorted_records()] == [(1.0, 0), (2.5, 1), (3.0, 2)]
    assert [r["t"] for r in trace.iter_kind("announce")] == [2.5, 3.0]
    assert trace.buffered == 2
    trace.record(2.0, "slot")  # queries do not move the watermark
    assert [r["t"] for r in trace.iter_kind("slot")] == [1.0, 2.0]


def counted_rows(shape, times, built):
    """A lazy batch of `link_dead` rows at `times`, noting in `built` each
    time whose row has been built."""
    for t in times:
        built.append(t)
        yield (t, shape, f"at {t}")


@pytest.mark.parametrize("written", [False, True])
def test_a_late_lazy_batch_is_refused_when_it_arrives(written):
    out = io.StringIO()
    trace = TraceRecorder(write=out.write if written else None)
    trace.record(5.0, "announce", node="ap")
    trace.advance(5)
    built = []
    shape = trace.shape("link_dead", {"node": "ap"}, link="")
    with pytest.raises(SimulationError, match="record 'link_dead' at t=4.0 arrived"):
        trace.extend(counted_rows(shape, [4.0, 6.0], built))
    assert built == [4.0]  # its first row, and only that, was taken to check it
    # Nothing of the batch is kept, and reading raises nothing.
    assert [r["kind"] for r in trace.sorted_records()] == ["announce"]
    trace.close()
    assert [r["kind"] for r in trace.sorted_records()] == ([] if written else ["announce"])


def test_an_in_memory_trace_builds_a_lazy_batch_when_first_read():
    out = io.StringIO()
    memory, streamed = TraceRecorder(), TraceRecorder(write=out.write)
    built = {memory: [], streamed: []}
    for trace in (memory, streamed):
        shape = trace.shape("link_dead", {"node": "ap"}, link="")
        trace.extend(counted_rows(shape, [1.0, 2.0, 3.0], built[trace]))
        trace.advance(2.5)
    assert built == {memory: [1.0], streamed: [1.0, 2.0, 3.0]}
    assert memory.buffered == streamed.buffered == 1
    assert built[memory] == [1.0, 2.0, 3.0]
    streamed.close()
    assert memory.to_jsonl() == out.getvalue()


# Half-microsecond times, so that records often tie.
TICKS = st.integers(0, 12).map(lambda n: n / 2)
ARRIVALS = st.lists(st.one_of(
    st.tuples(st.just("record"), TICKS),
    st.tuples(st.just("batch"), st.lists(TICKS, min_size=1, max_size=4).map(sorted), st.booleans()),
    st.tuples(st.just("advance"), TICKS),
    st.tuples(st.just("read")),
), max_size=30)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ARRIVALS)
def test_an_in_memory_trace_read_mid_run_numbers_records_as_a_written_one(arrivals):
    """Records, list and lazy batches, watermarks and reads in any order: an
    in-memory trace, sorted when read, and a written one, sorted at each
    `advance`, refuse the same records and give the same lines."""
    out = io.StringIO()
    memory, streamed = TraceRecorder(), TraceRecorder(write=out.write)
    for n, (what, *args) in enumerate(arrivals):
        refused = []
        for trace in (memory, streamed):
            try:
                if what == "record":
                    trace.record(args[0], "link_dead", link=f"record {n}")
                elif what == "batch":
                    times, lazy = args
                    shape = trace.shape("link_dead", {"node": f"batch {n}"}, link="")
                    rows = [(t, shape, f"row {i}") for i, t in enumerate(times)]
                    trace.extend(iter(rows) if lazy else rows)
                elif what == "advance":
                    trace.advance(args[0])
                refused.append(None)
            except SimulationError as error:
                refused.append(str(error))
        assert refused[0] == refused[1]
        if what == "read":
            assert memory.buffered == streamed.buffered
            assert memory.to_jsonl() == out.getvalue() + streamed.to_jsonl()
    memory.close()
    streamed.close()
    assert memory.to_jsonl() == out.getvalue()


def test_disabled_recorder_keeps_nothing():
    trace = TraceRecorder(enabled=False)
    trace.record(1.0, "announce")
    trace.close()
    trace.record(0.0, "announce")
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
    flushes = []  # (watermark, records so far, buffered before, buffered after)
    advance = trace.advance

    def observed_advance(watermark_us):
        # Every accepted record, by `record` or by `extend`, is either
        # written, and numbered, or buffered.
        before = trace.buffered
        recorded = trace._next_seq + before
        advance(watermark_us)
        flushes.append((watermark_us, recorded, before, trace.buffered))

    trace.advance = observed_advance
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


# The JSON encoder stays the reference for the per-shape line formatters.
REFERENCE = json.JSONEncoder(sort_keys=True)
AWKWARD_STRINGS = ['"', "\\", "\x00\n\t\x1f\x7f", "é", "ap-€", "😀", "\ud800", "a\\\"b", "{x}", "'"]
AWKWARD_NUMBERS = [
    -0.0, 1e-07, 1e16, 5e-324, float("nan"), float("inf"), float("-inf"),
    2**63, 2**64 + 1, -(2**70),
]
strings = st.sampled_from(AWKWARD_STRINGS) | st.text(max_size=6)
numbers = st.sampled_from(AWKWARD_NUMBERS) | st.floats() | st.integers()
VALUES = {
    STRING: strings,
    NUMBER: numbers,
    BOOL: st.booleans(),
    # A tuple is written as a list; one of strings only is encoded once.
    LIST: st.lists(strings | numbers, max_size=3) | st.lists(strings | numbers, max_size=3).map(tuple),
}


@st.composite
def records(draw):
    """(t, kind, fields) with each declared field either a value or None."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    fields = {
        name: draw(st.none() | VALUES[typ]) for name, typ in sorted(KINDS[kind].items())
    }
    t = draw(st.sampled_from([0.0, -0.0, 1e-07, 1e16, float("-inf"), float("inf")]) | st.floats(-1e6, 1e6) | st.integers(0, 10**6))
    return t, kind, fields


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(records(), min_size=1, max_size=4))
def test_every_shape_writes_what_the_json_encoder_writes(recs):
    out = io.StringIO()
    streamed, memory = TraceRecorder(write=out.write), TraceRecorder()
    for trace in (streamed, memory):
        for t, kind, fields in recs:
            trace.record(t, kind, **fields)
        trace.close()
    expected = sorted(
        (
            {"t": round(float(t), 3), "kind": kind,
             **{k: v for k, v in fields.items() if v is not None}}
            for t, kind, fields in recs
        ),
        key=lambda rec: rec["t"],  # stable: equal times keep insertion order
    )
    reference = "".join(
        REFERENCE.encode({**rec, "seq": seq}) + "\n" for seq, rec in enumerate(expected)
    )
    assert out.getvalue() == memory.to_jsonl() == reference
    # Queries return lists, never the tuples recorded.
    assert all(type(v) is not tuple for rec in memory.sorted_records() for v in rec.values())


# A value of each type, as `shape` takes for a field that rows carry.
EXAMPLES = {STRING: "", NUMBER: 0, BOOL: False, LIST: ()}
TIMES = st.sampled_from([0.0, -0.0, 1e-07, 1e16, float("-inf"), float("inf")]) | st.floats(-1e6, 1e6)


@st.composite
def fixed_field_rows(draw):
    """(kind, fixed values of each shape, carried names, rows): one field
    layout of `kind` split at random into fixed and carried fields, one or
    two shapes of it, and rows `(shape number, t, carried values)`."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    declared = KINDS[kind]
    names = draw(st.permutations(sorted(declared)))
    n_fixed = draw(st.integers(0, len(names)))
    n_carried = draw(st.integers(0, len(names) - n_fixed))
    fixed_names, carried = names[:n_fixed], names[n_fixed:n_fixed + n_carried]
    fixed = draw(st.lists(
        st.fixed_dictionaries({name: VALUES[declared[name]] for name in fixed_names}),
        min_size=1, max_size=2,
    ))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, len(fixed) - 1), TIMES,
            st.fixed_dictionaries({name: VALUES[declared[name]] for name in carried}),
        ),
        min_size=1, max_size=4,
    ))
    return kind, fixed, carried, rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fixed_field_rows())
def test_fixed_field_shapes_write_what_the_json_encoder_writes(case):
    # Fixed strings holding braces, quotes, backslashes or non-ASCII text,
    # tuples and lists, -0.0, and NaN or an infinity, fixed or carried
    # (carried, the encoder writes the line): each line is the encoder's
    # for the record's dict, and the queries return the fixed fields too.
    kind, fixed, carried, rows = case
    out = io.StringIO()
    streamed, memory = TraceRecorder(write=out.write), TraceRecorder()
    for trace in (streamed, memory):
        shapes = [
            trace.shape(kind, values, **{name: EXAMPLES[KINDS[kind][name]] for name in carried})
            for values in fixed
        ]
        trace.extend([
            (round(t, 3), shapes[i], *(values[name] for name in carried)) for i, t, values in rows
        ])
        trace.close()
    expected = sorted(
        ({"t": round(t, 3), "kind": kind, **fixed[i], **values} for i, t, values in rows),
        key=lambda rec: rec["t"],  # stable: equal times keep insertion order
    )
    expected = [REFERENCE.encode({**rec, "seq": seq}) for seq, rec in enumerate(expected)]
    assert out.getvalue() == memory.to_jsonl() == "".join(line + "\n" for line in expected)
    for queried in (memory.sorted_records(), memory.iter_kind(kind)):
        assert [REFERENCE.encode(rec) for rec in queried] == expected
        assert all(type(v) is not tuple for rec in queried for v in rec.values())


@pytest.mark.parametrize("value", [
    [], (), [0], (7,), [-1, 2**64 + 1, -(2**70), 10**30], [1, True], [True, False], [0, False],
    [1, 2.0], [1.5], [-0.0], [1, float("nan")], [float("inf")], ["a", 1],
])
def test_integer_lists_write_what_json_dumps_writes(value):
    assert trace_module._list_json(value) == json.dumps(value)


def test_close_writes_a_record_stamped_plus_infinity():
    out = io.StringIO()
    streamed, memory = TraceRecorder(write=out.write), TraceRecorder()
    for trace in (streamed, memory):
        trace.record(float("inf"), "announce", node="late")
        trace.record(5.0, "announce", node="early")
        trace.close()
        assert trace.buffered == 0
    assert out.getvalue() == memory.to_jsonl() == (
        '{"kind": "announce", "node": "early", "seq": 0, "t": 5.0}\n'
        '{"kind": "announce", "node": "late", "seq": 1, "t": Infinity}\n'
    )


def test_equal_tuples_that_write_differently_are_not_shared():
    # (1,) == (1.0,) == (True,), so only tuples of strings are encoded once,
    # carried or fixed.
    out = io.StringIO()
    trace = TraceRecorder(write=out.write)
    values = ((1,), (1.0,), (True,), ("a",), ("a",))
    for value in values:
        trace.record(0.0, "announce", elements=value)
    trace.extend([(0.0, trace.shape("announce", {"elements": value})) for value in values])
    trace.close()
    assert out.getvalue() == "".join(
        f'{{"elements": {elements}, "kind": "announce", "seq": {seq}, "t": 0.0}}\n'
        for seq, elements in enumerate(2 * ("[1]", "[1.0]", "[true]", '["a"]', '["a"]'))
    )


def test_undeclared_kind_or_field_raises():
    trace = TraceRecorder()
    with pytest.raises(SimulationError, match="'beacon' is not declared"):
        trace.record(1.0, "beacon", node="ap")
    with pytest.raises(SimulationError, match="undeclared field 'colour'"):
        trace.record(1.0, "announce", node="ap", colour="red")
    with pytest.raises(SimulationError, match="'node' is a int, declared string"):
        trace.record(1.0, "announce", node=7)
    # An omitted field is not checked, and nothing was recorded above.
    trace.record(1.0, "announce", node="ap", colour=None)
    assert trace.sorted_records() == [{"t": 1.0, "kind": "announce", "node": "ap", "seq": 0}]


def emit_rows(trace, rows):
    """Write each frame_rx row and its announce as a batch of their own."""
    rx = trace.shape("frame_rx", node="", sector=0, snr_db=0.0)
    announce = trace.shape("announce", node="")
    # A batch row carries its trace time, round(float(t_us), 3), as record writes it.
    for t, node, sector, snr in rows:
        t = round(float(t), 3)
        trace.extend([(t, rx, node, sector, snr), (t, announce, node)])
    return rx, announce


def test_emitted_rows_write_what_record_writes():
    # The same records, once by keyword and once by position: equal lines,
    # times rounded alike, and one insertion order across both paths.
    by_keyword, by_position = TraceRecorder(), TraceRecorder()
    rows = [(2.0004, "ap", 1, -71.25), (1, "sta", 0, 3.5), (2.0004, "sta", 7, float("nan"))]
    for t, node, sector, snr in rows:
        by_keyword.record(t, "frame_rx", node=node, sector=sector, snr_db=snr)
        by_keyword.record(t, "announce", node=node)
    emit_rows(by_position, rows)
    assert by_position.to_jsonl() == by_keyword.to_jsonl()
    assert [r["t"] for r in by_position.sorted_records()] == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]


def test_a_batch_of_rows_writes_what_its_emitters_write():
    # One batch of all rows writes what the rows written pair by pair write.
    rows = [(1, "ap", 0, 3.5), (2.0004, "ap", 1, -71.25), (2.0004, "sta", 7, float("nan"))]
    by_emitter, by_batch = TraceRecorder(), TraceRecorder()
    emit_rows(by_emitter, rows)
    rx = by_batch.shape("frame_rx", node="", sector=0, snr_db=0.0)
    announce = by_batch.shape("announce", node="")
    trace_times = {1: 1.0, 2.0004: 2.0}
    by_batch.extend([
        row for t, node, sector, snr in rows
        for row in ((trace_times[t], rx, node, sector, snr), (trace_times[t], announce, node))
    ])
    assert by_batch.to_jsonl() == by_emitter.to_jsonl()
    by_batch.advance(3)
    with pytest.raises(SimulationError, match="'announce' at t=2.999 arrived after"):
        by_batch.extend([(2.999, announce, "ap"), (4.0, announce, "ap")])
    assert TraceRecorder(enabled=False).extend([(1.0, 0, "ap")]) is None


# Offsets above the watermark, in µs: many ties, some only after rounding.
OFFSETS = [0, 0, 0.5, 1, 1, 1.0004, 2.5, 3]
offsets = st.sampled_from(OFFSETS)
operations = st.lists(
    st.tuples(st.just("record"), offsets)
    | st.tuples(st.just("row"), offsets)
    | st.tuples(st.just("extend"), st.lists(offsets, max_size=4))
    | st.tuples(st.just("advance"), st.sampled_from([0, 0.5, 1, 2.5]))
    | st.tuples(st.just("query"), offsets),
    max_size=30,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operations)
def test_written_order_is_time_then_insertion_order(ops):
    # Records by keyword, one-row batches of one shape and multi-row batches
    # of another, interleaved with cuts and mid-run queries, come out as a
    # sort by (t, insertion index) does. Every time is at or above the
    # watermark, and often behind the latest.
    out = io.StringIO()
    streamed, memory = TraceRecorder(write=out.write), TraceRecorder()
    traces = (streamed, memory)
    row_shapes = [trace.shape("link_dead", link="", last_rx=0.0) for trace in traces]
    shapes = [trace.shape("frame_rx", node="", sector=0) for trace in traces]
    inserted = []  # (t, insertion index, record dict without seq)
    watermark = 0.0

    def expected():
        return [
            {**rec, "seq": seq}
            for seq, (_, _, rec) in enumerate(sorted(inserted, key=lambda r: r[:2]))
        ]

    for op, arg in ops:
        n = len(inserted)
        if op == "record":
            t = round(watermark + arg, 3)
            for trace in traces:
                trace.record(watermark + arg, "announce", node=f"r{n}")
            inserted.append((t, n, {"t": t, "kind": "announce", "node": f"r{n}"}))
        elif op == "row":
            t = round(watermark + arg, 3)
            for trace, shape in zip(traces, row_shapes):
                trace.extend([(t, shape, f"e{n}", float(n))])
            inserted.append((t, n, {"t": t, "kind": "link_dead", "link": f"e{n}", "last_rx": float(n)}))
        elif op == "extend":
            times = sorted(round(watermark + d, 3) for d in arg)
            for trace, shape in zip(traces, shapes):
                trace.extend([(t, shape, f"b{n + i}", n + i) for i, t in enumerate(times)])
            inserted += [
                (t, n + i, {"t": t, "kind": "frame_rx", "node": f"b{n + i}", "sector": n + i})
                for i, t in enumerate(times)
            ]
        elif op == "advance":
            watermark += arg
            for trace in traces:
                trace.advance(watermark)
        else:
            assert memory.sorted_records() == expected()
    for trace in traces:
        trace.close()
    records = expected()
    reference = "".join(REFERENCE.encode(rec) + "\n" for rec in records)
    assert out.getvalue() == memory.to_jsonl() == reference
    assert memory.sorted_records() == records
    for kind in ("announce", "link_dead", "frame_rx"):
        assert memory.iter_kind(kind) == [rec for rec in records if rec["kind"] == kind]


def test_late_batch_row_raises_like_a_late_record():
    trace = TraceRecorder()
    shape = trace.shape("link_dead", link="ap-sta", last_rx=0.0)
    trace.extend([(10.0, shape, "ap-sta", 1.0)])
    trace.advance(10)
    trace.extend([(10.0, shape, "ap-sta", 2.0)])  # at the watermark is still in order
    with pytest.raises(SimulationError) as late_row:
        trace.extend([(9.999, shape, "ap-sta", 3.0)])
    with pytest.raises(SimulationError) as late_record:
        trace.record(9.999, "link_dead", link="ap-sta", last_rx=3.0)
    assert str(late_row.value) == str(late_record.value) == (
        "trace record 'link_dead' at t=9.999 arrived after the trace was written up to t=10"
    )
    trace.close()
    with pytest.raises(SimulationError) as after_close:
        trace.extend([(1e9, shape, "ap-sta", 4.0)])
    with pytest.raises(SimulationError) as record_after_close:
        trace.record(1e9, "link_dead", link="ap-sta", last_rx=4.0)
    assert str(after_close.value) == str(record_after_close.value)
    assert [r["last_rx"] for r in trace.sorted_records()] == [1.0, 2.0]


def test_shape_checks_its_fields_at_registration():
    trace = TraceRecorder()
    with pytest.raises(SimulationError, match="'beacon' is not declared"):
        trace.shape("beacon", node="ap")
    with pytest.raises(SimulationError, match="undeclared field 'colour'"):
        trace.shape("announce", node="ap", colour="red")
    with pytest.raises(SimulationError, match="'node' is a int, declared string"):
        trace.shape("announce", node=7)
    with pytest.raises(SimulationError, match="'sector' is a NoneType, declared number"):
        trace.shape("frame_tx", node="ap", sector=None)
    # Fixed fields are checked alike, and a field is fixed or carried.
    with pytest.raises(SimulationError, match="'node' is a int, declared string"):
        trace.shape("announce", {"node": 7})
    with pytest.raises(SimulationError, match="undeclared field 'colour'"):
        trace.shape("announce", {"colour": "red"}, node="ap")
    with pytest.raises(SimulationError, match="field 'node' is both fixed and carried"):
        trace.shape("announce", {"node": "ap"}, node="ap")
    # Nothing was registered or recorded above.
    shape = trace.shape("announce", node="ap")
    assert shape == 0
    trace.extend([(1.0, shape, "ap")])
    assert trace.sorted_records() == [{"t": 1.0, "kind": "announce", "node": "ap", "seq": 0}]


def test_disabled_recorder_emits_nothing():
    written = []
    trace = TraceRecorder(enabled=False, write=written.append)
    shape = trace.shape("announce", node="ap")
    trace.extend([(1.0, shape, "ap")])
    assert trace.buffered == 0
    trace.close()
    trace.extend([(0.0, shape, "ap")])  # nor checks the watermark
    assert trace.buffered == 0 and written == [] and trace.to_jsonl() == ""


def test_a_disabled_recorder_is_handed_no_rows():
    # The training sweep, the engine's bursts and its slot boundaries build
    # no trace rows for a disabled recorder, rather than building them for
    # `extend` to drop.
    handed = []

    class Handed(TraceRecorder):
        def extend(self, rows):
            handed.extend(rows)
            super().extend(rows)

    trace = Handed(enabled=False)
    for mode in BfMode:
        run_beamforming(
            mode, make_ap("ap"), [make_node("sta", position=(100.0, 20.0))], LinkBudgetConfig(),
            sp_window(ScenarioConfig().build_structure(), 0, 25600),
            BeamformingConfig(), trace,
        )
    run_scenario("saturated_dl", trace, duration_ms=4)
    assert handed == []
    traced = Handed()
    run_scenario("saturated_dl", traced, duration_ms=4)
    # A traced run hands its rows: the bursts' data frames, the block acks'
    # frame_tx rows and the slot rows.
    kinds = [traced._shapes[row[1]][0] for row in handed]
    assert set(kinds) == {"frame_tx", "frame_rx", "slot"}
    assert {row_fields(traced, row)["frame"] for row, kind in zip(handed, kinds) if kind != "slot"} == {
        "data", "block_ack",
    }


class SweepRowsOnly(TraceRecorder):
    """Keeps only batch rows: the training sweep's, without bf_start and
    the feedback legs, which `record` writes."""

    def record(self, t_us, kind, **fields):
        pass


@pytest.mark.parametrize("recorder", [TraceRecorder, SweepRowsOnly])
def test_sweep_into_a_recorder_past_its_service_period_start_raises(recorder):
    window = sp_window(ScenarioConfig().build_structure(), 25600, 25600)
    ap, sta = make_ap("ap"), make_node("sta", position=(100.0, 20.0))
    trace = recorder()
    trace.advance(window[0] + 1)
    with pytest.raises(SimulationError, match=f"arrived after the trace was written up to t={window[0] + 1}"):
        run_beamforming(BfMode.INDIVIDUAL, ap, [sta], LinkBudgetConfig(), window, BeamformingConfig(), trace)
    # At the start itself, the run goes ahead.
    trace = recorder()
    trace.advance(window[0])
    run_beamforming(BfMode.INDIVIDUAL, ap, [sta], LinkBudgetConfig(), window, BeamformingConfig(), trace)
    assert trace.iter_kind("frame_rx")


def test_written_records_are_compact_untracked_tuples():
    # 20,000 records of atomic values hold no per-record object that the
    # garbage collector tracks (such as an object or a reference to one),
    # and take less memory than a dict per record did (387 B in CPython 3.11).
    def data_tx(trace, i):
        trace.record(
            float(i), "frame_tx", node="ap", frame="data", link="ap->sta",
            data_seq=i, bits=1.5 * i, last_fragment=i % 2 == 0, mcs=4,
        )

    trace = TraceRecorder()
    data_tx(trace, 0)  # the shape exists before counting starts
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(1, 20_001):
            data_tx(trace, i)
        trace.advance(20_001)
        gc.collect()
        per_record = (tracemalloc.get_traced_memory()[0] - start) / 20_000
    finally:
        tracemalloc.stop()
    assert len(gc.get_objects()) - tracked < 2_000
    assert per_record < 300
    assert trace.buffered == 0 and len(trace.sorted_records()) == 20_001


def test_a_record_holds_its_time_its_shape_and_its_values_only():
    # Every record the program buffers or writes is (t, shape, *values):
    # a per-record counter or field would show as a longer tuple.
    trace = TraceRecorder()
    ap = make_ap("ap")
    stas = [make_node("sta0", position=(100.0, 0.0)), make_node("sta1", position=(100.0, 20.0))]
    for mode in BfMode:
        run_beamforming(
            mode, ap, stas[:1] if mode is BfMode.INDIVIDUAL else stas, LinkBudgetConfig(),
            sp_window(ScenarioConfig().build_structure(), 0, 25600),
            BeamformingConfig(), trace,
        )
    cfg = load_config(str(SCENARIOS / "saturated_dl.yaml"))
    cfg.sim.duration_us = 4000
    prep = prepare_scenario(cfg, trace)
    run_until(build_world(prep, plan_scenario(prep), trace))
    assert trace.buffered  # read, so an in-memory trace is sorted and numbered
    for records in (trace._records, trace._pending):  # written, then buffered
        assert records
        assert {len(rec) - 2 - len(trace._shapes[rec[1]][1]) for rec in records} == {0}
    # Rows by keyword and by batch: the sweep's, the bursts' and the slots'.
    every = trace._records + trace._pending
    assert {"bf_start", "bf_trained", "slot"} <= {trace._shapes[rec[1]][0] for rec in every}
    assert {"tdd_ssw", "data"} <= {row_fields(trace, rec).get("frame") for rec in every}


def test_no_call_site_passes_a_none_field(monkeypatch):
    # `record` drops a None field for library callers; the program's own
    # call sites leave an absent field out instead.
    nones = []
    real = TraceRecorder.record

    def record(trace, t_us, kind, **fields):
        nones.extend((kind, name) for name, value in fields.items() if value is None)
        real(trace, t_us, kind, **fields)

    monkeypatch.setattr(TraceRecorder, "record", record)
    traces = []
    for name, duration_ms in (("tpc", None), ("reports", None), ("two_node_dl", 8)):
        traces.append(TraceRecorder())
        run_scenario(name, traces[-1], duration_ms)
    trace = TraceRecorder()
    traces.append(trace)
    for mode in BfMode:
        ap, sta = make_ap("ap"), make_node("sta", position=(100.0, 20.0))
        run_beamforming(
            mode, ap, [sta], LinkBudgetConfig(),
            sp_window(ScenarioConfig().build_structure(), 0, 25600),
            BeamformingConfig(), trace,
        )
    assert {r.get("slot_countdown") is None for r in trace.iter_kind("frame_tx")} == {True, False}
    assert nones == []
    # `extend` does not check its rows, so scan what was recorded: the
    # engine's slot and data rows and the sweep's rows included.
    recorded = [r for each in traces for r in each.sorted_records()]
    assert {r["kind"] for r in recorded} >= {"slot", "frame_tx", "frame_rx", "bf_trained"}
    assert {"data", "tdd_ssw"} <= {r["frame"] for r in recorded if "frame" in r}
    assert [(r["kind"], name) for r in recorded for name, value in r.items() if value is None] == []
