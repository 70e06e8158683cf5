import gc
import io
import json
import random
import tracemalloc

import pytest

from tddsim.beamforming import (
    BeamformingConfig,
    BfMode,
    _sweep,
    make_sweep_plan,
    run_beamforming,
)
from tddsim.channel import LinkBudgetConfig, LinkTable, link_snr_db
from tddsim.config import ScenarioConfig
from tddsim.schedule import sp_window
from tddsim.trace import TraceRecorder

from conftest import make_ap, make_node, ssw_time, tx_sector_of_frame


def window(duration_us=25600, start_us=0):
    return sp_window(ScenarioConfig().build_structure(), start_us, duration_us)


def brute_force_best_pair(initiator, responder, channel, threshold):
    """Exhaustive argmax over decodable sector pairs; ties to lowest (tx, rx)."""
    best = None
    for tx in range(len(initiator.codebook)):
        for rx in range(len(responder.codebook)):
            snr = link_snr_db(initiator, tx, responder, rx, channel)
            if snr < threshold:
                continue
            if best is None or snr > best[2] or (snr == best[2] and (tx, rx) < best[:2]):
                best = (tx, rx, snr)
    return best


def test_sweep_plan_timing_grid():
    ini = make_ap("ap", sectors=4)
    r1 = make_node("r1", position=(100.0, 0.0), sectors=3)
    r2 = make_node("r2", position=(0.0, 100.0), sectors=2)
    cfg = BeamformingConfig()
    plan = make_sweep_plan(BfMode.GROUP, ini, [r1, r2], cfg, start_us=1000)
    # Default repetitions follow the widest responder codebook.
    assert plan.repetitions == 3
    assert plan.n_frames == 12
    assert ssw_time(plan, 0) == 1000
    assert ssw_time(plan, 11) == 1000 + 11 * 4
    assert tx_sector_of_frame(plan, 0) == 0
    assert tx_sector_of_frame(plan, 5) == 1
    assert plan.sweep_end_us == 1000 + 48
    # Feedback slots: one (feedback, ack) pair per (tx sector, responder).
    assert plan.feedback_time(0, 0) == plan.sweep_end_us
    assert plan.ack_time(0, 0) == plan.sweep_end_us + 4
    assert plan.feedback_time(0, 1) == plan.sweep_end_us + 8
    assert plan.feedback_time(1, 0) == plan.sweep_end_us + 16
    assert plan.feedback_end_us == plan.sweep_end_us + 4 * 2 * 8
    # Two announce legs per responder after the feedback grid.
    assert plan.announce_time(0, 0) == plan.feedback_end_us
    assert plan.announce_time(0, 1) == plan.feedback_end_us + 8
    assert plan.announce_time(1, 0) == plan.feedback_end_us + 16
    assert plan.end_us == plan.feedback_end_us + 2 * 2 * 8


def test_sweep_plan_measurement_mode_has_no_feedback_tail():
    ini = make_ap("ap", sectors=4)
    r = make_node("r", position=(100.0, 0.0), sectors=4)
    plan = make_sweep_plan(BfMode.MEASUREMENT, ini, [r], BeamformingConfig(), 0)
    assert not plan.with_feedback
    assert plan.end_us == plan.sweep_end_us == 4 * 4 * 4


def test_individual_training_matches_brute_force():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", position=(0.0, 0.0), sectors=8)
    resp = make_node("sta", position=(120.0, 35.0), sectors=8)
    cfg = BeamformingConfig()
    result = run_beamforming(BfMode.INDIVIDUAL, ini, [resp], channel, window(), cfg)
    oracle = brute_force_best_pair(ini, resp, channel, cfg.decode_min_snr_db)
    assert len(result.trained_links) == 1
    link = result.trained_links[0]
    assert (link.initiator_sector, link.responder_sector) == oracle[:2]
    assert link.snr_db == pytest.approx(oracle[2])
    assert link.initiator_id == "ap" and link.responder_id == "sta"
    assert result.reports == ()


def test_individual_training_randomized_geometries():
    rng = random.Random(20260815)
    channel = LinkBudgetConfig()
    for _ in range(25):
        n_tx = rng.randint(4, 16)
        n_rx = rng.randint(4, 16)
        angle = rng.uniform(0, 360)
        dist = rng.uniform(20, 280)
        import math
        pos = (dist * math.cos(math.radians(angle)), dist * math.sin(math.radians(angle)))
        ini = make_ap("ap", sectors=n_tx)
        resp = make_node("sta", position=pos, sectors=n_rx)
        cfg = BeamformingConfig()
        result = run_beamforming(BfMode.INDIVIDUAL, ini, [resp], channel, window(), cfg)
        oracle = brute_force_best_pair(ini, resp, channel, cfg.decode_min_snr_db)
        assert oracle is not None
        link = result.trained_links[0]
        assert (link.initiator_sector, link.responder_sector) == oracle[:2]


def test_group_training_three_responders():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=8)
    responders = [
        make_node("r1", position=(100.0, 0.0), sectors=4),
        make_node("r2", position=(-80.0, 60.0), sectors=6),
        make_node("r3", position=(30.0, -110.0), sectors=8),
    ]
    cfg = BeamformingConfig()
    trace = TraceRecorder()
    result = run_beamforming(BfMode.GROUP, ini, responders, channel, window(), cfg, trace)
    # Every responder that decoded at least one sweep frame ends up trained.
    decoded_by = {
        r["node"] for r in trace.iter_kind("frame_rx")
        if r["frame"] == "tdd_ssw" and r["outcome"] == "decoded"
    }
    trained_by = {l.responder_id for l in result.trained_links}
    assert trained_by == decoded_by
    # Each trained pair matches its own exhaustive search.
    by_id = {r.node_id: r for r in responders}
    for link in result.trained_links:
        oracle = brute_force_best_pair(ini, by_id[link.responder_id], channel, cfg.decode_min_snr_db)
        assert (link.initiator_sector, link.responder_sector) == oracle[:2]
    # Responder feedback transmissions never overlap in time.
    fb_times = [
        r["t"] for r in trace.iter_kind("frame_tx") if r["frame"] == "tdd_ssw_feedback"
    ]
    assert len(fb_times) == len(set(fb_times))
    assert len(fb_times) >= len(result.trained_links)


def test_measurement_mode_is_silent_and_reports():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=4)
    responders = [
        make_node("r1", position=(100.0, 0.0), sectors=4),
        make_node("r2", position=(0.0, 100.0), sectors=4),
    ]
    trace = TraceRecorder()
    result = run_beamforming(
        BfMode.MEASUREMENT, ini, responders, channel, window(), BeamformingConfig(), trace
    )
    assert result.trained_links == ()
    # No responder transmits anything; no ack frame ever goes out.
    tx_nodes = {r["node"] for r in trace.iter_kind("frame_tx")}
    assert tx_nodes == {"ap"}
    tx_frames = {r["frame"] for r in trace.iter_kind("frame_tx")}
    assert tx_frames == {"tdd_ssw"}
    # Sweep frames carry a countdown that ends at zero.
    countdowns = [r["slot_countdown"] for r in trace.iter_kind("frame_tx")]
    assert countdowns == sorted(countdowns, reverse=True)
    assert countdowns[-1] == 0
    # One report per responder that decoded anything, samples = decoded frames.
    assert {rep.responder_id for rep in result.reports} == {"r1", "r2"}
    for rep in result.reports:
        decoded = [
            r for r in trace.iter_kind("frame_rx")
            if r["node"] == rep.responder_id and r["outcome"] == "decoded"
        ]
        assert len(rep.samples) == len(decoded)
        for tx_sector, rx_sector, snr in rep.samples:
            assert 0 <= tx_sector < 4 and 0 <= rx_sector < 4
    assert result.end_us == 4 * 4 * 4


def test_undecodable_responder_stays_untrained():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=4)
    # 300 km away: no sector pair clears the decode threshold.
    far = make_node("far", position=(300000.0, 0.0), sectors=4)
    result = run_beamforming(BfMode.INDIVIDUAL, ini, [far], channel, window(), BeamformingConfig())
    assert result.trained_links == ()
    assert brute_force_best_pair(ini, far, channel, BeamformingConfig().decode_min_snr_db) is None


def test_run_validation_errors():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=4)
    r1 = make_node("r1", position=(100.0, 0.0))
    r2 = make_node("r2", position=(0.0, 100.0))
    with pytest.raises(ValueError):
        run_beamforming(BfMode.INDIVIDUAL, ini, [r1, r2], channel, window())
    with pytest.raises(ValueError):
        run_beamforming(BfMode.GROUP, ini, [], channel, window())
    with pytest.raises(ValueError):
        run_beamforming(BfMode.GROUP, ini, [r1, r1], channel, window())
    with pytest.raises(ValueError):
        run_beamforming(BfMode.GROUP, ini, [r1], channel, (0, 0))


def test_plan_must_fit_service_period():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=16)
    resp = make_node("sta", position=(100.0, 0.0), sectors=16)
    # Four slots give a 264 us window; the 16x16 plan needs 1168 us.
    with pytest.raises(ValueError):
        run_beamforming(
            BfMode.INDIVIDUAL, ini, [resp], channel,
            (0, 4 * 66), BeamformingConfig(),
        )


def test_deterministic_trace_repeat():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=8)
    resp = make_node("sta", position=(77.0, -13.0), sectors=8)
    traces = []
    for _ in range(2):
        t = TraceRecorder()
        run_beamforming(BfMode.INDIVIDUAL, ini, [resp], channel, window(), BeamformingConfig(), t)
        traces.append(t.to_jsonl())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("mode", list(BfMode))
def test_a_disabled_trace_gives_the_traced_result_without_building_rows(mode):
    ini = make_ap("ap", sectors=16)
    responders = [
        make_node(f"r{i}", position=(100.0 * (i + 1), 30.0 * i), sectors=16) for i in range(3)
    ]
    if mode is BfMode.INDIVIDUAL:
        responders = responders[:1]

    def run(trace):
        gc.collect()  # also empties the free lists, whose reuse tracemalloc cannot see
        tracemalloc.start()
        try:
            result = run_beamforming(
                mode, ini, responders, LinkBudgetConfig(), window(), BeamformingConfig(), trace,
            )
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(None)  # first-call allocations are not the sweep's
    # A recorder with a writer builds the rows at once (an in-memory one
    # would build them only when read); nothing is written before `advance`.
    written = io.StringIO()
    traced = TraceRecorder(write=written.write)
    (plain, _), (disabled, disabled_peak), (recorded, traced_peak) = (
        run(None), run(TraceRecorder(enabled=False)), run(traced),
    )
    assert plain == disabled == recorded
    assert recorded.trained_links or recorded.reports
    sweep_rows = [
        r for kind in ("frame_tx", "frame_rx") for r in traced.iter_kind(kind) if r["frame"] == "tdd_ssw"
    ]
    assert len(sweep_rows) == recorded.sweep_frames * (1 + len(responders))
    assert written.getvalue() == ""
    # The traced run holds its rows, about 70 kB here; the disabled one
    # builds none, not even to drop them.
    assert disabled_peak * 4 < traced_peak


def sweep_rx_rows(trace):
    """The `tdd_ssw` `frame_rx` rows of a trace, as written."""
    rows = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    return [r for r in rows if r["kind"] == "frame_rx" and r["frame"] == "tdd_ssw"]


@pytest.mark.parametrize("mode", list(BfMode))
def test_each_sweep_row_writes_its_own_sample_rounded(mode):
    """A sweep rounds each distinct SNR once and shares it between rows, so a
    row must still write exactly `round(snr, 3)` of its own sample."""
    channel = LinkBudgetConfig(extra_loss_db={frozenset(("ap", "r1")): 0.0004})
    ini = make_ap("ap", sectors=12, tx_power_dbm=9.9996)
    responders = [
        make_node("r0", position=(93.7, 41.3), sectors=6, tx_power_dbm=3.25),
        make_node("r1", position=(-60.1, 88.9), sectors=12),
        make_node("r2", position=(1.0e4, -3.0), sectors=5),
    ]
    if mode is BfMode.INDIVIDUAL:
        responders = responders[:1]
    by_id = {r.node_id: r for r in responders}
    trace = TraceRecorder()
    run_beamforming(mode, ini, responders, channel, window(), BeamformingConfig(), trace)
    rows = sweep_rx_rows(trace)
    plan = make_sweep_plan(mode, ini, responders, BeamformingConfig(), 0)
    assert len(rows) == plan.n_frames * len(responders)
    links = LinkTable(channel)
    assert [repr(r["snr_db"]) for r in rows] == [
        repr(round(links.snr_db(ini, r["tx_sector"], by_id[r["node"]], r["sector"]), 3))
        for r in rows
    ]
    # Few distinct values over many rows: the sharing is exercised.
    assert len({r["snr_db"] for r in rows}) * 10 < len(rows)


class ZeroLinks:
    """A link table whose sweep sums are exactly -0.0, 0.0 or 1.23456 dB.

    With a -0.0 dBm initiator and no loss or noise, `-0.0 + -0.0 + g - 0.0
    - 0.0` is -0.0 for a receive gain of -0.0 and 0.0 for a gain of 0.0.
    """

    noise_floor_dbm = 0.0
    rx_gains = [-0.0, 0.0, 1.23456, 0.0, -0.0, 1.23456]

    def entry(self, initiator, responder):
        return 0.0, [-0.0] * len(initiator.codebook), self.rx_gains


def test_sweep_writes_zero_and_negative_zero_as_round_does():
    ini = make_ap("ap", sectors=2, tx_power_dbm=-0.0)
    sta = make_node("sta", position=(100.0, 0.0), sectors=len(ZeroLinks.rx_gains))
    plan = make_sweep_plan(BfMode.MEASUREMENT, ini, [sta], BeamformingConfig(), 0)
    trace = TraceRecorder()
    [found] = _sweep(plan, ini, [sta], ZeroLinks(), -1.0, trace)
    written = [repr(r["snr_db"]) for r in sweep_rx_rows(trace)]
    expected = [repr(round(snr, 3)) for _, _, snr in found]
    assert written == expected == ["-0.0", "0.0", "1.235", "0.0", "-0.0", "1.235"] * 2
