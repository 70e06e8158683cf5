import random

import pytest

from tddsim.beamforming import (
    BeamformingConfig,
    BfMode,
    make_sweep_plan,
    run_beamforming,
)
from tddsim.channel import LinkBudgetConfig, link_snr_db
from tddsim.schedule import ExtendedScheduleEntry, default_slot_structure, expand_sp
from tddsim.trace import TraceRecorder

from conftest import make_ap, make_node


def sp_slots(duration_us=25600, start_us=0):
    entry = ExtendedScheduleEntry(1, start_us, duration_us)
    return expand_sp(entry, default_slot_structure(1))


def brute_force_best_pair(initiator, responder, channel, threshold):
    """Exhaustive argmax over decodable sector pairs; ties to lowest (tx, rx)."""
    best = None
    for tx in range(len(initiator.codebook)):
        for rx in range(len(responder.codebook)):
            snr = link_snr_db(initiator, tx, responder, rx, channel).snr_db
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
    assert plan.ssw_time(0) == 1000
    assert plan.ssw_time(11) == 1000 + 11 * 4
    assert plan.tx_sector_of_frame(0) == 0
    assert plan.tx_sector_of_frame(5) == 1
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
    result = run_beamforming(BfMode.INDIVIDUAL, ini, [resp], channel, sp_slots(), cfg)
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
        result = run_beamforming(BfMode.INDIVIDUAL, ini, [resp], channel, sp_slots(), cfg)
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
    result = run_beamforming(BfMode.GROUP, ini, responders, channel, sp_slots(), cfg, trace)
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
        BfMode.MEASUREMENT, ini, responders, channel, sp_slots(), BeamformingConfig(), trace
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
    result = run_beamforming(BfMode.INDIVIDUAL, ini, [far], channel, sp_slots(), BeamformingConfig())
    assert result.trained_links == ()
    assert brute_force_best_pair(ini, far, channel, BeamformingConfig().decode_min_snr_db) is None


def test_run_validation_errors():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=4)
    r1 = make_node("r1", position=(100.0, 0.0))
    r2 = make_node("r2", position=(0.0, 100.0))
    with pytest.raises(ValueError):
        run_beamforming(BfMode.INDIVIDUAL, ini, [r1, r2], channel, sp_slots())
    with pytest.raises(ValueError):
        run_beamforming(BfMode.GROUP, ini, [], channel, sp_slots())
    with pytest.raises(ValueError):
        run_beamforming(BfMode.GROUP, ini, [r1, r1], channel, sp_slots())
    legacy = make_node("old", position=(50.0, 0.0), tdd_capable=False)
    with pytest.raises(ValueError):
        run_beamforming(BfMode.INDIVIDUAL, ini, [legacy], channel, sp_slots())
    with pytest.raises(ValueError):
        run_beamforming(BfMode.GROUP, ini, [r1], channel, [])


def test_plan_must_fit_service_period():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=16)
    resp = make_node("sta", position=(100.0, 0.0), sectors=16)
    # Four slots give a 264 us window; the 16x16 plan needs 1168 us.
    with pytest.raises(ValueError):
        run_beamforming(
            BfMode.INDIVIDUAL, ini, [resp], channel,
            sp_slots(duration_us=1600)[:4], BeamformingConfig(),
        )


def test_deterministic_trace_repeat():
    channel = LinkBudgetConfig()
    ini = make_ap("ap", sectors=8)
    resp = make_node("sta", position=(77.0, -13.0), sectors=8)
    traces = []
    for _ in range(2):
        t = TraceRecorder()
        run_beamforming(BfMode.INDIVIDUAL, ini, [resp], channel, sp_slots(), BeamformingConfig(), t)
        traces.append(t.to_jsonl())
    assert traces[0] == traces[1]
