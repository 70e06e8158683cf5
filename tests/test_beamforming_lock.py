"""Training traces and results of run_beamforming match pinned digests.

Each case drives one branch of the training exchange: an individual run, a
group run with a responder out of range and a tied best pair, a measurement
run with a silent responder, and an asymmetric-power pair whose feedback is
sent but never decoded. Every case asserts that its branch occurs, so a
digest cannot pass on a run that skipped it. A change that alters any
record, field or insertion order at equal time fails here.
"""

import hashlib
import json
import math
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tddsim import beamforming, channel
from tddsim.beamforming import (
    BeamformingConfig,
    BeamformingResult,
    BeamMeasurementReport,
    BfMode,
    TrainedLink,
    make_sweep_plan,
    run_beamforming,
)
from tddsim.channel import LinkBudgetConfig, LinkTable
from tddsim.config import ScenarioConfig
from tddsim.domain import Codebook, NodeModel, Role, Sector, normalize_angle_deg
from tddsim.schedule import sp_window
from tddsim.trace import TraceRecorder

from conftest import make_ap, make_node, ssw_time, tx_sector_of_frame

CHANNEL = LinkBudgetConfig()


def polar(dist_m, angle_deg):
    a = math.radians(angle_deg)
    return (dist_m * math.cos(a), dist_m * math.sin(a))


def individual():
    ap = make_ap("ap", sectors=8)
    return BfMode.INDIVIDUAL, ap, [make_node("sta", position=(120.0, 35.0), sectors=6)]


def group_with_far_responder():
    ap = make_ap("ap", sectors=8)
    return BfMode.GROUP, ap, [
        # On the boundary of AP sectors 0 and 1: two tx sectors tie.
        make_node("r1", position=polar(100.0, 22.5), sectors=4),
        make_node("far", position=(300000.0, 0.0), sectors=8),
        make_node("r3", position=(-80.0, 60.0), sectors=6),
    ]


def measurement_with_far_responder():
    ap = make_ap("ap", sectors=4)
    return BfMode.MEASUREMENT, ap, [
        make_node("r1", position=(100.0, 0.0), sectors=4),
        make_node("r2", position=(0.0, 150.0), sectors=2),
        make_node("far", position=(0.0, -300000.0), sectors=4),
    ]


def asymmetric_power():
    # 1 km apart: the 20 dBm initiator's sweep decodes, the responder's
    # -10 dBm feedback does not.
    ap = make_ap("ap", sectors=8, tx_power_dbm=20.0)
    sta = make_node("sta", position=polar(1000.0, 100.0), sectors=8, tx_power_dbm=-10.0)
    return BfMode.INDIVIDUAL, ap, [sta]


CASES = {
    "individual": individual,
    "group_with_far_responder": group_with_far_responder,
    "measurement_with_far_responder": measurement_with_far_responder,
    "asymmetric_power": asymmetric_power,
}

DIGESTS = {
    "individual": (
        "32633c00452f91803b8c8fc796ef55128d94de8884131a740fdc314b86d0c469",
        "26f6ee10dbb1397a10ef531ea1da938dfdb1a6f2634e6e28e1e6b2150d9d5cdb",
    ),
    "group_with_far_responder": (
        "7d19b6f929c9cca65e3a95a139e7b3dfe82bc1be939b4f5a513c05813b8d52ee",
        "15ccbca9ec88f8042a77b8102253dc5c0fd47d0eddb376a902bc3fb0c0dee632",
    ),
    "measurement_with_far_responder": (
        "ec59fb5a38f9d4f44e6576b8ce9cc1bd60beeaad8a269d7661a4cd1b22e8bcb0",
        "3f4d8e4be16db084b5a37e01bf433408b3b1c3fb99edb093bfe8192e85858ded",
    ),
    "asymmetric_power": (
        "86663018e59d1a753760b70e5fe0631a05609300a84aec3f669f21e50ea314b5",
        "ef0b79456a985f2476094c706e04177f1ee478c5d95503b9e9fbb844998405de",
    ),
}


def run_case(name):
    mode, initiator, responders = CASES[name]()
    trace = TraceRecorder()
    result = run_beamforming(
        mode, initiator, responders, CHANNEL,
        sp_window(ScenarioConfig().build_structure(), 25600, 25600), BeamformingConfig(), trace,
    )
    return result, trace


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def result_text(result):
    return json.dumps({
        "mode": result.mode.value,
        "trained_links": [tuple(link) for link in result.trained_links],
        "reports": [tuple(rep) for rep in result.reports],
        "end_us": result.end_us,
    }, sort_keys=True)


def records(trace, kind, frame=None, **fields):
    return [
        r for r in trace.iter_kind(kind)
        if (frame is None or r.get("frame") == frame)
        and all(r.get(k) == v for k, v in fields.items())
    ]


def test_individual_trains_the_pair():
    result, trace = run_case("individual")
    assert [link.responder_id for link in result.trained_links] == ["sta"]
    assert len(records(trace, "frame_rx", "tdd_ssw_ack", outcome="decoded")) == 1
    assert len(records(trace, "frame_tx", "announce")) == 2
    assert len(records(trace, "bf_trained")) == 1


def test_group_leaves_the_far_responder_untrained():
    result, trace = run_case("group_with_far_responder")
    assert records(trace, "frame_rx", "tdd_ssw", node="far")
    assert not records(trace, "frame_rx", "tdd_ssw", node="far", outcome="decoded")
    assert not records(trace, "frame_tx", node="far")
    assert {link.responder_id for link in result.trained_links} == {"r1", "r3"}
    # r1's best SNR is reached by more than one (tx, rx) pair; the lowest wins.
    decoded = records(trace, "frame_rx", "tdd_ssw", node="r1", outcome="decoded")
    best = max(r["snr_db"] for r in decoded)
    tied = sorted({(r["tx_sector"], r["sector"]) for r in decoded if r["snr_db"] == best})
    assert len(tied) > 1
    r1 = next(link for link in result.trained_links if link.responder_id == "r1")
    assert (r1.initiator_sector, r1.responder_sector) == tied[0]


def test_measurement_reports_only_what_was_heard():
    result, trace = run_case("measurement_with_far_responder")
    assert result.trained_links == ()
    assert [rep.responder_id for rep in result.reports] == ["r1", "r2"]
    assert [r["node"] for r in records(trace, "bf_report")] == ["r1", "r2"]
    assert not records(trace, "frame_rx", "tdd_ssw", node="far", outcome="decoded")


def test_feedback_sent_but_not_decoded_leaves_the_pair_untrained():
    result, trace = run_case("asymmetric_power")
    assert records(trace, "frame_rx", "tdd_ssw", node="sta", outcome="decoded")
    assert len(records(trace, "frame_tx", "tdd_ssw_feedback", node="sta")) == 1
    assert not records(trace, "frame_rx", "tdd_ssw_feedback")
    assert not records(trace, "frame_tx", "tdd_ssw_ack")
    assert result.trained_links == ()
    assert not records(trace, "bf_trained")


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_and_result_match_pinned_digests(name):
    result, trace = run_case(name)
    assert (sha256(trace.to_jsonl()), sha256(result_text(result))) == DIGESTS[name]


def reference_run(mode, initiator, responders, channel_cfg, window, cfg, trace):
    """run_beamforming with one keyword `record` and one `LinkTable.snr_db`
    call per sweep sample, frame by frame, as the driver was first written."""
    plan = make_sweep_plan(mode, initiator, responders, cfg, window[0])
    assert plan.end_us <= window[1]
    links = LinkTable(channel_cfg)
    threshold = cfg.decode_min_snr_db
    ini_id = initiator.node_id
    trace.record(
        plan.start_us, "bf_start", mode=mode.value, initiator=ini_id,
        responders=list(plan.responder_ids), tx_sectors=plan.n_tx_sectors,
        repetitions=plan.repetitions,
    )
    samples = {r.node_id: [] for r in responders}
    best = {}
    last = plan.n_frames - 1
    for i in range(plan.n_frames):
        t, tx = ssw_time(plan, i), tx_sector_of_frame(plan, i)
        countdown = {} if plan.with_feedback else {"slot_countdown": last - i}
        trace.record(
            t, "frame_tx", node=ini_id, frame="tdd_ssw", sector=tx, frame_index=i,
            end_of_training=i == last, **countdown,
        )
        for r in responders:
            rx = i % len(r.codebook)
            snr = links.snr_db(initiator, tx, r, rx)
            decoded = snr >= threshold
            trace.record(
                t, "frame_rx", node=r.node_id, frame="tdd_ssw", sector=rx, tx_sector=tx,
                snr_db=round(snr, 3), outcome="decoded" if decoded else "below_threshold",
            )
            if decoded:
                samples[r.node_id].append((tx, rx, snr))
                b = best.get(r.node_id)
                if b is None or snr > b[0] or (snr == b[0] and (tx, rx) < b[1:]):
                    best[r.node_id] = (snr, tx, rx)
    if not plan.with_feedback:
        reports = []
        for r in responders:
            if samples[r.node_id]:
                reports.append(BeamMeasurementReport(r.node_id, ini_id, tuple(samples[r.node_id])))
                trace.record(plan.sweep_end_us, "bf_report", node=r.node_id, samples=len(samples[r.node_id]))
        return BeamformingResult(mode, (), tuple(reports), plan.sweep_end_us, plan.n_frames)
    trained = []
    for k, r in enumerate(responders):
        rid = r.node_id
        if rid not in best:
            continue
        snr, tx, rx = best[rid]
        t_fb = plan.feedback_time(tx, k)
        trace.record(t_fb, "frame_tx", node=rid, frame="tdd_ssw_feedback", sector=rx, best_tx_sector=tx)
        fb_snr = links.snr_db(r, rx, initiator, tx)
        if fb_snr < threshold:
            continue
        trace.record(
            t_fb, "frame_rx", node=ini_id, frame="tdd_ssw_feedback", sector=tx,
            snr_db=round(fb_snr, 3), outcome="decoded",
        )
        t_ack = plan.ack_time(tx, k)
        trace.record(
            t_ack, "frame_tx", node=ini_id, frame="tdd_ssw_ack", sector=tx,
            responder=rid, end_of_training=True,
        )
        trace.record(
            t_ack, "frame_rx", node=rid, frame="tdd_ssw_ack", sector=rx,
            snr_db=round(snr, 3), outcome="decoded",
        )
        t_dl, t_ul = plan.announce_time(k, 0), plan.announce_time(k, 1)
        trace.record(t_dl, "frame_tx", node=ini_id, frame="announce", sector=tx)
        trace.record(t_dl, "frame_rx", node=rid, frame="announce", sector=rx, outcome="decoded")
        trace.record(t_ul, "frame_tx", node=rid, frame="announce", sector=rx)
        trace.record(t_ul, "frame_rx", node=ini_id, frame="announce", sector=tx, outcome="decoded")
        trained.append(TrainedLink(ini_id, rid, tx, rx, snr))
        trace.record(
            t_ul, "bf_trained", initiator=ini_id, responder=rid,
            initiator_sector=tx, responder_sector=rx, snr_db=round(snr, 3),
        )
    return BeamformingResult(mode, tuple(trained), (), plan.end_us, plan.n_frames)


# Bearings on the sector boundaries of 1-16 sector codebooks give tied
# samples; distances beyond about 10 km leave responders undecodable.
# Fractional powers and antenna gains make sums whose float rounding
# depends on the order of their terms. A codebook's sectors take their
# (main, side) gains from a list in turn, so a leg can hear the initiator's
# transmit sectors at many different gains: many distinct sweep blocks.
UNIFORM = (25.0, -10.0)  # make_node's antenna gains, dBi
angles = st.sampled_from([0.0, 11.25, 22.5, 45.0, 67.5, 90.0, 180.0, 202.5]) | st.floats(0.0, 360.0)
powers = st.sampled_from([-10.0, 10.0, 20.0]) | st.floats(-10.0, 20.0)
gain_pairs = st.just(UNIFORM) | st.tuples(st.floats(5.0, 30.0), st.floats(-20.0, 0.0))
gains = st.lists(gain_pairs, min_size=1, max_size=6).map(tuple)
antennas = st.tuples(st.integers(1, 16), powers, gains)  # (sectors, tx power, per-sector (main, side))
responder_legs = st.tuples(st.floats(1.0, 5.5).map(lambda e: 10.0 ** e), angles, antennas)

# Stand-in link budgets whose sums are exactly -0.0, 0.0 or a few other
# values, as test_beamforming's ZeroLinks makes them: every node transmits
# at the same signed zero, there is no loss or noise, and sector k of the
# n-th node (the initiator first) gains pattern[n][k % len(pattern[n])].
# Transmit gains -0.0 and 0.0 equal as keys but give sums of either sign.
SIGNED = (-0.0, 0.0, 1.23456, -2.5)
signed_links = st.tuples(
    st.sampled_from([-0.0, 0.0]),
    st.lists(st.lists(st.sampled_from(SIGNED), min_size=1, max_size=6), min_size=5, max_size=5),
)
# The decode threshold at the SNR of the sample (responder, tx sector, rx
# sector), each index taken modulo its range; None keeps the default.
threshold_samples = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 15))


def antenna_node(node_id, role, position, sectors, power, gains):
    codebook = Codebook(tuple(
        Sector(i, normalize_angle_deg(i * 360.0 / sectors), 360.0 / sectors, *gains[i % len(gains)])
        for i in range(sectors)
    ))
    return NodeModel(node_id, role, position, codebook, tx_power_dbm=power)


def signed_table(pattern, nodes):
    """A LinkTable class whose entries carry `signed_links`' gains."""
    gains = {
        node.node_id: [row[k % len(row)] for k in range(len(node.codebook))]
        for node, row in zip(nodes, pattern)
    }

    class SignedTable(LinkTable):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.noise_floor_dbm = 0.0

        def entry(self, tx, rx):
            return 0.0, gains[tx.node_id], gains[rx.node_id]

    return SignedTable


def test_sweep_equals_the_per_sample_reference():
    """run_beamforming, traced and with a disabled recorder, equals
    `reference_run` on generated sweeps, and each case that can tell a
    sweep computed once per distinct block from one computed per sample
    occurs: many distinct blocks, a receive phase that shifts from block to
    block, transmit gains of -0.0 and 0.0, both zeros written, a threshold
    equal to a sample, and a sweep whose samples are decoded and below the
    threshold. The queries return the reference's records too."""
    seen = Counter()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(BfMode)),
        antennas,
        st.lists(responder_legs, min_size=1, max_size=4),
        st.none() | signed_links,
        threshold_samples,
    )
    # r1 ties its receive sectors 3 and 0 at its best sample, for transmit
    # sector 3, whose block of 5 frames starts on r1's sector 3: the first
    # of the tied samples in frame order is not the lowest (tx, rx).
    @example(
        BfMode.GROUP, (8, 10.0, (UNIFORM,)),
        [(100.0, 0.0, (5, 10.0, (UNIFORM,))), (100.0, 135.0, (4, 10.0, (UNIFORM,)))],
        None, None,
    )
    # Transmit sectors 0 and 1 reach r0 at -0.0 and 0.0 dBi, on blocks that
    # start on the same receive sector; the threshold is sample (0, 0)'s -0.0.
    @example(
        BfMode.MEASUREMENT, (2, 10.0, (UNIFORM,)), [(100.0, 0.0, (3, 10.0, (UNIFORM,)))],
        (-0.0, [[-0.0, 0.0], [-0.0, 0.0, 1.23456], [0.0], [0.0], [0.0]]), (0, 0, 0),
    )
    def check(mode, ini, legs, signed, threshold_at):
        if mode is BfMode.INDIVIDUAL:
            legs = legs[:1]
        if signed is not None:
            power = signed[0]
            ini = (ini[0], power, ini[2])
            legs = [(dist, angle, (n, power, g)) for dist, angle, (n, _, g) in legs]
        initiator = antenna_node("ap", Role.DN_AP, (0.0, 0.0), *ini)
        responders = [
            antenna_node(f"r{k}", Role.CN_STA, polar(dist, angle), *antenna)
            for k, (dist, angle, antenna) in enumerate(legs)
        ]
        table = LinkTable if signed is None else signed_table(signed[1], [initiator, *responders])
        cfg = BeamformingConfig()
        if threshold_at is not None:
            k, tx, rx = threshold_at
            r = responders[k % len(responders)]
            cfg = BeamformingConfig(decode_min_snr_db=table(CHANNEL).snr_db(
                initiator, tx % len(initiator.codebook), r, rx % len(r.codebook),
            ))
        window = sp_window(ScenarioConfig().build_structure(), 25600, 25600)
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            for module in (beamforming, channel, sys.modules[__name__]):
                patch.setattr(module, "LinkTable", table)
            for run, trace in (
                (run_beamforming, TraceRecorder()),
                (run_beamforming, TraceRecorder(enabled=False)),
                (reference_run, TraceRecorder()),
            ):
                result = run(mode, initiator, responders, CHANNEL, window, cfg, trace)
                runs.append((result, result_text(result), trace))
        (got, got_text, got_trace), (off, off_text, _), (want, want_text, want_trace) = runs
        assert got_text == off_text == want_text
        assert got_trace.to_jsonl() == want_trace.to_jsonl()
        # The queries read the sweep shapes' fixed fields back as the
        # reference's keyword records carried them.
        assert got_trace.sorted_records() == want_trace.sorted_records()
        assert got_trace.iter_kind("frame_rx") == want_trace.iter_kind("frame_rx")
        assert got == off == want

        reps = max(len(r.codebook) for r in responders)
        links = table(CHANNEL)
        tx_gains = [
            [repr(links.entry(initiator, r)[1][tx]) for tx in range(len(initiator.codebook))]
            for r in responders
        ]
        heard = records(want_trace, "frame_rx", "tdd_ssw")
        written = {repr(r["snr_db"]) for r in heard}
        seen["many distinct blocks"] += any(len(set(g)) > 2 for g in tx_gains)
        seen["phase shift"] += any(reps % len(r.codebook) for r in responders)
        seen["transmit gains -0.0 and 0.0"] += any({"-0.0", "0.0"} <= set(g) for g in tx_gains)
        seen["written -0.0 and 0.0"] += {"-0.0", "0.0"} <= written
        seen["threshold at a sample"] += threshold_at is not None
        seen["decoded and below threshold"] += {r["outcome"] for r in heard} == {"decoded", "below_threshold"}

    check()
    assert set(seen) >= {
        "many distinct blocks", "phase shift", "transmit gains -0.0 and 0.0",
        "written -0.0 and 0.0", "threshold at a sample", "decoded and below threshold",
    }, seen
    assert all(seen.values()), seen
