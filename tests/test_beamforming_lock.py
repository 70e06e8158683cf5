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
from dataclasses import astuple

import pytest

from tddsim.beamforming import BeamformingConfig, BfMode, run_beamforming
from tddsim.channel import LinkBudgetConfig
from tddsim.schedule import ExtendedScheduleEntry, default_slot_structure, expand_sp
from tddsim.trace import TraceRecorder

from conftest import make_ap, make_node

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
    entry = ExtendedScheduleEntry(1, 25600, 25600)
    trace = TraceRecorder()
    result = run_beamforming(
        mode, initiator, responders, CHANNEL,
        expand_sp(entry, default_slot_structure(1)), BeamformingConfig(), trace,
    )
    return result, trace


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def result_text(result):
    return json.dumps({
        "mode": result.mode.value,
        "trained_links": [astuple(link) for link in result.trained_links],
        "reports": [astuple(rep) for rep in result.reports],
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
