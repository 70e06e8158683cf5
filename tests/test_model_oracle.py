"""Closed-form checks of the scheduling model, computed from the config and
the plan alone.

A saturated link that nothing interferes with fills every DATA window it is
granted: each whole TDD interval of the run, in each of its DATA slots, it
sends for the slot duration less the propagation delay, quantized to whole
picoseconds as the engine quantizes it, at its MCS rate. So it delivers
exactly

    whole intervals × Σ over its DATA slots (duration − delay) × rate

bits. Nothing is in flight at the end of a whole interval, and at most one
MPDU, the head, is partly sent, so it completes exactly

    ⌊delivered bits / MPDU bits⌋

MPDUs. Its receiver acknowledges at the start of the next BASIC slot that
the reverse activation owns. Let G be the largest gap from the start of one
of the link's DATA slots to that BASIC slot's start (SPs back to back, as
in the scenarios below), A the airtime of a whole MPDU and d the
propagation delay. A reception ends after its DATA slot starts, so no ack
delay exceeds G. The first MPDU that a slot completes is received A + d
after the slot starts at the latest, and sooner when the slot resumes an
MPDU that the window before cut short, as a window of no whole number of
MPDUs does in some interval. So the largest ack delay exceeds G − A − d.

The oracle computes all of this with exact fractions and never runs the
engine; only the values it is compared with come from `tddsim run`.

It does not apply to CBR traffic, to a link that shares a slot with one it
conflicts with, or to a run in which power control or keep-alive changes
what a link can send; the scenarios below have none of these.

A training run's full sweep hears every pair of the initiator's and the
responder's codebooks. So a responder is trained exactly when the
strongest pair by `LinkTable.snr_db`, of equal ones the lowest `(tx, rx)`,
is at or above the scenario's lowest MCS threshold and the feedback sent
back on that pair is too; it is trained on that pair at that SNR. A
measurement run trains nobody, and each responder reports every pair at or
above the threshold.
"""

import csv
import json
import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import pytest
import yaml

from tddsim.beamforming import TrainedLink
from tddsim.channel import LinkTable, propagation_delay_us
from tddsim.cli import main, plan_scenario, prepare_scenario
from tddsim.config import load_config, parse_config
from tddsim.domain import mcs_from_snr
from tddsim.frames import FrameSizes
from tddsim.schedule import SlotCategory, intervals

from conftest import SCENARIOS, perfbench_workloads


class Expected(NamedTuple):
    windows: int  # DATA windows granted over the run
    bits: Fraction  # delivered
    mpdus: int  # completed
    ack_gap_us: int  # G
    airtime_us: Fraction  # A
    delay_us: Fraction  # d


def expected_link_model(cfg) -> dict[str, Expected]:
    """Per saturated link that nothing interferes with, what the model
    says of it, from the config and the plan."""
    prep = prepare_scenario(cfg)
    plan = plan_scenario(prep)
    graph, slot_links = plan.graph, plan.schedule.slot_links
    vertices = graph.by_id()
    sim = cfg.sim
    interval_us = prep.structure.interval_duration_us
    mpdu_bits = FrameSizes(**vars(cfg.frames)).data_total_bits
    whole_intervals = sum(1 for _ in intervals(
        prep.structure, prep.epoch_us + sim.sp_offset_us, sim.sp_duration_us,
        sim.beacon_interval_us, prep.epoch_us + sim.duration_us,
    ))
    expected = {}
    for traffic in cfg.traffic:
        vid = f"{traffic.link}:{traffic.direction}"
        if traffic.pattern != "saturated":
            continue
        slots = [
            (spec, slot_links[index])
            for index, spec in enumerate(prep.structure.slots)
            if spec.category is SlotCategory.DATA and vid in slot_links.get(index, ())
        ]
        if any(graph.conflicts(vid, other) for _, actives in slots for other in actives):
            continue
        vertex = vertices[vid]
        delay_ps = round(
            propagation_delay_us(prep.nodes[vertex.tx_node], prep.nodes[vertex.rx_node]) * 10**6
        )
        rate_bps = mcs_from_snr(prep.mcs_table, vertex.snr_db).phy_rate_bps
        window_us = sum(Fraction(spec.duration_us * 10**6 - delay_ps, 10**6) for spec, _ in slots)
        bits = whole_intervals * window_us * Fraction(rate_bps, 10**6)
        acks = [
            spec.start_offset_us for index, spec in enumerate(prep.structure.slots)
            if spec.category is SlotCategory.BASIC and vertex.reverse_id in slot_links.get(index, ())
        ]
        gap_us = max(
            min((ack - spec.start_offset_us) % interval_us for ack in acks) for spec, _ in slots
        )
        expected[vid] = Expected(
            whole_intervals * len(slots), bits, bits // mpdu_bits, gap_us,
            Fraction(mpdu_bits * 10**6, int(rate_bps)), Fraction(delay_ps, 10**6),
        )
    return expected


# (scenario, --duration-ms or None for the configured duration, DATA
# windows of each checked link, links checked)
CASES = [
    ("saturated_dl", 8, 5 * 22, 1),
    ("spatial_reuse", 8, 5 * 22, 2),
    ("two_node_dl", 8, 5 * 22, 1),
    ("one_ap_two_sta", 8, 5 * 11, 2),
    ("spatial_reuse", None, 64 * 22, 2),
]


@pytest.mark.parametrize("name, duration_ms, windows, links", CASES)
def test_saturated_link_delivers_its_windows_at_its_rate(
    name, duration_ms, windows, links, tmp_path, capsys,
):
    cfg = load_config(SCENARIOS / f"{name}.yaml")
    if duration_ms is not None:
        cfg.sim.duration_us = duration_ms * 1000
    expected = expected_link_model(cfg)
    assert len(expected) == links
    assert {link.windows for link in expected.values()} == {windows}

    metrics = tmp_path / "metrics.csv"
    argv = ["run", "--config", str(SCENARIOS / f"{name}.yaml"), "--metrics", str(metrics)]
    if duration_ms is not None:
        argv += ["--duration-ms", str(duration_ms)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)["per_link"]
    with metrics.open() as fh:
        written = {row["link"]: row for row in csv.DictReader(fh)}
    for vid, link in expected.items():
        # The CSV writes three decimals; the exact value, so rounded, is
        # the very number written.
        assert Fraction(written[vid]["delivered_bits"]) == round(link.bits, 3), vid
        assert int(written[vid]["completed_mpdus"]) == link.mpdus, vid
        assert summary[vid]["completed_mpdus"] == link.mpdus, vid
        # Written to three decimals; G is whole, so the bound survives rounding.
        max_ack_delay = Fraction(str(summary[vid]["max_ack_delay_us"]))
        assert link.ack_gap_us - link.airtime_us - link.delay_us < max_ack_delay, vid
        assert max_ack_delay <= link.ack_gap_us, vid


# ---------------------------------------------------------------------------
# Beamforming: who is trained, on which pair.

# The STA at bearing 22.5 degrees, on the edge between the AP's sectors 0
# and 1, and so between its own sectors 4 and 5: four pairs tie.
TIED = f"""\
name: tied_sectors
sim: {{duration_us: 25600, seed: 1, beacon_interval_us: 25600, sp_offset_us: 0, sp_duration_us: 25600}}
nodes:
  - {{id: dn1, role: dn_ap, position: [0.0, 0.0], sectors: 8}}
  - {{id: cn1, role: cn_sta, position: [100.0, {100 * math.tan(math.radians(22.5))!r}], sectors: 8}}
beamforming:
  runs:
    - {{mode: individual, initiator: dn1, responders: [cn1]}}
traffic:
  - {{link: dn1-cn1, direction: downlink, demand_bps: 1.0e+9, pattern: saturated}}
"""


def pair_snrs(links, initiator, responder) -> dict[tuple[int, int], float]:
    """`LinkTable.snr_db` of every (tx, rx) pair of the codebook product, in (tx, rx) order."""
    return {
        (tx, rx): links.snr_db(initiator, tx, responder, rx)
        for tx, rx in product(range(len(initiator.codebook)), range(len(responder.codebook)))
    }


def check_training(cfg) -> int:
    """Check every training run of `cfg` against the oracle; returns the
    legs (run, responder) checked."""
    prep = prepare_scenario(cfg)
    links = LinkTable(prep.channel)
    threshold = min(entry.min_snr_db for entry in prep.mcs_table)
    legs = 0
    for run, result in zip(cfg.beamforming.runs, prep.bf_results, strict=True):
        initiator = prep.nodes[run.initiator]
        trained, reports = {}, {}
        for rid in run.responders:
            legs += 1
            responder = prep.nodes[rid]
            snrs = pair_snrs(links, initiator, responder)
            if run.mode == "measurement":
                heard = {(tx, rx, snr) for (tx, rx), snr in snrs.items() if snr >= threshold}
                if heard:
                    reports[rid] = heard
                continue
            (tx, rx), snr = max(snrs.items(), key=lambda pair: pair[1])  # the first of equals
            if snr >= threshold and links.snr_db(responder, rx, initiator, tx) >= threshold:
                trained[rid] = TrainedLink(run.initiator, rid, tx, rx, snr)
        assert {link.responder_id: link for link in result.trained_links} == trained
        assert {report.responder_id: set(report.samples) for report in result.reports} == reports
    return legs


# name -> (the scenario's text, training legs)
TRAINING_CASES = {
    "two_node_dl": (lambda: (SCENARIOS / "two_node_dl.yaml").read_text(), 1),
    "mesh_train_seed_1": (lambda: perfbench_workloads().mesh_train_yaml(1), 60),
    "tied_sectors": (lambda: TIED, 1),
}


@pytest.mark.parametrize("name", sorted(TRAINING_CASES))
def test_training_picks_the_strongest_pair_of_the_codebooks(name):
    text, legs = TRAINING_CASES[name]
    assert check_training(parse_config(yaml.safe_load(text()))) == legs


def test_tied_pairs_train_the_lowest():
    cfg = parse_config(yaml.safe_load(TIED))
    prep = prepare_scenario(cfg)
    snrs = pair_snrs(LinkTable(prep.channel), prep.nodes["dn1"], prep.nodes["cn1"])
    top = max(snrs.values())
    assert [pair for pair, snr in snrs.items() if snr == top] == [(0, 4), (0, 5), (1, 4), (1, 5)]
    (link,) = prep.bf_results[0].trained_links
    assert (link.initiator_sector, link.responder_sector, link.snr_db) == (0, 4, top)
