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
"""

import csv
import json
from fractions import Fraction
from typing import NamedTuple

import pytest

from tddsim.channel import propagation_delay_us
from tddsim.cli import main, plan_scenario, prepare_scenario
from tddsim.config import load_config
from tddsim.domain import mcs_from_snr
from tddsim.frames import FrameSizes
from tddsim.schedule import SlotCategory, intervals

from conftest import SCENARIOS


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
