"""Closed-form checks of the scheduling model, computed from the config and
the plan alone.

A saturated link that nothing interferes with fills every DATA window it is
granted: each whole TDD interval of the run, in each of its DATA slots, it
sends for the slot duration less the propagation delay, quantized to whole
picoseconds as the engine quantizes it, at its MCS rate. So it delivers
exactly

    whole intervals × Σ over its DATA slots (duration − delay) × rate

bits. The oracle computes that with exact fractions and never runs the
engine; only the value it is compared with comes from `tddsim run`.

It does not apply to CBR traffic, to a link that shares a slot with one it
conflicts with, or to a run in which power control or keep-alive changes
what a link can send; the scenarios below have none of these.
"""

import csv
from fractions import Fraction

import pytest

from tddsim.channel import propagation_delay_us
from tddsim.cli import main, plan_scenario, prepare_scenario
from tddsim.config import load_config
from tddsim.domain import mcs_from_snr
from tddsim.schedule import SlotCategory, intervals

from conftest import SCENARIOS


def expected_delivered_bits(cfg) -> dict[str, tuple[int, Fraction]]:
    """Per saturated link that nothing interferes with: (DATA windows it
    is granted over the run, the bits it delivers), from the plan."""
    prep = prepare_scenario(cfg)
    plan = plan_scenario(prep)
    graph, slot_links = plan.graph, plan.schedule.slot_links
    vertices = graph.by_id()
    sim = cfg.sim
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
        expected[vid] = (
            whole_intervals * len(slots),
            whole_intervals * window_us * Fraction(rate_bps, 10**6),
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
def test_saturated_link_delivers_its_windows_at_its_rate(name, duration_ms, windows, links, tmp_path):
    cfg = load_config(SCENARIOS / f"{name}.yaml")
    if duration_ms is not None:
        cfg.sim.duration_us = duration_ms * 1000
    expected = expected_delivered_bits(cfg)
    assert len(expected) == links
    assert {granted for granted, _ in expected.values()} == {windows}

    metrics = tmp_path / "metrics.csv"
    argv = ["run", "--config", str(SCENARIOS / f"{name}.yaml"), "--metrics", str(metrics)]
    if duration_ms is not None:
        argv += ["--duration-ms", str(duration_ms)]
    assert main(argv) == 0
    with metrics.open() as fh:
        written = {row["link"]: row["delivered_bits"] for row in csv.DictReader(fh)}
    for vid, (_, bits) in expected.items():
        # The CSV writes three decimals; the exact value, so rounded, is
        # the very number written.
        assert Fraction(written[vid]) == round(bits, 3), vid
