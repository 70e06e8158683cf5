"""Benchmark workloads and the seeded scenario generators behind two of them.

Each workload turns a seed into the arguments of one `tddsim run`. The
program only ever sees a scenario file plus CLI flags; the generators write
that file, and the same seed always gives byte-identical YAML.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

# Every generated node uses 32 sectors (11.25 degree beams). That makes a
# full sector sweep 32 x 32 = 1024 frames, so beamforming is real work, and
# it keeps the beams narrow enough for the layout rule in `_row_layout`.
SECTORS = 32
SECTOR_WIDTH_DEG = 360.0 / SECTORS

# APs in one row sit AP_SPACING_M apart; each STA is 60-150 m from its AP at
# a bearing within 30 degrees of the row's outward normal. A STA's uplink
# beam covers its AP's bearing +-11.25 degrees, while any other AP of the row
# is at least atan((300 - 75) / 150) = 56 degrees off the normal as seen from
# that STA, i.e. at least 26 degrees away from the beam. Across rows the
# receiving AP's beam points outward, away from the other row. So no two
# uplinks of different APs interfere, every AP's two reverse-path acks fit
# the two BASIC slots, and every seed gives a feasible plan.
AP_SPACING_M = 300.0
ROW_SPACING_M = 400.0
STA_RANGE_M = (60.0, 150.0)
STA_SPREAD_DEG = 30.0

# The slot structure has 2 BASIC slots per interval and a downlink's acks
# need one BASIC slot on the reverse path; two STAs of one AP share the AP,
# so they cannot share a BASIC slot. Two downlink STAs per AP is the most
# that stays feasible.
STAS_PER_AP = 2

# Back-to-back service periods, as in scenarios/saturated_dl.yaml: one
# training run fits one beacon interval (the longest run, a 4-responder
# measurement sweep, takes 4.1 ms of the 25.6 ms period).
BEACON_INTERVAL_US = 25_600


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    # `--trace` file written by the run (False: the trace stays in memory).
    writes_trace: bool

    def run_args(self, root: str, seed: int, workdir: str) -> list[str]:
        """`tddsim run` arguments for this seed; writes any generated file."""
        if self.name == "dl_saturated":
            # The first 32 ms (20 whole TDD intervals) of the canonical
            # 300 ms run: the same per-fragment work per simulated ms, short
            # enough for 15 runs in one measurement, whose median is then
            # steady on a noisy host.
            config = os.path.join(root, "scenarios", "saturated_dl.yaml")
            args = ["--config", config, "--seed", str(seed), "--duration-ms", "32"]
        else:
            text = GENERATORS[self.name](seed)
            config = os.path.join(workdir, f"{self.name}-{seed}.yaml")
            with open(config, "w") as fh:
                fh.write(text)
            args = ["--config", config]
        args += ["--metrics", os.path.join(workdir, "metrics.csv")]
        if self.writes_trace:
            args += ["--trace", os.path.join(workdir, "trace.jsonl")]
        return args


def _sector_toward(src: tuple[float, float], dst: tuple[float, float]) -> int:
    """Index of the uniform-codebook sector whose beam covers dst from src."""
    bearing = math.degrees(math.atan2(dst[1] - src[1], dst[0] - src[0]))
    return round(bearing / SECTOR_WIDTH_DEG) % SECTORS


def _row_layout(rng: random.Random, n_rows: int, aps_per_row: int):
    """[(ap_id, ap_xy, [(sta_id, sta_xy), ...])] per the rule at the top."""
    layout = []
    for row in range(n_rows):
        outward = 90.0 if row % 2 == 0 else 270.0
        y = 0.0 - ROW_SPACING_M * row
        for col in range(aps_per_row):
            k = row * aps_per_row + col
            ap = (AP_SPACING_M * col, y)
            stas = []
            for j in range(STAS_PER_AP):
                r = rng.uniform(*STA_RANGE_M)
                a = math.radians(outward + rng.uniform(-STA_SPREAD_DEG, STA_SPREAD_DEG))
                xy = (round(ap[0] + r * math.cos(a), 1), round(ap[1] + r * math.sin(a), 1))
                stas.append((f"cn{k}x{j}", xy))
            layout.append((f"dn{k}", ap, stas))
    return layout


def _node_lines(layout) -> list[str]:
    lines = ["nodes:"]
    for ap_id, ap, stas in layout:
        lines.append(f"  - {{id: {ap_id}, role: dn_ap, position: [{ap[0]:.1f}, {ap[1]:.1f}], sectors: {SECTORS}}}")
        for sta_id, xy in stas:
            lines.append(f"  - {{id: {sta_id}, role: cn_sta, position: [{xy[0]:.1f}, {xy[1]:.1f}], sectors: {SECTORS}}}")
    return lines


def mesh_train_yaml(seed: int) -> str:
    """18 APs in two rows of 9, two STAs each, all links trained in-sim.

    AP k trains in its own beacon intervals with a mode rotated by the seed
    (18 APs give every mode to exactly 6 APs, so each seed does the same
    amount of training; only which AP does what, and where STAs stand,
    changes):
    `group` (one sweep, both STAs), `measurement` (a silent sweep heard by
    its STAs and the next AP's STAs, whose reports override the channel
    model in the interference graph, then `individual` runs to train), or
    `individual` (one run per STA). The data phase is one service period of
    low-rate downlink CBR, so the engine does little and the control plane
    (beamforming, interference graph, slot assignment) dominates.
    """
    rng = random.Random(seed)
    layout = _row_layout(rng, n_rows=2, aps_per_row=9)
    runs = []
    for k, (ap_id, _, stas) in enumerate(layout):
        own = [s for s, _ in stas]
        mode = ("group", "measurement", "individual")[(k + seed) % 3]
        if mode == "group":
            runs.append(("group", ap_id, own))
            continue
        if mode == "measurement":
            neighbour = layout[(k + 1) % len(layout)][2]
            runs.append(("measurement", ap_id, own + [s for s, _ in neighbour]))
        runs.extend(("individual", ap_id, [s]) for s in own)
    lines = [
        f"# Generated by perfbench/workloads.py: mesh_train, seed {seed}.",
        "name: mesh_train",
        "sim:",
        f"  duration_us: {BEACON_INTERVAL_US}",
        f"  seed: {seed}",
        f"  beacon_interval_us: {BEACON_INTERVAL_US}",
        "  sp_offset_us: 0",
        f"  sp_duration_us: {BEACON_INTERVAL_US}",
        *_node_lines(layout),
        "beamforming:",
        "  runs:",
    ]
    for mode, ap_id, responders in runs:
        lines.append(f"    - {{mode: {mode}, initiator: {ap_id}, responders: [{', '.join(responders)}]}}")
    lines.append("traffic:")
    # 2-10 Mbit/s, a few MPDUs per STA in the one simulated period; the
    # seed shuffles a fixed set of rates, so the offered load is constant.
    stas = [(ap_id, sta_id) for ap_id, _, stas in layout for sta_id, _ in stas]
    rates = [2 + i % 9 for i in range(len(stas))]
    rng.shuffle(rates)
    for (ap_id, sta_id), rate in zip(stas, rates):
        lines.append(
            f"  - {{link: {ap_id}-{sta_id}, direction: downlink, demand_bps: 5.0e+7, "
            f"pattern: cbr, rate_bps: {rate * 1_000_000:.1e}}}"
        )
    return "\n".join(lines) + "\n"


# 1.28 s simulated: 800 TDD intervals, so the up-front slot expansion
# (19,200 slot instances) and the heap seeded with them dominate world
# build, and RSS visibly grows with simulated time. Longer runs would leave
# too few of them in one measurement for a steady median on a noisy host.
CBR_LONG_DURATION_US = 50 * BEACON_INTERVAL_US
# Above every generated link's SNR (at most 27 dB at 60 m), so power control
# only ever raises power and no link falls below the MCS it was planned at.
CBR_LONG_TPC_TARGET_DB = 30.0


def cbr_long_yaml(seed: int) -> str:
    """2 APs, 3 pre-trained links, sparse CBR, reports + TPC, long run.

    The per-fragment path is nearly idle; the work is the slot timeline,
    maintenance ticks, CBR timers and the report/TPC path.
    """
    rng = random.Random(seed)
    layout = _row_layout(rng, n_rows=1, aps_per_row=2)
    # dn0 keeps both STAs, dn1 one: three links.
    layout[1] = (layout[1][0], layout[1][1], layout[1][2][:1])
    links = [(ap_id, ap, sta_id, xy) for ap_id, ap, stas in layout for sta_id, xy in stas]
    lines = [
        f"# Generated by perfbench/workloads.py: cbr_long, seed {seed}.",
        "name: cbr_long",
        "sim:",
        f"  duration_us: {CBR_LONG_DURATION_US}",
        f"  seed: {seed}",
        f"  beacon_interval_us: {BEACON_INTERVAL_US}",
        "  sp_offset_us: 0",
        f"  sp_duration_us: {BEACON_INTERVAL_US}",
        *_node_lines(layout),
        "beamforming:",
        "  trained_links:",
    ]
    for ap_id, ap, sta_id, xy in links:
        lines.append(
            f"    - {{initiator: {ap_id}, responder: {sta_id}, "
            f"initiator_sector: {_sector_toward(ap, xy)}, responder_sector: {_sector_toward(xy, ap)}}}"
        )
    lines.append("traffic:")
    # Seeds shuffle fixed rates and report intervals, so every seed offers
    # the same load and the same number of reports.
    rates = [1, 3, 5]
    rng.shuffle(rates)
    for (ap_id, _, sta_id, _), rate_mbps in zip(links, rates):
        rate = rate_mbps * 1_000_000
        lines.append(
            f"  - {{link: {ap_id}-{sta_id}, direction: downlink, demand_bps: 5.0e+7, "
            f"pattern: cbr, rate_bps: {rate:.1e}, start_us: {rng.randrange(0, 1600)}}}"
        )
    lines += [
        "maintenance:",
        f"  tpc: {{enabled: true, target_rsni_db: {CBR_LONG_TPC_TARGET_DB}, max_step_db: 3.0}}",
        "  periodic_reports:",
    ]
    # One report link per AP, each TPC-steering its own AP, every 5 or
    # 12 ms for the whole run.
    intervals = [5000, 12000]
    rng.shuffle(intervals)
    for (ap_id, _, sta_id, _), interval in zip((links[0], links[2]), intervals):
        lines.append(
            f"    - {{link: {ap_id}-{sta_id}, direction: downlink, start_us: {rng.randrange(0, interval)}, "
            f"interval_us: {interval}, count: {CBR_LONG_DURATION_US // interval - 1}}}"
        )
    return "\n".join(lines) + "\n"


GENERATORS = {"mesh_train": mesh_train_yaml, "cbr_long": cbr_long_yaml}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dl_saturated",
            "scenarios/saturated_dl.yaml for 32 ms with --trace: the per-fragment event path and "
            "trace serialization; the input is fixed, so --seed changes only the trace header and summary",
            default_seed=1, writes_trace=True,
        ),
        Workload(
            "mesh_train",
            "generated 18-AP, 36-STA mesh trained in-sim, no --trace file: beamforming and the "
            "controller (interference graph, slot assignment) dominate",
            default_seed=1, writes_trace=False,
        ),
        Workload(
            "cbr_long",
            "generated 2-AP sparse-CBR run of 1.28 s with reports and TPC: slot timeline expansion, "
            "maintenance ticks and timers; world build and RSS grow with simulated time",
            default_seed=1, writes_trace=True,
        ),
    )
}
