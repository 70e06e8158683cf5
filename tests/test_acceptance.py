"""Whole-system acceptance checks.

Each test covers one gating property end to end and prints exactly one
PASS/FAIL verdict line, so a verbose run doubles as a release checklist.
Sub-checks accumulate failure notes instead of stopping at the first broken
assert; the verdict line carries the headline numbers.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

from tddsim.beamforming import BeamformingConfig, BfMode, TrainedLink, run_beamforming
from tddsim.channel import LinkBudgetConfig, link_snr_db
from tddsim.cli import main
from tddsim.config import ScenarioConfig
from tddsim.controller import (
    DemandSpec,
    assign_slots,
    build_interference_graph,
    verify_global,
)
from tddsim.domain import PowerLimits
from tddsim.engine import TrafficSource, World, run_until
from tddsim.maintenance import tpc_update
from tddsim.schedule import (
    Direction,
    SlotCategory,
    expand_sp,
    sp_window,
)
from tddsim.trace import TraceRecorder

from conftest import SCENARIOS, make_ap, make_node

CHANNEL = LinkBudgetConfig()
MPDU_BITS = (1500 + 40) * 8
PROP_100M = Fraction(333564, 10**6)  # 100 m quantized to integer picoseconds
RATE = Fraction(4_620_000_000, 10**6)  # MCS12 bits per microsecond


def checker():
    failures = []

    def need(cond, msg):
        if not cond:
            failures.append(msg)

    return failures, need


def verdict(label, failures, detail=""):
    line = f"{label}: {'PASS' if not failures else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"{label}: " + "; ".join(failures)


def sp_slots():
    return expand_sp(ScenarioConfig().build_structure(), 0, 25_600)


def training_window():
    return sp_window(ScenarioConfig().build_structure(), 0, 25_600)


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


def test_01_slot_hierarchy_expands_consistently():
    failures, need = checker()
    t0 = time.monotonic()
    slots = sp_slots()
    elapsed = time.monotonic() - t0
    need(len(slots) == 384, f"expected 384 slots, got {len(slots)}")
    by_interval = {}
    for s in slots:
        by_interval.setdefault(s.start_us // 1600, []).append(s)
    need(len(by_interval) == 16, f"{len(by_interval)} intervals per SP")
    need(all(len(v) == 24 for v in by_interval.values()), "not 24 slots per interval")
    need(all(s.end_us - s.start_us == 66 for s in slots), "slot duration drifted from 66 us")
    for group in by_interval.values():
        ordered = sorted(group, key=lambda s: s.start_us)
        basic = [i for i, s in enumerate(ordered) if s.category is SlotCategory.BASIC]
        need(basic == [0, 12], f"BASIC slots at {basic}")
    need(slots[-1].end_us == 25_584, f"last slot ends at {slots[-1].end_us}")
    need(elapsed < 1.0, f"expansion took {elapsed:.3f}s")
    verdict("TDD slot hierarchy (66 us x 24 x 16 per SP)", failures,
            f"{len(slots)} slots in {elapsed * 1000:.1f} ms")


def test_02_individual_training_equals_exhaustive_search():
    failures, need = checker()
    rng = random.Random(31337)
    window = training_window()
    cfg = BeamformingConfig()
    total = 100
    mismatched = []
    t0 = time.monotonic()
    for case in range(total):
        n_tx, n_rx = rng.randint(4, 16), rng.randint(4, 16)
        ang = rng.uniform(0.0, 2 * math.pi)
        dist = rng.uniform(20.0, 280.0)
        ini = make_ap("ap", sectors=n_tx)
        resp = make_node(
            "sta", position=(dist * math.cos(ang), dist * math.sin(ang)), sectors=n_rx,
        )
        result = run_beamforming(BfMode.INDIVIDUAL, ini, [resp], CHANNEL, window, cfg)
        oracle = brute_force_best_pair(ini, resp, CHANNEL, cfg.decode_min_snr_db)
        if oracle is None:
            if result.trained_links:
                mismatched.append(case)
            continue
        got = result.trained_links
        if len(got) != 1 or (got[0].initiator_sector, got[0].responder_sector) != oracle[:2]:
            mismatched.append(case)
    elapsed = time.monotonic() - t0
    need(not mismatched, f"cases off the brute-force argmax: {mismatched[:5]}")
    need(elapsed < 30.0, f"took {elapsed:.1f}s")
    verdict("individual beamforming equals exhaustive search", failures,
            f"{total - len(mismatched)}/{total} geometries in {elapsed:.1f}s")


def test_03_group_training_and_silent_measurement():
    failures, need = checker()
    ini = make_ap("ap", sectors=8)
    responders = [
        make_node("r1", position=(100.0, 0.0), sectors=4),
        make_node("r2", position=(-80.0, 60.0), sectors=6),
        make_node("r3", position=(30.0, -110.0), sectors=8),
    ]
    cfg = BeamformingConfig()
    trace = TraceRecorder()
    result = run_beamforming(BfMode.GROUP, ini, responders, CHANNEL, training_window(), cfg, trace)
    decoded = {
        r["node"] for r in trace.iter_kind("frame_rx")
        if r["frame"] == "tdd_ssw" and r["outcome"] == "decoded"
    }
    trained = {l.responder_id for l in result.trained_links}
    need(decoded == {"r1", "r2", "r3"}, f"decoders {sorted(decoded)}")
    need(trained == decoded, f"trained {sorted(trained)} != decoded {sorted(decoded)}")
    fb = sorted(
        r["t"] for r in trace.iter_kind("frame_tx") if r["frame"] == "tdd_ssw_feedback"
    )
    need(bool(fb), "no responder feedback transmissions")
    overlaps = [b - a for a, b in zip(fb, fb[1:]) if b - a < cfg.feedback_slot_us]
    need(not overlaps, f"{len(overlaps)} overlapping feedback transmissions")

    mtrace = TraceRecorder()
    mresult = run_beamforming(
        BfMode.MEASUREMENT, ini, responders, CHANNEL, training_window(), cfg, mtrace,
    )
    tx_nodes = {r["node"] for r in mtrace.iter_kind("frame_tx")}
    tx_frames = {r["frame"] for r in mtrace.iter_kind("frame_tx")}
    need(tx_nodes == {"ap"}, f"responders transmitted: {sorted(tx_nodes - {'ap'})}")
    need(tx_frames == {"tdd_ssw"}, f"unexpected frames on air: {sorted(tx_frames)}")
    need(mresult.trained_links == (), "measurement mode must not train links")
    need({rep.responder_id for rep in mresult.reports} == {"r1", "r2", "r3"},
         "missing measurement reports")
    verdict("group training and silent measurement sweeps", failures,
            f"{len(trained)}/3 trained, {len(fb)} non-overlapping feedbacks")


def test_04_delayed_acks_ride_earliest_owned_basic_slot(tmp_path, capsys):
    failures, need = checker()
    trace_path = tmp_path / "trace.jsonl"
    rc = main(["run", "--config", str(SCENARIOS / "one_ap_two_sta.yaml"), "--trace", str(trace_path)])
    payload = json.loads(capsys.readouterr().out)
    need(rc == 0, f"exit code {rc}")
    records = [json.loads(l) for l in trace_path.read_text().splitlines()]

    # A client's transmit opportunities: BASIC slots carrying its uplink path.
    basic_starts = {}
    for r in records:
        if r["kind"] == "slot" and r["category"] == "basic" and r.get("links"):
            for vid in r["links"]:
                link_id, _, direction = vid.partition(":")
                if direction == "uplink":
                    basic_starts.setdefault(link_id.split("-")[1], []).append(r["t"])
    rx_done = {}
    for r in records:
        if (r["kind"] == "frame_rx" and r["frame"] == "data"
                and r["outcome"] == "decoded" and r["last_fragment"]):
            rx_done.setdefault((r["link"], r["data_seq"]), r["t"])

    acks = [r for r in records if r["kind"] == "frame_tx" and r["frame"] == "block_ack"]
    need(len(acks) >= 100, f"only {len(acks)} acks in a saturated run")
    need({a["node"] for a in acks} == {"cn1", "cn2"}, "both clients must send acks")
    misplaced = 0
    for ack in acks:
        starts = basic_starts.get(ack["node"], [])
        pending = [rx_done.get((ack["link"], seq)) for seq in ack["covered"]]
        if None in pending:
            misplaced += 1
            continue
        earliest = min((s for s in starts if s >= min(pending)), default=None)
        if ack["t"] != earliest:
            misplaced += 1
    need(misplaced == 0, f"{misplaced}/{len(acks)} acks off the earliest BASIC slot")
    worst_delay = 0.0
    for vid, link in payload["per_link"].items():
        worst_delay = max(worst_delay, link["max_ack_delay_us"])
        if link["max_ack_delay_us"] > 1600:
            failures.append(f"{vid}: ack delay {link['max_ack_delay_us']} us")
    verdict("delayed acks on the earliest owned BASIC slot", failures,
            f"{len(acks)} acks exact, max delay {worst_delay:.1f} us")


def test_05_saturated_downlink_goodput_accounting(capsys):
    failures, need = checker()
    rc = main(["run", "--config", str(SCENARIOS / "saturated_dl.yaml")])
    payload = json.loads(capsys.readouterr().out)
    need(rc == 0, f"exit code {rc}")
    link = payload["per_link"]["dn1-cn1:downlink"]
    goodput = link["goodput_bps"]
    # All 22 DATA slots of every interval carry the lone downlink.
    dl_fraction = 22 * 66 / 1600
    expected = dl_fraction * 4.62e9 * (1500 / 1540)
    err = abs(goodput - expected) / expected
    need(payload["duration_us"] == 300_000, f"duration {payload['duration_us']}")
    need(dl_fraction >= 0.90, f"DL DATA fraction {dl_fraction}")
    need(err <= 0.02, f"goodput {goodput:.4e} vs analytic {expected:.4e} ({err:.2%})")
    need(goodput > 4.0e9, f"goodput {goodput:.4e} not above 4 Gbps")
    verdict("saturated downlink goodput accounting", failures,
            f"{goodput / 1e9:.3f} Gbps, {err:.2%} from f*rate*payload-share")


def test_06_trickle_latency_matches_slot_wait_analysis():
    failures, need = checker()
    ap = make_ap("ap")
    sta = make_node("sta", position=(100.0, 0.0))
    nodes = {"ap": ap, "sta": sta}
    graph = build_interference_graph(nodes, [TrainedLink("ap", "sta", 0, 4, 22.64)], [], CHANNEL)
    structure = ScenarioConfig().build_structure()
    plan = assign_slots(
        graph, [DemandSpec("ap-sta", Direction.DOWNLINK, 50e6)], structure,
    )
    duration = 102_400
    world = World(
        nodes, CHANNEL, plan,
        traffic={"ap-sta:downlink": TrafficSource("cbr", rate_bps=1e6)},
        beacon_interval_us=25_600, sp_duration_us=25_600, duration_us=duration,
    )
    metrics = run_until(world)
    lat = metrics.per_link["ap-sta:downlink"].latency_us

    data_idx = [
        i for i, links in sorted(plan.schedule.slot_links.items())
        if "ap-sta:downlink" in links and structure.slots[i].category is SlotCategory.DATA
    ]
    need(len(data_idx) == 22, f"{len(data_idx)} granted data slots")
    windows = sorted(
        (base + 66 * i, base + 66 * i + 66)
        for base in range(0, duration, 1600) for i in data_idx
    )

    def slot_wait_latency(arrival_us):
        # Serve MPDU_BITS across the granted windows; each window transmits
        # until its end minus propagation so reception lands at the boundary.
        remaining = Fraction(MPDU_BITS)
        a = Fraction(arrival_us)
        for s, e in windows:
            cutoff = Fraction(e) - PROP_100M
            begin = max(a, Fraction(s))
            if begin >= cutoff:
                continue
            capacity = (cutoff - begin) * RATE
            if remaining <= capacity:
                return float(begin + remaining / RATE + PROP_100M - a)
            remaining -= capacity
        raise AssertionError("arrival never fully served")

    arrivals = [k * MPDU_BITS for k in range(9)]  # 1 Mbps: one MPDU per 12320 us
    need(len(lat) == len(arrivals), f"{len(lat)} completions for {len(arrivals)} arrivals")
    for k, arrival in enumerate(arrivals[:len(lat)]):
        want = slot_wait_latency(arrival)
        if lat[k] != want:
            failures.append(f"packet {k}: {lat[k]!r} != analytic {want!r}")
    worst = max(lat) if lat else float("inf")
    need(worst <= 25_600, f"max latency {worst:.3f} above one SP")
    need(worst <= float(1600 + Fraction(8, 3) + PROP_100M),
         f"max latency {worst:.3f} above one interval + airtime")
    need(worst < 15_000, f"max latency {worst:.3f} breaks the 15 ms budget")
    verdict("trickle latency matches slot-wait analysis", failures,
            f"{len(lat)} packets exact, max {worst:.3f} us")


def _fuzz_topology(rng):
    """Random multi-AP layout, up to 12 nodes, huge demands on every link."""
    while True:
        n_aps = rng.randint(1, 3)
        sizes = [rng.randint(1, 3) for _ in range(n_aps)]
        if n_aps + sum(sizes) > 12:
            continue
        nodes, trained, demands = {}, [], []
        for a in range(n_aps):
            ap = make_ap(
                f"ap{a}", position=(rng.uniform(0, 400), rng.uniform(0, 400)),
                sectors=rng.choice([4, 6, 8]),
            )
            nodes[ap.node_id] = ap
            for s in range(sizes[a]):
                ang = rng.uniform(0, 2 * math.pi)
                dist = rng.uniform(30, 150)
                sta = make_node(
                    f"sta{a}_{s}",
                    position=(ap.position[0] + dist * math.cos(ang),
                              ap.position[1] + dist * math.sin(ang)),
                    sectors=rng.choice([4, 6, 8]),
                )
                best = brute_force_best_pair(ap, sta, CHANNEL, 1.0)
                if best is None:
                    continue
                nodes[sta.node_id] = sta
                trained.append(TrainedLink(ap.node_id, sta.node_id, best[0], best[1], best[2]))
                directions = rng.choice((
                    [Direction.DOWNLINK], [Direction.UPLINK],
                    [Direction.DOWNLINK, Direction.UPLINK],
                ))
                for direction in directions:
                    demands.append(DemandSpec(f"{ap.node_id}-{sta.node_id}", direction, 1.0e12))
        if trained:
            return nodes, trained, demands


def test_07_controller_schedules_verify_and_maximize_reuse():
    failures, need = checker()
    rng = random.Random(424242)
    structure = ScenarioConfig().build_structure()
    data_idx = [i for i, s in enumerate(structure.slots) if s.category is SlotCategory.DATA]
    verified = 0
    enumerated = 0
    for case in range(200):
        nodes, trained, demands = _fuzz_topology(rng)
        graph = build_interference_graph(nodes, trained, [], CHANNEL)
        result = assign_slots(graph, demands, structure)
        violations = verify_global(result.schedule, graph)
        if violations:
            failures.append(f"case {case}: {sorted({v.kind for v in violations})}")
            continue
        verified += 1
        vids = [f"{d.link_id}:{d.direction.value}" for d in demands]
        if len(vids) > 8:
            continue
        enumerated += 1
        starved = {f"{s.link_id}:{s.direction.value}" for s in result.starved}
        for idx in data_idx:
            links = result.schedule.slot_links.get(idx, ())
            if not links:
                continue
            # verify_global found no slot mixing directions.
            assigned, direction = set(links), graph.by_id()[links[0]].direction
            # Demands never exhaust, so every non-starved same-direction link
            # stays eligible: the slot set must be a maximal independent set.
            eligible = [
                v for v in vids
                if v.split(":")[1] == direction.value and v not in starved
            ]
            independent = [
                set(combo)
                for r in range(len(eligible) + 1)
                for combo in itertools.combinations(eligible, r)
                if not any(graph.conflicts(a, b)
                           for a, b in itertools.combinations(combo, 2))
            ]
            if assigned not in independent:
                failures.append(f"case {case} slot {idx}: {sorted(assigned)} not independent")
            elif any(assigned < s for s in independent):
                failures.append(f"case {case} slot {idx}: {sorted(assigned)} not maximal")
    need(verified == 200, f"{verified}/200 clean verifications")
    need(enumerated >= 20, f"only {enumerated} instances small enough to enumerate")

    def aggregate_goodput(two_pairs):
        ap1 = make_ap("ap1")
        sta1 = make_node("sta1", position=(100.0, 0.0))
        nodes = {"ap1": ap1, "sta1": sta1}
        trained = [TrainedLink("ap1", "sta1", 0, 4, 22.64)]
        demands = [DemandSpec("ap1-sta1", Direction.DOWNLINK, 4.2e9)]
        traffic = {"ap1-sta1:downlink": TrafficSource("saturated")}
        if two_pairs:
            ap2 = make_ap("ap2", position=(0.0, 2000.0))
            sta2 = make_node("sta2", position=(100.0, 2000.0))
            nodes.update({"ap2": ap2, "sta2": sta2})
            trained.append(TrainedLink("ap2", "sta2", 0, 4, 22.64))
            demands.append(DemandSpec("ap2-sta2", Direction.DOWNLINK, 4.2e9))
            traffic["ap2-sta2:downlink"] = TrafficSource("saturated")
        graph = build_interference_graph(nodes, trained, [], CHANNEL)
        plan = assign_slots(graph, demands, structure)
        world = World(nodes, CHANNEL, plan, traffic=traffic,
                      beacon_interval_us=25_600, sp_duration_us=25_600,
                      duration_us=25_600)
        metrics = run_until(world)
        return sum(metrics.goodput_bps(vid) for vid in traffic)

    single = aggregate_goodput(False)
    double = aggregate_goodput(True)
    ratio = double / single
    need(ratio >= 1.9, f"spatial reuse ratio {ratio:.3f}")
    verdict("controller schedules verify and maximize reuse", failures,
            f"{verified}/200 verified, {enumerated} enumerated, reuse {ratio:.2f}x")


def test_08_periodic_reports_fire_on_covering_slots(tmp_path, capsys):
    failures, need = checker()
    trace_path = tmp_path / "reports.jsonl"
    rc = main(["run", "--config", str(SCENARIOS / "reports.yaml"), "--trace", str(trace_path)])
    capsys.readouterr()
    need(rc == 0, f"exit code {rc}")
    records = [json.loads(l) for l in trace_path.read_text().splitlines()]
    starts = sorted(
        r["t"] for r in records
        if r["kind"] == "slot" and r["category"] == "basic"
        and "dn1-cn1:uplink" in (r.get("links") or ())
    )
    need(bool(starts), "no BASIC uplink slots in the trace")
    expected = []
    for nominal in (10_000, 110_000, 210_000):
        covering = min((s for s in starts if s + 66 > nominal), default=None)
        if covering is None:
            failures.append(f"no covering slot for nominal t={nominal}")
        else:
            expected.append(covering)
    need(expected == [11_200, 110_400, 211_200], f"covering walk gave {expected}")
    reports = [
        r for r in records
        if r["kind"] == "frame_tx" and r["frame"] == "link_measurement_report"
    ]
    need(len(reports) == 3, f"{len(reports)} report transmissions")
    emitted = [r["t"] for r in reports]
    need(emitted == expected, f"emitted at {emitted}, expected {expected}")
    requests = [
        r for r in records
        if r["kind"].startswith("frame") and "request" in str(r.get("frame", ""))
    ]
    need(not requests, f"{len(requests)} measurement request frames on air")
    verdict("periodic reports on covering BASIC slots", failures,
            f"3 reports at {expected} us, zero request frames")


def test_09_tpc_converges_and_respects_limits(tmp_path, capsys):
    failures, need = checker()
    trace_path = tmp_path / "tpc.jsonl"
    rc = main(["run", "--config", str(SCENARIOS / "tpc.yaml"), "--trace", str(trace_path)])
    capsys.readouterr()
    need(rc == 0, f"exit code {rc}")
    records = [json.loads(l) for l in trace_path.read_text().splitlines()]
    target = 13.642
    updates = [r["power_dbm"] for r in records if r["kind"] == "tpc_update"]
    need(len(updates) >= 3, f"{len(updates)} power updates")
    need(updates[:3] == [7.0, 4.0, 1.0], f"power walk {updates[:3]}")
    rsni = [
        r["rsni_db"] for r in records
        if r["kind"] == "frame_tx" and r["frame"] == "link_measurement_report"
    ]
    within = [i for i, v in enumerate(rsni) if abs(v - target) <= 3.0 + 1e-9]
    need(bool(within) and within[0] + 1 <= 4,
         f"reports within 3 dB of target: {within[:1] or 'none'}")

    rng = random.Random(987)
    escaped = 0
    for _ in range(400):
        lo = rng.uniform(-12.0, 2.0)
        hi = lo + rng.uniform(4.0, 25.0)
        limits = PowerLimits(min_dbm=lo, max_dbm=hi)
        power = rng.uniform(lo, hi)
        goal = rng.uniform(5.0, 25.0)
        measured = goal + rng.uniform(-15.0, 15.0)
        step = rng.uniform(0.5, 6.0)
        for _ in range(12):
            new = tpc_update(power, measured, goal, limits, max_step_db=step)
            if not (lo - 1e-9 <= new <= hi + 1e-9):
                escaped += 1
            measured += new - power
            power = new
    need(escaped == 0, f"{escaped} fuzzed steps escaped the power limits")
    first = f"report #{within[0] + 1}" if within else "never"
    verdict("transmit power control convergence and limits", failures,
            f"walk {updates[:3]}, in-band at {first}, 400 fuzz cases clean")


def test_10_same_seed_replays_are_byte_identical(tmp_path, capsys):
    failures, need = checker()
    fixtures = sorted(SCENARIOS.glob("*.yaml"))
    need(len(fixtures) >= 7, f"{len(fixtures)} fixtures found")
    for fixture in fixtures:
        outs = []
        for attempt in range(2):
            tp = tmp_path / f"{fixture.stem}-{attempt}.jsonl"
            mp = tmp_path / f"{fixture.stem}-{attempt}.csv"
            rc = main([
                "run", "--config", str(fixture), "--trace", str(tp), "--metrics", str(mp),
                "--seed", "7", "--duration-ms", "50",
            ])
            stdout = capsys.readouterr().out
            if rc != 0:
                failures.append(f"{fixture.name}: exit {rc}")
                break
            outs.append((tp.read_bytes(), mp.read_bytes(), stdout))
        if len(outs) == 2 and outs[0] != outs[1]:
            failures.append(f"{fixture.name}: replay differs")
    verdict("same-seed replays byte-identical", failures,
            f"{len(fixtures)} fixtures x 2 runs")
