import heapq
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tddsim import channel, cli, engine
from tddsim import trace as trace_module
from tddsim.beamforming import TrainedLink
from tddsim.channel import LinkBudgetConfig, link_snr_db
from tddsim.config import ScenarioConfig, parse_config
from tddsim.controller import DemandSpec, assign_slots, build_interference_graph
from tddsim.domain import DEFAULT_MCS_TABLE, McsEntry, mcs_from_snr
from tddsim.engine import (
    EventQueue,
    MaintenanceSettings,
    TrafficSource,
    World,
    metrics_to_csv,
    run_until,
    ticks_per_us,
)
from tddsim.errors import SimulationError, StructureError
from tddsim.frames import FrameSizes
from tddsim.maintenance import ReportSchedule
from tddsim.schedule import (
    Direction,
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    intervals,
)
from tddsim.trace import TraceRecorder

from conftest import SCENARIOS, make_ap, make_node

CHANNEL = LinkBudgetConfig()
MPDU_BITS = (1500 + 40) * 8
PROP_100M = Fraction(333564, 10**6)  # 100 m quantized to integer picoseconds
RATE = Fraction(4_620_000_000, 10**6)  # MCS12 bits per microsecond
DL = "ap-sta:downlink"
DEFAULT_TPU = 622_083_000_000  # ticks per us for the default MCS table and frame sizes


def build_world(
    *,
    traffic=None,
    duration_us=25600,
    maintenance=None,
    report_schedules=None,
    trace=None,
    doctor=None,
    demands=None,
    structure=None,
    link_m=100.0,
):
    """One AP-STA pair `link_m` apart, with a parallel pair 30 m away whose
    activations conflict with it in the graph, for slot-doctoring
    experiments."""
    structure = structure or ScenarioConfig().build_structure()
    ap = make_ap("ap")
    sta = make_node("sta", position=(link_m, 0.0))
    ap2 = make_ap("ap2", position=(0.0, 30.0))
    sta2 = make_node("sta2", position=(link_m, 30.0))
    nodes = {n.node_id: n for n in (ap, sta, ap2, sta2)}
    trained = [TrainedLink("ap", "sta", 0, 4, 22.64), TrainedLink("ap2", "sta2", 0, 4, 22.64)]
    graph = build_interference_graph(nodes, trained, [], CHANNEL)
    demands = demands or [DemandSpec("ap-sta", Direction.DOWNLINK, 4.2e9)]
    plan = assign_slots(graph, demands, structure)
    if doctor:
        doctor(plan)
    return World(
        nodes, CHANNEL, plan,
        traffic=traffic or {DL: TrafficSource("saturated")},
        maintenance=maintenance,
        report_schedules=report_schedules,
        beacon_interval_us=25600,
        sp_duration_us=25600,
        duration_us=duration_us,
        trace=trace,
    )


def _handler(world, now, tag):
    pass


def test_event_queue_orders_and_rejects_past():
    q = EventQueue()
    q.push(5, _handler, ("a",))
    q.push(5, _handler, ("b",))
    q.push(3, _handler, ("c",))
    popped = [q.pop() for _ in range(3)]
    assert [(tick, args) for tick, _, _, args in popped] == [
        (3, ("c",)),
        # Equal ticks preserve scheduling order.
        (5, ("a",)),
        (5, ("b",)),
    ]
    assert all(handler is _handler for _, _, handler, _ in popped)
    assert not q.heap
    with pytest.raises(SimulationError):
        q.push(4, _handler, ("d",))


def test_tick_rate_of_the_default_table():
    assert ticks_per_us(DEFAULT_MCS_TABLE, FrameSizes(), {}) == DEFAULT_TPU
    world = build_world()
    assert world.tpu == DEFAULT_TPU
    assert world.runtimes[DL].prop == PROP_100M * DEFAULT_TPU


@pytest.mark.parametrize("rate_bps, tpu", [
    # A 12320-bit gap is 4106 2/3 us at 3 Mbit/s: the table's 1155 Mbit/s
    # airtimes already need thirds, so the grid stays.
    (3e6, DEFAULT_TPU),
    # At 13 Mbit/s it is 947 9/13 us, a denominator the table lacks.
    (13e6, 13 * DEFAULT_TPU),
])
def test_cbr_gap_sets_the_tick_grid(rate_bps, tpu):
    world = build_world(traffic={DL: TrafficSource("cbr", rate_bps=rate_bps)})
    assert world.tpu == tpu
    gap = Fraction(MPDU_BITS * 10**6, int(rate_bps))
    assert (gap * world.tpu).denominator == 1
    metrics = run_until(world)
    # Arrivals at 0, gap, 2 gap, ... through the end of the run at 25600 us.
    arrivals = math.floor(Fraction(25600) / gap) + 1
    assert metrics.per_link[DL].offered_bits == arrivals * MPDU_BITS
    assert metrics.conservation_ok()


def fraction_ticks_per_us(mcs_table, frame_sizes, traffic):
    """The tick rate of `ticks_per_us` as the lcm of `Fraction` denominators."""
    data_bits = frame_sizes.data_total_bits
    frame_bits = (data_bits, frame_sizes.ack * 8, frame_sizes.measurement_report * 8)
    spans = [(bits, e.phy_rate_bps) for bits in frame_bits for e in mcs_table]
    spans += [(data_bits, s.rate_bps) for s in traffic.values() if s.pattern == "cbr"]
    return math.lcm(10**6, *(
        Fraction(bits * 10**6, int(rate)).denominator for bits, rate in spans
    ))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    mcs_rates=st.lists(st.integers(1, 10**11), max_size=4),
    cbr_rates=st.lists(st.integers(1, 10**10) | st.floats(1, 1e10), max_size=3),
    sizes=st.tuples(*(st.integers(1, 9000) for _ in range(4))),
)
def test_tick_rate_equals_the_fraction_reference(mcs_rates, cbr_rates, sizes):
    frames = FrameSizes(*sizes)
    for table in (DEFAULT_MCS_TABLE, [McsEntry(i, 0.0, r) for i, r in enumerate(mcs_rates)]):
        for traffic in ({}, {f"l{i}": TrafficSource("cbr", rate_bps=r) for i, r in enumerate(cbr_rates)}):
            for frame_sizes in (FrameSizes(), frames):
                expected = fraction_ticks_per_us(table, frame_sizes, traffic)
                assert ticks_per_us(table, frame_sizes, traffic) == expected


def modules_loaded_by_importing_the_cli() -> set[str]:
    """Every module a fresh `import tddsim.cli` of the package under test loads."""
    src = str(pathlib.Path(engine.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, tddsim.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return set(loaded.split())


def test_importing_the_cli_does_not_load_fractions():
    loaded = modules_loaded_by_importing_the_cli()
    assert "tddsim.cli" in loaded
    assert "fractions" not in loaded


def test_importing_the_cli_loads_no_dataclasses():
    # The records are plain classes and NamedTuples, so no class is
    # decorated at import.
    loaded = modules_loaded_by_importing_the_cli()
    assert "dataclasses" not in loaded
    assert {name for name in loaded if name.split(".")[0] == "tddsim"} == {
        "tddsim", "tddsim.beamforming", "tddsim.channel", "tddsim.cli", "tddsim.config",
        "tddsim.controller", "tddsim.domain", "tddsim.engine", "tddsim.errors",
        "tddsim.frames", "tddsim.maintenance", "tddsim.schedule", "tddsim.trace",
    }


def test_airtime_off_the_tick_grid_raises():
    # The grid is derived from the world's own rates, so only a rate changed
    # after construction can leave it; the engine then refuses to round.
    world = build_world()
    rt = world.runtimes[DL]
    rt.mcs = rt.mcs._replace(phy_rate_bps=4_620_000_007)
    with pytest.raises(SimulationError, match="whole number of ticks"):
        run_until(world)


def test_whole_mpdu_airtime_off_the_tick_grid_is_refused_when_the_world_is_built(monkeypatch):
    # 12,320 bits at 4.62 Gbit/s take 2.6667 us, a whole number of ticks on
    # no grid of one tick per picosecond: the World refuses to be built.
    monkeypatch.setattr(engine, "ticks_per_us", lambda *args: 10**6)
    with pytest.raises(SimulationError, match="whole number of ticks"):
        build_world()


def test_cbr_gap_off_the_tick_grid_raises():
    world = build_world(traffic={DL: TrafficSource("cbr", rate_bps=1e6)})
    world.runtimes[DL].source.rate_bps = 999_983.0  # prime
    with pytest.raises(SimulationError, match="whole number of ticks"):
        run_until(world)


def test_link_budget_is_evaluated_once_per_link(monkeypatch):
    # Each node pair's link-table entries compute their path loss once, when
    # the first of its two orders is asked for.
    builds = []
    real = channel.path_loss_db
    monkeypatch.setattr(
        channel, "path_loss_db", lambda *args: builds.append(args) or real(*args)
    )
    schedules = {DL: ReportSchedule(accepted=True, emission_times_us=(1600, 3200, 4800))}
    for tpc in (False, True):
        trace = TraceRecorder()
        world = build_world(
            maintenance=MaintenanceSettings(tpc_enabled=tpc, tpc_target_rsni_db=10.0),
            report_schedules=schedules, trace=trace,
        )
        builds.clear()  # planning reads tables of its own
        metrics = run_until(world)
        assert metrics.per_link[DL].completed_mpdus > 0
        assert bool(trace.iter_kind("tpc_update")) == tpc
        # One geometry for the data direction and the ack path; power
        # changes are read through their entries.
        assert len(builds) == 1


def test_traffic_source_validation():
    with pytest.raises(ValueError):
        TrafficSource("burst")
    # CBR gaps are counted in whole bits per second.
    for rate_bps in (0.0, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="at least 1 bit/s"):
            TrafficSource("cbr", rate_bps=rate_bps)
    assert TrafficSource("cbr", rate_bps=1.0).rate_bps == 1.0
    assert TrafficSource("none").rate_bps == 0.0


def test_world_rejects_unknown_or_unservable_traffic():
    with pytest.raises(ValueError):
        build_world(traffic={"ghost:downlink": TrafficSource("saturated")})


def test_saturated_delivery_is_exactly_window_times_rate():
    world = build_world()
    metrics = run_until(world)
    link = metrics.per_link[DL]
    # 16 intervals x 22 DATA slots, each usable for (66 - prop) us at 4620 bits/us.
    expected = 16 * 22 * (66 - PROP_100M) * RATE
    assert link.delivered_bits == pytest.approx(float(expected), rel=1e-12)
    assert link.delivered_mpdu_bits == link.completed_mpdus * MPDU_BITS
    assert link.delivered_payload_bits == link.completed_mpdus * 1500 * 8
    assert link.dropped_bits == 0
    assert metrics.conservation_ok()
    # Goodput within the payload fraction of the granted rate.
    goodput = metrics.goodput_bps(DL)
    assert goodput > 4.0e9 * (1500 / 1540)
    util = metrics.slot_utilization["data"]
    assert util == pytest.approx(1.0, abs=1e-9)


def test_acks_start_exactly_at_basic_slot_starts():
    trace = TraceRecorder()
    world = build_world(trace=trace)
    run_until(world)
    acks = [r for r in trace.iter_kind("frame_tx") if r["frame"] == "block_ack"]
    assert acks
    for ack in acks:
        # The single uplink BASIC slot opens each 1.6 ms interval.
        assert ack["t"] % 1600 == 0
        assert ack["covered"]
    # Every decoded MPDU is covered exactly once, in order.
    covered = [seq for ack in acks for seq in ack["covered"]]
    assert covered == sorted(set(covered))
    rx = trace.iter_kind("frame_rx")
    decoded = {
        r["data_seq"] for r in rx
        if r["frame"] == "data" and r["outcome"] == "decoded" and r["last_fragment"]
    }
    # The final interval's receptions never see another BASIC slot.
    assert set(covered) <= decoded
    missing = decoded - set(covered)
    assert all(
        any(r["data_seq"] == seq and r["t"] > 24000 for r in rx
            if r["frame"] == "data" and r["last_fragment"])
        for seq in missing
    )


def test_ack_delay_never_exceeds_one_interval():
    world = build_world()
    metrics = run_until(world)
    delays = metrics.per_link[DL].ack_delay_us
    assert delays
    assert max(delays) < 1600


def test_cbr_arrivals_latency_and_conservation():
    world = build_world(
        traffic={DL: TrafficSource("cbr", rate_bps=1e6)},
    )
    metrics = run_until(world)
    link = metrics.per_link[DL]
    # One 12320-bit MPDU every 12320 us: arrivals at 0, 12320 and 24640.
    assert link.offered_bits == 3 * MPDU_BITS
    assert link.completed_mpdus == 3
    assert link.queued_bits == 0
    assert metrics.conservation_ok()
    # First arrival at t=0 waits out the BASIC slot, then ships in slot 1:
    # 66 us wait + 8/3 us airtime + propagation.
    expected_first = float(66 + Fraction(8, 3) + PROP_100M)
    assert link.latency_us[0] == pytest.approx(expected_first, abs=1e-9)
    assert max(link.latency_us) < 1600 + 66


def test_all_slots_interfered_blocks_all_delivery():
    def doctor(plan):
        for idx, links in list(plan.schedule.slot_links.items()):
            if links == (DL,):
                plan.schedule.slot_links[idx] = (DL, "ap2-sta2:downlink")

    trace = TraceRecorder()
    world = build_world(doctor=doctor, trace=trace)
    metrics = run_until(world)
    link = metrics.per_link[DL]
    assert link.delivered_mpdu_bits == 0
    assert link.completed_mpdus == 0
    assert link.dropped_bits == 0  # without acks nothing is ever given up
    assert metrics.conservation_ok()
    outcomes = {
        r["outcome"] for r in trace.iter_kind("frame_rx") if r["frame"] == "data"
    }
    assert outcomes == {"interfered"}
    # No decode ever happens, so no ack is ever formed.
    assert not [r for r in trace.iter_kind("frame_tx") if r["frame"] == "block_ack"]


def test_single_dirty_slot_retries_recover_everything():
    def doctor(plan):
        plan.schedule.slot_links[23] = (DL, "ap2-sta2:downlink")

    trace = TraceRecorder()
    world = build_world(doctor=doctor, trace=trace)
    metrics = run_until(world)
    link = metrics.per_link[DL]
    # Frames caught in the dirty slot are retried at the next interval head
    # where the slots are clean, so every loss is recovered. An MPDU sends
    # one last fragment per attempt, so a retried one shows two.
    attempts = Counter(
        r["data_seq"] for r in trace.iter_kind("frame_tx")
        if r["frame"] == "data" and r["link"] == DL and r["last_fragment"]
    )
    assert max(attempts.values()) >= 2
    assert link.dropped_bits == 0
    assert link.completed_mpdus > 300
    assert metrics.conservation_ok()


def dirty_all_but_slot_13(plan):
    for idx, links in list(plan.schedule.slot_links.items()):
        if links == (DL,) and idx != 13:
            plan.schedule.slot_links[idx] = (DL, "ap2-sta2:downlink")


def test_mostly_dirty_slots_exhaust_retries_into_drops():
    trace = TraceRecorder()
    world = build_world(doctor=dirty_all_but_slot_13, trace=trace)
    metrics = run_until(world)
    link = metrics.per_link[DL]
    # Only slot 13 decodes; retries land back in dirty slots and get dropped
    # after their single retry.
    assert link.dropped_bits > 0
    assert link.dropped_bits % MPDU_BITS == 0
    assert link.completed_mpdus > 0
    assert metrics.conservation_ok()
    drops = trace.iter_kind("frame_drop")
    assert drops and all(d["reason"] == "retry exhausted" for d in drops)
    assert link.dropped_bits == len(drops) * MPDU_BITS


def test_frame_drops_stamped_behind_now_stream_in_order():
    # A frame_drop carries the BASIC slot its ack was formed in, behind the
    # time it is recorded; the interval-lagged flush must still place it
    # exactly where sorting the whole run would.
    streamed, whole = TraceRecorder(), TraceRecorder()
    whole.advance = lambda watermark_us: None
    for trace in (streamed, whole):
        run_until(build_world(doctor=dirty_all_but_slot_13, trace=trace))
        trace.close()
    assert streamed.iter_kind("frame_drop")
    assert streamed.to_jsonl() == whole.to_jsonl()


def test_frame_drop_formed_before_a_maintenance_tick_is_still_written():
    # The only BASIC slot is the last microsecond of each interval (1599,
    # 3199, ... us). At 300 m its block ack arrives after the next
    # maintenance tick, so a frame_drop it causes, stamped at the slot start,
    # lands behind that tick; the recorder's watermark must lag the tick.
    late_basic = TddSlotStructure(1, 1600, tuple(
        SlotSpec(i * 66, 66, SlotCategory.DATA) for i in range(23)
    ) + (SlotSpec(1599, 1, SlotCategory.BASIC),))
    trace = TraceRecorder()
    world = build_world(
        structure=late_basic, link_m=300.0, doctor=dirty_all_but_slot_13, trace=trace,
    )
    metrics = run_until(world)
    drops = trace.iter_kind("frame_drop")
    assert any(d["t"] % 1600 == 1599 and d["t"] >= 1600 for d in drops)
    assert metrics.per_link[DL].dropped_bits == len(drops) * MPDU_BITS
    assert metrics.conservation_ok()


def interfered_reverse_basic_slot(plan):
    # Slot 0 is the downlink's only BASIC slot; its uplink now shares it with
    # the parallel pair's, and the two conflict.
    plan.schedule.slot_links[0] = ("ap-sta:uplink", "ap2-sta2:uplink")


@pytest.mark.parametrize("doctor, outcome", [
    (None, "decoded"), (interfered_reverse_basic_slot, "interfered"),
], ids=["clear", "interfered"])
def test_report_emissions_ride_the_reverse_basic_slot(doctor, outcome):
    trace = TraceRecorder()
    schedules = {DL: ReportSchedule(accepted=True, emission_times_us=(1600, 8000))}
    world = build_world(report_schedules=schedules, trace=trace, doctor=doctor)
    metrics = run_until(world)
    reports = [
        r for r in trace.iter_kind("frame_tx") if r["frame"] == "link_measurement_report"
    ]
    assert len(reports) == 2
    ack_airtime = float(Fraction(16 * 8 * 10**6, 4_620_000_000))
    # The block ack opens the slot; the report follows immediately after.
    assert reports[0]["t"] == pytest.approx(1600 + ack_airtime, abs=1e-3)
    assert reports[1]["t"] == pytest.approx(8000 + ack_airtime, abs=1e-3)
    assert [r["report_seq"] for r in reports] == [0, 1]
    assert reports[0]["rcpi_dbm"] == pytest.approx(-48.013, abs=1e-3)
    assert reports[0]["rsni_db"] == pytest.approx(22.642, abs=1e-3)
    received = [
        r for r in trace.iter_kind("frame_rx") if r["frame"] == "link_measurement_report"
    ]
    assert [(r["report_seq"], r["outcome"]) for r in received] == [(0, outcome), (1, outcome)]
    # Every control frame of the slot reads its interference, the block ack
    # that opens it and the report that follows alike.
    control = [r for r in trace.iter_kind("frame_rx") if r["frame"] != "data"]
    assert len(control) > len(received) and all(r["t"] % 1600 < 66 for r in control)
    assert {r["outcome"] for r in control} == {outcome}
    assert metrics.conservation_ok()


def test_a_control_frame_goes_only_in_the_slot_it_was_due(monkeypatch):
    """A BASIC slot whose reverse path has no MCS sends none of its control
    frames, and none of them is sent in a later slot."""
    trace = TraceRecorder()
    schedules = {DL: ReportSchedule(accepted=True, emission_times_us=(1600, 8000))}
    world = build_world(report_schedules=schedules, trace=trace, link_m=300.0)
    tick = engine._on_maintenance_tick
    powers = {1600: -10.0, 3200: 10.0}  # the STA's, set by the tick at each time

    def fading_tick(world, now):
        tick(world, now)
        if now // world.tpu in powers:
            world.nodes["sta"].set_tx_power(powers[now // world.tpu])

    monkeypatch.setattr(engine, "_on_maintenance_tick", fading_tick)
    run_until(world)
    sent = [r for r in trace.iter_kind("frame_tx") if r["frame"] != "data"]
    reports = [r for r in sent if r["frame"] == "link_measurement_report"]
    assert [(r["report_seq"], r["t"] // 1600) for r in reports] == [(0, 5)]
    # The maintenance tick runs after the slot boundary and before its
    # control frames, so the slot at 1600 finds the uplink below MCS 0.
    assert not [r for r in sent if 1600 <= r["t"] < 1666]
    assert [r["t"] for r in sent if 3200 <= r["t"] < 3266] == [3200.0]


def test_tpc_walks_power_toward_target():
    trace = TraceRecorder()
    snr0 = link_snr_db(make_ap("ap"), 0, make_node("sta", position=(100.0, 0.0)), 4, CHANNEL)
    maintenance = MaintenanceSettings(
        tpc_enabled=True, tpc_target_rsni_db=snr0 - 9.0, tpc_max_step_db=3.0,
    )
    schedules = {
        DL: ReportSchedule(accepted=True, emission_times_us=tuple(range(1600, 11200, 1600))),
    }
    world = build_world(maintenance=maintenance, report_schedules=schedules, trace=trace)
    run_until(world)
    updates = [r["power_dbm"] for r in trace.iter_kind("tpc_update")]
    assert len(updates) >= 3
    assert updates[0] == pytest.approx(7.0, abs=1e-6)
    assert updates[1] == pytest.approx(4.0, abs=1e-6)
    assert updates[2] == pytest.approx(1.0, abs=1e-6)
    for later in updates[3:]:
        assert later == pytest.approx(1.0, abs=1e-6)
    assert world.nodes["ap"].tx_power_dbm == pytest.approx(1.0, abs=1e-6)
    # Every budget the world's table gives is at the changed power.
    for rt in world.runtimes.values():
        for vertex in (rt.vertex, world.graph_vertices[rt.vertex.reverse_id]):
            tx, rx = world.nodes[vertex.tx_node], world.nodes[vertex.rx_node]
            fresh = link_snr_db(tx, vertex.tx_sector, rx, vertex.rx_sector, CHANNEL)
            assert world.links.snr_db(tx, vertex.tx_sector, rx, vertex.rx_sector) == fresh
    # Reports go out at the MCS of the reverse path's current budget.
    rt = world.runtimes[DL]
    reverse = world.graph_vertices[rt.vertex.reverse_id]
    entry = mcs_from_snr(world.mcs_table, link_snr_db(
        world.nodes[reverse.tx_node], reverse.tx_sector,
        world.nodes[reverse.rx_node], reverse.rx_sector, CHANNEL,
    ))
    flight_us = (
        world.frame_sizes.measurement_report * 8 * 10**6 / entry.phy_rate_bps + rt.prop / world.tpu
    )
    sent = {
        r["report_seq"]: r["t"]
        for r in trace.iter_kind("frame_tx") if r["frame"] == "link_measurement_report"
    }
    received = [
        r for r in trace.iter_kind("frame_rx") if r["frame"] == "link_measurement_report"
    ]
    assert len(received) == len(sent) == 6
    for r in received:
        assert r["t"] - sent[r["report_seq"]] == pytest.approx(flight_us, abs=2e-3)


def test_keepalive_kills_silent_link():
    trace = TraceRecorder()
    maintenance = MaintenanceSettings(
        keepalive_timeout_us=3000, heartbeat_period_us=10**9,
    )
    schedules = {DL: ReportSchedule(accepted=True, emission_times_us=(1600, 6400))}
    world = build_world(
        traffic={DL: TrafficSource("none")},
        maintenance=maintenance,
        report_schedules=schedules,
        trace=trace,
    )
    metrics = run_until(world)
    assert {vid for vid, rt in world.runtimes.items() if rt.dead} == {DL}
    dead = trace.iter_kind("link_dead")
    assert len(dead) == 1
    # The last refresh is the t=0 heartbeat; death lands on the first
    # maintenance tick strictly past the timeout.
    assert dead[0]["t"] == 3200
    # The report scheduled before death went out; the one after did not.
    reports = [
        r for r in trace.iter_kind("frame_tx") if r["frame"] == "link_measurement_report"
    ]
    assert [r["t"] for r in reports] == [1600.0]
    assert metrics.per_link[DL].offered_bits == 0


def test_keepalive_boundary_tick_is_alive():
    # The t=0 heartbeat is the last refresh: the tick exactly one timeout
    # later keeps the link, the next one kills it.
    trace = TraceRecorder()
    maintenance = MaintenanceSettings(keepalive_timeout_us=3200, heartbeat_period_us=10**9)
    world = build_world(traffic={DL: TrafficSource("none")}, maintenance=maintenance, trace=trace)
    run_until(world)
    assert [r["t"] for r in trace.iter_kind("link_dead")] == [4800]


def test_maintenance_settings_refuse_a_non_positive_timeout():
    for timeout_us in (0, -1):
        with pytest.raises(ValueError, match="keep-alive timeout must be positive"):
            MaintenanceSettings(keepalive_timeout_us=timeout_us)


def test_heartbeats_keep_idle_link_alive():
    maintenance = MaintenanceSettings(
        keepalive_timeout_us=3000, heartbeat_period_us=1600,
    )
    world = build_world(traffic={DL: TrafficSource("none")}, maintenance=maintenance)
    run_until(world)
    assert {vid for vid, rt in world.runtimes.items() if rt.dead} == set()


def test_metrics_csv_shape():
    world = build_world(duration_us=1600)
    metrics = run_until(world)
    csv = metrics_to_csv(metrics)
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "link,offered_bits,delivered_bits,delivered_payload_bits,dropped_bits,"
        "queued_bits,completed_mpdus,goodput_mbps,max_latency_us,mean_ack_delay_us"
    )
    assert len(lines) == 2
    assert lines[1].startswith("ap-sta:downlink,")
    assert len(lines[1].split(",")) == 10


def test_goodput_is_over_the_span_that_was_run():
    # Cut at 1,970 us, saturated_dl has delivered 655 MPDUs of 12,000
    # payload bits, over 1,970 us and not over its configured 300 ms.
    vid = "dn1-cn1:downlink"
    cut = run_until(scenario_world("saturated_dl"), 1970)
    assert (cut.duration_us, cut.per_link[vid].delivered_payload_bits) == (1970, 7_860_000)
    assert cut.goodput_bps(vid) == 7_860_000 / (1970 * 1e-6)
    assert metrics_to_csv(cut).splitlines()[1].split(",")[7] == "3989.848"
    full = run_until(scenario_world("saturated_dl"))
    assert full.duration_us == 300_000
    assert metrics_to_csv(full).splitlines()[1].split(",")[7] == "4052.240"
    # A trained scenario cut at its epoch, or before it, has run no time.
    world = scenario_world("two_node_dl")
    assert world.epoch_us > 0
    for metrics in (run_until(world, world.epoch_us), run_until(scenario_world("two_node_dl"), 0)):
        assert metrics.duration_us == 0
        assert metrics.goodput_bps(vid) == 0.0
        assert metrics_to_csv(metrics).splitlines()[1].split(",")[7] == "0.000"


def short_slots_scenario(slot_us, stations) -> dict:
    """Saturated downlinks from dn1 to `stations`, (id, position, (AP
    sector, STA sector)) each, in 24 slots of `slot_us`, for 16 ms."""
    return {
        "name": "short_slots",
        "sim": {"duration_us": 16000, "beacon_interval_us": 25600, "sp_duration_us": 25600},
        "slot_structure": {"interval_us": 1600, "slot_us": slot_us, "n_slots": 24, "basic_slots": [0, 12]},
        "nodes": [
            {"id": "dn1", "role": "dn_ap", "position": [0.0, 0.0], "sectors": 8},
            *({"id": sid, "role": "cn_sta", "position": list(xy), "sectors": 8} for sid, xy, _ in stations),
        ],
        "beamforming": {"trained_links": [
            {"initiator": "dn1", "responder": sid, "initiator_sector": ap, "responder_sector": sta}
            for sid, _, (ap, sta) in stations
        ]},
        "traffic": [
            {"link": f"dn1-{sid}", "direction": "downlink", "demand_bps": 1.0e9, "pattern": "saturated"}
            for sid, _, _ in stations
        ],
    }


# name -> (slot_us, stations)
SHORT_SLOT_CASES = {
    # cn2's 2.335 µs delay exceeds the 2 µs slot; cn1's 0.334 µs does not.
    "near_and_far": (2, [("cn1", (100.0, 0.0), (0, 4)), ("cn2", (0.0, 700.0), (2, 6))]),
    # 1.001 µs of delay in a 1 µs slot: no link has any usable air.
    "all_far": (1, [("cn1", (300.0, 0.0), (0, 4))]),
}


@pytest.mark.parametrize("name", sorted(SHORT_SLOT_CASES))
def test_a_slot_shorter_than_the_delay_has_no_usable_air(name, tmp_path, capsys):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(short_slots_scenario(*SHORT_SLOT_CASES[name])))
    assert cli.main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    summary = json.loads(out)
    assert all(0.0 <= used <= 1.0 for used in summary["slot_utilization"].values()), summary
    if name == "near_and_far":
        # The near link fills its windows; the far one is planned but never sends.
        assert summary["slot_utilization"]["data"] == 1.0
        per_link = summary["per_link"]
        assert [per_link[f"dn1-{sid}:downlink"]["completed_mpdus"] for sid in ("cn1", "cn2")] == [31, 0]


def test_mean_ack_delay_is_exact_on_every_python():
    # Six delays of 0.0015 µs: a plain float sum rounds to 0.001 before
    # Python 3.12 and to 0.002 from 3.12 on; the exact mean writes 0.002.
    link = engine.LinkMetrics(0.0, 0.0, 0, 0, 0, 0.0, 0, [], [0.0015] * 6)
    metrics = engine.Metrics(1, {"ap-sta:downlink": link}, {})
    row = metrics_to_csv(metrics).splitlines()[1]
    assert row.split(",")[-1] == "0.002"


def test_same_seed_worlds_are_byte_identical():
    traces = []
    for _ in range(2):
        t = TraceRecorder()
        world = build_world(trace=t)
        run_until(world)
        traces.append(t.to_jsonl())
    assert traces[0] and traces[0] == traces[1]


def sparse_cbr_config(duration_us, report_span_us=None):
    """Like the benchmark's cbr_long: three sparse CBR links on two APs,
    periodic reports steering power, for the whole run (or the first
    `report_span_us` of it)."""
    report_span_us = report_span_us or duration_us
    return parse_config(yaml.safe_load(f"""
name: sparse_cbr
sim: {{duration_us: {duration_us}, beacon_interval_us: 25600, sp_duration_us: 25600}}
nodes:
  - {{id: dn0, role: dn_ap, position: [0.0, 0.0], sectors: 8}}
  - {{id: cn0, role: cn_sta, position: [0.0, 100.0], sectors: 8}}
  - {{id: cn1, role: cn_sta, position: [-100.0, 0.0], sectors: 8}}
  - {{id: dn1, role: dn_ap, position: [2000.0, 0.0], sectors: 8}}
  - {{id: cn2, role: cn_sta, position: [2000.0, 100.0], sectors: 8}}
beamforming:
  trained_links:
    - {{initiator: dn0, responder: cn0, initiator_sector: 2, responder_sector: 6}}
    - {{initiator: dn0, responder: cn1, initiator_sector: 4, responder_sector: 0}}
    - {{initiator: dn1, responder: cn2, initiator_sector: 2, responder_sector: 6}}
traffic:
  - {{link: dn0-cn0, direction: downlink, demand_bps: 5.0e+7, pattern: cbr, rate_bps: 1.0e+6, start_us: 300}}
  - {{link: dn0-cn1, direction: downlink, demand_bps: 5.0e+7, pattern: cbr, rate_bps: 3.0e+6, start_us: 70}}
  - {{link: dn1-cn2, direction: downlink, demand_bps: 5.0e+7, pattern: cbr, rate_bps: 5.0e+6, start_us: 1200}}
maintenance:
  tpc: {{enabled: true, target_rsni_db: 30.0, max_step_db: 3.0}}
  periodic_reports:
    - {{link: dn0-cn0, direction: downlink, start_us: 100, interval_us: 5000, count: {report_span_us // 5000 - 1}}}
    - {{link: dn1-cn2, direction: downlink, start_us: 7000, interval_us: 12000, count: {report_span_us // 12000 - 1}}}
"""))


class PeakQueue(EventQueue):
    """An event queue that remembers the longest its heap has been."""

    peak = 0

    def push(self, tick, handler, args):
        super().push(tick, handler, args)
        self.peak = max(self.peak, len(self.heap))


def test_heap_does_not_grow_with_simulated_time():
    peaks = []
    for duration_us in (320_000, 1_280_000):
        prep = cli.prepare_scenario(sparse_cbr_config(duration_us))
        world = cli.build_world(prep, cli.plan_scenario(prep), TraceRecorder())
        world.queue = PeakQueue()
        metrics = run_until(world)
        assert metrics.conservation_ok()
        assert len(world.trace.iter_kind("tpc_update")) > 0
        peaks.append(world.queue.peak)
    # Frames in flight and one CBR timer per link, not a slot per event.
    assert peaks[0] == peaks[1] < 20


class CountingQueue(EventQueue):
    """An event queue that counts the events pushed onto its heap."""

    pushes = 0

    def push(self, tick, handler, args):
        super().push(tick, handler, args)
        self.pushes += 1


def test_a_data_window_is_a_burst_not_an_event_pair_per_fragment():
    # 20 intervals of 22 saturated DATA windows send 11,274 fragments; the
    # per-fragment engine pushed 22,586 events for them.
    cfg = parse_config(yaml.safe_load((SCENARIOS / "saturated_dl.yaml").read_text()))
    cfg.sim.duration_us = 32_000
    prep = cli.prepare_scenario(cfg)
    trace = TraceRecorder()
    world = cli.build_world(prep, cli.plan_scenario(prep), trace)
    world.queue = CountingQueue()
    metrics = run_until(world)
    assert metrics.per_link["dn1-cn1:downlink"].completed_mpdus > 10_000
    assert len(trace.iter_kind("frame_tx")) > 11_000
    assert world.queue.pushes <= 2_259


def test_links_sharing_a_data_window_each_send_it_in_about_one_call(monkeypatch):
    # spatial_reuse's two saturated downlinks share every DATA window. A
    # burst runs up to the next heap event or timeline entry whatever the
    # other link does, so each link's window takes one `_on_data` call, and
    # a few more where a heap event falls inside it. When each burst
    # bounded the other, every call sent one fragment: 144,316 calls.
    calls = []
    on_data = engine._on_data
    monkeypatch.setattr(engine, "_on_data", lambda *args: calls.append(1) or on_data(*args))
    world = scenario_world("spatial_reuse")
    metrics = run_until(world)
    intervals = world.duration_us // world.structure.interval_duration_us
    windows = intervals * sum(len(row.runtimes) for row in world.slot_rows if not row.basic)
    assert windows == 64 * 22 * 2
    assert all(link.completed_mpdus > 20_000 for link in metrics.per_link.values())
    assert windows <= len(calls) <= 2 * windows


def saturated_dl_world(trace, duration_us):
    cfg = parse_config(yaml.safe_load((SCENARIOS / "saturated_dl.yaml").read_text()))
    cfg.sim.duration_us = duration_us
    prep = cli.prepare_scenario(cfg)
    return cli.build_world(prep, cli.plan_scenario(prep), trace)


def test_a_disabled_trace_gives_the_traced_result_without_building_rows():
    def run(trace):
        world = saturated_dl_world(trace, 9600)
        tracemalloc.start()
        try:
            return run_until(world), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(TraceRecorder(enabled=False))  # first-call allocations are not the bursts'
    (disabled, disabled_peak), (traced, traced_peak) = (
        run(TraceRecorder(enabled=False)), run(TraceRecorder()),
    )
    assert disabled == traced
    assert disabled.per_link["dn1-cn1:downlink"].completed_mpdus > 3000
    # The traced run holds about 7,000 rows; the disabled one builds none,
    # not even to drop them.
    assert disabled_peak * 4 < traced_peak


# name -> (build_world arguments, data outcomes). Saturated windows send
# runs, CBR MPDUs go whole one at a time, and the dirty world retries whole
# MPDUs.
WHOLE_CASES = {
    "saturated": ({}, {"decoded"}),
    "cbr": ({"traffic": {DL: TrafficSource("cbr", rate_bps=2.5e8)}}, {"decoded"}),
    "retries": ({"doctor": dirty_all_but_slot_13, "duration_us": 6400}, {"decoded", "interfered"}),
}


@pytest.mark.parametrize("case", sorted(WHOLE_CASES))
def test_whole_mpdu_rows_read_back_with_every_field(case):
    # Every whole MPDU's rows carry only their data_seq, and the queries
    # return the fields their shape fixes too, as the written lines hold them.
    kwargs, outcomes = WHOLE_CASES[case]
    trace = TraceRecorder()
    world = build_world(trace=trace, **{"duration_us": 3200, **kwargs})
    run_until(world)
    trace.close()
    records = trace.sorted_records()
    assert records == [json.loads(line) for line in trace.to_jsonl().splitlines()]
    rt = world.runtimes[DL]
    whole_shapes = {rt.whole_tx_shape, *rt.whole_rx_shapes}
    wholes = {seq for seq, rec in enumerate(trace._records) if rec[1] in whole_shapes}
    assert len(wholes) > {"saturated": 2000, "cbr": 100, "retries": 4000}[case]
    tx_fields = {"t", "kind", "seq", "node", "frame", "link", "mcs", "data_seq", "bits", "last_fragment"}
    for kind, fields in (("frame_tx", tx_fields), ("frame_rx", tx_fields - {"mcs"} | {"outcome"})):
        data = [r for r in trace.iter_kind(kind) if r["frame"] == "data"]
        rows = [r for r in data if r["seq"] in wholes]
        # Each row of a whole MPDU is in a whole MPDU's shape, and only those.
        assert rows == [r for r in data if r["bits"] == MPDU_BITS]
        assert rows and all(r.keys() == fields for r in rows)
        assert {(r["bits"], r["last_fragment"]) for r in rows} == {(float(MPDU_BITS), True)}
        assert {r.get("outcome", "decoded") for r in rows} == (outcomes if "outcome" in fields else {"decoded"})
        assert rows == [records[r["seq"]] for r in rows]
    sent = [r["data_seq"] for r in trace.iter_kind("frame_tx") if r["seq"] in wholes]
    assert (len(set(sent)) < len(sent)) == (case == "retries")  # whole retries


def test_a_world_runs_once():
    # A second call would walk the timeline again from the epoch, over the
    # state the first left behind.
    world = scenario_world("saturated_dl")
    run_until(world, 12_800)
    with pytest.raises(SimulationError, match="already run"):
        run_until(world)


def test_a_world_takes_its_slot_grid_from_its_plan():
    structure = ScenarioConfig().build_structure()
    world = build_world(structure=structure)
    assert world.structure is structure is world.plan.schedule.structure
    assert "structure" not in inspect.signature(World).parameters


def test_pending_holds_only_lost_mpdus():
    # A clean saturated run leaves nothing for an ack round to settle.
    for duration_us in (25_600, 102_400):
        world = build_world(duration_us=duration_us)
        metrics = run_until(world)
        assert metrics.per_link[DL].completed_mpdus > duration_us // 10
        assert world.runtimes[DL].pending == {}
    # With all DATA slots but one interfered, each MPDU left pending, alone
    # or in a run, had a fragment of its latest copy received interfered,
    # and the queue counts each at full size.
    trace = TraceRecorder()
    world = build_world(doctor=dirty_all_but_slot_13, trace=trace)
    metrics = run_until(world)
    rt = world.runtimes[DL]
    copies = {}  # data seq -> the outcomes of each copy's fragments
    for r in trace.iter_kind("frame_rx"):
        if r["frame"] == "data":
            copy = copies.setdefault(r["data_seq"], [[]])
            copy[-1].append(r["outcome"])
            if r["last_fragment"]:
                copy.append([])
    lost = [seq for first, entry in rt.pending.items()
            for seq in range(first, first + entry.count)]
    assert any(entry.count > 1 for entry in rt.pending.values())
    assert lost and all("interfered" in copies[seq][-2] for seq in lost)
    assert metrics.per_link[DL].queued_bits == (len(rt.queue) + len(lost)) * MPDU_BITS


def scenario_world(name):
    prep = cli.prepare_scenario(parse_config(yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())))
    return cli.build_world(prep, cli.plan_scenario(prep), TraceRecorder(enabled=False))


# name -> (a new World, cut times in us). trickle's MPDUs arrive 12,320 us
# apart and are in the air for a few microseconds about 66 us later.
CUT_CASES = {
    "saturated_dl": (lambda: scenario_world("saturated_dl"), st.integers(0, 6400)),
    "one_ap_two_sta": (lambda: scenario_world("one_ap_two_sta"), st.integers(0, 6400)),
    "trickle": (
        lambda: scenario_world("trickle"),
        st.builds(lambda k, us: 12_320 * k + us, st.integers(0, 2), st.integers(0, 80)),
    ),
    "dirty_saturated": (lambda: build_world(doctor=dirty_all_but_slot_13), st.integers(0, 6400)),
    "dirty_cbr": (
        lambda: build_world(
            doctor=dirty_all_but_slot_13, traffic={DL: TrafficSource("cbr", rate_bps=2.5e8)},
        ),
        st.integers(0, 6400),
    ),
}


def assert_balanced_at(world, cut_us):
    """Run `world` through `cut_us`; each link's bits balance exactly, and
    they are its MPDU counts at the World's frame sizes."""
    metrics = run_until(world, cut_us)
    assert metrics.conservation_ok()
    mpdu_bits, payload_bits = world.frame_sizes.data_total_bits, world.frame_sizes.data_payload * 8
    for vid, link in metrics.per_link.items():
        rt = world.runtimes[vid]
        assert link.offered_bits == rt.next_seq * mpdu_bits
        assert link.delivered_mpdu_bits == rt.completed_mpdus * mpdu_bits
        assert link.delivered_payload_bits == rt.completed_mpdus * payload_bits
        assert link.dropped_bits == rt.dropped_mpdus * mpdu_bits
        assert link.queued_bits == rt.queued_mpdus() * mpdu_bits
    return metrics


@pytest.mark.parametrize("case", sorted(CUT_CASES))
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_bits_are_conserved_wherever_a_run_is_cut(case, data):
    build, cuts = CUT_CASES[case]
    assert_balanced_at(build(), data.draw(cuts, label="cut_us"))


@pytest.mark.parametrize("cut_us", [347, 1970])
def test_a_clean_mpdu_in_flight_at_the_cut_is_still_queued(cut_us):
    # Inside a DATA window the run's latest MPDU is in the air: neither
    # delivered nor lost, it is the one MPDU counted as queued.
    world = scenario_world("saturated_dl")
    metrics = assert_balanced_at(world, cut_us)
    rt = world.runtimes["dn1-cn1:downlink"]
    assert rt.in_flight and not rt.pending and not rt.queue
    assert metrics.per_link["dn1-cn1:downlink"].queued_bits == MPDU_BITS


def test_report_scheduling_builds_only_the_reporters_basic_slots(monkeypatch):
    # The windows are read as far as each request's last report, so the
    # same requests read the same windows in a run four times as long.
    read = []
    handle = cli.handle_periodic_report_request

    def counted(req, windows):
        def reading():
            for window in windows:
                read.append(window)
                yield window
        return handle(req, reading())

    monkeypatch.setattr(cli, "handle_periodic_report_request", counted)
    counts = []
    for duration_us in (320_000, 1_280_000):
        read.clear()
        cfg = sparse_cbr_config(duration_us, report_span_us=320_000)
        prep = cli.prepare_scenario(cfg)
        plan = cli.plan_scenario(prep)
        schedules, warnings = cli.build_report_schedules(prep, plan)
        assert len(schedules) == 2 and not warnings
        vertices = plan.graph.by_id()
        reporters_basic = [
            index
            for r in cfg.maintenance.periodic_reports
            for index in (0, 12)
            if vertices[f"{r.link}:{r.direction}"].reverse_id in plan.schedule.slot_links[index]
        ]
        assert len(reporters_basic) == 2  # one BASIC slot per reverse path
        counts.append(len(read))
    assert counts[0] == counts[1]
    # At most the reporters' BASIC slots of the first 320 ms.
    assert 0 < counts[0] <= len(reporters_basic) * 320_000 // 1600


def test_slot_outside_its_interval_is_refused():
    # The timeline runs slot starts in interval order, which a slot past
    # its interval's end would break.
    slots = tuple(SlotSpec(i * 66, 66, SlotCategory.DATA) for i in range(23))
    structure = TddSlotStructure(1, 1600, slots + (SlotSpec(1590, 66, SlotCategory.BASIC),))
    with pytest.raises(StructureError, match="slot 23 .* exceeds interval 1600"):
        build_world(structure=structure)


def merged_timeline(world):
    """`engine._timeline` as it was built on `heapq.merge`: every slot start
    of every interval, merged with a maintenance tick per interval from the
    epoch through the end, slots first at equal ticks."""
    tpu = world.tpu
    t_end = world.epoch_us + world.duration_us
    sp_start_us = world.epoch_us + world.sp_offset_us

    def slots():
        runs = intervals(
            world.structure, sp_start_us, world.sp_duration_us, world.beacon_interval_us, t_end
        )
        for interval, base in runs:
            for row in world.slot_rows:
                start_us = base + row.offset_us
                yield start_us * tpu, engine._on_slot_boundary, (start_us, interval, row)

    interval_us = world.structure.interval_duration_us
    ticks = (
        (t * tpu, engine._on_maintenance_tick, ())
        for t in range(world.epoch_us, t_end + 1, interval_us)
    )
    return heapq.merge(slots(), ticks, key=itemgetter(0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    interval_us=st.sampled_from([1600, 1000, 7]),
    offsets=st.lists(st.integers(0, 999), min_size=1, max_size=5),
    per_sp=st.integers(1, 4),
    # 0: service periods back to back; others off the interval grid.
    beacon_gap_us=st.sampled_from([0, 1, 333, 1600, 4321]),
    sp_offset_us=st.integers(0, 5000),
    epoch_us=st.sampled_from([0, 777]),
    duration_us=st.integers(1, 40_000),
    tpu=st.sampled_from([1, 3]),
)
def test_timeline_is_the_merge_of_slot_starts_and_ticks(
    interval_us, offsets, per_sp, beacon_gap_us, sp_offset_us, epoch_us, duration_us, tpu,
):
    # Service periods off the tick grid, gaps between them, several
    # intervals each, and runs that end inside an interval.
    slots = tuple(SlotSpec(o % interval_us, 1, SlotCategory.DATA) for o in offsets)
    structure = TddSlotStructure(1, interval_us, slots)
    world = SimpleNamespace(
        tpu=tpu, epoch_us=epoch_us, duration_us=duration_us, structure=structure,
        sp_offset_us=sp_offset_us, sp_duration_us=per_sp * interval_us,
        beacon_interval_us=per_sp * interval_us + beacon_gap_us,
        # In start order; slots that start together keep index order.
        slot_rows=sorted(
            (SimpleNamespace(offset_us=spec.start_offset_us) for spec in slots),
            key=lambda row: row.offset_us,
        ),
    )
    assert list(engine._timeline(world)) == list(merged_timeline(world))


def test_line_formatters_are_compiled_per_field_layout_not_per_slot():
    # Each of the 24 slot indices has a shape of its own, with its fixed
    # fields written into its line writer, but the shapes of one field
    # layout share one compiled formatter.
    trace_module._formatter.cache_clear()
    trace = TraceRecorder()
    run_until(build_world(duration_us=3200, trace=trace))
    trace.to_jsonl()
    slot_shapes = [shape for shape in trace._shapes if shape[0] == "slot"]
    assert len(slot_shapes) == 24
    slot_layouts = {(names, tuple(fixed)) for _, names, fixed in slot_shapes}
    assert len(slot_layouts) <= 4  # with and without direction and links
    layouts = {(kind, names, tuple(fixed)) for kind, names, fixed in trace._shapes}
    assert trace_module._formatter.cache_info().misses == len(layouts)
