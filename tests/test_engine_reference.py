"""The burst engine against the per-fragment event engine it replaced.

`reference_run_until` is `engine.run_until` as it was when every data
fragment took two heap events, one for its transmission and one for its
reception. Its handlers below are copies of that engine's
`_on_slot_boundary`, `_on_data_tx`, `_on_data_rx` and `_on_arrival`, and of
`_on_block_ack_rx` and `_process_block_ack` with the receiver's `received`
set never pruned, kept on the world, and every MPDU sent kept in `pending`
until an ack round settles it. Its slot and data rows go through
`emitter`, a copy of the recorder's per-row writer of that time, and its
slot rows' fields are built from the plan as that engine built them.
Everything else (control frames, reports, maintenance ticks, the timeline,
metrics) is the engine's own.

Its heap orders events at equal ticks by one key, `place`, where that
engine took the order they were scheduled in: data receptions first, then
every other heap event in scheduling order, then data transmissions, and
data events of different links in the order that their bursts started. A
burst is one chain of transmissions, numbered from a per-world counter when
`_on_slot_boundary` or `_on_arrival` starts it; each data event carries its
burst's number. Slot boundaries and maintenance ticks run before all of
them, from the timeline. It is the rule that the burst engine states, and
applied here event by event, it checks that running each burst up to the
next heap event or timeline entry alone gives the same outputs.

Both engines run the same scenarios and must write byte-identical traces,
metrics CSV and stdout:

- generated ones, through the CLI: saturated, CBR and `none` links sharing
  DATA slots, CBR arrivals on slot starts and inside open windows,
  periodic reports with transmit power control, service periods off the
  maintenance-tick grid, and runs cut in the middle of a DATA window;
- hand-built plans whose activations interfere, so that fragments are
  lost, MPDUs are retried and dropped, acks are lost, and block acks and
  reports land inside DATA windows;
- long links at MCS 12, whose propagation delay is within 0.5 ns below one
  whole-MPDU airtime, so that a run's receptions and transmissions share
  trace times, or longer than it: generated scenarios, whose every metric
  sample must match too, with CBR arrivals inside runs, transmit power
  control on both directions and runs cut by `run_until`, and hand-built
  plans whose interfered runs are retried and dropped and whose block acks
  and reports land inside runs, one of them on the tick where a run would
  send its next MPDU.
"""

import contextlib
import heapq
import io
import json
import re

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from tddsim import cli, engine
from tddsim.beamforming import TrainedLink
from tddsim.channel import SPEED_OF_LIGHT_M_PER_US, LinkBudgetConfig, LinkTable
from tddsim.config import ScenarioConfig, parse_config
from tddsim.controller import DemandSpec, assign_slots, build_interference_graph
from tddsim.domain import NodeModel, Role, uniform_codebook
from tddsim.engine import MaintenanceSettings, TrafficSource, World, metrics_to_csv
from tddsim.frames import FrameSizes
from tddsim.maintenance import ReportSchedule
from tddsim.schedule import (
    Direction,
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
)
from tddsim.trace import TraceRecorder

from conftest import make_ap, make_node

# ---------------------------------------------------------------------------
# The reference engine.


class Mpdu(engine.Mpdu):
    """An MPDU that stays in `pending` from its last fragment's end at
    `tx_complete` until an ack round settles it."""

    __slots__ = ("tx_complete",)


def emitter(trace, kind, **first):
    """`emit(t_us, *values)`: one row per call of the shape `first`
    registers, at the trace time `round(float(t_us), 3)`. A disabled
    recorder's emitter records nothing."""
    if not trace.enabled:
        return lambda t_us, *values: None
    shape = trace.shape(kind, **first)

    def emit(t_us, *values):
        trace.extend([(round(float(t_us), 3), shape, *values)])

    return emit


def slot_emitters(world):
    """Per slot index, its row's emitter and its fields' values after
    `interval`, as the plan gives them."""
    schedule, emitters = world.plan.schedule, {}
    for index, spec in enumerate(world.structure.slots):
        fields = {"category": spec.category.value}
        if index in schedule.slot_directions:
            fields["direction"] = schedule.slot_directions[index].value
        actives = schedule.slot_links.get(index, ())
        if actives:
            fields["links"] = tuple(actives)
        emit = emitter(world.trace, "slot", slot_index=index, interval=0, **fields)
        emitters[index] = (emit, tuple(fields.values()))
    return emitters


def place(handler, args, seq):
    """Where an event runs among the events at its tick: data receptions,
    then every other event in the order it was scheduled (`seq`), then data
    transmissions; data events of different links in the order that their
    bursts started, the number each carries last in `args`."""
    if handler is _on_data_rx:
        return 0, args[-1]
    if handler is _on_data_tx:
        return 2, args[-1]
    return 1, seq


class PlacedQueue(engine.EventQueue):
    """An event queue whose events at equal ticks run in `place` order."""

    def push(self, tick, handler, args):
        assert tick >= self.now
        heapq.heappush(self.heap, (tick, place(handler, args, self.seq), handler, args))
        self.seq += 1


def start_burst(world, rt, window_end):
    """Schedule `rt`'s first transmission of a window at the current tick,
    under the next burst number."""
    world.chained.add(rt)
    world.queue.push(world.queue.now, _on_data_tx, (rt, window_end, world.bursts_started))
    world.bursts_started += 1


def reference_run_until(world, t_end_us=None):
    if t_end_us is None:
        t_end_us = world.epoch_us + world.duration_us
    queue = world.queue = PlacedQueue()
    heap, pop = queue.heap, queue.pop
    t_end = t_end_us * world.tpu
    world.emit_slot = slot_emitters(world)
    world.emit_data_tx = emitter(
        world.trace, "frame_tx", node="", frame="data", link="", data_seq=0, bits=0.0,
        last_fragment=False, mcs=0,
    )
    world.emit_data_rx = emitter(
        world.trace, "frame_rx", node="", frame="data", link="", data_seq=0, bits=0.0,
        last_fragment=False, outcome="",
    )
    world.chained = set()  # runtimes with a transmit event pending
    world.bursts_started = 0
    world.received = {vid: set() for vid in world.runtimes}  # decoded seqs per link
    engine._start_arrivals(world)
    for tick, handler, args in engine._timeline(world):
        if tick > t_end:
            break
        while heap and heap[0][0] < tick:
            now, _, event, event_args = pop()
            REFERENCE.get(event, event)(world, now, *event_args)
        queue.now = tick
        REFERENCE.get(handler, handler)(world, tick, *args)
    while heap and heap[0][0] <= t_end:
        now, _, event, event_args = pop()
        REFERENCE.get(event, event)(world, now, *event_args)
    # The engine's `pending` holds only the lost ones, one `Lost` record
    # each here; it counts the clean ones still in flight from its
    # `in_flight`, which this engine leaves empty.
    for vid, rt in world.runtimes.items():
        received = world.received[vid]
        rt.pending = {
            seq: engine.Lost(seq, 1, mpdu.eligible, mpdu.tx_complete, mpdu.retried)
            for seq, mpdu in rt.pending.items()
            if mpdu.corrupted or seq not in received
        }
    return engine.collect_metrics(world, t_end_us)


def _on_slot_boundary(world, now, start_us, interval, row):
    emit, values = world.emit_slot[row.index]
    emit(start_us, row.index, interval, *values)
    if row.basic:
        due = world.report_due.get(start_us, ())
        for rt, window, interfered in row.runtimes:
            if rt.dead:
                continue
            controls = ("block_ack",) * bool(rt.rx_since_ack)
            controls += ("report",) * due.count(rt.vertex_id)
            if controls:
                world.usable_air[row.category] += window
                world.queue.push(now, engine._on_control_tx, (rt, now, controls, not interfered))
        return
    for rt, window, interfered in row.runtimes:
        if rt.dead:
            continue
        rt.interfered_now = interfered
        rt.active_until = now + window
        world.usable_air[row.category] += window
        if rt not in world.chained and (rt.saturated or rt.queue or rt.next_arrival == now):
            start_burst(world, rt, rt.active_until)


def _head_mpdu(rt, now):
    if rt.queue:
        head = rt.queue[0]
        if head.eligible <= now:
            return head
        return None
    if rt.saturated:
        mpdu = Mpdu(seq=rt.next_seq, eligible=now, remaining=rt.size_units)
        rt.next_seq += 1
        rt.queue.append(mpdu)
        return mpdu
    return None


def _on_data_tx(world, now, rt, window_end, burst):
    if now >= window_end:
        world.chained.discard(rt)
        return
    mpdu = _head_mpdu(rt, now)
    if mpdu is None:
        world.chained.discard(rt)
        return

    rate = int(rt.mcs.phy_rate_bps)
    frag = min(mpdu.remaining, (window_end - now) * rate)
    airtime = engine._whole_ticks(frag, rate)
    vertex = rt.vertex
    ok = (not rt.interfered_now) and world.links.snr_db(
        world.nodes[vertex.tx_node], vertex.tx_sector, world.nodes[vertex.rx_node], vertex.rx_sector,
    ) >= rt.mcs.min_snr_db
    if not ok:
        mpdu.corrupted = True
    mpdu.remaining -= frag
    last = mpdu.remaining == 0
    end = now + airtime
    if last:
        rt.queue.popleft()
        mpdu.tx_complete = end
        rt.pending[mpdu.seq] = mpdu

    bits = round(frag / world.units_per_bit, 3)
    world.emit_data_tx(
        now / world.tpu, vertex.tx_node, "data", rt.vertex_id, mpdu.seq, bits, last,
        rt.mcs.mcs_index,
    )
    world.used_air[SlotCategory.DATA.value] += airtime
    world.queue.push(end + rt.prop, _on_data_rx, (rt, mpdu, frag, bits, last, ok, burst))
    if end < window_end:
        world.queue.push(end, _on_data_tx, (rt, window_end, burst))
    else:
        world.chained.discard(rt)


def _on_data_rx(world, now, rt, mpdu, frag, bits, last, ok, burst):
    if ok:
        rt.delivered_fragment_units += frag
    world.emit_data_rx(
        now / world.tpu, rt.vertex.rx_node, "data", rt.vertex_id, mpdu.seq, bits, last,
        "decoded" if ok else "interfered",
    )
    if last and not mpdu.corrupted:
        world.last_rx[(rt.vertex.rx_node, rt.vertex.tx_node)] = now
        received = world.received[rt.vertex_id]
        if mpdu.seq not in received:
            received.add(mpdu.seq)
            rt.completed_mpdus += 1
            rt.latency_samples_us.append((now - mpdu.eligible) / world.tpu)
        rt.rx_since_ack.append((mpdu.seq, now))


def _on_block_ack_rx(world, now, rt, formed_at, ok):
    world.trace.record(
        now / world.tpu, "frame_rx", node=rt.vertex.tx_node, frame="block_ack",
        link=rt.vertex_id, outcome="decoded" if ok else "interfered",
    )
    if ok:
        world.last_rx[(rt.vertex.tx_node, rt.vertex.rx_node)] = now
        _process_block_ack(world, rt, formed_at)


def _process_block_ack(world, rt, formed_at):
    for seq in sorted(rt.pending):
        mpdu = rt.pending[seq]
        if mpdu.tx_complete + rt.prop >= formed_at:
            continue
        del rt.pending[seq]
        if seq in world.received[rt.vertex_id]:
            continue
        if mpdu.retried:
            rt.dropped_mpdus += 1
            world.trace.record(
                formed_at / world.tpu, "frame_drop", node=rt.vertex.tx_node,
                link=rt.vertex_id, data_seq=seq, reason="retry exhausted",
            )
        else:
            mpdu.retried = True
            mpdu.corrupted = False
            mpdu.remaining = rt.size_units
            mpdu.tx_complete = None
            if rt.queue and rt.queue[0].remaining < rt.size_units:
                rt.queue.insert(1, mpdu)
            else:
                rt.queue.appendleft(mpdu)


def _on_arrival(world, now, rt):
    mpdu = Mpdu(seq=rt.next_seq, eligible=now, remaining=rt.size_units)
    rt.next_seq += 1
    rt.queue.append(mpdu)
    if not rt.dead and rt not in world.chained and now < rt.active_until:
        start_burst(world, rt, rt.active_until)
    rt.next_arrival = now + engine._whole_ticks(rt.size_units, int(rt.source.rate_bps))
    world.queue.push(rt.next_arrival, _on_arrival, (rt,))


# The engine's handlers that the reference replaces, wherever they are
# scheduled from.
REFERENCE = {
    engine._on_slot_boundary: _on_slot_boundary,
    engine._on_arrival: _on_arrival,
    engine._on_block_ack_rx: _on_block_ack_rx,
}

# ---------------------------------------------------------------------------
# Generated scenarios, run through the CLI.

# One MPDU is (1500 + 40) * 8 = 12,320 bits: at 7.7 Mbit/s one arrives
# every 1600 us, once per TDD interval, at the same offset in each.
ONE_PER_INTERVAL_BPS = 7.7e6

link = st.fixed_dictionaries({
    "distance_m": st.sampled_from([37.5, 100.0, 100.0, 173.0, 400.0]),
    "direction": st.sampled_from(["downlink", "downlink", "uplink"]),
    "pattern": st.sampled_from(["saturated", "cbr", "cbr", "none"]),
    "rate_bps": st.sampled_from([ONE_PER_INTERVAL_BPS, 2.0e7, 3.0e7, 2.5e8, 1.0e9]),
    # Slot starts (0, 66, 792 us into an interval) and points inside windows.
    "start_us": st.sampled_from([0, 66, 101, 766, 792, 1234]),
})

scenario = st.fixed_dictionaries({
    "links": st.lists(link, min_size=2, max_size=3),
    # (sp_offset_us, sp_duration_us): back to back, or off the tick grid.
    "sp": st.sampled_from([(0, 25600), (700, 12800), (130, 6400)]),
    "duration_us": st.sampled_from([6400, 9600]),
    "reports": st.booleans(),
    # None runs to the end through the CLI; a number cuts the run that many
    # microseconds into the sixth DATA slot of an interval.
    "cut": st.sampled_from([None, None, 17, 40]),
    "cut_interval": st.integers(0, 2),
})


def scenario_yaml(s) -> str:
    """Pairs 2 km apart: no activation interferes with another, so the
    planner puts every link in every slot of its direction."""
    offset, sp_duration = s["sp"]
    nodes, trained, traffic = [], [], []
    for i, spec in enumerate(s["links"], 1):
        y = 2000.0 * i
        nodes += [
            f"  - {{id: dn{i}, role: dn_ap, position: [0.0, {y}], sectors: 8}}",
            f"  - {{id: cn{i}, role: cn_sta, position: [{spec['distance_m']}, {y}], sectors: 8}}",
        ]
        trained.append(
            f"    - {{initiator: dn{i}, responder: cn{i}, initiator_sector: 0, responder_sector: 4}}"
        )
        pattern = spec["pattern"]
        extra = f", rate_bps: {spec['rate_bps']!r}" if pattern == "cbr" else ""
        traffic.append(
            f"  - {{link: dn{i}-cn{i}, direction: {spec['direction']}, demand_bps: 1.0e+9, "
            f"pattern: {pattern}{extra}, start_us: {spec['start_us']}}}"
        )
    lines = [
        "name: generated",
        f"sim: {{duration_us: {s['duration_us']}, seed: 1, beacon_interval_us: 25600, "
        f"sp_offset_us: {offset}, sp_duration_us: {sp_duration}}}",
        "nodes:", *nodes,
        "beamforming:", "  trained_links:", *trained,
        "traffic:", *traffic,
    ]
    if s["reports"]:
        first = s["links"][0]["direction"]
        lines += [
            "maintenance:",
            "  tpc: {enabled: true, target_rsni_db: 30.0, max_step_db: 3.0}",
            "  periodic_reports:",
            f"    - {{link: dn1-cn1, direction: {first}, start_us: 500, interval_us: 1600, count: 2}}",
        ]
    return "\n".join(lines) + "\n"


def cli_outputs(text, tmp_path, run_until):
    """(trace, metrics CSV, stdout) of `tddsim run` with `run_until` as its engine."""
    config = tmp_path / "scenario.yaml"
    config.write_text(text)
    trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.csv"
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout):
        patch.setattr(cli, "run_until", run_until)
        rc = cli.main([
            "run", "--config", str(config), "--trace", str(trace), "--metrics", str(metrics),
        ])
    assert rc == cli.EXIT_OK
    return trace.read_text(), metrics.read_text(), stdout.getvalue()


def cut_outputs(text, t_end_us, run_until):
    """(trace, metrics CSV) of the scenario's world run through t_end_us."""
    prep = cli.prepare_scenario(parse_config(yaml.safe_load(text)))
    trace = TraceRecorder()
    world = cli.build_world(prep, cli.plan_scenario(prep), trace)
    metrics = run_until(world, t_end_us)
    trace.close()
    return trace.to_jsonl(), metrics_to_csv(metrics)


def flow_spec(distance_m, direction, pattern, rate_bps=ONE_PER_INTERVAL_BPS, start_us=0):
    return dict(
        distance_m=distance_m, direction=direction, pattern=pattern, rate_bps=rate_bps,
        start_us=start_us,
    )


# Scenarios whose trace rows at equal times come out in another order when
# data events go in the order that they were scheduled, and not in the
# order that their bursts started: receptions of links whose last fragments
# left at different ticks land on one slot start.
SATURATED_PAIR = dict(
    links=[flow_spec(100.0, "downlink", "saturated"), flow_spec(37.5, "downlink", "saturated")],
    sp=(0, 25600), duration_us=6400, reports=False, cut=None, cut_interval=0,
)


@example(s=SATURATED_PAIR)
@example(s=dict(
    links=[
        flow_spec(400.0, "downlink", "saturated", 1.0e9, 101),
        flow_spec(400.0, "downlink", "cbr", 2.0e7, 101),
    ],
    sp=(700, 12800), duration_us=9600, reports=True, cut=None, cut_interval=2,
))
@example(s=dict(
    links=[
        flow_spec(37.5, "uplink", "cbr", 1.0e9),
        flow_spec(100.0, "uplink", "saturated", 2.5e8, 766),
        flow_spec(100.0, "downlink", "saturated", start_us=792),
    ],
    sp=(700, 12800), duration_us=6400, reports=False, cut=17, cut_interval=1,
))
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(s=scenario)
def test_generated_scenarios_match_the_reference(s, tmp_path_factory):
    text = scenario_yaml(s)
    if s["cut"] is None:
        tmp_path = tmp_path_factory.mktemp("reference")
        ours = cli_outputs(text, tmp_path, engine.run_until)
        theirs = cli_outputs(text, tmp_path, reference_run_until)
    else:
        offset = s["sp"][0]
        t_end_us = offset + 1600 * s["cut_interval"] + 5 * 66 + s["cut"]
        ours = cut_outputs(text, t_end_us, engine.run_until)
        theirs = cut_outputs(text, t_end_us, reference_run_until)
    assert ours[0] and ours == theirs


# ---------------------------------------------------------------------------
# Hand-built plans with interference.

CHANNEL = LinkBudgetConfig()
DL, DL2 = "ap-sta:downlink", "ap2-sta2:downlink"


def doctored_world(
    *, traffic, doctor=None, structure=None, link_m=100.0, maintenance=None,
    report_schedules=None, duration_us=9600,
):
    """Two AP-STA pairs 30 m apart, whose activations conflict, on a plan
    `doctor` edits, as in test_engine."""
    structure = structure or ScenarioConfig().build_structure()
    nodes = {n.node_id: n for n in (
        make_ap("ap"), make_node("sta", position=(link_m, 0.0)),
        make_ap("ap2", position=(0.0, 30.0)), make_node("sta2", position=(link_m, 30.0)),
    )}
    trained = [TrainedLink("ap", "sta", 0, 4, 22.64), TrainedLink("ap2", "sta2", 0, 4, 22.64)]
    graph = build_interference_graph(nodes, trained, [], CHANNEL)
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 4.2e9),
               DemandSpec("ap2-sta2", Direction.DOWNLINK, 1e8)]
    plan = assign_slots(graph, demands, structure)
    if doctor:
        doctor(plan)
    return World(
        nodes, CHANNEL, plan, traffic=traffic, maintenance=maintenance,
        report_schedules=report_schedules, beacon_interval_us=25600,
        sp_duration_us=25600, duration_us=duration_us, trace=TraceRecorder(),
    )


def share_data_slots(indices):
    """A doctor that puts both downlinks in each DATA slot of `indices`."""
    def doctor(plan):
        for idx in indices:
            plan.schedule.slot_links[idx] = (DL, DL2)
    return doctor


def dirty_all_but_slot_13(plan):
    for idx, links in list(plan.schedule.slot_links.items()):
        if links == (DL,) and idx != 13:
            plan.schedule.slot_links[idx] = (DL, DL2)


def lose_acks(plan):
    # Both reverse paths share BASIC slot 0 and interfere; ap-sta's also owns
    # slot 12, so its block acks are lost and decoded in turn. DATA slots 1
    # and 3 are shared and lose fragments.
    share_data_slots((1, 3))(plan)
    plan.schedule.slot_links[0] = ("ap-sta:uplink", "ap2-sta2:uplink")
    plan.schedule.slot_links[12] = ("ap-sta:uplink",)


# The only BASIC slot is the last microsecond of each interval: at 300 m
# block acks and reports arrive inside the next interval's first DATA slot.
LATE_BASIC = TddSlotStructure(1, 1600, tuple(
    SlotSpec(i * 66, 66, SlotCategory.DATA) for i in range(23)
) + (SlotSpec(1599, 1, SlotCategory.BASIC),))

SATURATED_AND_CBR = {DL: ("saturated", 0.0), DL2: ("cbr", 3.0e7)}

CASES = {
    "dirty_slots_retry_and_drop": dict(
        traffic={DL: ("saturated", 0.0)}, doctor=dirty_all_but_slot_13,
    ),
    "shared_slots_saturated_and_cbr": dict(
        traffic=SATURATED_AND_CBR, doctor=share_data_slots(range(1, 12)),
    ),
    "lost_acks": dict(traffic=SATURATED_AND_CBR, doctor=lose_acks),
    "late_basic_block_acks_inside_data_windows": dict(
        traffic={DL: ("saturated", 0.0)}, structure=LATE_BASIC, link_m=300.0,
        doctor=dirty_all_but_slot_13,
    ),
    "late_basic_reports_steer_power_inside_data_windows": dict(
        traffic={DL: ("saturated", 0.0), DL2: ("cbr", 2.5e8)}, structure=LATE_BASIC,
        link_m=300.0, doctor=share_data_slots((5, 6)),
        maintenance=MaintenanceSettings(
            tpc_enabled=True, tpc_target_rsni_db=10.0, tpc_max_step_db=3.0,
        ),
        report_schedules={DL: ReportSchedule(True, tuple(1599 + 1600 * k for k in range(5)))},
    ),
}


def run_case(name, run_until, t_end_us=None):
    spec = dict(CASES[name])
    spec["traffic"] = {
        vid: TrafficSource(pattern, rate_bps=rate) for vid, (pattern, rate) in spec["traffic"].items()
    }
    world = doctored_world(**spec)
    metrics = run_until(world, t_end_us)
    world.trace.close()
    return world.trace.to_jsonl(), metrics_to_csv(metrics)


@pytest.mark.parametrize("t_end_us", [None, 4800 + 66 * 7 + 20])
@pytest.mark.parametrize("name", sorted(CASES))
def test_interfered_plans_match_the_reference(name, t_end_us):
    ours = run_case(name, engine.run_until, t_end_us)
    assert ours == run_case(name, reference_run_until, t_end_us)
    trace = ours[0]
    assert '"outcome": "interfered"' in trace


def test_the_hand_built_plans_retry_drop_and_steer_power():
    traces = {name: run_case(name, engine.run_until)[0] for name in CASES}
    assert '"kind": "frame_drop"' in traces["dirty_slots_retry_and_drop"]
    assert '"kind": "frame_drop"' in traces["late_basic_block_acks_inside_data_windows"]
    assert '"frame": "block_ack", "kind": "frame_rx", "link": "ap-sta:downlink", "node": "ap", ' \
        '"outcome": "interfered"' in traces["lost_acks"]
    assert '"kind": "tpc_update"' in traces["late_basic_reports_steer_power_inside_data_windows"]


# ---------------------------------------------------------------------------
# Runs of whole MPDUs on long links.

# At MCS 12 one MPDU takes 12,320 bits / 4,620 bits per us = 2.666667 us,
# which light covers in 799.4466 m: a link a little shorter receives each
# MPDU within 0.5 ns before the transmission two MPDUs later, and both
# round to one trace time.
MPDU_BITS = (1500 + 40) * 8
WHOLE_MPDU_M = MPDU_BITS / 4620 * SPEED_OF_LIGHT_M_PER_US
HALF_NS_M = 0.5e-3 * SPEED_OF_LIGHT_M_PER_US

long_distance = st.one_of(
    st.just(799.3866),  # propagation 2.666467 us
    st.floats(WHOLE_MPDU_M - HALF_NS_M, WHOLE_MPDU_M),
    st.sampled_from([WHOLE_MPDU_M + 0.01, 1000.0, 1599.3, 2700.0]),
)

long_scenario = st.fixed_dictionaries({
    "distance_m": long_distance,
    # The pair's uplink too, whose reports steer the power that the
    # downlink's block acks are sent at.
    "uplink": st.sampled_from([None, "saturated", "cbr"]),
    # A second pair, 2 km away, sharing the DATA slots.
    "second": st.sampled_from([None, "saturated", "cbr"]),
    "rate_bps": st.sampled_from([ONE_PER_INTERVAL_BPS, 3.0e7, 2.5e8]),
    "start_us": st.sampled_from([0, 101, 1234]),
    "reports": st.sampled_from([None, "downlink", "uplink"]),
    # Large steps take a node to its lowest power, and its links below MCS 12.
    "max_step_db": st.sampled_from([3.0, 12.0]),
    "cut": st.sampled_from([None, 3, 17, 40]),
    "cut_interval": st.integers(0, 2),
})


def long_scenario_yaml(s) -> str:
    """dn1-cn1 `distance_m` long with 40 dBi sectors at 20 dBm, at MCS 12
    out to 4 km, carrying a saturated downlink."""
    node = "  - {{id: {}, role: {}, position: [{!r}, {!r}], sectors: 8, " \
        "mainlobe_gain_dbi: 40.0, tx_power_dbm: 20.0}}"
    nodes = [node.format("dn1", "dn_ap", 0.0, 0.0), node.format("cn1", "cn_sta", s["distance_m"], 0.0)]
    trained = ["    - {initiator: dn1, responder: cn1, initiator_sector: 0, responder_sector: 4}"]

    def flow(link, direction, pattern):
        extra = f", rate_bps: {s['rate_bps']!r}" if pattern == "cbr" else ""
        return (
            f"  - {{link: {link}, direction: {direction}, demand_bps: 1.0e+9, "
            f"pattern: {pattern}{extra}, start_us: {s['start_us']}}}"
        )

    traffic = [flow("dn1-cn1", "downlink", "saturated")]
    if s["uplink"]:
        traffic.append(flow("dn1-cn1", "uplink", s["uplink"]))
    if s["second"]:
        nodes += [node.format("dn2", "dn_ap", 0.0, 2000.0), node.format("cn2", "cn_sta", 100.0, 2000.0)]
        trained.append("    - {initiator: dn2, responder: cn2, initiator_sector: 0, responder_sector: 4}")
        traffic.append(flow("dn2-cn2", "downlink", s["second"]))
    lines = [
        "name: long_link",
        "sim: {duration_us: 6400, seed: 1, beacon_interval_us: 25600, sp_offset_us: 0, "
        "sp_duration_us: 25600}",
        "nodes:", *nodes,
        "beamforming:", "  trained_links:", *trained,
        "traffic:", *traffic,
    ]
    if s["reports"] and (s["reports"] == "downlink" or s["uplink"]):
        lines += [
            "maintenance:",
            f"  tpc: {{enabled: true, target_rsni_db: 10.0, max_step_db: {s['max_step_db']!r}}}",
            "  periodic_reports:",
            f"    - {{link: dn1-cn1, direction: {s['reports']}, start_us: 0, interval_us: 800, count: 8}}",
        ]
    return "\n".join(lines) + "\n"


def long_outputs(text, t_end_us, run_until):
    """(trace, every metric, its samples included) of the scenario's world
    run through t_end_us, or to its end."""
    prep = cli.prepare_scenario(parse_config(yaml.safe_load(text)))
    trace = TraceRecorder()
    world = cli.build_world(prep, cli.plan_scenario(prep), trace)
    metrics = run_until(world, t_end_us)
    trace.close()
    return trace.to_jsonl(), metrics


# Reports on the uplink take cn1 to its lowest power, which its downlink's
# block acks are then sent at, at a lower MCS.
STEERED_ACKS = dict(
    distance_m=799.3866, uplink="cbr", second=None, rate_bps=2.5e8, start_us=0,
    reports="uplink", max_step_db=12.0, cut=None, cut_interval=0,
)


@example(s=STEERED_ACKS)
@example(s={**STEERED_ACKS, "distance_m": 2700.0, "uplink": "saturated", "cut": 40})
# Two where the order of the bursts' starts and the order of scheduling
# differ, as in the scenarios above.
@example(s=dict(
    distance_m=799.3866, uplink="saturated", second="saturated", rate_bps=ONE_PER_INTERVAL_BPS,
    start_us=1234, reports="uplink", max_step_db=3.0, cut=40, cut_interval=2,
))
@example(s=dict(
    distance_m=799.4393176635376, uplink="cbr", second="saturated", rate_bps=3.0e7,
    start_us=1234, reports=None, max_step_db=3.0, cut=None, cut_interval=1,
))
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(s=long_scenario)
def test_generated_long_links_match_the_reference(s):
    text = long_scenario_yaml(s)
    # Into the sixth DATA slot of an interval, inside its run.
    t_end_us = None if s["cut"] is None else 1600 * s["cut_interval"] + 5 * 66 + s["cut"]
    ours = long_outputs(text, t_end_us, engine.run_until)
    assert '"bits": 12320.0' in ours[0]
    assert ours == long_outputs(text, t_end_us, reference_run_until)


def test_steered_acks_change_their_mcs():
    # The reverse path's MCS is read again after its transmitter's power
    # changed: the downlink's block acks reach the AP later.
    trace, _ = long_outputs(long_scenario_yaml(STEERED_ACKS), None, engine.run_until)
    rows = [json.loads(line) for line in trace.splitlines()]
    assert any(r["kind"] == "tpc_update" and r["node"] == "cn1" for r in rows)
    sent = [r["t"] for r in rows if r["kind"] == "frame_tx" and r["frame"] == "block_ack"
            and r["link"] == "dn1-cn1:downlink"]
    got = [r["t"] for r in rows if r["kind"] == "frame_rx" and r["frame"] == "block_ack"
           and r["link"] == "dn1-cn1:downlink"]
    assert len({round(b - a, 3) for a, b in zip(sent, got)}) > 1


def long_link_world(
    *, link_m, traffic, doctor, structure=None, maintenance=None, report_schedules=None,
    frame_sizes=None,
):
    """`doctored_world`'s two conflicting pairs, `link_m` long, with 40 dBi
    sectors at 20 dBm, so that both links run at MCS 12."""
    codebook = uniform_codebook(8, 40.0)
    nodes = {node_id: NodeModel(node_id, role, position, codebook, 20.0) for node_id, role, position in (
        ("ap", Role.DN_AP, (0.0, 0.0)), ("sta", Role.CN_STA, (link_m, 0.0)),
        ("ap2", Role.DN_AP, (0.0, 30.0)), ("sta2", Role.CN_STA, (link_m, 30.0)),
    )}
    table = LinkTable(CHANNEL)
    trained = [
        TrainedLink(ap, sta, 0, 4, table.snr_db(nodes[ap], 0, nodes[sta], 4))
        for ap, sta in (("ap", "sta"), ("ap2", "sta2"))
    ]
    structure = structure or ScenarioConfig().build_structure()
    graph = build_interference_graph(nodes, trained, [], CHANNEL)
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 4.2e9),
               DemandSpec("ap2-sta2", Direction.DOWNLINK, 1e8)]
    plan = assign_slots(graph, demands, structure)
    doctor(plan)
    return World(
        nodes, CHANNEL, plan, traffic={
            vid: TrafficSource(pattern, rate_bps=rate) for vid, (pattern, rate) in traffic.items()
        },
        frame_sizes=frame_sizes, maintenance=maintenance, report_schedules=report_schedules,
        beacon_interval_us=25600, sp_duration_us=25600, duration_us=9600, trace=TraceRecorder(),
    )


# LATE_BASIC with its BASIC slot inside DATA slot 15 (990-1056 us): block
# acks are formed while that slot's run is in the air, and settle only the
# MPDUs received before.
MID_BASIC = LATE_BASIC._replace(
    slots=LATE_BASIC.slots[:-1] + (SlotSpec(1033, 1, SlotCategory.BASIC),),
)

LONG_CASES = {
    "dirty_runs_retry_and_drop": dict(
        traffic={DL: ("saturated", 0.0), DL2: ("cbr", 3.0e7)}, doctor=dirty_all_but_slot_13,
    ),
    "late_basic_acks_and_reports_inside_runs": dict(
        traffic={DL: ("saturated", 0.0), DL2: ("saturated", 0.0)}, structure=LATE_BASIC,
        doctor=share_data_slots((5, 6)),
        maintenance=MaintenanceSettings(
            tpc_enabled=True, tpc_target_rsni_db=10.0, tpc_max_step_db=3.0,
        ),
        report_schedules={DL: ReportSchedule(True, tuple(1599 + 1600 * k for k in range(5)))},
    ),
    "mid_window_acks_settle_part_of_a_run": dict(
        traffic={DL: ("saturated", 0.0)}, structure=MID_BASIC,
        doctor=share_data_slots((1, 15)),
    ),
}


def run_long_case(name, link_m, run_until, t_end_us):
    world = long_link_world(link_m=link_m, **LONG_CASES[name])
    metrics = run_until(world, t_end_us)
    world.trace.close()
    return world.trace.to_jsonl(), metrics


@pytest.mark.parametrize("t_end_us", [None, 4800 + 66 * 7 + 20])
@pytest.mark.parametrize("link_m", [799.3866, 1000.0])
@pytest.mark.parametrize("name", sorted(LONG_CASES))
def test_long_interfered_plans_match_the_reference(name, link_m, t_end_us):
    ours = run_long_case(name, link_m, engine.run_until, t_end_us)
    assert ours == run_long_case(name, link_m, reference_run_until, t_end_us)
    # Whole MPDUs were lost.
    assert re.search(
        r'"bits": 12320\.0, "data_seq": \d+, "frame": "data", "kind": "frame_rx", '
        r'"last_fragment": true, "link": "ap-sta:downlink", "node": "sta", "outcome": "interfered"',
        ours[0],
    )


# 65 us DATA slots less 1 us of delay at 299.792458 m hold 24 whole MPDUs,
# so each window is one run from its start. A block ack 8 us long at MCS
# 12, formed in the BASIC slot at 1599 us, is received exactly when the next
# interval's run starts its fourth MPDU.
WHOLE_WINDOWS = TddSlotStructure(1, 1600, tuple(
    SlotSpec(i * 65, 65, SlotCategory.DATA) for i in range(24)
) + (SlotSpec(1599, 1, SlotCategory.BASIC),))


def test_a_block_ack_received_where_a_run_sends_goes_first():
    def outputs(run_until):
        world = long_link_world(
            link_m=299.792458, traffic={DL: ("saturated", 0.0)}, doctor=dirty_all_but_slot_13,
            structure=WHOLE_WINDOWS, frame_sizes=FrameSizes(ack=4620),
        )
        metrics = run_until(world)
        world.trace.close()
        return world.trace.to_jsonl(), metrics

    ours = outputs(engine.run_until)
    assert ours == outputs(reference_run_until)
    rows = [json.loads(line) for line in ours[0].splitlines()]
    acks = [r["t"] for r in rows if r["kind"] == "frame_rx" and r["frame"] == "block_ack"]
    sent = {r["t"]: r["data_seq"] for r in rows if r["kind"] == "frame_tx" and r["frame"] == "data"}
    assert acks[:2] == [1608.0, 3208.0]
    # The run stops there: the retry that the ack queued goes before it resumes.
    assert all(sent[t] < sent[t - 8] for t in acks[:2])


def test_long_plans_retry_and_drop_runs_and_land_control_frames_inside_them():
    trace, _ = run_long_case("dirty_runs_retry_and_drop", 799.3866, engine.run_until, None)
    assert '"kind": "frame_drop"' in trace
    world = long_link_world(link_m=799.3866, **LONG_CASES["late_basic_acks_and_reports_inside_runs"])
    engine.run_until(world)
    rows = world.trace.sorted_records()
    # Block acks and reports are received between two MPDUs of one run.
    whole = sorted(
        r["t"] for r in rows
        if r["kind"] == "frame_tx" and r["frame"] == "data" and r["link"] == DL and r["bits"] == MPDU_BITS
    )
    control_rx = [r["t"] for r in rows if r["kind"] == "frame_rx" and r["frame"] != "data"]
    assert any(a < t < b < a + 2.7 for t in control_rx for a, b in zip(whole, whole[1:]))
    assert any(r["kind"] == "tpc_update" for r in rows)
