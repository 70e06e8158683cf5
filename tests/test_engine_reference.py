"""The burst engine against the per-fragment event engine it replaced.

`reference_run_until` is `engine.run_until` as it was when every data
fragment took two heap events, one for its transmission and one for its
reception. Its handlers below are copies of that engine's
`_on_slot_boundary`, `_on_data_tx`, `_on_data_rx` and `_on_arrival`, and of
`_on_block_ack_rx` and `_process_block_ack` with the receiver's `received`
set never pruned. Its slot and data rows go through `emitter`, a copy of
the recorder's per-row writer of that time, and its slot rows' fields are
built from the plan as that engine built them. Everything else (control
frames, reports, maintenance ticks, the timeline, metrics) is the engine's
own.

Both engines run the same scenarios and must write byte-identical traces,
metrics CSV and stdout:

- generated ones, through the CLI: saturated, CBR and `none` links sharing
  DATA slots, CBR arrivals on slot starts and inside open windows,
  periodic reports with transmit power control, service periods off the
  maintenance-tick grid, and runs cut in the middle of a DATA window;
- hand-built plans whose activations interfere, so that fragments are
  lost, MPDUs are retried and dropped, acks are lost, and block acks and
  reports land inside DATA windows.
"""

import contextlib
import io

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tddsim import cli, engine
from tddsim.beamforming import TrainedLink
from tddsim.channel import LinkBudgetConfig
from tddsim.config import parse_config
from tddsim.controller import DemandSpec, assign_slots, build_interference_graph
from tddsim.engine import MaintenanceSettings, TrafficSource, World, metrics_to_csv
from tddsim.maintenance import ReportSchedule
from tddsim.schedule import (
    Direction,
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    default_slot_structure,
)
from tddsim.trace import TraceRecorder

from conftest import make_ap, make_node

# ---------------------------------------------------------------------------
# The reference engine.


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


def reference_run_until(world, t_end_us=None):
    if t_end_us is None:
        t_end_us = world.epoch_us + world.duration_us
    queue = world.queue
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
    return engine.collect_metrics(world)


def _on_slot_boundary(world, now, start_us, interval, row):
    emit, values = world.emit_slot[row.index]
    emit(start_us, row.index, interval, *values)
    if row.basic:
        due = world.report_due.get(start_us, ())
        for rt, window, interfered in row.runtimes:
            if rt.dead:
                continue
            controls = ["block_ack"] if rt.rx_since_ack else []
            controls += ["report"] * due.count(rt.vertex_id)
            if controls:
                rt.control_queue.extend(controls)
                rt.interfered_now = interfered
                world.usable_air[row.category] += window
                world.queue.push(now, engine._on_control_tx, (rt, now))
        return
    for rt, window, interfered in row.runtimes:
        if rt.dead:
            continue
        rt.interfered_now = interfered
        rt.active_until = window_end = now + window
        world.usable_air[row.category] += window
        if rt not in world.chained and (rt.saturated or rt.queue or rt.next_arrival == now):
            world.chained.add(rt)
            world.queue.push(now, _on_data_tx, (rt, row.category, window_end))


def _head_mpdu(rt, now):
    if rt.queue:
        head = rt.queue[0]
        if head.eligible <= now:
            return head
        return None
    if rt.saturated:
        mpdu = engine.Mpdu(
            seq=rt.next_seq, size_bits=rt.size_bits, payload_bits=rt.payload_bits,
            eligible=now, remaining=rt.size_units,
        )
        rt.next_seq += 1
        rt.offered_bits += rt.size_bits
        rt.queue.append(mpdu)
        return mpdu
    return None


def _on_data_tx(world, now, rt, category, window_end):
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
    if mpdu.retried:
        rt.retx_units += frag

    bits = round(frag / world.units_per_bit, 3)
    world.emit_data_tx(
        now / world.tpu, vertex.tx_node, "data", rt.vertex_id, mpdu.seq, bits, last,
        rt.mcs.mcs_index,
    )
    world.used_air[category] += airtime
    world.queue.push(end + rt.prop, _on_data_rx, (rt, mpdu, frag, bits, last, ok))
    if end < window_end:
        world.queue.push(end, _on_data_tx, (rt, category, window_end))
    else:
        world.chained.discard(rt)


def _on_data_rx(world, now, rt, mpdu, frag, bits, last, ok):
    if ok:
        rt.delivered_fragment_units += frag
    world.emit_data_rx(
        now / world.tpu, rt.vertex.rx_node, "data", rt.vertex_id, mpdu.seq, bits, last,
        "decoded" if ok else "interfered",
    )
    if last and not mpdu.corrupted:
        world.last_rx[(rt.vertex.rx_node, rt.vertex.tx_node)] = now
        if mpdu.seq not in rt.received:
            rt.received.add(mpdu.seq)
            rt.completed_mpdus += 1
            rt.delivered_mpdu_bits += mpdu.size_bits
            rt.delivered_payload_bits += mpdu.payload_bits
            rt.latency_samples_us.append((now - mpdu.eligible) / world.tpu)
        rt.rx_since_ack.append((mpdu.seq, now))


def _on_block_ack_rx(world, now, rt, covered, formed_at, ok):
    world.trace.record(
        now / world.tpu, "frame_rx", node=rt.vertex.tx_node, frame="block_ack",
        link=rt.vertex_id, outcome="decoded" if ok else "interfered",
    )
    if ok:
        world.last_rx[(rt.vertex.tx_node, rt.vertex.rx_node)] = now
        _process_block_ack(world, rt, set(covered), formed_at)


def _process_block_ack(world, rt, covered, formed_at):
    for seq in sorted(rt.pending):
        mpdu = rt.pending[seq]
        if mpdu.tx_complete + rt.prop >= formed_at:
            continue
        if seq in covered:
            del rt.pending[seq]
        else:
            del rt.pending[seq]
            if seq in rt.received:
                continue
            if mpdu.retried:
                rt.dropped_bits += mpdu.size_bits
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
    mpdu = engine.Mpdu(
        seq=rt.next_seq, size_bits=rt.size_bits, payload_bits=rt.payload_bits,
        eligible=now, remaining=rt.size_units,
    )
    rt.next_seq += 1
    rt.offered_bits += rt.size_bits
    rt.queue.append(mpdu)
    if not rt.dead and rt not in world.chained and now < rt.active_until:
        world.chained.add(rt)
        world.queue.push(now, _on_data_tx, (rt, SlotCategory.DATA.value, rt.active_until))
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
    structure = structure or default_slot_structure(1)
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
        nodes, CHANNEL, plan, structure, traffic=traffic, maintenance=maintenance,
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
