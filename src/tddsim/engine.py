"""Deterministic discrete-event core.

Events are ordered by (tick, scheduling sequence) on an exact integer clock.
Each World fixes `tpu` ticks per microsecond once: the least common multiple
of the picosecond grid that propagation delays are quantized to and the
denominators of every frame airtime at every MCS rate and of every CBR gap.
Bit counts are integers in units of 1/(10**6 * tpu) bit, so a rate of R bit/s
moves exactly R units per tick and every airtime is an exact integer
division. Ticks and bit units become microseconds and bits only where values
leave the engine: the trace, the per-MPDU samples and the metrics.

Data MPDUs fragment across slot boundaries: a transmitter fills its usable
window (slot duration minus propagation delay) completely and resumes the
remainder in its next assigned slot. Receivers acknowledge with one delayed
BlockAck transmitted exactly at the start of their earliest subsequent BASIC
transmit slot; a missing sequence triggers at most one retransmission.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .channel import LinkBudgetConfig, LinkSample, LinkTable, propagation_delay_us
from .channel import link_snr_db  # noqa: F401  perfbench/layers.py hooks this name
from .controller import AssignmentResult, DirectedLink
from .domain import DEFAULT_MCS_TABLE, McsEntry, NodeModel, mcs_from_snr
from .errors import SimulationError, StructureError
from .frames import FrameSizes
from .maintenance import ReportSchedule, TpcFields, emit_link_measurement_report, tpc_update
from .schedule import (
    ExtendedScheduleEntry,
    SlotCategory,
    TddSlotStructure,
    intervals,
)
from .trace import TraceRecorder, null_recorder


class EventQueue:
    """Heap of (tick, seq, handler, args) entries; rejects past scheduling.

    The scheduling sequence breaks ties, so events at equal ticks run in
    the order they were pushed. It holds frames in flight and CBR timers;
    slot boundaries and maintenance ticks run from the lazy timeline of
    `run_until` instead.
    """

    def __init__(self):
        self.heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.now = 0

    def push(self, tick: int, handler: Callable, args: tuple) -> None:
        if tick < self.now:
            raise SimulationError(
                f"{handler.__name__} scheduled at tick {tick}, "
                f"before the current tick {self.now}"
            )
        heapq.heappush(self.heap, (tick, self._seq, handler, args))
        self._seq += 1

    def pop(self) -> tuple[int, int, Callable, tuple]:
        entry = heapq.heappop(self.heap)
        self.now = entry[0]
        return entry

    def __bool__(self) -> bool:
        return bool(self.heap)


def _whole_ticks(units: int, rate: int) -> int:
    """Ticks to send `units` bit units at `rate` units per tick; never rounds."""
    ticks, rest = divmod(units, rate)
    if rest:
        raise SimulationError(
            f"{units} bit units at {rate} per tick is not a whole number of ticks"
        )
    return ticks


# ---------------------------------------------------------------------------
# Traffic and per-link runtime state.


class Mpdu:
    __slots__ = (
        "seq", "size_bits", "payload_bits", "eligible", "remaining", "corrupted", "retried",
        "tx_complete",
    )

    def __init__(self, seq: int, size_bits: int, payload_bits: int, eligible: int, remaining: int):
        self.seq = seq
        self.size_bits = size_bits
        self.payload_bits = payload_bits
        self.eligible = eligible  # tick
        self.remaining = remaining  # bit units still to send
        self.corrupted = False
        self.retried = False
        self.tx_complete: Optional[int] = None  # tick its last fragment ended


class TrafficSource:
    __slots__ = ("pattern", "rate_bps", "start_us")

    def __init__(self, pattern: str, rate_bps: float = 0.0, start_us: int = 0):
        # "none" keeps the link scheduled (for control traffic) without data.
        if pattern not in ("saturated", "cbr", "none"):
            raise ValueError(f"unknown traffic pattern {pattern!r}")
        if pattern == "cbr" and not 1 <= rate_bps < math.inf:
            raise ValueError("cbr traffic needs a finite rate of at least 1 bit/s")
        self.pattern = pattern  # "saturated" | "cbr" | "none"
        self.rate_bps = rate_bps
        self.start_us = start_us


class LinkRuntime:
    """Mutable simulation state of one directed, demanded link activation.

    Times are ticks and fragment bit counts are bit units of the owning
    World; whole-MPDU counters are plain bits.
    """

    __slots__ = (
        "vertex", "mcs", "prop", "source", "size_bits", "payload_bits", "size_units",
        "vertex_id", "saturated", "next_arrival", "next_seq", "queue", "pending", "received",
        "rx_since_ack", "control_queue", "dead", "active_until", "chained", "interfered_now",
        "offered_bits", "delivered_fragment_units", "delivered_mpdu_bits",
        "delivered_payload_bits", "dropped_bits", "retx_units", "completed_mpdus",
        "latency_samples_us", "ack_delay_samples_us", "snr_samples", "report_seq",
    )

    def __init__(
        self, vertex: DirectedLink, mcs: McsEntry, prop: int, source: Optional[TrafficSource],
        size_bits: int, payload_bits: int, size_units: int,
    ):
        self.vertex = vertex
        self.mcs = mcs
        self.prop = prop  # ticks
        self.source = source
        self.size_bits = size_bits
        self.payload_bits = payload_bits
        self.size_units = size_units

        self.vertex_id = vertex.vertex_id
        self.saturated = source is not None and source.pattern == "saturated"
        self.next_arrival = -1  # tick of the next CBR arrival
        self.next_seq = 0
        self.queue = deque()
        self.pending = {}  # seq -> Mpdu awaiting ack
        self.received = set()  # decoded seqs at the receiver
        self.rx_since_ack = []  # (seq, rx tick)
        self.control_queue = deque()
        self.dead = False

        # transmit window of the currently active slot, if any
        self.active_until = 0
        self.chained = False
        self.interfered_now = False

        # counters
        self.offered_bits = 0
        self.delivered_fragment_units = 0
        self.delivered_mpdu_bits = 0
        self.delivered_payload_bits = 0
        self.dropped_bits = 0
        self.retx_units = 0
        self.completed_mpdus = 0
        self.latency_samples_us = []
        self.ack_delay_samples_us = []
        self.snr_samples = []  # (t_us, snr_db)
        self.report_seq = 0

    def queued_bits(self) -> int:
        # An MPDU counts at full size until it is delivered or dropped, so a
        # partially transmitted head still owes its whole frame here.
        backlog = sum(m.size_bits for m in self.queue)
        pending_undelivered = sum(
            m.size_bits for m in self.pending.values() if m.corrupted
        )
        return backlog + pending_undelivered


class MaintenanceSettings:
    __slots__ = (
        "keepalive_timeout_us", "heartbeat_period_us", "tpc_enabled", "tpc_target_rsni_db",
        "tpc_max_step_db",
    )

    def __init__(
        self, keepalive_timeout_us: int = 1_000_000, heartbeat_period_us: int = 25600,
        tpc_enabled: bool = False, tpc_target_rsni_db: float = 20.0, tpc_max_step_db: float = 3.0,
    ):
        if keepalive_timeout_us <= 0:
            raise ValueError("keep-alive timeout must be positive")
        self.keepalive_timeout_us = keepalive_timeout_us
        self.heartbeat_period_us = heartbeat_period_us
        self.tpc_enabled = tpc_enabled
        self.tpc_target_rsni_db = tpc_target_rsni_db
        self.tpc_max_step_db = tpc_max_step_db


# ---------------------------------------------------------------------------
# Metrics.


class LinkMetrics(NamedTuple):
    vertex_id: str
    offered_bits: float
    delivered_bits: float
    delivered_mpdu_bits: int
    delivered_payload_bits: int
    dropped_bits: int
    queued_bits: float
    retx_bits: float
    completed_mpdus: int
    latency_us: list[float]
    ack_delay_us: list[float]
    snr_db: list[tuple[float, float]]

    @property
    def max_latency_us(self) -> float:
        return max(self.latency_us) if self.latency_us else 0.0


class Metrics(NamedTuple):
    duration_us: int
    per_link: dict[str, LinkMetrics]
    slot_utilization: dict[str, float]  # category value -> used/usable
    bf_sweep_counts: dict[str, int]

    def goodput_bps(self, vertex_id: str) -> float:
        link = self.per_link[vertex_id]
        return link.delivered_payload_bits / (self.duration_us * 1e-6)

    def conservation_ok(self, tol_bits: float = 1e-6) -> bool:
        for link in self.per_link.values():
            balance = (
                link.delivered_mpdu_bits + link.dropped_bits + link.queued_bits
            )
            if abs(link.offered_bits - balance) > tol_bits:
                return False
        return True


# ---------------------------------------------------------------------------
# World.


def ticks_per_us(
    mcs_table: Sequence[McsEntry],
    frame_sizes: FrameSizes,
    traffic: dict[str, TrafficSource],
) -> int:
    """The tick rate on which every delay, airtime and gap is a whole number.

    The least common multiple of the picosecond grid of propagation delays
    and the denominators, in microseconds, of each data, ack and report
    frame's airtime at every MCS rate and of every CBR inter-arrival gap.
    """
    data_bits = frame_sizes.data_total_bits
    frame_bits = (data_bits, frame_sizes.ack * 8, frame_sizes.measurement_report * 8)
    spans = [(bits, int(e.phy_rate_bps)) for bits in frame_bits for e in mcs_table]
    spans += [(data_bits, int(s.rate_bps)) for s in traffic.values() if s.pattern == "cbr"]
    # rate / gcd is the denominator of bits * 10**6 / rate in lowest terms.
    return math.lcm(10**6, *(rate // math.gcd(bits * 10**6, rate) for bits, rate in spans))


class SlotRow(NamedTuple):
    """What every boundary of one slot index reads, built once per World."""

    index: int
    offset_us: int  # from the start of its interval
    basic: bool
    category: str
    # The slot record's fields after `interval`, and their values.
    names: tuple[str, ...]
    values: tuple
    # (runtime, transmit window in ticks, interfered): the demanded
    # activations of the slot, for a BASIC slot the data link of each
    # reverse path, in the plan's order.
    runtimes: tuple[tuple["LinkRuntime", int, bool], ...]


class World:
    """One self-contained simulation universe; shares nothing mutable."""

    def __init__(
        self,
        nodes: dict[str, NodeModel],
        channel_cfg: LinkBudgetConfig,
        plan: AssignmentResult,
        structure: TddSlotStructure,
        *,
        traffic: dict[str, TrafficSource],
        frame_sizes: Optional[FrameSizes] = None,
        mcs_table: Sequence[McsEntry] = DEFAULT_MCS_TABLE,
        maintenance: Optional[MaintenanceSettings] = None,
        report_schedules: Optional[dict[str, ReportSchedule]] = None,
        beacon_interval_us: int = 300_000,
        sp_offset_us: int = 0,
        sp_duration_us: int = 25_600,
        epoch_us: int = 0,
        duration_us: int = 300_000,
        trace: Optional[TraceRecorder] = None,
        bf_sweep_counts: Optional[dict[str, int]] = None,
    ):
        # Copies: transmit power control changes a node's power in this World only.
        self.nodes = {nid: node.copy() for nid, node in nodes.items()}
        self.links = LinkTable(channel_cfg)
        self.plan = plan
        self.graph_vertices = plan.graph.by_id()
        self.structure = structure
        self.frame_sizes = frame_sizes or FrameSizes()
        self.mcs_table = list(mcs_table)
        self.maintenance = maintenance or MaintenanceSettings()
        self.beacon_interval_us = beacon_interval_us
        self.sp_offset_us = sp_offset_us
        self.sp_duration_us = sp_duration_us
        self.epoch_us = epoch_us
        self.duration_us = duration_us
        self.trace = trace or null_recorder()
        # The positional writers of data frame_tx and frame_rx rows, which
        # `run_until` registers.
        self.emit_data_tx: Optional[Callable[..., None]] = None
        self.emit_data_rx: Optional[Callable[..., None]] = None
        self.queue = EventQueue()
        self.bf_sweep_counts = dict(bf_sweep_counts or {})
        self.tpu = ticks_per_us(self.mcs_table, self.frame_sizes, traffic)
        self.units_per_bit = 10**6 * self.tpu

        self.runtimes: dict[str, LinkRuntime] = {}
        for vid, source in traffic.items():
            if vid not in self.graph_vertices:
                raise ValueError(f"traffic references unknown link activation {vid}")
            vertex = self.graph_vertices[vid]
            entry = mcs_from_snr(self.mcs_table, vertex.snr_db)
            if entry is None:
                raise ValueError(f"{vid} cannot carry traffic below the lowest MCS")
            # Quantize to integer picoseconds, a whole number of ticks.
            prop_ps = round(
                propagation_delay_us(nodes[vertex.tx_node], nodes[vertex.rx_node]) * 10**6
            )
            self.runtimes[vid] = LinkRuntime(
                vertex=vertex,
                mcs=entry,
                prop=prop_ps * (self.tpu // 10**6),
                source=source,
                size_bits=self.frame_sizes.data_total_bits,
                payload_bits=self.frame_sizes.data_payload * 8,
                size_units=self.frame_sizes.data_total_bits * self.units_per_bit,
            )

        # Per-link measurement reporting: emission time -> vertex ids due.
        self.report_due: dict[int, list[str]] = {}
        if report_schedules:
            for vid, schedule in report_schedules.items():
                if not schedule.accepted:
                    continue
                for t in schedule.emission_times_us:
                    self.report_due.setdefault(t, []).append(vid)

        # keep-alive bookkeeping: (rx_node, tx_node) -> last decoded frame tick
        self.last_rx: dict[tuple[str, str], int] = {}
        self.dead_links: set[str] = set()

        self.slot_rows = self._slot_rows()

        # utilization accounting in ticks, per slot category
        self.used_air: dict[str, int] = {c.value: 0 for c in SlotCategory}
        self.usable_air: dict[str, int] = {c.value: 0 for c in SlotCategory}

    def _slot_rows(self) -> list[SlotRow]:
        """One row per slot index, in the order the slots start in an interval."""
        structure, schedule = self.structure, self.plan.schedule
        interval_us = structure.interval_duration_us
        conflicts = self.plan.graph.conflicts
        rows = []
        for index, spec in enumerate(structure.slots):
            if spec.start_offset_us < 0 or spec.start_offset_us + spec.duration_us > interval_us:
                raise StructureError(
                    f"slot {index} (+{spec.duration_us} at {spec.start_offset_us}) "
                    f"exceeds interval {interval_us}"
                )
            actives = schedule.slot_links.get(index, ())
            # A decode fails from interference on a conflict-graph edge to
            # another activation of the same slot.
            interfered = {a for a in actives for b in actives if a != b and conflicts(a, b)}
            basic = spec.category is SlotCategory.BASIC
            duration = spec.duration_us * self.tpu
            runtimes = []
            for vid in actives:
                if basic:  # the BASIC active is the reverse path of a data activation
                    reverse = self.graph_vertices.get(vid)
                    rt = reverse and self.runtimes.get(reverse.reverse_id)
                else:
                    rt = self.runtimes.get(vid)
                if rt is not None:
                    runtimes.append((rt, duration - rt.prop, vid in interfered))
            fields = {"category": spec.category.value}
            if index in schedule.slot_directions:
                fields["direction"] = schedule.slot_directions[index].value
            if actives:
                fields["links"] = tuple(actives)
            rows.append(SlotRow(
                index, spec.start_offset_us, basic, spec.category.value,
                tuple(fields), tuple(fields.values()), tuple(runtimes),
            ))
        rows.sort(key=lambda row: row.offset_us)  # stable: equal starts keep index order
        return rows

    # -- live channel queries ------------------------------------------------

    def link_sample(self, vertex: DirectedLink) -> LinkSample:
        """The link budget of `vertex` at its transmitter's current power."""
        return self.links.sample(
            self.nodes[vertex.tx_node], vertex.tx_sector,
            self.nodes[vertex.rx_node], vertex.rx_sector,
        )

    def current_snr_db(self, vertex: DirectedLink) -> float:
        return self.links.snr_db(
            self.nodes[vertex.tx_node], vertex.tx_sector,
            self.nodes[vertex.rx_node], vertex.rx_sector,
        )

    def control_rate_bps(self, vertex_id: str) -> float:
        entry = mcs_from_snr(self.mcs_table, self.current_snr_db(self.graph_vertices[vertex_id]))
        return float(entry.phy_rate_bps) if entry else 0.0


# ---------------------------------------------------------------------------
# The event loop. Every handler is called as handler(world, tick, *args).


def run_until(world: World, t_end_us: Optional[int] = None) -> Metrics:
    """Process events through t_end (default: the configured duration).

    Slot boundaries and maintenance ticks come from a lazy timeline, not
    the heap. At equal ticks a slot boundary runs first, then a
    maintenance tick, then heap events in the order they were pushed.

    The per-slot and per-fragment trace rows are written positionally,
    through emitters registered here, once per run.
    """
    if t_end_us is None:
        t_end_us = world.epoch_us + world.duration_us
    queue = world.queue
    heap, pop = queue.heap, queue.pop
    t_end = t_end_us * world.tpu
    world.emit_data_tx = world.trace.emitter(
        "frame_tx", node="", frame="data", link="", data_seq=0, bits=0.0,
        last_fragment=False, mcs=0,
    )
    world.emit_data_rx = world.trace.emitter(
        "frame_rx", node="", frame="data", link="", data_seq=0, bits=0.0,
        last_fragment=False, outcome="",
    )
    _start_arrivals(world)
    for tick, handler, args in _timeline(world):
        if tick > t_end:
            break
        while heap and heap[0][0] < tick:
            now, _, event, event_args = pop()
            event(world, now, *event_args)
        queue.now = tick
        handler(world, tick, *args)
    while heap and heap[0][0] <= t_end:
        now, _, event, event_args = pop()
        event(world, now, *event_args)
    return collect_metrics(world)


def _timeline(world: World) -> Iterator[tuple[int, Callable, tuple]]:
    """(tick, handler, args) of every slot boundary and maintenance tick, in order."""
    tpu = world.tpu
    t_end = world.epoch_us + world.duration_us
    first_sp = ExtendedScheduleEntry(
        world.structure.allocation_id, world.epoch_us + world.sp_offset_us,
        world.sp_duration_us,
    )
    # Each row's emitter writes (slot_index, interval, *row.values).
    rows = [
        (row, world.trace.emitter(
            "slot", slot_index=row.index, interval=0, **dict(zip(row.names, row.values)),
        ))
        for row in world.slot_rows
    ]

    def slots():
        for interval, base in intervals(first_sp, world.structure, world.beacon_interval_us, t_end):
            for row, emit in rows:
                start_us = base + row.offset_us
                yield start_us * tpu, _on_slot_boundary, (start_us, interval, row, emit)

    interval_us = world.structure.interval_duration_us
    ticks = (
        (t * tpu, _on_maintenance_tick, ())
        for t in range(world.epoch_us, t_end + 1, interval_us)
    )
    return heapq.merge(slots(), ticks, key=itemgetter(0))  # stable: slots first


def _start_arrivals(world: World) -> None:
    for rt in world.runtimes.values():
        if rt.source and rt.source.pattern == "cbr":
            first = max(world.epoch_us + rt.source.start_us, world.epoch_us)
            rt.next_arrival = first * world.tpu
            world.queue.push(rt.next_arrival, _on_arrival, (rt,))


def _on_slot_boundary(
    world: World, now: int, start_us: int, interval: int, row: SlotRow,
    emit: Callable[..., None],
) -> None:
    emit(start_us, row.index, interval, *row.values)
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
                world.queue.push(now, _on_control_tx, (rt, now))
        return
    for rt, window, interfered in row.runtimes:
        if rt.dead:
            continue
        rt.interfered_now = interfered
        rt.active_until = window_end = now + window
        world.usable_air[row.category] += window
        # A chain that would find nothing to send is not started; an
        # arrival on this very tick runs next and finds the chain started.
        if not rt.chained and (rt.saturated or rt.queue or rt.next_arrival == now):
            rt.chained = True
            world.queue.push(now, _on_data_tx, (rt, row.category, window_end))


def _head_mpdu(rt: LinkRuntime, now: int) -> Optional[Mpdu]:
    if rt.queue:
        head = rt.queue[0]
        if head.eligible <= now:
            return head
        return None
    if rt.saturated:
        mpdu = Mpdu(
            seq=rt.next_seq, size_bits=rt.size_bits, payload_bits=rt.payload_bits,
            eligible=now, remaining=rt.size_units,
        )
        rt.next_seq += 1
        rt.offered_bits += rt.size_bits
        rt.queue.append(mpdu)
        return mpdu
    return None


def _on_data_tx(
    world: World, now: int, rt: LinkRuntime, category: str, window_end: int
) -> None:
    if now >= window_end:
        rt.chained = False
        return
    mpdu = _head_mpdu(rt, now)
    if mpdu is None:
        rt.chained = False
        return

    rate = int(rt.mcs.phy_rate_bps)
    frag = min(mpdu.remaining, (window_end - now) * rate)
    airtime = _whole_ticks(frag, rate)
    ok = (not rt.interfered_now) and world.current_snr_db(rt.vertex) >= rt.mcs.min_snr_db
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
        now / world.tpu, rt.vertex.tx_node, "data", rt.vertex_id, mpdu.seq, bits, last,
        rt.mcs.mcs_index,
    )
    world.used_air[category] += airtime
    world.queue.push(end + rt.prop, _on_data_rx, (rt, mpdu, frag, bits, last, ok))
    if end < window_end:
        world.queue.push(end, _on_data_tx, (rt, category, window_end))
    else:
        rt.chained = False


def _on_control_tx(world: World, now: int, rt: LinkRuntime, slot_start: int) -> None:
    """Send one BlockAck or measurement report on the reverse path."""
    if not rt.control_queue:
        return
    what = rt.control_queue.popleft()
    vertex = rt.vertex
    rate_bps = world.control_rate_bps(vertex.reverse_id)
    if rate_bps <= 0:
        return
    rate = int(rate_bps)
    t_us = now / world.tpu
    ok = not rt.interfered_now

    if what == "block_ack":
        covered = tuple(seq for seq, _ in rt.rx_since_ack)
        for _, rx_t in rt.rx_since_ack:
            rt.ack_delay_samples_us.append((now - rx_t) / world.tpu)
        rt.rx_since_ack.clear()
        airtime = _whole_ticks(world.frame_sizes.ack * 8 * world.units_per_bit, rate)
        world.trace.record(
            t_us, "frame_tx", node=vertex.rx_node, frame="block_ack",
            link=rt.vertex_id, covered=list(covered),
        )
        world.queue.push(
            now + airtime + rt.prop, _on_block_ack_rx, (rt, covered, slot_start, ok)
        )
    else:
        report = emit_link_measurement_report(
            rt.vertex_id, world.link_sample(vertex), rt.report_seq,
            TpcFields(
                tx_power_dbm=world.nodes[vertex.tx_node].tx_power_dbm,
                target_rsni_db=world.maintenance.tpc_target_rsni_db,
                max_step_db=world.maintenance.tpc_max_step_db,
            ),
        )
        rt.report_seq += 1
        airtime = _whole_ticks(
            world.frame_sizes.measurement_report * 8 * world.units_per_bit, rate
        )
        world.trace.record(
            t_us, "frame_tx", node=vertex.rx_node, frame="link_measurement_report",
            link=rt.vertex_id, report_seq=report.sequence_number,
            rcpi_dbm=round(report.rcpi_dbm, 3), rsni_db=round(report.rsni_db, 3),
        )
        world.queue.push(now + airtime + rt.prop, _on_report_rx, (rt, report, ok))
    world.used_air[SlotCategory.BASIC.value] += airtime
    if rt.control_queue:
        world.queue.push(now + airtime, _on_control_tx, (rt, slot_start))


def _on_data_rx(
    world: World, now: int, rt: LinkRuntime, mpdu: Mpdu, frag: int, bits: float,
    last: bool, ok: bool,
) -> None:
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


def _on_block_ack_rx(
    world: World, now: int, rt: LinkRuntime, covered: tuple, formed_at: int, ok: bool
) -> None:
    world.trace.record(
        now / world.tpu, "frame_rx", node=rt.vertex.tx_node, frame="block_ack",
        link=rt.vertex_id, outcome="decoded" if ok else "interfered",
    )
    if ok:
        world.last_rx[(rt.vertex.tx_node, rt.vertex.rx_node)] = now
        _process_block_ack(world, rt, set(covered), formed_at)


def _on_report_rx(world: World, now: int, rt: LinkRuntime, report, ok: bool) -> None:
    world.trace.record(
        now / world.tpu, "frame_rx", node=rt.vertex.tx_node,
        frame="link_measurement_report",
        link=rt.vertex_id, report_seq=report.sequence_number,
        outcome="decoded" if ok else "interfered",
    )
    if ok:
        world.last_rx[(rt.vertex.tx_node, rt.vertex.rx_node)] = now
        rt.snr_samples.append((now / world.tpu, report.rsni_db))
        if world.maintenance.tpc_enabled:
            _apply_tpc(world, rt, report, now)


def _process_block_ack(world: World, rt: LinkRuntime, covered: set, formed_at: int) -> None:
    for seq in sorted(rt.pending):
        mpdu = rt.pending[seq]
        if mpdu.tx_complete + rt.prop >= formed_at:
            continue  # completed after the ack was formed; next round decides
        if seq in covered:
            del rt.pending[seq]
        else:
            del rt.pending[seq]
            if seq in rt.received:
                # Delivered earlier but the covering ack was lost; the copy
                # in flight resolves it, nothing is owed.
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
                # Requeue behind a partially transmitted head, else at the front.
                if rt.queue and rt.queue[0].remaining < rt.size_units:
                    rt.queue.insert(1, mpdu)
                else:
                    rt.queue.appendleft(mpdu)


def _apply_tpc(world: World, rt: LinkRuntime, report, now: int) -> None:
    tx_node = world.nodes[rt.vertex.tx_node]
    new_power = tpc_update(
        tx_node.tx_power_dbm,
        report.rsni_db,
        world.maintenance.tpc_target_rsni_db,
        tx_node.power_limits,
        world.maintenance.tpc_max_step_db,
    )
    if new_power != tx_node.tx_power_dbm:
        tx_node.set_tx_power(new_power)
        world.trace.record(
            now / world.tpu, "tpc_update", node=tx_node.node_id, link=rt.vertex_id,
            power_dbm=round(new_power, 3), measured_rsni_db=round(report.rsni_db, 3),
            target_rsni_db=world.maintenance.tpc_target_rsni_db,
        )


def _on_arrival(world: World, now: int, rt: LinkRuntime) -> None:
    mpdu = Mpdu(
        seq=rt.next_seq, size_bits=rt.size_bits, payload_bits=rt.payload_bits,
        eligible=now, remaining=rt.size_units,
    )
    rt.next_seq += 1
    rt.offered_bits += rt.size_bits
    rt.queue.append(mpdu)
    if not rt.dead and not rt.chained and now < rt.active_until:
        rt.chained = True
        world.queue.push(now, _on_data_tx, (rt, SlotCategory.DATA.value, rt.active_until))
    # Next arrival: one MPDU every size/rate seconds.
    rt.next_arrival = now + _whole_ticks(rt.size_units, int(rt.source.rate_bps))
    world.queue.push(rt.next_arrival, _on_arrival, (rt,))


def _on_maintenance_tick(world: World, now: int) -> None:
    settings = world.maintenance
    t_us = now // world.tpu  # maintenance ticks fall on whole microseconds
    # Every record still to come is stamped at most one slot behind `now`
    # (a frame_drop carries the BASIC slot its ack was formed in), so all
    # records a whole interval back are final.
    world.trace.advance(t_us - world.structure.interval_duration_us)
    heartbeat_due = (t_us - world.epoch_us) % settings.heartbeat_period_us == 0
    ticked_aps = set()
    for vid, rt in world.runtimes.items():
        vertex = rt.vertex
        if heartbeat_due and vertex.ap_id not in ticked_aps:
            ticked_aps.add(vertex.ap_id)
            world.trace.record(
                t_us, "announce", node=vertex.ap_id, elements=["heartbeat"],
                broadcast=True,
            )
        if heartbeat_due:
            # Broadcast heartbeats refresh every served STA's keep-alive.
            world.last_rx[(vertex.sta_id, vertex.ap_id)] = now
        last = world.last_rx.setdefault((vertex.sta_id, vertex.ap_id), now)
        # Dead only when strictly past the timeout; the boundary itself is alive.
        if t_us - last / world.tpu > settings.keepalive_timeout_us and not rt.dead:
            rt.dead = True
            world.dead_links.add(vid)
            world.trace.record(
                t_us, "link_dead", link=vid, node=vertex.sta_id,
                last_rx=round(last / world.tpu, 3),
            )


def collect_metrics(world: World) -> Metrics:
    per_link: dict[str, LinkMetrics] = {}
    for vid, rt in world.runtimes.items():
        per_link[vid] = LinkMetrics(
            vertex_id=vid,
            offered_bits=float(rt.offered_bits),
            delivered_bits=rt.delivered_fragment_units / world.units_per_bit,
            delivered_mpdu_bits=rt.delivered_mpdu_bits,
            delivered_payload_bits=rt.delivered_payload_bits,
            dropped_bits=rt.dropped_bits,
            queued_bits=float(rt.queued_bits()),
            retx_bits=rt.retx_units / world.units_per_bit,
            completed_mpdus=rt.completed_mpdus,
            latency_us=list(rt.latency_samples_us),
            ack_delay_us=list(rt.ack_delay_samples_us),
            snr_db=list(rt.snr_samples),
        )
    utilization = {}
    for category, usable in world.usable_air.items():
        used = world.used_air[category]
        utilization[category] = used / usable if usable else 0.0
    return Metrics(
        duration_us=world.duration_us,
        per_link=per_link,
        slot_utilization=utilization,
        bf_sweep_counts=dict(world.bf_sweep_counts),
    )


def metrics_to_csv(metrics: Metrics) -> str:
    """One row per link activation, suitable for spreadsheet import."""
    header = (
        "link,offered_bits,delivered_bits,delivered_payload_bits,dropped_bits,"
        "queued_bits,completed_mpdus,goodput_mbps,max_latency_us,mean_ack_delay_us"
    )
    rows = [header]
    for vid in sorted(metrics.per_link):
        link = metrics.per_link[vid]
        goodput = metrics.goodput_bps(vid) / 1e6
        mean_ack = (
            sum(link.ack_delay_us) / len(link.ack_delay_us)
            if link.ack_delay_us else 0.0
        )
        rows.append(
            f"{vid},{link.offered_bits:.0f},{link.delivered_bits:.3f},"
            f"{link.delivered_payload_bits},{link.dropped_bits},"
            f"{link.queued_bits:.3f},{link.completed_mpdus},"
            f"{goodput:.3f},{link.max_latency_us:.3f},{mean_ack:.3f}"
        )
    return "\n".join(rows) + "\n"
