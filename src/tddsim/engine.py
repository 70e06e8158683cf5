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
window (slot duration minus propagation delay, never below zero) completely
and resumes the remainder in its next assigned slot. Receivers acknowledge
with one delayed BlockAck transmitted exactly at the start of their earliest
subsequent BASIC transmit slot; a missing sequence triggers at most one
retransmission.

A runtime's data fragments run as a burst (`_on_data`), not as heap events.
Each fragment's transmission and reception still takes the place in the
event order that a heap event of its own would take: a scheduling sequence
number, taken from `EventQueue.seq` when that event would have been
pushed. One heap entry per runtime with fragments in flight stands for
the earliest of them; when it runs, the burst sends and receives fragments
for as long as each comes before the next heap event and the next timeline
tick, and then parks one entry at the fragment it stopped at. Nothing
another handler reads therefore changes early, trace rows at equal times
keep the order of the event loop, and the SNR check is read once per run of
the burst instead of once per fragment.

A saturated link's fresh MPDUs that fit whole in the window are sent as one
run: their transmit ticks, receive ticks and sequence numbers are an
arithmetic progression of one whole-MPDU airtime, fixed per runtime and
checked when the World is built, so a run is sent in one step and its
receptions wait in flight as one entry. Partial fragments, retries and CBR
MPDUs go one by one.

The transmitter settles each ack round from its own record. An MPDU's
copy is decoded exactly when none of its fragments was sent interfered or
below the MCS threshold (`corrupted`), so only lost MPDUs wait in `pending`,
one `Lost` record per lost fragmented MPDU or lost run, for the ack round that
sends them again or drops them.

Each link counts whole MPDUs, not bits: `collect_metrics` turns the counts
into bits once, at the World's frame sizes, and offered = delivered +
dropped + queued (`queued_mpdus`) holds exactly wherever `run_until` stops.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import repeat
from operator import itemgetter, sub, truediv
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .channel import LinkBudgetConfig, LinkTable, propagation_delay_us
from .channel import link_snr_db  # noqa: F401  perfbench/layers.py hooks this name
from .controller import AssignmentResult, DirectedLink
from .domain import DEFAULT_MCS_TABLE, McsEntry, NodeModel, mcs_from_snr
from .errors import SimulationError, StructureError
from .frames import FrameSizes
from .maintenance import ReportSchedule, tpc_update
from .schedule import SlotCategory, TddSlotStructure, intervals
from .trace import TraceRecorder

BASIC, DATA = SlotCategory.BASIC.value, SlotCategory.DATA.value


class EventQueue:
    """Heap of (tick, seq, handler, args) entries; rejects past scheduling.

    The scheduling sequence breaks ties, so events at equal ticks run in
    the order they were pushed. The heap holds control frames in flight,
    CBR timers and one step per runtime with data fragments in flight; slot
    boundaries and maintenance ticks run from the lazy timeline of
    `run_until` instead. A data fragment's transmission or reception takes
    its sequence number by advancing `seq` without entering the heap, and a
    burst parks its step at one with `push_reserved`. `until` is the tick
    of the timeline's next entry, which runs before heap events at its
    tick: a burst stops before it.
    """

    def __init__(self):
        self.heap: list[tuple[int, int, Callable, tuple]] = []
        self.seq = 0  # the scheduling sequence number of the next event
        self.now = 0
        self.until = 0

    def push(self, tick: int, handler: Callable, args: tuple) -> None:
        if tick < self.now:
            raise SimulationError(
                f"{handler.__name__} scheduled at tick {tick}, "
                f"before the current tick {self.now}"
            )
        heapq.heappush(self.heap, (tick, self.seq, handler, args))
        self.seq += 1

    def pop(self) -> tuple[int, int, Callable, tuple]:
        entry = heapq.heappop(self.heap)
        self.now = entry[0]
        return entry

    def push_reserved(self, tick: int, seq: int, handler: Callable, args: tuple) -> None:
        """Push through `push` at `seq`, a number taken earlier from `seq`."""
        resume, self.seq = self.seq, seq
        self.push(tick, handler, args)
        self.seq = resume


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
    __slots__ = ("seq", "eligible", "remaining", "corrupted", "retried")

    def __init__(self, seq: int, eligible: int, remaining: int, retried: bool = False):
        self.seq = seq
        self.eligible = eligible  # tick
        self.remaining = remaining  # bit units still to send
        self.corrupted = False
        self.retried = retried  # a retransmission, the MPDU's last copy


class Lost:
    """`count` lost MPDUs from data seq `seq` awaiting an ack round: a lost
    MPDU sent in fragments, or a run lost in one step. The first became
    eligible at tick `eligible` and its last fragment ended at `tx_complete`;
    each next one is one whole-MPDU airtime later in both."""

    __slots__ = ("seq", "count", "eligible", "tx_complete", "retried")

    def __init__(self, seq: int, count: int, eligible: int, tx_complete: int, retried: bool):
        self.seq = seq
        self.count = count
        self.eligible = eligible
        self.tx_complete = tx_complete
        self.retried = retried


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
    World; whole MPDUs are counted, not their bits.
    """

    __slots__ = (
        "vertex", "mcs", "prop", "source", "size_units",
        "airtime", "vertex_id", "tx_shape", "rx_shape", "whole_tx_shape", "whole_rx_shapes",
        "ack_shape", "saturated", "next_arrival", "next_seq", "queue", "pending",
        "rx_since_ack", "control_queue", "dead", "reverse_power", "reverse_mcs",
        "active_until", "interfered_now", "tx_tick", "tx_seq", "in_flight", "steps",
        "delivered_fragment_units", "retx_units", "completed_mpdus", "dropped_mpdus",
        "latency_samples_us", "ack_delay_samples_us", "report_seq",
    )

    def __init__(
        self, vertex: DirectedLink, mcs: McsEntry, prop: int, source: Optional[TrafficSource],
        size_units: int, shapes: tuple[int, ...],
    ):
        self.vertex = vertex
        self.mcs = mcs
        self.prop = prop  # ticks
        self.source = source
        self.size_units = size_units
        self.airtime = _whole_ticks(size_units, int(mcs.phy_rate_bps))  # of a whole MPDU

        self.vertex_id = vertex.vertex_id
        # The trace shapes of its data frame_tx and frame_rx rows, of a
        # whole MPDU's rows, `(t, shape, data_seq)`, sent and received
        # (interfered, decoded), and of its block ack's, `(t, shape, covered)`.
        (self.tx_shape, self.rx_shape, self.whole_tx_shape, *self.whole_rx_shapes,
         self.ack_shape) = shapes
        self.saturated = source is not None and source.pattern == "saturated"
        self.next_arrival = -1  # tick of the next CBR arrival
        self.next_seq = 0  # MPDUs offered
        self.queue = deque()
        self.pending = {}  # first seq -> Lost: lost MPDUs awaiting an ack round
        self.rx_since_ack = []  # (seq, rx tick)
        self.control_queue = deque()
        self.dead = False
        # The reverse path's MCS, read again only when its transmitter's
        # power has changed since (the link table's entry is geometry).
        self.reverse_power: Optional[float] = None
        self.reverse_mcs: Optional[McsEntry] = None

        # transmit window of the currently active slot, if any
        self.active_until = 0
        self.interfered_now = False
        # The burst: its next transmission (tick and sequence number; no
        # sequence when none is due) inside the window ending at active_until,
        # receptions in flight, and the sequence numbers of its steps on the
        # heap. A fragment is in flight as (rx tick, seq, mpdu, frag, bits,
        # last, ok); the receptions of a run still to come as one entry,
        # (rx tick, seq, data seq, count, ok) of the first, each next one a
        # whole-MPDU airtime, two sequence numbers and one data seq later.
        self.tx_tick = 0
        self.tx_seq: Optional[int] = None
        self.in_flight = deque()
        self.steps: set[int] = set()

        # counters: fragment bit units and whole MPDUs (`next_seq` counts those offered)
        self.delivered_fragment_units = 0
        self.retx_units = 0
        self.completed_mpdus = 0
        self.dropped_mpdus = 0
        self.latency_samples_us = []
        self.ack_delay_samples_us = []
        self.report_seq = 0

    def queued_mpdus(self) -> int:
        """MPDUs neither delivered nor dropped: queued (a partly sent head
        too), lost and awaiting an ack round, or clean and in flight."""
        lost = sum(entry.count for entry in self.pending.values())
        flying = 0
        for entry in self.in_flight:  # a lost one is in `pending` already
            if len(entry) == 5:
                flying += entry[3] if entry[4] else 0
            elif entry[5] and not entry[2].corrupted:
                flying += 1
        return len(self.queue) + lost + flying


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

    @property
    def max_latency_us(self) -> float:
        return max(self.latency_us) if self.latency_us else 0.0


class Metrics(NamedTuple):
    duration_us: int  # the span that was run, from the epoch
    per_link: dict[str, LinkMetrics]
    slot_utilization: dict[str, float]  # category value -> used/usable

    def goodput_bps(self, vertex_id: str) -> float:
        link = self.per_link[vertex_id]  # over the span that was run; 0.0 over none
        return link.delivered_payload_bits / (self.duration_us * 1e-6) if self.duration_us else 0.0

    def conservation_ok(self) -> bool:
        """Offered bits = delivered + dropped + queued, exactly: all whole MPDUs."""
        return all(
            link.offered_bits == link.delivered_mpdu_bits + link.dropped_bits + link.queued_bits
            for link in self.per_link.values()
        )


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
    # The trace shape of the slot's rows, `(t, shape, interval)`: every
    # other field is fixed per slot index.
    shape: int
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
        self.trace = trace or TraceRecorder(enabled=False)
        self.queue = EventQueue()
        self.tpu = ticks_per_us(self.mcs_table, self.frame_sizes, traffic)
        self.units_per_bit = 10**6 * self.tpu
        # rate -> (block ack, measurement report) airtime in ticks
        self.control_airtimes: dict[int, tuple[int, int]] = {}

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
            # A data row carries (data_seq, bits, last_fragment) and, when
            # received, the outcome; the rest is fixed per runtime. A whole
            # MPDU's row carries only its data_seq.
            sent = {"node": vertex.tx_node, "frame": "data", "link": vid, "mcs": entry.mcs_index}
            got = {"node": vertex.rx_node, "frame": "data", "link": vid}
            whole = {"bits": float(self.frame_sizes.data_total_bits), "last_fragment": True}
            shape = self.trace.shape
            shapes = (
                shape("frame_tx", sent, data_seq=0, bits=0.0, last_fragment=False),
                shape("frame_rx", got, data_seq=0, bits=0.0, last_fragment=False, outcome=""),
                shape("frame_tx", {**sent, **whole}, data_seq=0),
                shape("frame_rx", {**got, **whole, "outcome": "interfered"}, data_seq=0),
                shape("frame_rx", {**got, **whole, "outcome": "decoded"}, data_seq=0),
                shape(
                    "frame_tx", {"node": vertex.rx_node, "frame": "block_ack", "link": vid},
                    covered=(),
                ),
            )
            self.runtimes[vid] = LinkRuntime(
                vertex=vertex,
                mcs=entry,
                prop=prop_ps * (self.tpu // 10**6),
                source=source,
                size_units=self.frame_sizes.data_total_bits * self.units_per_bit,
                shapes=shapes,
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
                    runtimes.append((rt, max(0, duration - rt.prop), vid in interfered))
            fixed = {"slot_index": index, "category": spec.category.value}
            if index in schedule.slot_directions:
                fixed["direction"] = schedule.slot_directions[index].value
            if actives:
                fixed["links"] = tuple(actives)
            rows.append(SlotRow(
                index, spec.start_offset_us, basic, spec.category.value,
                self.trace.shape("slot", fixed, interval=0), tuple(runtimes),
            ))
        rows.sort(key=lambda row: row.offset_us)  # stable: equal starts keep index order
        return rows


# ---------------------------------------------------------------------------
# The event loop. Every handler is called as handler(world, tick, *args).


def run_until(world: World, t_end_us: Optional[int] = None) -> Metrics:
    """Process events through t_end (default: the configured duration).

    Slot boundaries and maintenance ticks come from `_timeline`, not the
    heap. At equal ticks a slot boundary runs first, then a maintenance
    tick, then heap events and data fragments in the order they were
    scheduled. While the heap events before a timeline entry run, its tick
    is `queue.until`, where a burst stops. Nothing after t_end runs, so a
    fragment received after it is never counted.

    The per-slot and per-fragment trace rows are written in their final
    form, in the shapes the World registered. Each slot row goes to the
    recorder as its boundary runs; a burst's fragment rows are appended
    as one batch.
    """
    if t_end_us is None:
        t_end_us = world.epoch_us + world.duration_us
    queue = world.queue
    heap, pop = queue.heap, queue.pop
    t_end = t_end_us * world.tpu
    _start_arrivals(world)
    for tick, handler, args in _timeline(world):
        if tick > t_end:
            break
        if heap and heap[0][0] < tick:
            queue.until = tick
            while heap and heap[0][0] < tick:
                now, _, event, event_args = pop()
                event(world, now, *event_args)
        queue.now = tick
        if args:  # a slot boundary's (start_us, interval, row); a star call is slower
            start_us, interval, row = args
            handler(world, tick, start_us, interval, row)
        else:
            handler(world, tick)
    queue.until = t_end + 1
    while heap and heap[0][0] <= t_end:
        now, _, event, event_args = pop()
        event(world, now, *event_args)
    return collect_metrics(world, t_end_us)


def _timeline(world: World) -> Iterator[tuple[int, Callable, tuple]]:
    """(tick, handler, args) of every slot boundary and maintenance tick, in order.

    Slot boundaries come interval by interval from `intervals`, and
    maintenance ticks every TDD interval from the epoch through the end of
    the run, on or off the slots' grid; a tick at a slot's start comes
    after its boundary.
    """
    tpu, rows = world.tpu, world.slot_rows
    t_end = world.epoch_us + world.duration_us
    interval_us = world.structure.interval_duration_us
    runs = intervals(
        world.structure, world.epoch_us + world.sp_offset_us, world.sp_duration_us,
        world.beacon_interval_us, t_end,
    )
    tick_us = world.epoch_us  # of the next maintenance tick
    for interval, base in runs:
        for row in rows:
            start_us = base + row.offset_us
            while tick_us < start_us:
                yield tick_us * tpu, _on_maintenance_tick, ()
                tick_us += interval_us
            yield start_us * tpu, _on_slot_boundary, (start_us, interval, row)
    while tick_us <= t_end:
        yield tick_us * tpu, _on_maintenance_tick, ()
        tick_us += interval_us


def _start_arrivals(world: World) -> None:
    for rt in world.runtimes.values():
        if rt.source and rt.source.pattern == "cbr":
            first = max(world.epoch_us + rt.source.start_us, world.epoch_us)
            rt.next_arrival = first * world.tpu
            world.queue.push(rt.next_arrival, _on_arrival, (rt,))


def _on_slot_boundary(world: World, now: int, start_us: int, interval: int, row: SlotRow) -> None:
    # start_us is whole, so float writes what round(start_us, 3) would.
    if world.trace.enabled:
        world.trace.extend([(float(start_us), row.shape, interval)])
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
    air = 0
    for rt, window, interfered in row.runtimes:
        if rt.dead:
            continue
        rt.interfered_now = interfered
        rt.active_until = now + window
        air += window
        # A burst that would find nothing to send is not started; an
        # arrival on this very tick runs next and finds it started.
        if rt.tx_seq is None and (rt.saturated or rt.queue or rt.next_arrival == now):
            _transmit(world, rt, now)
    if air:
        world.usable_air[row.category] += air


def _transmit(world: World, rt: LinkRuntime, now: int) -> None:
    """Start `rt`'s transmissions at `now`, in its window ending at `active_until`.

    The first takes the next sequence number, as its event would, and gets
    a burst step of its own unless a reception in flight comes first.
    """
    queue = world.queue
    rt.tx_tick, rt.tx_seq = now, queue.seq
    if not rt.in_flight or rt.in_flight[0][0] > now:
        rt.steps.add(rt.tx_seq)
        queue.push(now, _on_data, (rt, rt.tx_seq))  # at seq, the next number
    else:
        queue.seq += 1


def _before(tick: int, seq: int, step: int, limit: int, limit_seq: int) -> int:
    """How many of the events at (tick + i * step, seq + 2 * i), i = 0, 1,
    ..., come before the event at (limit, limit_seq) in event order."""
    count = max(0, -((tick - limit) // step))  # those at a tick before `limit`
    if tick + count * step == limit and seq + 2 * count < limit_seq:
        count += 1
    return count


def _on_data(world: World, now: int, rt: LinkRuntime, step: int) -> None:
    """Run `rt`'s burst from its step `step`: send and receive its data
    fragments in event order while each comes before the heap's next event
    and `queue.until`, then park a step at the next one.

    A transmission fills the rest of its window, or sends the head MPDU's
    remainder and schedules the next transmission at its end; the window
    ends a burst, and so does an empty queue until `_on_arrival` resumes
    it. A reception lands one propagation delay after its fragment ends.
    Each takes the sequence number its event would have taken when it was
    scheduled. The SNR check reads state that only heap events and
    timeline entries change, so it is read once per call. A step whose
    fragment has already run, because an earlier step was parked in front
    of it, runs nothing.

    A saturated link with nothing queued sends, in one step, the run of
    fresh MPDUs that fit whole before the window's end and the bound: MPDU
    i is sent at `t0 + i*A` and received at `t0 + (i+1)*A + prop`, with
    sequence numbers `n + 2i - 1` and `n + 2i` as the loop would give them
    one by one. Nothing but the trace rows orders its transmissions against
    receptions, so the run's own state changes at once, and its rows wait
    in `sent`: each is written when the first reception after it is. Its
    receptions stay in flight as one entry, of which a step receives at
    once the prefix that comes before the bound and the next transmission.
    The burst's trace rows are written as one batch, in event order, and
    not built when the trace is disabled.
    """
    steps = rt.steps
    steps.discard(step)
    queue = world.queue
    heap, until, seq_next = queue.heap, queue.until, queue.seq
    # An event runs here if it comes before (bound, bound_seq): the heap's
    # next event, or the timeline's, which runs first at its tick.
    if heap and heap[0][0] < until:
        bound, bound_seq = heap[0][0], heap[0][1]
    else:
        bound, bound_seq = until, -1

    tpu, units_per_bit = world.tpu, world.units_per_bit
    tx_shape, rx_shape = rt.tx_shape, rt.rx_shape
    traced = world.trace.enabled
    rows = []  # this call's trace rows, at their trace times, written as one batch
    row = rows.append
    vertex, in_flight, backlog = rt.vertex, rt.in_flight, rt.queue
    tx_node, rx_node = vertex.tx_node, vertex.rx_node
    rx_since_ack, last_rx = rt.rx_since_ack, world.last_rx
    rx_key, pending, prop = (rx_node, tx_node), rt.pending, rt.prop
    rate = int(rt.mcs.phy_rate_bps)
    # A whole MPDU's bits, as round(size_units / units_per_bit, 3) gives them.
    size_units, full_bits, whole = rt.size_units, float(world.frame_sizes.data_total_bits), rt.airtime
    tx_tick, tx_seq, tx_end = rt.tx_tick, rt.tx_seq, rt.active_until
    # The rows of this call's run, sent from tick sent_t0; the first
    # `written` of its `n_sent` are in `rows`.
    sent, sent_t0, written, n_sent = (), 0, 0, 0
    ok = None
    air = 0
    while True:
        if in_flight:
            head = in_flight[0]
            tick, seq = head[0], head[1]
            receive = tx_seq is None or tick < tx_tick or (tick == tx_tick and seq < tx_seq)
            if not receive:
                tick, seq = tx_tick, tx_seq
        elif tx_seq is not None:
            tick, seq, receive = tx_tick, tx_seq, False
        else:
            seq = None
            break
        if not (tick < bound or (tick == bound and seq < bound_seq)):
            break

        if receive:
            if written < n_sent:  # the run's rows sent before this reception
                upto = min(n_sent, -((sent_t0 - tick) // whole))
                rows += sent[written:upto]
                written = upto
            if len(head) == 5:  # a run's receptions
                _, _, first, count, decoded = head
                got = min(count, _before(tick, seq, whole, bound, bound_seq))
                if tx_seq is not None:
                    got = min(got, _before(tick, seq, whole, tx_tick, tx_seq))
                ticks = range(tick, tick + got * whole, whole)
                if decoded:
                    rt.delivered_fragment_units += got * size_units
                    last_rx[rx_key] = ticks[-1]
                    rt.completed_mpdus += got
                    # Each was sent when it became eligible, A + prop before.
                    rt.latency_samples_us += repeat((whole + prop) / tpu, got)
                    rx_since_ack += zip(range(first, first + got), ticks)
                if traced:
                    got_rows = list(zip(
                        map(round, map(truediv, ticks, repeat(tpu)), repeat(3)),
                        repeat(rt.whole_rx_shapes[decoded]), range(first, first + got),
                    ))
                    # Both progressions step by A, so one of the run's rows
                    # falls between each two receptions until they run out.
                    between = min(n_sent - written, got - 1)
                    if between > 0:
                        mixed = [None] * (2 * between + 1)
                        mixed[::2] = got_rows[:between + 1]
                        mixed[1::2] = sent[written:written + between]
                        rows += mixed
                        del got_rows[:between + 1]
                        written += between
                    rows += got_rows
                if got == count:
                    in_flight.popleft()
                else:
                    in_flight[0] = (tick + got * whole, seq + 2 * got, first + got, count - got, decoded)
                continue
            _, _, mpdu, frag, bits, last, decoded = in_flight.popleft()
            if decoded:
                rt.delivered_fragment_units += frag
            if traced:
                row((
                    round(tick / tpu, 3), rx_shape, mpdu.seq, bits, last,
                    "decoded" if decoded else "interfered",
                ))
            if last and not mpdu.corrupted:
                last_rx[rx_key] = tick
                rt.completed_mpdus += 1
                rt.latency_samples_us.append((tick - mpdu.eligible) / tpu)
                rx_since_ack.append((mpdu.seq, tick))
            continue

        if tick >= tx_end:
            tx_seq = None
            continue
        if written < n_sent:
            rows += sent[written:]
            written = n_sent
        if backlog:
            mpdu = backlog[0]
        elif rt.saturated:
            mpdu = None  # a fresh one
        else:
            tx_seq = None
            continue
        if ok is None:
            ok = (not rt.interfered_now) and world.links.snr_db(
                world.nodes[tx_node], vertex.tx_sector, world.nodes[rx_node], vertex.rx_sector,
            ) >= rt.mcs.min_snr_db
        if mpdu is None:
            # A run: as many whole MPDUs as end in the window and start
            # before the bound (its numbers are all newer than bound_seq),
            # if that is two or more. One cut short by a heap event, such
            # as another burst's step in the same window, goes as a fragment.
            if tick + whole < bound and tick + 2 * whole <= tx_end:
                count = min((tx_end - tick) // whole, -((tick - bound) // whole))
                first = rt.next_seq
                rt.next_seq += count
                end = tick + count * whole
                if not ok:
                    pending[first] = Lost(first, count, tick, tick + whole, False)
                air += end - tick
                in_flight.append((tick + whole + prop, seq_next, first, count, ok))
                if traced:
                    sent = list(zip(
                        map(round, map(truediv, range(tick, end, whole), repeat(tpu)), repeat(3)),
                        repeat(rt.whole_tx_shape), range(first, first + count),
                    ))
                    sent_t0, written, n_sent = tick, 0, count
                seq_next += 2 * count - 1
                if end < tx_end:
                    tx_tick, tx_seq = end, seq_next
                    seq_next += 1
                else:
                    tx_seq = None
                continue
            mpdu = Mpdu(rt.next_seq, tick, size_units)
            rt.next_seq += 1
            backlog.append(mpdu)
        frag = mpdu.remaining
        room = (tx_end - tick) * rate
        if frag > room:
            frag = room
        airtime = _whole_ticks(frag, rate)
        if not ok:
            mpdu.corrupted = True
        mpdu.remaining -= frag
        last = mpdu.remaining == 0
        end = tick + airtime
        if last:
            backlog.popleft()
            if mpdu.corrupted:
                pending[mpdu.seq] = Lost(mpdu.seq, 1, mpdu.eligible, end, mpdu.retried)
        if mpdu.retried:
            rt.retx_units += frag
        bits = full_bits if frag == size_units else round(frag / units_per_bit, 3)
        if traced:
            row((round(tick / tpu, 3), tx_shape, mpdu.seq, bits, last))
        air += airtime
        # The reception is scheduled first, then the next transmission.
        in_flight.append((end + prop, seq_next, mpdu, frag, bits, last, ok))
        seq_next += 1
        if end < tx_end:
            tx_tick, tx_seq = end, seq_next
            seq_next += 1
        else:
            tx_seq = None
    rows += sent[written:]
    world.trace.extend(rows)
    rt.tx_tick, rt.tx_seq = tx_tick, tx_seq
    world.used_air[DATA] += air
    queue.seq = seq_next
    if seq is not None and seq not in steps:
        steps.add(seq)
        queue.push_reserved(tick, seq, _on_data, (rt, seq))


def _on_control_tx(world: World, now: int, rt: LinkRuntime, slot_start: int) -> None:
    """Send one BlockAck or measurement report on the reverse path."""
    if not rt.control_queue:
        return
    what = rt.control_queue.popleft()
    vertex = rt.vertex
    nodes = world.nodes
    reverse = world.graph_vertices[vertex.reverse_id]
    power = nodes[reverse.tx_node].tx_power_dbm
    if power != rt.reverse_power:
        rt.reverse_power = power
        rt.reverse_mcs = mcs_from_snr(world.mcs_table, world.links.snr_db(
            nodes[reverse.tx_node], reverse.tx_sector, nodes[reverse.rx_node], reverse.rx_sector,
        ))
    if rt.reverse_mcs is None:
        return
    rate = int(rt.reverse_mcs.phy_rate_bps)
    airtimes = world.control_airtimes.get(rate)
    if airtimes is None:
        sizes, units_per_bit = world.frame_sizes, world.units_per_bit
        airtimes = world.control_airtimes[rate] = (
            _whole_ticks(sizes.ack * 8 * units_per_bit, rate),
            _whole_ticks(sizes.measurement_report * 8 * units_per_bit, rate),
        )
    tpu = world.tpu
    ok = not rt.interfered_now

    if what == "block_ack":
        rx_since_ack = rt.rx_since_ack
        rt.ack_delay_samples_us += map(
            truediv, map(sub, repeat(now), map(itemgetter(1), rx_since_ack)), repeat(tpu),
        )
        if world.trace.enabled:
            covered = tuple(map(itemgetter(0), rx_since_ack))
            world.trace.extend([(round(now / tpu, 3), rt.ack_shape, covered)])
        rx_since_ack.clear()
        airtime = airtimes[0]
        world.queue.push(now + airtime + rt.prop, _on_block_ack_rx, (rt, slot_start, ok))
    else:
        # RCPI is the received power, and RSNI equals SNR under this
        # deterministic model.
        links = world.links
        seq = rt.report_seq
        rcpi = links.power_dbm(
            nodes[vertex.tx_node], vertex.tx_sector, nodes[vertex.rx_node], vertex.rx_sector,
        )
        rsni = rcpi - links.noise_floor_dbm
        rt.report_seq += 1
        airtime = airtimes[1]
        world.trace.record(
            now / tpu, "frame_tx", node=vertex.rx_node, frame="link_measurement_report",
            link=rt.vertex_id, report_seq=seq, rcpi_dbm=round(rcpi, 3), rsni_db=round(rsni, 3),
        )
        world.queue.push(now + airtime + rt.prop, _on_report_rx, (rt, seq, rsni, ok))
    world.used_air[BASIC] += airtime
    if rt.control_queue:
        world.queue.push(now + airtime, _on_control_tx, (rt, slot_start))


def _on_block_ack_rx(world: World, now: int, rt: LinkRuntime, formed_at: int, ok: bool) -> None:
    world.trace.record(
        now / world.tpu, "frame_rx", node=rt.vertex.tx_node, frame="block_ack",
        link=rt.vertex_id, outcome="decoded" if ok else "interfered",
    )
    if ok:
        world.last_rx[(rt.vertex.tx_node, rt.vertex.rx_node)] = now
        _process_block_ack(world, rt, formed_at)


def _on_report_rx(world: World, now: int, rt: LinkRuntime, seq: int, rsni: float, ok: bool) -> None:
    world.trace.record(
        now / world.tpu, "frame_rx", node=rt.vertex.tx_node,
        frame="link_measurement_report",
        link=rt.vertex_id, report_seq=seq,
        outcome="decoded" if ok else "interfered",
    )
    if ok:
        world.last_rx[(rt.vertex.tx_node, rt.vertex.rx_node)] = now
        if world.maintenance.tpc_enabled:
            _apply_tpc(world, rt, rsni, now)


def _process_block_ack(world: World, rt: LinkRuntime, formed_at: int) -> None:
    """Settle each `Lost` record, in seq order, by one rule: of its MPDUs,
    each whose last fragment reached the receiver before the ack was formed
    is dropped if it was sent again already, else queued afresh behind a
    partly sent head, else at the front. The rest wait, keyed by the first."""
    pending, prop, whole, size, queue = rt.pending, rt.prop, rt.airtime, rt.size_units, rt.queue
    for seq in sorted(pending):
        entry = pending[seq]
        done = min(entry.count, -((entry.tx_complete + prop - formed_at) // whole))
        if done <= 0:
            continue  # completed after the ack was formed; next round decides
        del pending[seq]
        for i in range(done):
            if entry.retried:
                rt.dropped_mpdus += 1
                world.trace.record(
                    formed_at / world.tpu, "frame_drop", node=rt.vertex.tx_node,
                    link=rt.vertex_id, data_seq=seq + i, reason="retry exhausted",
                )
                continue
            mpdu = Mpdu(seq + i, entry.eligible + i * whole, size, retried=True)
            if queue and queue[0].remaining < size:
                queue.insert(1, mpdu)
            else:
                queue.appendleft(mpdu)
        if done < entry.count:
            pending[seq + done] = Lost(
                seq + done, entry.count - done, entry.eligible + done * whole,
                entry.tx_complete + done * whole, entry.retried,
            )


def _apply_tpc(world: World, rt: LinkRuntime, rsni: float, now: int) -> None:
    tx_node = world.nodes[rt.vertex.tx_node]
    new_power = tpc_update(
        tx_node.tx_power_dbm,
        rsni,
        world.maintenance.tpc_target_rsni_db,
        tx_node.power_limits,
        world.maintenance.tpc_max_step_db,
    )
    if new_power != tx_node.tx_power_dbm:
        tx_node.set_tx_power(new_power)
        world.trace.record(
            now / world.tpu, "tpc_update", node=tx_node.node_id, link=rt.vertex_id,
            power_dbm=round(new_power, 3), measured_rsni_db=round(rsni, 3),
            target_rsni_db=world.maintenance.tpc_target_rsni_db,
        )


def _on_arrival(world: World, now: int, rt: LinkRuntime) -> None:
    mpdu = Mpdu(seq=rt.next_seq, eligible=now, remaining=rt.size_units)
    rt.next_seq += 1
    rt.queue.append(mpdu)
    if not rt.dead and rt.tx_seq is None and now < rt.active_until:
        _transmit(world, rt, now)
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
            world.trace.record(
                t_us, "link_dead", link=vid, node=vertex.sta_id,
                last_rx=round(last / world.tpu, 3),
            )


def collect_metrics(world: World, t_end_us: Optional[int] = None) -> Metrics:
    """Metrics through `t_end_us` (default: the configured end), over the span from the epoch."""
    mpdu_bits, payload_bits = world.frame_sizes.data_total_bits, world.frame_sizes.data_payload * 8
    per_link: dict[str, LinkMetrics] = {}
    for vid, rt in world.runtimes.items():
        per_link[vid] = LinkMetrics(
            vertex_id=vid,
            offered_bits=float(rt.next_seq * mpdu_bits),
            delivered_bits=rt.delivered_fragment_units / world.units_per_bit,
            delivered_mpdu_bits=rt.completed_mpdus * mpdu_bits,
            delivered_payload_bits=rt.completed_mpdus * payload_bits,
            dropped_bits=rt.dropped_mpdus * mpdu_bits,
            queued_bits=float(rt.queued_mpdus() * mpdu_bits),
            retx_bits=rt.retx_units / world.units_per_bit,
            completed_mpdus=rt.completed_mpdus,
            latency_us=list(rt.latency_samples_us),
            ack_delay_us=list(rt.ack_delay_samples_us),
        )
    utilization = {}
    for category, usable in world.usable_air.items():
        used = world.used_air[category]
        utilization[category] = used / usable if usable else 0.0
    span = world.duration_us if t_end_us is None else max(0, t_end_us - world.epoch_us)
    return Metrics(duration_us=span, per_link=per_link, slot_utilization=utilization)


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
        mean_ack = (  # fsum is exact; sum() is compensated only from Python 3.12
            math.fsum(link.ack_delay_us) / len(link.ack_delay_us)
            if link.ack_delay_us else 0.0
        )
        rows.append(
            f"{vid},{link.offered_bits:.0f},{link.delivered_bits:.3f},"
            f"{link.delivered_payload_bits},{link.dropped_bits},"
            f"{link.queued_bits:.3f},{link.completed_mpdus},"
            f"{goodput:.3f},{link.max_latency_us:.3f},{mean_ack:.3f}"
        )
    return "\n".join(rows) + "\n"
