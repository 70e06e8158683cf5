"""Deterministic discrete-event core.

Events are ordered by tick, on an exact integer clock, and at equal ticks
by the rule below.
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
A DATA slot boundary, or a CBR arrival into an open window, starts a burst
and numbers it from a per-World counter. Events at equal ticks run in one
order: the slot boundary, the maintenance tick, data receptions, the heap's
events in the order they were scheduled, and data transmissions; data
events of different links go in the order that their bursts started. So a
burst runs up to the heap's next event and the timeline's next entry alone:
links share nothing that a fragment changes, and within a link only the
trace rows order transmissions against receptions. The bursts that run up
to one bound write their rows merged in that order, as one batch, and the
SNR check is read once per run of a burst instead of once per fragment.

Each data send waits in flight as one record. A saturated link's fresh
MPDUs that fit whole in the window are sent as one run: their transmit
ticks, receive ticks and data sequence numbers are an arithmetic
progression of one whole-MPDU airtime, fixed per runtime and checked when
the World is built, so a run is one send. Else the queue's head (a retry,
a CBR MPDU, or a fresh MPDU that does not fit whole) sends what fits of it,
a send of one. Whether a send's MPDUs complete cleanly, and their latency,
are fixed when an MPDU's last fragment is sent, so no record holds an MPDU.

The transmitter settles each ack round from its own record. An MPDU's
copy is decoded exactly when none of its fragments was sent interfered or
below the MCS threshold (`corrupted`), so only lost MPDUs wait in `pending`,
one `Lost` record per lost MPDU sent alone or lost run, for the ack round that
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
from .schedule import SlotCategory, intervals
from .trace import TraceRecorder

BASIC, DATA = SlotCategory.BASIC.value, SlotCategory.DATA.value


class EventQueue:
    """Heap of (tick, seq, handler, args) entries; rejects past scheduling.

    The scheduling sequence breaks ties, so events at equal ticks run in
    the order they were pushed. The heap holds control frames in flight and
    CBR timers only: slot boundaries and maintenance ticks run from the lazy
    timeline of `run_until`, and data fragments as bursts, which run up to
    the heap's next event.
    """

    def __init__(self):
        self.heap: list[tuple[int, int, Callable, tuple]] = []
        self.seq = 0  # the scheduling sequence number of the next event
        self.now = 0

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
    MPDU sent alone, whole or in fragments, or a run lost in one step. The first became
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
        "rx_since_ack", "dead", "active_until", "interfered_now", "burst", "tx_tick", "in_flight",
        "delivered_fragment_units", "completed_mpdus", "dropped_mpdus",
        "latency_samples_us", "ack_delay_samples_us", "report_seq",
    )

    def __init__(
        self, vertex: DirectedLink, mcs: McsEntry, prop: int, source: TrafficSource,
        size_units: int, shapes: tuple[int, ...],
    ):
        self.vertex = vertex
        self.mcs = mcs
        self.prop = prop  # ticks
        self.source = source
        self.size_units = size_units
        self.airtime = _whole_ticks(size_units, int(mcs.phy_rate_bps))  # of a whole MPDU

        self.vertex_id = vertex.vertex_id
        # The trace shapes of its fragments' frame_tx and frame_rx rows, of
        # every whole MPDU's rows, `(t, shape, data_seq)`, sent and received
        # (interfered, decoded), and of its block ack's, `(t, shape, covered)`.
        (self.tx_shape, self.rx_shape, self.whole_tx_shape, *self.whole_rx_shapes,
         self.ack_shape) = shapes
        self.saturated = source.pattern == "saturated"
        self.next_arrival = -1  # tick of the next CBR arrival
        self.next_seq = 0  # MPDUs offered
        self.queue = deque()
        self.pending = {}  # first seq -> Lost: lost MPDUs awaiting an ack round
        self.rx_since_ack = []  # (seq, rx tick)
        self.dead = False

        # transmit window of the current DATA slot, if any, and its interference
        self.active_until = 0
        self.interfered_now = False
        # The burst: its number, its next transmission's tick (None when
        # none is due) inside the window ending at active_until, and one
        # record per send in flight (see `_on_data`), with the number of the
        # burst that sent it.
        self.burst = 0
        self.tx_tick: Optional[int] = None
        self.in_flight = deque()

        # counters: fragment bit units and whole MPDUs (`next_seq` counts those offered)
        self.delivered_fragment_units = 0
        self.completed_mpdus = 0
        self.dropped_mpdus = 0
        self.latency_samples_us = []
        self.ack_delay_samples_us = []
        self.report_seq = 0

    def queued_mpdus(self) -> int:
        """MPDUs neither delivered nor dropped: queued (a partly sent head
        too), lost and awaiting an ack round, or in flight to settle."""
        lost = sum(entry.count for entry in self.pending.values())
        # A record that settles counts its MPDUs; a lost one is in `pending`.
        return len(self.queue) + lost + sum(entry[3] for entry in self.in_flight if entry[7])


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
        self.structure = plan.schedule.structure  # the slot grid the plan was built on
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
        # Runtimes with a transmission due or receptions in flight, and the
        # number of bursts started so far.
        self.bursts: list[LinkRuntime] = []
        self.bursts_started = 0
        self.ran = False  # a World runs once: its state starts at the epoch
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
    """Process events through t_end (default: the configured duration), once per World.

    Slot boundaries and maintenance ticks come from `_timeline`, not the
    heap. At equal ticks a slot boundary runs first, then a maintenance
    tick, then data receptions, then heap events in the order they were
    scheduled, then data transmissions; data events of different links in
    the order that their bursts started. Nothing after t_end runs, so a
    fragment received after it is never counted.

    The per-slot and data trace rows are written in their final form, in
    the shapes the World registered. Each slot row goes to the recorder as
    its boundary runs; the bursts' data rows up to each heap event or
    timeline entry as one batch.
    """
    if world.ran:
        raise SimulationError("this World has already run; build a new World to run again")
    world.ran = True
    if t_end_us is None:
        t_end_us = world.epoch_us + world.duration_us
    queue = world.queue
    heap = queue.heap
    t_end = t_end_us * world.tpu
    _start_arrivals(world)
    for tick, handler, args in _timeline(world):
        if tick > t_end:
            break
        if world.bursts or heap and heap[0][0] < tick:
            _advance(world, tick)
        queue.now = tick
        if args:  # a slot boundary's (start_us, interval, row); a star call is slower
            start_us, interval, row = args
            handler(world, tick, start_us, interval, row)
        else:
            handler(world, tick)
    _advance(world, t_end + 1)
    return collect_metrics(world, t_end_us)


def _advance(world: World, until: int) -> None:
    """Run the heap's events and the bursts' data events at ticks before `until`."""
    heap, pop = world.queue.heap, world.queue.pop
    while heap and heap[0][0] < until:
        tick = heap[0][0]
        if world.bursts:  # the receptions at `tick` run before its heap events
            _run_bursts(world, tick, tick + 1)
        while heap and heap[0][0] == tick:
            now, _, event, event_args = pop()
            event(world, now, *event_args)
    if world.bursts:
        _run_bursts(world, until, until)


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
        if rt.source.pattern == "cbr":
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
            controls = ("block_ack",) * bool(rt.rx_since_ack)
            controls += ("report",) * due.count(rt.vertex_id)
            if controls:
                world.usable_air[row.category] += window
                world.queue.push(now, _on_control_tx, (rt, now, controls, not interfered))
        return
    air = 0
    for rt, window, interfered in row.runtimes:
        if rt.dead:
            continue
        rt.interfered_now = interfered
        rt.active_until = now + window
        air += window
        # A burst that would find nothing to send is not started; an
        # arrival on this very tick runs before its first transmission.
        if window and rt.tx_tick is None and (rt.saturated or rt.queue or rt.next_arrival == now):
            _transmit(world, rt, now)
    if air:
        world.usable_air[row.category] += air


def _transmit(world: World, rt: LinkRuntime, now: int) -> None:
    """Start a burst of `rt` at `now`, in its window ending at `active_until`."""
    rt.burst, rt.tx_tick = world.bursts_started, now
    world.bursts_started += 1
    if rt not in world.bursts:
        world.bursts.append(rt)


def _run_bursts(world: World, until: int, rx_until: int) -> None:
    """Run each burst's transmissions at ticks before `until` and its
    receptions at ticks before `rx_until`, and write their trace rows as
    one batch, sorted by their places in event order (stable)."""
    batch = [] if world.trace.enabled else None
    for rt in world.bursts:
        tick, in_flight = rt.tx_tick, rt.in_flight
        if (tick is not None and tick < until) or (in_flight and in_flight[0][0] < rx_until):
            _on_data(world, rt, until, rx_until, batch)
    world.bursts = [rt for rt in world.bursts if rt.tx_tick is not None or rt.in_flight]
    if batch:
        batch.sort(key=itemgetter(0))
        world.trace.extend(list(map(itemgetter(1), batch)))


def _whole_rows(ticks: range, rx: int, burst: int, tpu: int, shape: int, seq: int) -> Iterator:
    """`(key, row)` of whole MPDUs sent (`rx` 0) or received (`rx` 1) at `ticks`, from `seq`."""
    keys = zip(range(2 * ticks.start + 1 - rx, 2 * ticks.stop, 2 * ticks.step), repeat(burst))
    times = map(round, map(truediv, ticks, repeat(tpu)), repeat(3))
    return zip(keys, zip(times, repeat(shape), range(seq, seq + len(ticks))))


def _on_data(
    world: World, rt: LinkRuntime, until: int, rx_until: int, batch: Optional[list],
) -> None:
    """Run `rt`'s burst: send its data at ticks before `until`, then receive
    what is in flight at ticks before `rx_until`. Each trace row goes to
    `batch` (None when the trace is disabled) as `(key, row)`, the key its
    place in event order: twice the tick, plus one for a transmission, then
    the number of the burst that sent it.

    Each send is one in-flight record, `(rx tick, burst, data seq, count,
    units, last, decoded, settles, wait)`: `count` MPDUs of `units` bit
    units each, received from `rx tick` one whole-MPDU airtime `A` apart.
    Whether they complete cleanly (`settles`) and their latency from
    eligibility (`wait`) are fixed when an MPDU's last fragment is sent. A
    saturated link with nothing queued sends the fresh MPDUs that fit whole
    in the window and start before `until` as one record: MPDU i is sent at
    `t0 + i*A` and received at `t0 + (i+1)*A + prop`. Else the queue's head
    (on a saturated link with nothing queued, a fresh MPDU) sends what fits
    of it as a record of one. The window ends a burst, and so does an empty
    queue until `_on_arrival` starts another. Receptions change nothing that
    a transmission reads, so transmissions go first, and the SNR check, which
    only heap events and timeline entries change, is read once. A call
    receives the prefix of each record before `rx_until`.
    """
    tpu, traced, units_per_bit = world.tpu, batch is not None, world.units_per_bit
    vertex, in_flight, prop, whole = rt.vertex, rt.in_flight, rt.prop, rt.airtime
    tx_node, rx_node, size_units, tick = vertex.tx_node, vertex.rx_node, rt.size_units, rt.tx_tick
    if tick is not None and tick < until:
        backlog, pending, burst, tx_end = rt.queue, rt.pending, rt.burst, rt.active_until
        rate = int(rt.mcs.phy_rate_bps)
        ok = (not rt.interfered_now) and world.links.snr_db(
            world.nodes[tx_node], vertex.tx_sector, world.nodes[rx_node], vertex.rx_sector,
        ) >= rt.mcs.min_snr_db
        air = 0
        while tick < until:
            if backlog or not rt.saturated or tick + whole > tx_end:
                if not backlog:
                    if not rt.saturated:
                        tick = None
                        break
                    backlog.append(Mpdu(rt.next_seq, tick, size_units))
                    rt.next_seq += 1
                mpdu = backlog[0]
                units = min(mpdu.remaining, (tx_end - tick) * rate)
                end = tick + _whole_ticks(units, rate)
                mpdu.corrupted = mpdu.corrupted or not ok
                mpdu.remaining -= units
                last = mpdu.remaining == 0
                if last:
                    backlog.popleft()
                seq, count, rx, retried = mpdu.seq, 1, end + prop, mpdu.retried
                settles, wait = last and not mpdu.corrupted, rx - mpdu.eligible
            else:
                count = min((tx_end - tick) // whole, -((tick - until) // whole))
                seq, end, rx = rt.next_seq, tick + count * whole, tick + whole + prop
                rt.next_seq += count
                units, last, settles, wait, retried = size_units, True, ok, whole + prop, False
            in_flight.append((rx, burst, seq, count, units, last, ok, settles, wait))
            if last and not settles:
                pending[seq] = Lost(seq, count, rx - wait, rx - prop, retried)
            if traced and count > 1:
                batch += _whole_rows(range(tick, end, whole), 0, burst, tpu, rt.whole_tx_shape, seq)
            elif traced:  # one row: a whole MPDU's fixes its bits
                t = round(tick / tpu, 3)
                row = (t, rt.whole_tx_shape, seq) if units == size_units else (
                    t, rt.tx_shape, seq, round(units / units_per_bit, 3), last)
                batch.append(((2 * tick + 1, burst), row))
            air += end - tick
            if end >= tx_end:
                tick = None
                break
            tick = end
        rt.tx_tick = tick
        world.used_air[DATA] += air

    rx_key, last_rx, rx_since_ack = (rx_node, tx_node), world.last_rx, rt.rx_since_ack
    while in_flight and in_flight[0][0] < rx_until:
        tick, burst, seq, count, units, last, decoded, settles, wait = in_flight[0]
        got = min(count, -((tick - rx_until) // whole))
        stop = tick + got * whole
        if got == count:
            in_flight.popleft()
        else:
            in_flight[0] = (stop, burst, seq + got, count - got, units, last, decoded, settles, wait)
        if decoded:
            rt.delivered_fragment_units += got * units
        if settles:
            last_rx[rx_key] = stop - whole
            rt.completed_mpdus += got
            if got == 1:  # as below, without building ranges for one
                rt.latency_samples_us.append(wait / tpu)
                rx_since_ack.append((seq, tick))
            else:
                rt.latency_samples_us += repeat(wait / tpu, got)
                rx_since_ack += zip(range(seq, seq + got), range(tick, stop, whole))
        if traced and got > 1:
            shape = rt.whole_rx_shapes[decoded]
            batch += _whole_rows(range(tick, stop, whole), 1, burst, tpu, shape, seq)
        elif traced:
            t = round(tick / tpu, 3)
            row = (t, rt.whole_rx_shapes[decoded], seq) if units == size_units else (
                t, rt.rx_shape, seq, round(units / units_per_bit, 3), last,
                "decoded" if decoded else "interfered")
            batch.append(((2 * tick, burst), row))


def _on_control_tx(
    world: World, now: int, rt: LinkRuntime, slot_start: int, controls: tuple[str, ...], ok: bool,
) -> None:
    """Send a BASIC slot's control frames, each "block_ack" or "report", on
    the reverse path: the first now, the rest one airtime later each. `ok`
    is whether the slot is free of interference. The path's MCS is read
    from the link table as each frame is sent; where it has none, neither
    that frame nor any after it in the slot is sent."""
    vertex, nodes, links = rt.vertex, world.nodes, world.links
    reverse = world.graph_vertices[vertex.reverse_id]
    mcs = mcs_from_snr(world.mcs_table, links.snr_db(
        nodes[reverse.tx_node], reverse.tx_sector, nodes[reverse.rx_node], reverse.rx_sector,
    ))
    if mcs is None:
        return
    tpu, sizes, ack = world.tpu, world.frame_sizes, controls[0] == "block_ack"
    octets = sizes.ack if ack else sizes.measurement_report
    airtime = _whole_ticks(octets * 8 * world.units_per_bit, int(mcs.phy_rate_bps))
    if ack:
        rx_since_ack = rt.rx_since_ack
        rt.ack_delay_samples_us += map(
            truediv, map(sub, repeat(now), map(itemgetter(1), rx_since_ack)), repeat(tpu),
        )
        if world.trace.enabled:
            covered = tuple(map(itemgetter(0), rx_since_ack))
            world.trace.extend([(round(now / tpu, 3), rt.ack_shape, covered)])
        rx_since_ack.clear()
        world.queue.push(now + airtime + rt.prop, _on_block_ack_rx, (rt, slot_start, ok))
    else:
        # RCPI is the received power, and RSNI equals SNR under this
        # deterministic model.
        seq = rt.report_seq
        rcpi = links.power_dbm(
            nodes[vertex.tx_node], vertex.tx_sector, nodes[vertex.rx_node], vertex.rx_sector,
        )
        rsni = rcpi - links.noise_floor_dbm
        rt.report_seq += 1
        world.trace.record(
            now / tpu, "frame_tx", node=vertex.rx_node, frame="link_measurement_report",
            link=rt.vertex_id, report_seq=seq, rcpi_dbm=round(rcpi, 3), rsni_db=round(rsni, 3),
        )
        world.queue.push(now + airtime + rt.prop, _on_report_rx, (rt, seq, rsni, ok))
    world.used_air[BASIC] += airtime
    if len(controls) > 1:
        world.queue.push(now + airtime, _on_control_tx, (rt, slot_start, controls[1:], ok))


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
    if not rt.dead and rt.tx_tick is None and now < rt.active_until:
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
