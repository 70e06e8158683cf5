"""Centralized planner: interference graph construction and coordinated,
conflict-free, direction-separated slot assignment across all APs.

Links enter as trained sector pairs. Each link contributes two directed
activations (downlink and uplink) as graph vertices; an edge joins two
activations that cannot share a slot, either because simultaneous operation
raises the unintended received power at a victim receiver above
noise_floor + threshold, or because the activations share a node. Slot
assignment is a greedy demand-sorted packing of independent sets into
direction-disjoint slot pools, validated by verify_global.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .beamforming import BeamMeasurementReport, TrainedLink
from .channel import LinkBudgetConfig, LinkTable, link_snr_db
from .domain import DEFAULT_MCS_TABLE, McsEntry, NodeModel, mcs_from_snr
from .schedule import (
    Direction,
    ScheduleViolation,
    SlotCategory,
    TddSlotStructure,
)


class DirectedLink:
    """One activation direction of a trained AP-STA link.

    `vertex_id`, the `reverse_id` of the same link's other direction and the
    `nodes` at its two ends are derived once, when it is built.
    """

    __slots__ = (
        "link_id", "direction", "ap_id", "sta_id", "tx_node", "tx_sector", "rx_node", "rx_sector",
        "snr_db", "vertex_id", "reverse_id", "nodes",
    )

    def __init__(
        self, link_id: str, direction: Direction, ap_id: str, sta_id: str,
        tx_node: str, tx_sector: int, rx_node: str, rx_sector: int, snr_db: float,
    ):
        self.link_id = link_id
        self.direction = direction
        self.ap_id = ap_id
        self.sta_id = sta_id
        self.tx_node = tx_node
        self.tx_sector = tx_sector
        self.rx_node = rx_node
        self.rx_sector = rx_sector
        self.snr_db = snr_db
        self.vertex_id = f"{link_id}:{direction.value}"
        self.reverse_id = f"{link_id}:{direction.reverse().value}"
        self.nodes = frozenset((tx_node, rx_node))


class DemandSpec:
    __slots__ = ("link_id", "direction", "demanded_rate_bps")

    def __init__(self, link_id: str, direction: Direction, demanded_rate_bps: float):
        if demanded_rate_bps < 0:
            raise ValueError("demanded rate must be non-negative")
        self.link_id = link_id
        self.direction = direction
        self.demanded_rate_bps = demanded_rate_bps


class InterferenceGraph:
    """`model_derived_pairs`: vertex-id pairs whose conflict test fell back
    to the channel model."""

    __slots__ = ("vertices", "edges", "model_derived_pairs")

    def __init__(
        self, vertices: tuple[DirectedLink, ...], edges: frozenset[frozenset[str]],
        model_derived_pairs: frozenset[tuple[str, str]] = frozenset(),
    ):
        ids = {v.vertex_id for v in vertices}
        for edge in edges:
            pair = tuple(edge)
            if len(pair) != 2:
                raise ValueError(f"edge {pair} is not a two-vertex pair")
            if not set(pair) <= ids:
                raise ValueError(f"edge {pair} references unknown vertices")
        self.vertices = vertices
        self.edges = edges
        self.model_derived_pairs = model_derived_pairs

    def by_id(self) -> dict[str, DirectedLink]:
        return {v.vertex_id: v for v in self.vertices}

    def conflicts(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.edges


def links_from_trained(
    trained: TrainedLink,
    nodes: Mapping[str, NodeModel],
    channel_cfg: LinkBudgetConfig,
) -> tuple[DirectedLink, DirectedLink]:
    """Expand one trained pair into its downlink and uplink activations.

    Antenna reciprocity: each node reuses its trained sector in both
    directions. Per-direction SNR is evaluated from the channel model, so
    asymmetric transmit powers are reflected.
    """
    initiator = nodes[trained.initiator_id]
    responder = nodes[trained.responder_id]
    ap, sta = (initiator, responder) if initiator.is_ap else (responder, initiator)
    ap_sector = trained.initiator_sector if initiator.is_ap else trained.responder_sector
    sta_sector = trained.responder_sector if initiator.is_ap else trained.initiator_sector
    link_id = f"{ap.node_id}-{sta.node_id}"
    dl_snr = link_snr_db(ap, ap_sector, sta, sta_sector, channel_cfg)
    ul_snr = link_snr_db(sta, sta_sector, ap, ap_sector, channel_cfg)
    dl = DirectedLink(
        link_id=link_id, direction=Direction.DOWNLINK, ap_id=ap.node_id, sta_id=sta.node_id,
        tx_node=ap.node_id, tx_sector=ap_sector,
        rx_node=sta.node_id, rx_sector=sta_sector, snr_db=dl_snr,
    )
    ul = DirectedLink(
        link_id=link_id, direction=Direction.UPLINK, ap_id=ap.node_id, sta_id=sta.node_id,
        tx_node=sta.node_id, tx_sector=sta_sector,
        rx_node=ap.node_id, rx_sector=ap_sector, snr_db=ul_snr,
    )
    return dl, ul


def build_interference_graph(
    nodes: Mapping[str, NodeModel],
    trained_links: Sequence[TrainedLink],
    measurement_reports: Sequence[BeamMeasurementReport],
    channel_cfg: LinkBudgetConfig,
) -> InterferenceGraph:
    """Build the conflict graph over directed link activations.

    Cross-link received power comes from measurement reports when the
    (tx node, tx sector, rx node, rx sector) tuple was reported; otherwise
    the channel model is queried directly and the pair is flagged as
    model-derived.
    """
    vertices: list[DirectedLink] = []
    for trained in trained_links:
        vertices.extend(links_from_trained(trained, nodes, channel_cfg))

    reported: dict[tuple[str, int, str, int], float] = {}
    for report in measurement_reports:
        for tx_sector, rx_sector, snr in report.samples:
            key = (report.initiator_id, tx_sector, report.responder_id, rx_sector)
            reported[key] = snr

    links = LinkTable(channel_cfg)
    threshold = links.noise_floor_dbm + channel_cfg.interference_threshold_db

    edges: set[frozenset[str]] = set()
    model_derived: set[tuple[str, str]] = set()

    def victim_hit(tx: DirectedLink, victim: DirectedLink) -> tuple[bool, bool]:
        """(conflict, used_channel_model) for tx interfering at victim's receiver."""
        key = (tx.tx_node, tx.tx_sector, victim.rx_node, victim.rx_sector)
        if key in reported:
            # Reported SNR is referenced to the same noise floor.
            return reported[key] > channel_cfg.interference_threshold_db, False
        power = links.power_dbm(
            nodes[tx.tx_node], tx.tx_sector, nodes[victim.rx_node], victim.rx_sector
        )
        return power > threshold, True

    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if a.nodes & b.nodes:
                edges.add(frozenset((a.vertex_id, b.vertex_id)))
                continue
            hit_ab, model_ab = victim_hit(a, b)
            hit_ba, model_ba = victim_hit(b, a)
            if hit_ab or hit_ba:
                edges.add(frozenset((a.vertex_id, b.vertex_id)))
            if model_ab or model_ba:
                model_derived.add((a.vertex_id, b.vertex_id))

    return InterferenceGraph(
        vertices=tuple(vertices),
        edges=frozenset(edges),
        model_derived_pairs=frozenset(model_derived),
    )


# ---------------------------------------------------------------------------
# Slot assignment.


class GlobalSchedule(NamedTuple):
    """The slot map every AP follows: per slot index of the shared grid,
    its direction and the activations that transmit in it."""

    structure: TddSlotStructure
    slot_directions: dict[int, Direction]
    slot_links: dict[int, tuple[str, ...]]  # slot index -> active vertex ids


class StarvedLink(NamedTuple):
    link_id: str
    direction: Direction
    demanded_rate_bps: float
    reason: str


class AssignmentResult(NamedTuple):
    schedule: GlobalSchedule
    granted_rate_bps: dict[str, float]  # vertex id -> granted rate
    starved: tuple[StarvedLink, ...]
    graph: InterferenceGraph  # the conflicts the schedule was built to avoid

    @property
    def infeasible(self) -> bool:
        return bool(self.starved)


DEFAULT_DL_DATA_FRACTION = 0.75


def _split_indices(indices: list[int], n_first: int) -> tuple[list[int], list[int]]:
    return indices[:n_first], indices[n_first:]


def assign_slots(
    graph: InterferenceGraph,
    demands: Sequence[DemandSpec],
    structure_template: TddSlotStructure,
    mcs_table: Sequence[McsEntry] = DEFAULT_MCS_TABLE,
    dl_data_fraction: float = DEFAULT_DL_DATA_FRACTION,
) -> AssignmentResult:
    """Greedy demand-sorted assignment of links to slot pools.

    DATA slots split into disjoint DL and UL pools (DL-heavy by default);
    each slot hosts a pairwise non-conflicting set of same-direction
    activations. Every scheduled activation also receives one BASIC slot
    per interval for the reverse path, carrying its delayed acks and
    control responses. Activations that cannot be granted any slot, and
    demands on links that were never trained, are excluded from the
    schedule and listed as starved.
    """
    by_id = graph.by_id()
    demand_by_vertex: dict[str, DemandSpec] = {}
    starved: list[StarvedLink] = []
    for demand in demands:
        if demand.demanded_rate_bps <= 0:
            continue
        vid = f"{demand.link_id}:{demand.direction.value}"
        if vid in by_id:
            demand_by_vertex[vid] = demand
            continue
        ends = demand.link_id.split("-")
        if len(ends) != 2 or not all(ends):
            raise ValueError(f"demand link id {demand.link_id!r} is not of the form <ap>-<sta>")
        starved.append(StarvedLink(
            link_id=demand.link_id, direction=demand.direction,
            demanded_rate_bps=demand.demanded_rate_bps, reason="link not trained",
        ))

    interval_us = structure_template.interval_duration_us
    data_slots = [s for s in structure_template.slots if s.category is SlotCategory.DATA]
    basic_slots = [s for s in structure_template.slots if s.category is SlotCategory.BASIC]
    slot_index = {slot: i for i, slot in enumerate(structure_template.slots)}

    def phy_rate(vid: str) -> float:
        entry = mcs_from_snr(mcs_table, by_id[vid].snr_db)
        return float(entry.phy_rate_bps) if entry else 0.0

    # Deterministic priority: demanded rate descending, then vertex id.
    order = sorted(
        demand_by_vertex,
        key=lambda vid: (-demand_by_vertex[vid].demanded_rate_bps, vid),
    )
    active = [vid for vid in order if phy_rate(vid) > 0.0]
    unservable = [vid for vid in order if phy_rate(vid) <= 0.0]

    # Reverse-path BASIC slot requirement, grouped by the direction the
    # responding node transmits in (DL data acks travel uplink, and vice versa).
    basic_need: dict[Direction, list[str]] = {Direction.UPLINK: [], Direction.DOWNLINK: []}
    for vid in active:
        basic_need[by_id[vid].direction.reverse()].append(vid)

    n_basic = len(basic_slots)
    if basic_need[Direction.UPLINK] and basic_need[Direction.DOWNLINK]:
        n_ul_basic = max(1, min(n_basic - 1, round(n_basic / 2)))
    elif basic_need[Direction.UPLINK]:
        n_ul_basic = n_basic
    else:
        n_ul_basic = 0
    basic_indices = sorted(slot_index[s] for s in basic_slots)
    ul_basic, dl_basic = _split_indices(basic_indices, n_ul_basic)
    basic_pool = {Direction.UPLINK: ul_basic, Direction.DOWNLINK: dl_basic}

    # BASIC packing: independent sets of reverse-path activations per slot.
    basic_grant: dict[str, int] = {}  # data vertex id -> basic slot index
    basic_members: dict[int, list[str]] = {i: [] for i in basic_indices}

    for direction in (Direction.UPLINK, Direction.DOWNLINK):
        for vid in basic_need[direction]:
            rev_id = by_id[vid].reverse_id
            placed = False
            for idx in basic_pool[direction]:
                members = basic_members[idx]
                if all(
                    not graph.conflicts(rev_id, by_id[other].reverse_id)
                    and rev_id != by_id[other].reverse_id
                    for other in members
                ):
                    members.append(vid)
                    basic_grant[vid] = idx
                    placed = True
                    break
            if not placed:
                basic_grant[vid] = -1  # marks starvation below

    for vid in unservable:
        demand = demand_by_vertex[vid]
        starved.append(StarvedLink(
            link_id=demand.link_id, direction=demand.direction,
            demanded_rate_bps=demand.demanded_rate_bps,
            reason="link SNR below the lowest MCS threshold",
        ))
    schedulable = []
    for vid in active:
        if basic_grant.get(vid, -1) < 0:
            demand = demand_by_vertex[vid]
            starved.append(StarvedLink(
                link_id=demand.link_id, direction=demand.direction,
                demanded_rate_bps=demand.demanded_rate_bps,
                reason="no reverse-path BASIC slot available in the interval",
            ))
        else:
            schedulable.append(vid)

    # DATA pool split between directions.
    dl_wants = [v for v in schedulable if by_id[v].direction is Direction.DOWNLINK]
    ul_wants = [v for v in schedulable if by_id[v].direction is Direction.UPLINK]
    data_indices = sorted(slot_index[s] for s in data_slots)
    if dl_wants and ul_wants:
        n_dl = max(1, min(len(data_indices) - 1, round(len(data_indices) * dl_data_fraction)))
    elif dl_wants:
        n_dl = len(data_indices)
    else:
        n_dl = 0
    dl_data, ul_data = _split_indices(data_indices, n_dl)
    data_pool = {Direction.DOWNLINK: dl_data, Direction.UPLINK: ul_data}

    slot_members: dict[int, list[str]] = {i: [] for i in data_indices}
    duration_of = {slot_index[s]: s.duration_us for s in structure_template.slots}
    granted: dict[str, float] = {vid: 0.0 for vid in schedulable}

    def slot_rate(vid: str, idx: int) -> float:
        return phy_rate(vid) * (duration_of[idx] / interval_us)

    def deficit_order(vids: list[str]) -> list[str]:
        # Fill the furthest-behind activation first so mutually conflicting
        # links with equal demand alternate slots instead of one starving.
        return sorted(
            vids,
            key=lambda v: (
                granted[v] / demand_by_vertex[v].demanded_rate_bps,
                -demand_by_vertex[v].demanded_rate_bps,
                v,
            ),
        )

    for direction in (Direction.DOWNLINK, Direction.UPLINK):
        pool = data_pool[direction]
        wants = [v for v in schedulable if by_id[v].direction is direction]
        for idx in pool:
            members = slot_members[idx]
            # First pass: activations still short of their demand.
            for vid in deficit_order(wants):
                if granted[vid] >= demand_by_vertex[vid].demanded_rate_bps:
                    continue
                if vid in members:
                    continue
                if all(not graph.conflicts(vid, other) for other in members):
                    members.append(vid)
                    granted[vid] += slot_rate(vid, idx)
            # Work conservation: never leave a slot empty while a demanded
            # activation could legally use it.
            if not members:
                for vid in deficit_order(wants):
                    if all(not graph.conflicts(vid, other) for other in members):
                        members.append(vid)
                        granted[vid] += slot_rate(vid, idx)
                        break

    for vid in schedulable:
        if granted[vid] == 0.0:
            demand = demand_by_vertex[vid]
            starved.append(StarvedLink(
                link_id=demand.link_id, direction=demand.direction,
                demanded_rate_bps=demand.demanded_rate_bps,
                reason="no DATA slot granted",
            ))

    scheduled = [vid for vid in schedulable if granted[vid] > 0.0]

    # Materialize the slot map over the shared grid.
    slot_directions: dict[int, Direction] = {}
    slot_links: dict[int, tuple[str, ...]] = {}

    for direction in (Direction.DOWNLINK, Direction.UPLINK):
        for idx in data_pool[direction]:
            members = [v for v in slot_members[idx] if v in scheduled]
            if not members:
                continue
            slot_directions[idx] = direction
            slot_links[idx] = tuple(sorted(members))
    for vid in scheduled:
        idx = basic_grant[vid]
        v = by_id[vid]
        slot_directions[idx] = v.direction.reverse()
        slot_links[idx] = tuple(sorted(set(slot_links.get(idx, ())) | {v.reverse_id}))

    schedule = GlobalSchedule(
        structure=structure_template,
        slot_directions=slot_directions,
        slot_links=slot_links,
    )
    return AssignmentResult(
        schedule=schedule,
        granted_rate_bps=granted,
        starved=tuple(starved),
        graph=graph,
    )


def verify_global(
    schedule: GlobalSchedule,
    graph: InterferenceGraph,
    mcs_table: Sequence[McsEntry] = DEFAULT_MCS_TABLE,
) -> list[ScheduleViolation]:
    """Check the global slot map against the conflict rules; empty means ok."""
    violations: list[ScheduleViolation] = []
    by_id = graph.by_id()

    for idx, vids in sorted(schedule.slot_links.items()):
        links = [by_id[v] for v in vids if v in by_id]
        if len(links) != len(vids):
            missing = [v for v in vids if v not in by_id]
            violations.append(ScheduleViolation(
                kind="unknown-link", detail=f"slot {idx} activates unknown links {missing}"
            ))
        directions = {l.direction for l in links}
        if len(directions) > 1:
            violations.append(ScheduleViolation(
                kind="duplex-mixing", detail=f"slot {idx} mixes downlink and uplink"
            ))
        if idx in schedule.slot_directions and directions - {schedule.slot_directions[idx]}:
            violations.append(ScheduleViolation(
                kind="duplex-mixing",
                detail=f"slot {idx} direction disagrees with the global slot map",
            ))
        for i, a in enumerate(links):
            for b in links[i + 1:]:
                if graph.conflicts(a.vertex_id, b.vertex_id):
                    violations.append(ScheduleViolation(
                        kind="interference-conflict",
                        detail=f"slot {idx} co-schedules {a.vertex_id} and {b.vertex_id}",
                    ))
        transmitters = {l.tx_node for l in links}
        receivers = {l.rx_node for l in links}
        for node in transmitters & receivers:
            violations.append(ScheduleViolation(
                kind="tx-rx-overlap",
                detail=f"slot {idx} makes node {node} transmit and receive at once",
            ))
        for link in links:
            if mcs_from_snr(mcs_table, link.snr_db) is None:
                violations.append(ScheduleViolation(
                    kind="snr-below-mcs0",
                    detail=f"slot {idx} activates {link.vertex_id} below the lowest MCS",
                ))

    # Every activation in a DATA slot needs its reverse path in a BASIC slot.
    slots = schedule.structure.slots
    basic = {
        vid for idx, vids in schedule.slot_links.items()
        if slots[idx].category is SlotCategory.BASIC for vid in vids
    }
    for idx, vids in schedule.slot_links.items():
        if slots[idx].category is not SlotCategory.DATA:
            continue
        for link in (by_id[v] for v in vids if v in by_id):
            if link.reverse_id not in basic:
                violations.append(ScheduleViolation(
                    kind="missing-basic-slot",
                    detail=(
                        f"{link.vertex_id} carries data but {link.sta_id} holds no "
                        f"{link.direction.reverse().value} BASIC slot in the interval"
                    ),
                ))
    return violations
