"""Centralized planner: interference graph construction and coordinated,
conflict-free, direction-separated slot assignment across all APs.

Links enter as trained sector pairs. Each link contributes two directed
activations (downlink and uplink) as graph vertices; an edge joins two
activations that cannot share a slot: they share a node, or together they
raise the unintended power at a victim receiver, as reported or else as the
channel model prices it, above noise_floor + threshold. Slot
assignment is a greedy demand-sorted packing of independent sets into
direction-disjoint slot pools, validated by verify_global.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .beamforming import BeamMeasurementReport, TrainedLink
from .channel import LinkBudgetConfig, LinkTable, link_geometry, noise_floor_dbm
from .channel import link_snr_db  # noqa: F401  perfbench/layers.py hooks this name
from .domain import DEFAULT_MCS_TABLE, McsEntry, NodeModel, mcs_from_snr, sector_gain_dbi
from .schedule import (
    Direction,
    ScheduleViolation,
    SlotCategory,
    TddSlotStructure,
)


class DirectedLink:
    """One activation direction of a trained AP-STA link.

    `vertex_id` and the `reverse_id` of the same link's other direction are
    derived once, when it is built.
    """

    __slots__ = (
        "direction", "ap_id", "sta_id", "tx_node", "tx_sector", "rx_node", "rx_sector",
        "snr_db", "vertex_id", "reverse_id",
    )

    def __init__(
        self, link_id: str, direction: Direction, ap_id: str, sta_id: str,
        tx_node: str, tx_sector: int, rx_node: str, rx_sector: int, snr_db: float,
    ):
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


class DemandSpec:
    __slots__ = ("link_id", "direction", "demanded_rate_bps")

    def __init__(self, link_id: str, direction: Direction, demanded_rate_bps: float):
        if demanded_rate_bps < 0:
            raise ValueError("demanded rate must be non-negative")
        self.link_id = link_id
        self.direction = direction
        self.demanded_rate_bps = demanded_rate_bps


class InterferenceGraph:
    """Directed link activations and the pairs of them that cannot share a slot."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[DirectedLink, ...], edges: frozenset[frozenset[str]]):
        ids = {v.vertex_id for v in vertices}
        for edge in edges:
            pair = tuple(edge)
            if len(pair) != 2:
                raise ValueError(f"edge {pair} is not a two-vertex pair")
            if not set(pair) <= ids:
                raise ValueError(f"edge {pair} references unknown vertices")
        self.vertices = vertices
        self.edges = edges

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
    asymmetric transmit powers are reflected; one link table prices both.
    """
    initiator = nodes[trained.initiator_id]
    responder = nodes[trained.responder_id]
    ap, sta = (initiator, responder) if initiator.is_ap else (responder, initiator)
    ap_sector = trained.initiator_sector if initiator.is_ap else trained.responder_sector
    sta_sector = trained.responder_sector if initiator.is_ap else trained.initiator_sector
    link_id = f"{ap.node_id}-{sta.node_id}"
    links = LinkTable(channel_cfg)
    dl_snr = links.snr_db(ap, ap_sector, sta, sta_sector)
    ul_snr = links.snr_db(sta, sta_sector, ap, ap_sector)
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
    (tx node, tx sector, rx node, rx sector) tuple was reported and from the
    channel model otherwise. A model price is `LinkTable.power_dbm`'s sum,
    term by term in its order, and no link table is built: `link_geometry`
    runs once per unordered node pair (the reverse order swaps the two
    bearings) and `sector_gain_dbi` once per (node, sector, peer), which by
    reciprocity serves a node's sector both transmitting and receiving.
    """
    vertices: list[DirectedLink] = []
    for trained in trained_links:
        vertices.extend(links_from_trained(trained, nodes, channel_cfg))

    reported: dict[tuple[str, int, str, int], float] = {}
    for report in measurement_reports:
        for tx_sector, rx_sector, snr in report.samples:
            key = (report.initiator_id, tx_sector, report.responder_id, rx_sector)
            reported[key] = snr

    threshold = noise_floor_dbm(channel_cfg) + channel_cfg.interference_threshold_db
    # node id -> peer id -> (loss, bearing to the peer, bearing back).
    geometry: dict[str, dict[str, tuple[float, float, float]]] = {}
    ends: dict[tuple[str, int], tuple] = {}

    def end(node_id: str, sector: int) -> tuple:
        """The one record of an antenna end, shared by the vertices that send
        and receive on it: (node id, sector, gain toward each peer, the
        node's geometry, node)."""
        return ends.setdefault((node_id, sector), (
            node_id, sector, {}, geometry.setdefault(node_id, {}), nodes[node_id],
        ))

    def victim_hit(tx: tuple, rx: tuple) -> bool:
        """Whether end tx interferes at end rx above the threshold."""
        tx_id, tx_sector, tx_gains, tx_geometry, tx_node = tx
        rx_id, rx_sector, rx_gains, rx_geometry, rx_node = rx
        snr = reported.get((tx_id, tx_sector, rx_id, rx_sector))
        if snr is not None:
            # Reported SNR is referenced to the same noise floor.
            return snr > channel_cfg.interference_threshold_db
        if rx_id not in tx_geometry:
            loss, out, back = tx_geometry[rx_id] = link_geometry(tx_node, rx_node, channel_cfg)
            rx_geometry[tx_id] = loss, back, out
        loss, out, back = tx_geometry[rx_id]
        if rx_id not in tx_gains:
            tx_gains[rx_id] = sector_gain_dbi(tx_node.codebook, tx_sector, out)
        if tx_id not in rx_gains:
            rx_gains[tx_id] = sector_gain_dbi(rx_node.codebook, rx_sector, back)
        return tx_node.tx_power_dbm + tx_gains[rx_id] + rx_gains[tx_id] - loss > threshold

    edges: set[frozenset[str]] = set()
    rows = [
        (v.vertex_id, v.tx_node, v.rx_node, end(v.tx_node, v.tx_sector), end(v.rx_node, v.rx_sector))
        for v in vertices
    ]
    for i, (a, a_tx, a_rx, a_send, a_receive) in enumerate(rows):
        for b, b_tx, b_rx, b_send, b_receive in rows[i + 1:]:
            if a_tx == b_tx or a_tx == b_rx or a_rx == b_tx or a_rx == b_rx:
                edges.add(frozenset((a, b)))
                continue
            # Price both directions: coincident nodes raise in link_geometry.
            hit_ab = victim_hit(a_send, b_receive)
            hit_ba = victim_hit(b_send, a_receive)
            if hit_ab or hit_ba:
                edges.add(frozenset((a, b)))

    return InterferenceGraph(vertices=tuple(vertices), edges=frozenset(edges))


# ---------------------------------------------------------------------------
# Slot assignment.


class GlobalSchedule(NamedTuple):
    """The slot map every AP follows: per slot index of the shared grid,
    the activations that transmit in it. They all send in one direction,
    which is the slot's."""

    structure: TddSlotStructure
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


def _split_pool(
    indices: list[int], first: list[str], second: list[str], first_share: float,
) -> tuple[list[int], list[int]]:
    """Split a slot pool between two directions, the first taking the leading
    slots: `first_share` of them when both want slots, at least one each."""
    n = len(indices)
    if first and second:
        n_first = max(1, min(n - 1, round(n * first_share)))
    else:
        n_first = n if first else 0
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
    control responses. Activations that cannot be granted any slot, whose
    own or reverse path is below the lowest MCS, and demands on links that
    were never trained, are excluded from the schedule and listed as starved.
    """
    by_id = graph.by_id()
    demand_by_vertex: dict[str, DemandSpec] = {}
    starved: list[StarvedLink] = []

    def starve(demand: DemandSpec, reason: str) -> None:
        starved.append(StarvedLink(
            demand.link_id, demand.direction, demand.demanded_rate_bps, reason,
        ))

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
        starve(demand, "link not trained")

    # Deterministic priority: demanded rate descending, then vertex id.
    order = sorted(
        demand_by_vertex,
        key=lambda vid: (-demand_by_vertex[vid].demanded_rate_bps, vid),
    )
    phy_rate: dict[str, float] = {}  # servable vertex id -> its MCS rate
    for vid in order:
        entry = mcs_from_snr(mcs_table, by_id[vid].snr_db)
        rate = float(entry.phy_rate_bps) if entry else 0.0
        if rate <= 0.0:
            starve(demand_by_vertex[vid], "link SNR below the lowest MCS threshold")
        elif mcs_from_snr(mcs_table, by_id[by_id[vid].reverse_id].snr_db) is None:
            starve(demand_by_vertex[vid], "reverse-path SNR below the lowest MCS threshold")
        else:
            phy_rate[vid] = rate

    def by_direction(vids) -> tuple[list[str], list[str]]:
        return tuple([v for v in vids if by_id[v].direction is d] for d in Direction)

    slots = structure_template.slots
    basic_indices = [i for i, s in enumerate(slots) if s.category is SlotCategory.BASIC]
    data_indices = [i for i, s in enumerate(slots) if s.category is SlotCategory.DATA]

    # BASIC packing: each activation's reverse path takes the first slot of
    # the pool its acks travel in (DL data acks travel uplink, and vice
    # versa) where it conflicts with no reverse path already placed.
    dl_active, ul_active = by_direction(phy_rate)
    basic_grant: dict[str, int] = {}  # data vertex id -> BASIC slot index
    basic_members: dict[int, list[str]] = {i: [] for i in basic_indices}
    basic_pools = _split_pool(basic_indices, dl_active, ul_active, 0.5)
    for pool, wants in zip(basic_pools, (dl_active, ul_active)):
        for vid in wants:
            reverse_id = by_id[vid].reverse_id
            for idx in pool:
                if not any(graph.conflicts(reverse_id, other) for other in basic_members[idx]):
                    basic_members[idx].append(reverse_id)
                    basic_grant[vid] = idx
                    break
    for vid in phy_rate:
        if vid not in basic_grant:
            starve(demand_by_vertex[vid], "no reverse-path BASIC slot available in the interval")

    # DATA packing, furthest-behind activation first so mutually conflicting
    # links with equal demand alternate slots instead of one starving.
    schedulable = [vid for vid in phy_rate if vid in basic_grant]
    wants_by_direction = by_direction(schedulable)
    data_pools = _split_pool(data_indices, *wants_by_direction, dl_data_fraction)
    granted: dict[str, float] = {vid: 0.0 for vid in schedulable}
    data_members: dict[int, list[str]] = {}

    def deficit(vid: str) -> tuple:
        demanded = demand_by_vertex[vid].demanded_rate_bps
        return granted[vid] / demanded, -demanded, vid

    for pool, wants in zip(data_pools, wants_by_direction):
        for idx in pool:
            share = slots[idx].duration_us / structure_template.interval_duration_us
            ranked = sorted(wants, key=deficit)
            members = data_members[idx] = []
            for vid in ranked:
                if granted[vid] < demand_by_vertex[vid].demanded_rate_bps and not any(
                    graph.conflicts(vid, other) for other in members
                ):
                    members.append(vid)
                    granted[vid] += phy_rate[vid] * share
            # Work conservation: never leave a slot empty while a demanded
            # activation could use it.
            if not members and ranked:
                members.append(ranked[0])
                granted[ranked[0]] += phy_rate[ranked[0]] * share

    # Materialize the slot map over the shared grid. An activation granted
    # nothing (it only held zero-length slots) starves and leaves the map.
    slot_links: dict[int, tuple[str, ...]] = {}
    for idx, members in data_members.items():
        members = [v for v in members if granted[v] > 0.0]
        if members:
            slot_links[idx] = tuple(sorted(members))
    for vid in schedulable:
        if granted[vid] == 0.0:
            starve(demand_by_vertex[vid], "no DATA slot granted")
            continue
        idx = basic_grant[vid]
        slot_links[idx] = tuple(sorted((*slot_links.get(idx, ()), by_id[vid].reverse_id)))

    return AssignmentResult(
        schedule=GlobalSchedule(structure=structure_template, slot_links=slot_links),
        granted_rate_bps=granted,
        starved=tuple(starved),
        graph=graph,
    )


def verify_global(
    schedule: GlobalSchedule,
    graph: InterferenceGraph,
    mcs_table: Sequence[McsEntry] = DEFAULT_MCS_TABLE,
) -> list[ScheduleViolation]:
    """Check the global slot map against the conflict rules; empty means ok.

    A slot's direction is that of its links, so a slot whose links send in
    both directions is the one way the map can mix them.
    """
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
