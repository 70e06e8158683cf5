
import pytest

from tddsim.beamforming import BeamMeasurementReport, TrainedLink
from tddsim.channel import LinkBudgetConfig, LinkTable, noise_floor_dbm
from tddsim.controller import (
    AssignmentResult,
    DemandSpec,
    InterferenceGraph,
    assign_slots,
    build_interference_graph,
    links_from_trained,
    verify_global,
)
from tddsim.schedule import Direction, default_slot_structure

from conftest import make_ap, make_node

CHANNEL = LinkBudgetConfig()
SLOT_RATE = 66 / 1600 * 4.62e9  # one 66 us slot of MCS12 per 1.6 ms interval


def one_pair(suffix="", origin=(0.0, 0.0), sectors=8):
    """AP at origin, STA 100 m east; boresight sectors 0 and n/2."""
    ox, oy = origin
    ap = make_ap(f"ap{suffix}", position=origin, sectors=sectors)
    sta = make_node(f"sta{suffix}", position=(ox + 100.0, oy), sectors=sectors)
    trained = TrainedLink(
        initiator_id=ap.node_id, responder_id=sta.node_id,
        initiator_sector=0, responder_sector=sectors // 2, snr_db=22.64,
    )
    return ap, sta, trained


def test_links_from_trained_role_resolution():
    ap, sta, trained = one_pair()
    nodes = {n.node_id: n for n in (ap, sta)}
    dl, ul = links_from_trained(trained, nodes, CHANNEL)
    assert dl.link_id == ul.link_id == "ap-sta"
    assert dl.direction is Direction.DOWNLINK and ul.direction is Direction.UPLINK
    assert dl.tx_node == "ap" and dl.rx_node == "sta"
    assert ul.tx_node == "sta" and ul.rx_node == "ap"
    # Reciprocity: each node keeps its trained sector in both directions.
    assert dl.tx_sector == ul.rx_sector == 0
    assert dl.rx_sector == ul.tx_sector == 4
    assert dl.vertex_id == "ap-sta:downlink"
    # Equal powers and reciprocal gains give symmetric SNR.
    assert dl.snr_db == pytest.approx(ul.snr_db)
    assert dl.snr_db == pytest.approx(22.642, abs=1e-3)


def test_links_from_trained_sta_initiator():
    # The STA may have initiated training; roles still resolve from node roles.
    ap, sta, _ = one_pair()
    nodes = {n.node_id: n for n in (ap, sta)}
    flipped = TrainedLink(
        initiator_id="sta", responder_id="ap",
        initiator_sector=4, responder_sector=0, snr_db=22.64,
    )
    dl, ul = links_from_trained(flipped, nodes, CHANNEL)
    assert dl.tx_node == "ap" and dl.tx_sector == 0
    assert ul.tx_node == "sta" and ul.tx_sector == 4


def test_links_from_trained_asymmetric_power():
    ap = make_ap("ap", sectors=8)
    sta = make_node("sta", position=(100.0, 0.0), sectors=8, tx_power_dbm=4.0)
    trained = TrainedLink("ap", "sta", 0, 4, 22.64)
    dl, ul = links_from_trained(trained, {"ap": ap, "sta": sta}, CHANNEL)
    assert dl.snr_db - ul.snr_db == pytest.approx(6.0)


def test_graph_same_node_edges_are_complete():
    ap, sta1, t1 = one_pair("")
    sta2 = make_node("sta2", position=(0.0, 100.0), sectors=8)
    t2 = TrainedLink("ap", "sta2", 2, 6, 22.64)
    nodes = {n.node_id: n for n in (ap, sta1, sta2)}
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    assert len(graph.vertices) == 4
    # Two links through one AP: every activation pair shares a node.
    assert len(graph.edges) == 6
    assert graph.conflicts("ap-sta:downlink", "ap-sta2:downlink")
    others = {v.vertex_id for v in graph.vertices} - {"ap-sta:uplink"}
    assert {v for v in others if graph.conflicts("ap-sta:uplink", v)} == {
        "ap-sta:downlink", "ap-sta2:downlink", "ap-sta2:uplink",
    }


def test_graph_edge_is_exactly_power_above_floor_plus_threshold():
    # Two links 30 m apart, mainlobe to mainlobe across them, and a third
    # 300 m further south that the first two reach only off their mainlobes.
    ap1, sta1, t1 = one_pair("1")
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 30.0))
    ap3, sta3, t3 = one_pair("3", origin=(0.0, -300.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2, ap3, sta3)}
    edges_at = {}
    for threshold in (0.0, 5.0, 40.0):
        cfg = LinkBudgetConfig(interference_threshold_db=threshold)
        floor = noise_floor_dbm(cfg)
        graph = build_interference_graph(nodes, [t1, t2, t3], [], cfg)
        for i, a in enumerate(graph.vertices):
            for b in graph.vertices[i + 1:]:
                if a.nodes & b.nodes:
                    continue
                hits = [
                    LinkTable(cfg).power_dbm(
                        nodes[x.tx_node], x.tx_sector, nodes[y.rx_node], y.rx_sector,
                    ) > floor + threshold
                    for x, y in ((a, b), (b, a))
                ]
                assert graph.conflicts(a.vertex_id, b.vertex_id) == any(hits), (a, b)
        edges_at[threshold] = graph.edges
    downlinks = frozenset({"ap1-sta1:downlink", "ap2-sta2:downlink"})
    assert downlinks in edges_at[0.0] and downlinks in edges_at[5.0]
    # Raising the threshold above the cross-link margin removes the edge.
    assert downlinks not in edges_at[40.0]
    # Sidelobe paths to the third link stay below the floor.
    assert frozenset({"ap1-sta1:downlink", "ap3-sta3:downlink"}) not in edges_at[0.0]


def test_graph_isolated_pairs_have_no_cross_edges():
    ap1, sta1, t1 = one_pair("1")
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 2000.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    # Only the within-link downlink/uplink edges survive 2 km of separation.
    assert graph.edges == frozenset({
        frozenset({"ap1-sta1:downlink", "ap1-sta1:uplink"}),
        frozenset({"ap2-sta2:downlink", "ap2-sta2:uplink"}),
    })
    # Cross-pair conflict checks fell back to the channel model.
    assert graph.model_derived_pairs


def test_graph_close_pairs_conflict_via_model():
    # 4-sector nodes 50 m apart on parallel east-west links: wide mainlobes
    # put each AP inside the other's receive cone.
    ap1, sta1, t1 = one_pair("1", sectors=4)
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 50.0), sectors=4)
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    assert graph.conflicts("ap1-sta1:downlink", "ap2-sta2:downlink")


def test_measurement_reports_override_the_model():
    # Same close geometry, but reports swear every cross path is quiet.
    ap1, sta1, t1 = one_pair("1", sectors=4)
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 50.0), sectors=4)
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    pair1 = {"ap1", "sta1"}
    pair2 = {"ap2", "sta2"}
    reports = []
    for tx in sorted(pair1 | pair2):
        for rx in sorted(pair1 | pair2):
            if tx == rx or ({tx, rx} <= pair1) or ({tx, rx} <= pair2):
                continue
            samples = tuple(
                (s_tx, s_rx, -60.0) for s_tx in range(4) for s_rx in range(4)
            )
            reports.append(BeamMeasurementReport(
                responder_id=rx, initiator_id=tx, samples=samples,
            ))
    graph = build_interference_graph(nodes, [t1, t2], reports, CHANNEL)
    assert graph.edges == frozenset({
        frozenset({"ap1-sta1:downlink", "ap1-sta1:uplink"}),
        frozenset({"ap2-sta2:downlink", "ap2-sta2:uplink"}),
    })
    # Every cross check was answered by a report, none by the model.
    assert graph.model_derived_pairs == frozenset()


def test_reported_interference_creates_edge_model_would_miss():
    ap1, sta1, t1 = one_pair("1")
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 2000.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    hot = BeamMeasurementReport(
        responder_id="sta2", initiator_id="ap1", samples=((0, 4, 25.0),),
    )
    graph = build_interference_graph(nodes, [t1, t2], [hot], CHANNEL)
    assert graph.conflicts("ap1-sta1:downlink", "ap2-sta2:downlink")


def test_graph_rejects_malformed_edges():
    ap, sta, t1 = one_pair()
    nodes = {"ap": ap, "sta": sta}
    graph = build_interference_graph(nodes, [t1], [], CHANNEL)
    with pytest.raises(ValueError):
        InterferenceGraph(vertices=graph.vertices, edges=frozenset({frozenset({"x", "y"})}))


def single_link_graph():
    ap, sta, trained = one_pair()
    nodes = {"ap": ap, "sta": sta}
    return build_interference_graph(nodes, [trained], [], CHANNEL)


def test_assign_slots_single_downlink():
    graph = single_link_graph()
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 4.2e9)]
    result = assign_slots(graph, demands, default_slot_structure(1))
    assert not result.infeasible
    # All 22 DATA slots go downlink; capacity tops out just under demand.
    assert result.granted_rate_bps["ap-sta:downlink"] == pytest.approx(22 * SLOT_RATE)
    assert result.granted_rate_bps["ap-sta:downlink"] == pytest.approx(4.19265e9)
    data_slots = [i for i, links in result.schedule.slot_links.items()
                  if result.schedule.slot_directions[i] is Direction.DOWNLINK]
    assert sorted(data_slots) == [i for i in range(1, 24) if i != 12]
    # One reverse-path BASIC slot carries the uplink acks.
    assert result.schedule.slot_links[0] == ("ap-sta:uplink",)
    assert result.schedule.slot_directions[0] is Direction.UPLINK
    # The second BASIC slot stays unassigned.
    assert 12 not in result.schedule.slot_links
    assert len(result.schedule.slot_links) == 23
    assert verify_global(result.schedule, graph) == []


def test_assign_slots_directional_split():
    graph = single_link_graph()
    demands = [
        DemandSpec("ap-sta", Direction.DOWNLINK, 4.2e9),
        DemandSpec("ap-sta", Direction.UPLINK, 4.2e9),
    ]
    result = assign_slots(graph, demands, default_slot_structure(1), dl_data_fraction=0.75)
    dl = result.granted_rate_bps["ap-sta:downlink"]
    ul = result.granted_rate_bps["ap-sta:uplink"]
    n_dl = round(dl / SLOT_RATE)
    n_ul = round(ul / SLOT_RATE)
    assert n_dl + n_ul == 22
    assert n_dl == round(22 * 0.75)
    # Each direction holds a BASIC slot for the other's acks.
    assert result.schedule.slot_directions[0] is Direction.UPLINK
    assert result.schedule.slot_directions[12] is Direction.DOWNLINK
    assert verify_global(result.schedule, graph) == []


def test_assign_slots_two_sta_fair_split():
    ap = make_ap("ap")
    sta1 = make_node("sta1", position=(100.0, 0.0))
    sta2 = make_node("sta2", position=(-100.0, 0.0))
    trained = [
        TrainedLink("ap", "sta1", 0, 4, 22.64),
        TrainedLink("ap", "sta2", 4, 0, 22.64),
    ]
    nodes = {n.node_id: n for n in (ap, sta1, sta2)}
    graph = build_interference_graph(nodes, trained, [], CHANNEL)
    demands = [
        DemandSpec("ap-sta1", Direction.DOWNLINK, 2.0e9),
        DemandSpec("ap-sta2", Direction.DOWNLINK, 2.0e9),
    ]
    result = assign_slots(graph, demands, default_slot_structure(1))
    g1 = result.granted_rate_bps["ap-sta1:downlink"]
    g2 = result.granted_rate_bps["ap-sta2:downlink"]
    # Conflicting equal demands alternate slots: an exact 11/11 split.
    assert g1 == pytest.approx(g2)
    assert g1 == pytest.approx(11 * SLOT_RATE)
    for links in result.schedule.slot_links.values():
        assert len(links) == 1
    assert verify_global(result.schedule, graph) == []


def test_spatial_reuse_shares_slots():
    ap1, sta1, t1 = one_pair("1")
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 2000.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    demands = [
        DemandSpec("ap1-sta1", Direction.DOWNLINK, 4.2e9),
        DemandSpec("ap2-sta2", Direction.DOWNLINK, 4.2e9),
    ]
    result = assign_slots(graph, demands, default_slot_structure(1))
    # Non-conflicting links ride the same slots: full rate for both.
    assert result.granted_rate_bps["ap1-sta1:downlink"] == pytest.approx(22 * SLOT_RATE)
    assert result.granted_rate_bps["ap2-sta2:downlink"] == pytest.approx(22 * SLOT_RATE)
    data_slots = [i for i, d in result.schedule.slot_directions.items()
                  if i not in (0, 12)]
    for idx in data_slots:
        assert len(result.schedule.slot_links[idx]) == 2
    assert verify_global(result.schedule, graph) == []


def test_assign_slots_starves_sub_mcs_link():
    ap = make_ap("ap")
    sta = make_node("sta", position=(10000.0, 0.0))
    trained = TrainedLink("ap", "sta", 0, 4, -17.0)
    graph = build_interference_graph({"ap": ap, "sta": sta}, [trained], [], CHANNEL)
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 1e9)]
    result = assign_slots(graph, demands, default_slot_structure(1))
    assert result.infeasible
    assert result.starved[0].reason == "link SNR below the lowest MCS threshold"
    assert result.granted_rate_bps.get("ap-sta:downlink", 0.0) == 0.0


def test_assign_slots_starves_third_basic_claimant():
    ap = make_ap("ap")
    stas = [
        make_node("sta1", position=(100.0, 0.0)),
        make_node("sta2", position=(-100.0, 0.0)),
        make_node("sta3", position=(0.0, 100.0)),
    ]
    trained = [
        TrainedLink("ap", "sta1", 0, 4, 22.64),
        TrainedLink("ap", "sta2", 4, 0, 22.64),
        TrainedLink("ap", "sta3", 2, 6, 22.64),
    ]
    nodes = {n.node_id: n for n in (ap, *stas)}
    graph = build_interference_graph(nodes, trained, [], CHANNEL)
    demands = [
        DemandSpec(f"ap-{s.node_id}", Direction.DOWNLINK, 1.0e9) for s in stas
    ]
    result = assign_slots(graph, demands, default_slot_structure(1))
    # Three reverse uplink activations all share the AP, but the interval
    # holds only two BASIC slots: the last claimant starves.
    assert result.infeasible
    assert [s.reason for s in result.starved] == [
        "no reverse-path BASIC slot available in the interval"
    ]
    granted = [v for v in result.granted_rate_bps.values() if v > 0]
    assert len(granted) == 2


def test_assign_slots_rejects_unknown_demand():
    graph = single_link_graph()
    with pytest.raises(ValueError):
        assign_slots(graph, [DemandSpec("ghost", Direction.DOWNLINK, 1e9)],
                     default_slot_structure(1))


def test_zero_demand_is_ignored():
    graph = single_link_graph()
    result = assign_slots(graph, [DemandSpec("ap-sta", Direction.DOWNLINK, 0.0)],
                          default_slot_structure(1))
    assert not result.infeasible
    assert result.schedule.slot_links == {}


def test_verify_global_flags_planted_conflicts():
    ap, sta1, t1 = one_pair()
    sta2 = make_node("sta2", position=(0.0, 100.0))
    t2 = TrainedLink("ap", "sta2", 2, 6, 22.64)
    nodes = {n.node_id: n for n in (ap, sta1, sta2)}
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    demands = [
        DemandSpec("ap-sta", Direction.DOWNLINK, 1.0e9),
        DemandSpec("ap-sta2", Direction.DOWNLINK, 1.0e9),
    ]
    result = assign_slots(graph, demands, default_slot_structure(1))
    assert verify_global(result.schedule, graph) == []
    # Plant both conflicting links into one slot.
    broken = result.schedule._replace(
        slot_links={**result.schedule.slot_links,
                    1: ("ap-sta:downlink", "ap-sta2:downlink")},
    )
    kinds = {v.kind for v in verify_global(broken, graph)}
    assert "interference-conflict" in kinds
    assert "tx-rx-overlap" not in kinds  # both transmit from the AP
    # Mixing directions in a slot is flagged even without interference.
    mixed = result.schedule._replace(
        slot_links={**result.schedule.slot_links,
                    2: ("ap-sta:downlink", "ap-sta2:uplink")},
    )
    kinds = {v.kind for v in verify_global(mixed, graph)}
    assert "duplex-mixing" in kinds
    assert "tx-rx-overlap" in kinds  # the AP would transmit and receive at once
    unknown = result.schedule._replace(
        slot_links={**result.schedule.slot_links, 3: ("ghost:downlink",)},
    )
    kinds = {v.kind for v in verify_global(unknown, graph)}
    assert "unknown-link" in kinds


def test_verify_global_wants_reverse_basic_coverage():
    graph = single_link_graph()
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 1.0e9)]
    result = assign_slots(graph, demands, default_slot_structure(1))
    # Strip the BASIC slots from the slot map.
    stripped = result.schedule._replace(
        slot_directions={k: v for k, v in result.schedule.slot_directions.items() if k not in (0, 12)},
        slot_links={k: v for k, v in result.schedule.slot_links.items() if k not in (0, 12)},
    )
    kinds = {v.kind for v in verify_global(stripped, graph)}
    assert "missing-basic-slot" in kinds
