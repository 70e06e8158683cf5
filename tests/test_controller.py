
import math
import random
from collections import Counter
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from tddsim import channel, controller
from tddsim.beamforming import BeamMeasurementReport, TrainedLink
from tddsim.channel import LinkBudgetConfig, LinkTable, noise_floor_dbm
from tddsim.config import ScenarioConfig
from tddsim.controller import (
    AssignmentResult,
    DemandSpec,
    DirectedLink,
    GlobalSchedule,
    InterferenceGraph,
    StarvedLink,
    assign_slots,
    build_interference_graph,
    links_from_trained,
    verify_global,
)
from tddsim.domain import (
    DEFAULT_MCS_TABLE, McsEntry, NodeModel, Role, mcs_from_snr, uniform_codebook,
)
from tddsim.schedule import (
    Direction, SlotCategory, SlotSpec, TddSlotStructure,
)

from conftest import make_ap, make_node

CHANNEL = LinkBudgetConfig()
SLOT_RATE = 66 / 1600 * 4.62e9  # one 66 us slot of MCS12 per 1.6 ms interval


def share_a_node(a: DirectedLink, b: DirectedLink) -> bool:
    return bool({a.tx_node, a.rx_node} & {b.tx_node, b.rx_node})


def slot_direction(result: AssignmentResult, idx: int) -> Direction:
    """The direction of slot `idx` of `result`'s slot map: that of its links."""
    return result.graph.by_id()[result.schedule.slot_links[idx][0]].direction


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
    assert ul.vertex_id == dl.reverse_id == "ap-sta:uplink"
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
                if share_a_node(a, b):
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


def geometry_calls(monkeypatch) -> list:
    """Count the graph builder's channel-model geometry lookups: one entry
    per `controller.link_geometry` call."""
    calls = []
    real = controller.link_geometry

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(controller, "link_geometry", counting)
    return calls


def test_graph_isolated_pairs_have_no_cross_edges(monkeypatch):
    ap1, sta1, t1 = one_pair("1")
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 2000.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    calls = geometry_calls(monkeypatch)
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    # Only the within-link downlink/uplink edges survive 2 km of separation.
    assert graph.edges == frozenset({
        frozenset({"ap1-sta1:downlink", "ap1-sta1:uplink"}),
        frozenset({"ap2-sta2:downlink", "ap2-sta2:uplink"}),
    })
    # Cross-pair conflict checks fell back to the channel model.
    assert len(calls) > 0


def test_graph_close_pairs_conflict_via_model():
    # 4-sector nodes 50 m apart on parallel east-west links: wide mainlobes
    # put each AP inside the other's receive cone.
    ap1, sta1, t1 = one_pair("1", sectors=4)
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 50.0), sectors=4)
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    graph = build_interference_graph(nodes, [t1, t2], [], CHANNEL)
    assert graph.conflicts("ap1-sta1:downlink", "ap2-sta2:downlink")


def test_measurement_reports_override_the_model(monkeypatch):
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
    # Every cross check is answered by a report: the model is never asked.
    def unreachable(*args):
        raise AssertionError("the channel model priced a reported pair")

    monkeypatch.setattr(controller, "link_geometry", unreachable)
    monkeypatch.setattr(controller, "sector_gain_dbi", unreachable)
    graph = build_interference_graph(nodes, [t1, t2], reports, CHANNEL)
    assert graph.edges == frozenset({
        frozenset({"ap1-sta1:downlink", "ap1-sta1:uplink"}),
        frozenset({"ap2-sta2:downlink", "ap2-sta2:uplink"}),
    })


def test_reported_interference_creates_edge_model_would_miss():
    ap1, sta1, t1 = one_pair("1")
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 2000.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2)}
    hot = BeamMeasurementReport(
        responder_id="sta2", initiator_id="ap1", samples=((0, 4, 25.0),),
    )
    graph = build_interference_graph(nodes, [t1, t2], [hot], CHANNEL)
    assert graph.conflicts("ap1-sta1:downlink", "ap2-sta2:downlink")


def link_table_graph(nodes, trained_links, measurement_reports, channel_cfg):
    """`(edges, model-derived pairs)`: the edges of build_interference_graph
    as it was first written, every cross pair without a report priced
    through a `LinkTable` entry, and the pairs whose check used the model."""
    vertices = []
    for trained in trained_links:
        vertices.extend(links_from_trained(trained, nodes, channel_cfg))
    reported = {}
    for report in measurement_reports:
        for tx_sector, rx_sector, snr in report.samples:
            reported[(report.initiator_id, tx_sector, report.responder_id, rx_sector)] = snr
    links = LinkTable(channel_cfg)
    threshold = links.noise_floor_dbm + channel_cfg.interference_threshold_db

    def victim_hit(tx, victim):
        key = (tx.tx_node, tx.tx_sector, victim.rx_node, victim.rx_sector)
        if key in reported:
            return reported[key] > channel_cfg.interference_threshold_db, False
        power = links.power_dbm(
            nodes[tx.tx_node], tx.tx_sector, nodes[victim.rx_node], victim.rx_sector
        )
        return power > threshold, True

    edges, model_derived = set(), set()
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if share_a_node(a, b):
                edges.add(frozenset((a.vertex_id, b.vertex_id)))
                continue
            hit_ab, model_ab = victim_hit(a, b)
            hit_ba, model_ba = victim_hit(b, a)
            if hit_ab or hit_ba:
                edges.add(frozenset((a.vertex_id, b.vertex_id)))
            if model_ab or model_ba:
                model_derived.add((a.vertex_id, b.vertex_id))
    return frozenset(edges), frozenset(model_derived)


def threshold_at(cfg, power_dbm):
    """An `interference_threshold_db` that puts noise floor + threshold at
    exactly `power_dbm`, or None if no float near it does."""
    floor = noise_floor_dbm(cfg)
    guess = power_dbm - floor
    for _ in range(8):
        if floor + guess == power_dbm:
            return guess
        guess = math.nextafter(guess, math.inf if floor + guess < power_dbm else -math.inf)
    return None


# AP positions on a coarse grid (so two APs may coincide) or anywhere in a
# 1 km square; fractional powers and gains make sums whose float rounding
# depends on the order of their terms.
coords = st.sampled_from([0.0, 30.0, 300.0]) | st.floats(-500.0, 500.0)
powers = st.sampled_from([-10.0, 10.0, 20.0]) | st.floats(-10.0, 20.0)
antennas = st.tuples(
    st.integers(1, 16), powers, st.just((25.0, -10.0)) | st.tuples(st.floats(5.0, 30.0), st.floats(-20.0, 0.0)),
)


@st.composite
def graph_cases(draw):
    """Two to four AP-STA links, the last AP possibly serving a second STA,
    extra losses, reports on trained sector pairs and a threshold, possibly
    one at a cross pair's exact power. A node may take an earlier node's
    codebook object, as nodes built from one config share one per antenna."""
    nodes, trained = {}, []
    n_links = draw(st.integers(2, 4))
    for k in range(n_links):
        ap_at = (draw(coords), draw(coords))
        stas = [f"sta{k}", f"sta{k}b"] if k == n_links - 1 and draw(st.booleans()) else [f"sta{k}"]
        ends = [(f"ap{k}", Role.DN_AP, ap_at, draw(antennas))]
        for sta in stas:
            dist, angle = draw(st.floats(10.0, 300.0)), math.radians(draw(st.floats(0.0, 360.0)))
            ends.append((
                sta, Role.CN_STA, (ap_at[0] + dist * math.cos(angle), ap_at[1] + dist * math.sin(angle)),
                draw(antennas),
            ))
        for node_id, role, at, (sectors, power, gains) in ends:
            shared = draw(st.none() | st.sampled_from(sorted(nodes))) if nodes else None
            codebook = nodes[shared].codebook if shared else uniform_codebook(sectors, *gains)
            nodes[node_id] = NodeModel(node_id, role, at, codebook, tx_power_dbm=power)
        ap_sector = draw(st.integers(0, len(nodes[f"ap{k}"].codebook) - 1))
        for sta in stas:
            trained.append(TrainedLink(
                f"ap{k}", sta, ap_sector, draw(st.integers(0, len(nodes[sta].codebook) - 1)), 0.0,
            ))
            # The second link keeps the AP's sector or trains another.
            ap_sector = draw(st.just(ap_sector) | st.integers(0, len(nodes[f"ap{k}"].codebook) - 1))
    ids = sorted(nodes)
    sector = {t.initiator_id: t.initiator_sector for t in trained}
    sector.update({t.responder_id: t.responder_sector for t in trained})
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    extra = {frozenset(p): draw(st.floats(0.0, 30.0)) for p in draw(st.lists(pairs, max_size=3))}
    cfg = LinkBudgetConfig(
        interference_threshold_db=draw(st.sampled_from([0.0, 5.0]) | st.floats(-20.0, 40.0)),
        extra_loss_db=extra,
    )
    if draw(st.booleans()):
        # ap0 transmitting into sta1's receiver, priced by the model.
        power = LinkTable(cfg).power_dbm(nodes["ap0"], sector["ap0"], nodes["sta1"], sector["sta1"])
        at = threshold_at(cfg, power)
        if at is not None:
            cfg.interference_threshold_db = at
    reports = [
        BeamMeasurementReport(rx, tx, (
            (sector[tx], sector[rx], draw(st.just(cfg.interference_threshold_db) | st.floats(-30.0, 40.0))),
            (len(nodes[tx].codebook), 0, 99.0),  # a sector pair no link uses
        ))
        for tx, rx in draw(st.lists(pairs, max_size=4, unique=True))
        if (tx, rx) != ("ap0", "sta1")
    ]
    return nodes, trained, reports, cfg


def test_graph_equals_the_link_table_oracle():
    seen = Counter()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph_cases(), st.sampled_from(["ap0", "sta0", "ap1", "sta1"]), powers)
    def check(case, changed, power):
        nodes, trained, reports, cfg = case
        # The same nodes before and after one node's power changes.
        for _ in range(2):
            try:
                expected = link_table_graph(nodes, trained, reports, cfg)
            except ValueError as error:
                with pytest.raises(ValueError, match=str(error)):
                    build_interference_graph(nodes, trained, reports, cfg)
                seen["coincident"] += 1
                return
            graph = build_interference_graph(nodes, trained, reports, cfg)
            assert graph.edges == expected[0]
            nodes[changed].set_tx_power(power)
        floor = noise_floor_dbm(cfg)
        ap0, sta1 = trained[0], trained[1]
        at = LinkTable(cfg).power_dbm(
            nodes["ap0"], ap0.initiator_sector, nodes["sta1"], sta1.responder_sector,
        ) == floor + cfg.interference_threshold_db
        seen["power at threshold"] += at
        seen["report at threshold"] += any(
            s[2] == cfg.interference_threshold_db for r in reports for s in r.samples
        )
        seen["extra loss"] += bool(cfg.extra_loss_db)
        seen["cross edge"] += any(len({v.split(":")[0] for v in e}) == 2 for e in expected[0])
        seen["model-derived"] += bool(expected[1])
        seen["shared codebook"] += len({id(n.codebook) for n in nodes.values()}) < len(nodes)
        seen["AP with two STAs"] += len({t.initiator_id for t in trained}) < len(trained)
        reported = {(r.initiator_id, tx, r.responder_id, rx) for r in reports for tx, rx, _ in r.samples}

        def covered(tx, victim):
            return (tx.tx_node, tx.tx_sector, victim.rx_node, victim.rx_sector) in reported

        seen["one-direction report"] += any(
            covered(a, b) != covered(b, a)
            for a, b in combinations(graph.vertices, 2) if not share_a_node(a, b)
        )

    check()
    assert set(seen) >= {
        "power at threshold", "report at threshold", "extra loss", "cross edge", "model-derived",
        "shared codebook", "AP with two STAs", "one-direction report",
    }, seen
    assert all(seen.values()), seen


def test_graph_equals_the_oracle_at_each_model_power():
    """A threshold at each cross pair's exact model power, and at the float
    below it, lets that power alone decide its edge, so a price off by one
    rounding step changes an edge. Each AP serves two STAs on sectors of
    their own, and the links come in shuffled order, so that some gains are
    priced from a node pair's geometry cached in the other order (the
    random cases above reach such edges rarely)."""
    rng = random.Random(3)

    def node(node_id, role, at):
        codebook = uniform_codebook(rng.randint(2, 12), rng.uniform(5.0, 30.0), rng.uniform(-20.0, 0.0))
        nodes[node_id] = NodeModel(node_id, role, at, codebook, tx_power_dbm=rng.uniform(-10.0, 20.0))
        return rng.randrange(len(codebook))

    checked = 0
    for _ in range(10):
        nodes, trained = {}, []
        for k in range(2):
            ap_at = (rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0))
            node(f"ap{k}", Role.DN_AP, ap_at)
            for j in range(2):
                angle = rng.uniform(0.0, 2 * math.pi)
                sta_at = (ap_at[0] + 100.0 * math.cos(angle), ap_at[1] + 100.0 * math.sin(angle))
                sta_sector = node(f"sta{k}{j}", Role.CN_STA, sta_at)
                ap_sector = rng.randrange(len(nodes[f"ap{k}"].codebook))
                trained.append(TrainedLink(f"ap{k}", f"sta{k}{j}", ap_sector, sta_sector, 0.0))
        rng.shuffle(trained)
        vertices = [v for t in trained for v in links_from_trained(t, nodes, CHANNEL)]
        powers = {
            LinkTable(CHANNEL).power_dbm(nodes[a.tx_node], a.tx_sector, nodes[b.rx_node], b.rx_sector)
            for a, b in combinations(vertices, 2) if not share_a_node(a, b) for a, b in ((a, b), (b, a))
        }
        for power in powers:
            for at in (threshold_at(CHANNEL, power), threshold_at(CHANNEL, math.nextafter(power, -math.inf))):
                if at is not None:
                    cfg = LinkBudgetConfig(interference_threshold_db=at)
                    graph = build_interference_graph(nodes, trained, [], cfg)
                    assert graph.edges == link_table_graph(nodes, trained, [], cfg)[0]
                    checked += 1
    assert checked > 400


def test_graph_builds_without_link_table_entries(monkeypatch):
    """Cross pairs are priced from geometry alone; only the trained links'
    own SNRs (`links_from_trained`) may still read a link table."""
    ap1, sta1, t1 = one_pair("1", sectors=4)
    ap2, sta2, t2 = one_pair("2", origin=(0.0, 50.0), sectors=4)
    ap3, sta3, t3 = one_pair("3", origin=(0.0, -300.0))
    nodes = {n.node_id: n for n in (ap1, sta1, ap2, sta2, ap3, sta3)}
    expected = build_interference_graph(nodes, [t1, t2, t3], [], CHANNEL)
    own = {frozenset((t.initiator_id, t.responder_id)) for t in (t1, t2, t3)}
    entry = LinkTable.entry

    def own_links_only(self, tx, rx):
        assert frozenset((tx.node_id, rx.node_id)) in own, f"cross pair {tx.node_id}->{rx.node_id} read"
        return entry(self, tx, rx)

    monkeypatch.setattr(channel.LinkTable, "entry", own_links_only)
    calls = geometry_calls(monkeypatch)
    graph = build_interference_graph(nodes, [t1, t2, t3], [], CHANNEL)
    assert len(calls) > 0
    assert graph.edges == expected.edges
    assert len(graph.edges) > 3  # cross edges as well as each link's own


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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
    assert not result.infeasible
    # All 22 DATA slots go downlink; capacity tops out just under demand.
    assert result.granted_rate_bps["ap-sta:downlink"] == pytest.approx(22 * SLOT_RATE)
    assert result.granted_rate_bps["ap-sta:downlink"] == pytest.approx(4.19265e9)
    data_slots = [i for i, links in result.schedule.slot_links.items()
                  if slot_direction(result, i) is Direction.DOWNLINK]
    assert sorted(data_slots) == [i for i in range(1, 24) if i != 12]
    # One reverse-path BASIC slot carries the uplink acks.
    assert result.schedule.slot_links[0] == ("ap-sta:uplink",)
    assert slot_direction(result, 0) is Direction.UPLINK
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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure(), dl_data_fraction=0.75)
    dl = result.granted_rate_bps["ap-sta:downlink"]
    ul = result.granted_rate_bps["ap-sta:uplink"]
    n_dl = round(dl / SLOT_RATE)
    n_ul = round(ul / SLOT_RATE)
    assert n_dl + n_ul == 22
    assert n_dl == round(22 * 0.75)
    # Each direction holds a BASIC slot for the other's acks.
    assert slot_direction(result, 0) is Direction.UPLINK
    assert slot_direction(result, 12) is Direction.DOWNLINK
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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
    # Non-conflicting links ride the same slots: full rate for both.
    assert result.granted_rate_bps["ap1-sta1:downlink"] == pytest.approx(22 * SLOT_RATE)
    assert result.granted_rate_bps["ap2-sta2:downlink"] == pytest.approx(22 * SLOT_RATE)
    data_slots = [i for i in result.schedule.slot_links if i not in (0, 12)]
    for idx in data_slots:
        assert len(result.schedule.slot_links[idx]) == 2
    assert verify_global(result.schedule, graph) == []


def test_assign_slots_starves_sub_mcs_link():
    ap = make_ap("ap")
    sta = make_node("sta", position=(10000.0, 0.0))
    trained = TrainedLink("ap", "sta", 0, 4, -17.0)
    graph = build_interference_graph({"ap": ap, "sta": sta}, [trained], [], CHANNEL)
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 1e9)]
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
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
                     ScenarioConfig().build_structure())


def test_zero_demand_is_ignored():
    graph = single_link_graph()
    result = assign_slots(graph, [DemandSpec("ap-sta", Direction.DOWNLINK, 0.0)],
                          ScenarioConfig().build_structure())
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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
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
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
    # Strip the BASIC slots from the slot map.
    stripped = result.schedule._replace(
        slot_links={k: v for k, v in result.schedule.slot_links.items() if k not in (0, 12)},
    )
    kinds = {v.kind for v in verify_global(stripped, graph)}
    assert "missing-basic-slot" in kinds


# ---------------------------------------------------------------------------
# Oracle: slot assignment as it stood before its single-pass rewrite, copied
# verbatim but for the names and the default fraction written out. The one
# rule added since (a demand whose reverse path is below MCS 0 starves) is
# taken out of both sides before they are compared. The slot map no longer
# holds each slot's direction, so the oracle returns its own beside its
# result, and each must be the direction of the slot's links.


def _split_indices_before(indices: list[int], n_first: int) -> tuple[list[int], list[int]]:
    return indices[:n_first], indices[n_first:]


def assign_slots_before(
    graph: InterferenceGraph,
    demands: Sequence[DemandSpec],
    structure_template: TddSlotStructure,
    mcs_table: Sequence[McsEntry] = DEFAULT_MCS_TABLE,
    dl_data_fraction: float = 0.75,
) -> tuple[AssignmentResult, dict[int, Direction]]:
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
    ul_basic, dl_basic = _split_indices_before(basic_indices, n_ul_basic)
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
    dl_data, ul_data = _split_indices_before(data_indices, n_dl)
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
    directions: dict[int, Direction] = {}
    slot_links: dict[int, tuple[str, ...]] = {}

    for direction in (Direction.DOWNLINK, Direction.UPLINK):
        for idx in data_pool[direction]:
            members = [v for v in slot_members[idx] if v in scheduled]
            if not members:
                continue
            directions[idx] = direction
            slot_links[idx] = tuple(sorted(members))
    for vid in scheduled:
        idx = basic_grant[vid]
        v = by_id[vid]
        directions[idx] = v.direction.reverse()
        slot_links[idx] = tuple(sorted(set(slot_links.get(idx, ())) | {v.reverse_id}))

    schedule = GlobalSchedule(
        structure=structure_template,
        slot_links=slot_links,
    )
    return AssignmentResult(
        schedule=schedule,
        granted_rate_bps=granted,
        starved=tuple(starved),
        graph=graph,
    ), directions


REVERSE_BELOW_MCS0 = "reverse-path SNR below the lowest MCS threshold"


def assignment_case(rng: random.Random):
    """A planner input: 1-4 APs with 1-3 STAs each, per-direction SNRs
    around the MCS thresholds, an edge between every two activations that
    share a node (as `build_interference_graph` makes) plus random cross
    edges; zero, duplicate and untrained demands; 1-10 slots, 0-3 of them
    BASIC, some of zero length; one of four DL shares of the DATA slots."""
    def either(choices, draw_other):
        return rng.choice(choices) if rng.random() < 0.5 else draw_other()

    vertices = []
    for k in range(rng.randint(1, 4)):
        for j in range(rng.randint(1, 3)):
            ap, sta = f"ap{k}", f"sta{k}x{j}"
            dl_snr, ul_snr = (either((-5.0, 0.5, 1.0, 3.0, 18.0), lambda: rng.uniform(-5.0, 25.0))
                              for _ in range(2))
            vertices += [
                DirectedLink(f"{ap}-{sta}", Direction.DOWNLINK, ap, sta, ap, 0, sta, 0, dl_snr),
                DirectedLink(f"{ap}-{sta}", Direction.UPLINK, ap, sta, sta, 0, ap, 0, ul_snr),
            ]
    ids = [v.vertex_id for v in vertices]
    edges = {
        frozenset((a.vertex_id, b.vertex_id))
        for i, a in enumerate(vertices) for b in vertices[i + 1:] if share_a_node(a, b)
    }
    edges |= {frozenset(rng.sample(ids, 2)) for _ in range(rng.randint(0, 12))}
    graph = InterferenceGraph(tuple(vertices), frozenset(edges))

    links = sorted({f"{v.ap_id}-{v.sta_id}" for v in vertices}) + ["ap9-sta9x0"]  # the last is untrained
    demands = [
        DemandSpec(
            rng.choice(links), rng.choice(list(Direction)),
            either((0.0, 1e8, 5e8, 1e9, 4.2e9), lambda: rng.uniform(1.0, 5e9)),
        )
        for _ in range(rng.randint(0, 10))
    ]

    n = rng.randint(1, 10)
    basic = set(rng.sample(range(n), rng.randint(0, min(3, n))))
    durations = [either((0, 33, 66), lambda: rng.randint(1, 400)) for _ in range(n)]
    # A 1 us gap after each slot keeps zero-length slots distinct.
    offsets = [sum(durations[:i]) + i for i in range(n)]
    slots = tuple(
        SlotSpec(offsets[i], durations[i], SlotCategory.BASIC if i in basic else SlotCategory.DATA)
        for i in range(n)
    )
    structure = TddSlotStructure(1, offsets[-1] + durations[-1] + rng.randint(1, 200), slots)
    return graph, demands, structure, rng.choice((0.25, 0.5, 0.75, 1.0))


# Hypothesis picks the seeds; a seed is cheaper to draw than each value.
assignment_cases = st.integers(0, 2**32 - 1).map(lambda seed: assignment_case(random.Random(seed)))


def test_assign_slots_matches_the_planner_before_its_rewrite():
    seen = Counter()

    @settings(derandomize=True, max_examples=800, deadline=None, database=None)
    @given(assignment_cases)
    def check(case):
        graph, demands, structure, fraction = case
        by_id = graph.by_id()

        def reverse_below_mcs0(d):
            v = by_id.get(f"{d.link_id}:{d.direction.value}")
            return (
                v is not None and mcs_from_snr(DEFAULT_MCS_TABLE, v.snr_db) is not None
                and mcs_from_snr(DEFAULT_MCS_TABLE, by_id[v.reverse_id].snr_db) is None
            )

        kept = [d for d in demands if not reverse_below_mcs0(d)]
        expected, directions = assign_slots_before(graph, kept, structure, dl_data_fraction=fraction)
        result = assign_slots(graph, demands, structure, dl_data_fraction=fraction)
        assert result.schedule == expected.schedule
        assert {
            idx: {by_id[v].direction for v in links}
            for idx, links in result.schedule.slot_links.items()
        } == {idx: {direction} for idx, direction in directions.items()}
        assert list(result.granted_rate_bps.items()) == list(expected.granted_rate_bps.items())
        starved = [s for s in result.starved if s.reason != REVERSE_BELOW_MCS0]
        assert starved == list(expected.starved)
        seen.update(s.reason for s in result.starved)
        seen["scheduled"] += bool(result.schedule.slot_links)
        seen["both directions"] += len(set(directions.values())) == 2
        seen["zero-length slot"] += any(
            s.duration_us == 0 and i in result.schedule.slot_links
            for i, s in enumerate(structure.slots)
        )

    check()
    assert set(seen) >= {
        "link not trained", "link SNR below the lowest MCS threshold", REVERSE_BELOW_MCS0,
        "no reverse-path BASIC slot available in the interval", "no DATA slot granted",
        "scheduled", "both directions", "zero-length slot",
    }, seen


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(assignment_cases)
def test_assigned_plans_verify_clean(case):
    graph, demands, structure, fraction = case
    plan = assign_slots(graph, demands, structure, dl_data_fraction=fraction)
    assert verify_global(plan.schedule, plan.graph) == []


def test_assign_slots_starves_a_link_whose_reverse_path_is_below_mcs0():
    ap = make_ap("ap", tx_power_dbm=20.0)
    sta = make_node("sta", position=(1500.0, 0.0), tx_power_dbm=-10.0)
    trained = TrainedLink("ap", "sta", 0, 4, 0.0)
    graph = build_interference_graph({"ap": ap, "sta": sta}, [trained], [], CHANNEL)
    by_id = graph.by_id()
    assert mcs_from_snr(DEFAULT_MCS_TABLE, by_id["ap-sta:downlink"].snr_db) is not None
    assert mcs_from_snr(DEFAULT_MCS_TABLE, by_id["ap-sta:uplink"].snr_db) is None
    demands = [DemandSpec("ap-sta", Direction.DOWNLINK, 1e9)]
    result = assign_slots(graph, demands, ScenarioConfig().build_structure())
    assert result.starved == (StarvedLink("ap-sta", Direction.DOWNLINK, 1e9, REVERSE_BELOW_MCS0),)
    assert result.schedule.slot_links == {} and result.granted_rate_bps == {}
