import math

import pytest
from hypothesis import given, settings, strategies as st

from tddsim.channel import (
    LinkBudgetConfig,
    LinkTable,
    SPEED_OF_LIGHT_M_PER_US,
    distance_m,
    link_snr_db,
    noise_floor_dbm,
    path_loss_db,
    propagation_delay_us,
)
from tddsim.beamforming import BeamMeasurementReport, TrainedLink
from tddsim.controller import build_interference_graph
from tddsim.domain import bearing_deg, sector_gain_dbi

from conftest import make_ap, make_node


def friis_oracle(d_m: float, f_hz: float) -> float:
    # Same free-space budget computed along a different arithmetic path:
    # a single log over the product instead of separate distance and
    # frequency terms. The 147.55 constant is the rounded 20 log10(c / 4 pi).
    return 20.0 * math.log10(d_m * f_hz) - 147.55


def test_path_loss_matches_friis():
    for d in (1.0, 10.0, 100.0, 287.5, 1000.0):
        for f in (28e9, 60e9, 73e9):
            assert path_loss_db(d, f) == pytest.approx(friis_oracle(d, f), abs=1e-6)


def test_path_loss_frozen_reference_values():
    # 100 m at 60 GHz: 20*2 + 20*log10(6e10) - 147.55 = 108.013 dB.
    assert path_loss_db(100.0, 60e9) == pytest.approx(108.0127, abs=1e-3)
    assert path_loss_db(1.0, 60e9) == pytest.approx(68.0127, abs=1e-3)
    with pytest.raises(ValueError):
        path_loss_db(0.0, 60e9)


def test_noise_floor_default_bandwidth():
    cfg = LinkBudgetConfig()
    # -174 + 10 log10(2.16e9) + 10 = -70.655 dBm.
    assert noise_floor_dbm(cfg) == pytest.approx(-70.6546, abs=1e-3)


def test_distance_and_propagation_delay():
    a = make_node("a", position=(0.0, 0.0))
    b = make_node("b", position=(3.0, 4.0))
    assert distance_m(a, b) == pytest.approx(5.0)
    assert propagation_delay_us(a, b) == pytest.approx(5.0 / SPEED_OF_LIGHT_M_PER_US)
    # 300 m is almost exactly one microsecond of flight time.
    c = make_node("c", position=(300.0, 0.0))
    assert propagation_delay_us(a, c) == pytest.approx(1.00069, abs=1e-4)


def test_received_power_budget_composition():
    cfg = LinkBudgetConfig()
    ap = make_ap("ap", position=(0.0, 0.0))
    sta = make_node("sta", position=(100.0, 0.0))
    # Boresight alignment: sector 0 at the AP, sector 4 (180 deg) at the STA.
    p = LinkTable(cfg).power_dbm(ap, 0, sta, 4)
    expected = 10.0 + 25.0 + 25.0 - path_loss_db(100.0, 60e9)
    assert p == pytest.approx(expected, abs=1e-9)
    # Misaligned receive sector drops one mainlobe-to-sidelobe step: 35 dB.
    p_side = LinkTable(cfg).power_dbm(ap, 0, sta, 0)
    assert p - p_side == pytest.approx(35.0, abs=1e-9)


def test_received_power_rejects_coincident_nodes():
    cfg = LinkBudgetConfig()
    a = make_node("a", position=(1.0, 1.0))
    b = make_node("b", position=(1.0, 1.0))
    with pytest.raises(ValueError):
        LinkTable(cfg).power_dbm(a, 0, b, 0)
    with pytest.raises(ValueError):
        link_snr_db(a, 0, b, 0, cfg)
    # The table refuses the pair when it builds the entry, before any sector.
    with pytest.raises(ValueError, match="coincident"):
        LinkTable(cfg).entry(a, b)


@pytest.mark.parametrize("tx_sector, rx_sector", [(8, 4), (0, 8), (-1, 4), (0, -1), (-8, 4)])
def test_unknown_sector_index_raises_and_never_wraps(tx_sector, rx_sector):
    ap = make_ap("ap")  # 8 sectors
    sta = make_node("sta", position=(100.0, 0.0))
    table = LinkTable(LinkBudgetConfig())
    with pytest.raises(ValueError, match="unknown sector index"):
        table.power_dbm(ap, tx_sector, sta, rx_sector)
    with pytest.raises(ValueError, match="unknown sector index"):
        link_snr_db(ap, tx_sector, sta, rx_sector, LinkBudgetConfig())
    # The failed query leaves the entry intact for valid sectors.
    assert table.power_dbm(ap, 0, sta, 4) == LinkTable(LinkBudgetConfig()).power_dbm(ap, 0, sta, 4)


def test_extra_pair_loss_is_applied():
    cfg = LinkBudgetConfig(extra_loss_db={frozenset(("ap", "sta")): 7.5})
    ap = make_ap("ap")
    sta = make_node("sta", position=(100.0, 0.0))
    base = LinkBudgetConfig()
    assert LinkTable(cfg).power_dbm(ap, 0, sta, 4) == pytest.approx(
        LinkTable(base).power_dbm(ap, 0, sta, 4) - 7.5
    )
    assert link_snr_db(ap, 0, sta, 4, cfg) == pytest.approx(link_snr_db(ap, 0, sta, 4, base) - 7.5)


def test_link_sample_fields_are_consistent():
    cfg = LinkBudgetConfig()
    ap = make_ap("ap")
    sta = make_node("sta", position=(100.0, 0.0))
    table = LinkTable(cfg)
    rcpi = table.power_dbm(ap, 0, sta, 4)
    snr = link_snr_db(ap, 0, sta, 4, cfg)
    assert snr == table.snr_db(ap, 0, sta, 4) == rcpi - noise_floor_dbm(cfg)
    # Frozen: 10 + 50 - 108.013 = -48.013 dBm received, 22.64 dB SNR.
    assert rcpi == pytest.approx(-48.0127, abs=1e-3)
    assert snr == pytest.approx(22.6419, abs=1e-3)


def interferes_in_graph(ap, tx_sector, victim, rx_sector, cfg):
    """Whether the interference graph joins ap's downlink on tx_sector to a
    downlink that victim receives on rx_sector.

    A measurement report keeps the reverse path quiet, so the one path left
    to the channel model, ap on tx_sector into victim on rx_sector, decides
    the edge.
    """
    partner = make_node("partner", position=(0.0, -500.0))
    victim_ap = make_ap("vap", position=(100.0, 500.0))
    nodes = {n.node_id: n for n in (ap, partner, victim, victim_ap)}
    trained = [
        TrainedLink(ap.node_id, "partner", tx_sector, 0, 20.0),
        TrainedLink("vap", victim.node_id, 0, rx_sector, 20.0),
    ]
    quiet = BeamMeasurementReport(
        responder_id="partner", initiator_id="vap", samples=((0, 0, -60.0),),
    )
    graph = build_interference_graph(nodes, trained, [quiet], cfg)
    return graph.conflicts(f"{ap.node_id}-partner:downlink", f"vap-{victim.node_id}:downlink")


def test_interferes_threshold_semantics():
    cfg = LinkBudgetConfig(interference_threshold_db=0.0)
    ap = make_ap("ap")
    victim = make_node("v", position=(100.0, 0.0))
    # Aligned mainlobes at 100 m: far above the noise floor.
    assert interferes_in_graph(ap, 0, victim, 4, cfg)
    # Sidelobe-to-sidelobe at 100 m: 10 - 10 - 10 - 108 = -118 dBm, below floor.
    assert not interferes_in_graph(ap, 2, victim, 2, cfg)
    # Raising the threshold above the link margin silences even the mainlobe.
    strict = LinkBudgetConfig(interference_threshold_db=40.0)
    assert not interferes_in_graph(ap, 0, victim, 4, strict)


def test_interferes_is_exactly_power_above_floor_plus_threshold():
    cfg = LinkBudgetConfig(interference_threshold_db=5.0)
    ap = make_ap("ap")
    victim = make_node("v", position=(100.0, 0.0))
    p = LinkTable(cfg).power_dbm(ap, 0, victim, 4)
    floor = noise_floor_dbm(cfg)
    assert interferes_in_graph(ap, 0, victim, 4, cfg) == (p > floor + 5.0)
    # Thresholds just under and just over the margin fall on either side.
    margin = p - floor
    assert interferes_in_graph(ap, 0, victim, 4, LinkBudgetConfig(interference_threshold_db=margin - 1e-6))
    assert not interferes_in_graph(ap, 0, victim, 4, LinkBudgetConfig(interference_threshold_db=margin))


coordinate = st.floats(min_value=-2000.0, max_value=2000.0, allow_nan=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    tx_xy=st.tuples(coordinate, coordinate),
    rx_xy=st.tuples(coordinate, coordinate),
    tx_sectors=st.integers(1, 32),
    rx_sectors=st.integers(1, 32),
    data=st.data(),
    powers=st.lists(st.floats(min_value=-10.0, max_value=20.0), min_size=1, max_size=4),
    extra_loss=st.one_of(st.none(), st.floats(min_value=0.0, max_value=60.0)),
)
def test_table_power_equals_the_budget_composed_directly(
    tx_xy, rx_xy, tx_sectors, rx_sectors, data, powers, extra_loss
):
    """The table returns, bit for bit, the budget built from its parts, and
    keeps doing so as the transmit power changes under it. The reverse
    order, which the forward query filled, is exact too."""
    if tx_xy == rx_xy:
        tx_xy = (tx_xy[0] + 1.0, tx_xy[1])
    tx = make_ap("tx", position=tx_xy, sectors=tx_sectors)
    rx = make_node("rx", position=rx_xy, sectors=rx_sectors)
    cfg = LinkBudgetConfig(
        extra_loss_db={} if extra_loss is None else {frozenset(("tx", "rx")): extra_loss}
    )
    table = LinkTable(cfg)
    for power in powers:
        tx.set_tx_power(power)
        s_tx = data.draw(st.integers(0, tx_sectors - 1))
        s_rx = data.draw(st.integers(0, rx_sectors - 1))
        d = math.hypot(rx_xy[0] - tx_xy[0], rx_xy[1] - tx_xy[1])
        expected = (
            power
            + sector_gain_dbi(tx.codebook, s_tx, bearing_deg(tx.position, rx.position))
            + sector_gain_dbi(rx.codebook, s_rx, bearing_deg(rx.position, tx.position))
            - (path_loss_db(d, cfg.carrier_hz) + (extra_loss or 0.0))
        )
        assert table.power_dbm(tx, s_tx, rx, s_rx) == expected
        assert table.snr_db(tx, s_tx, rx, s_rx) == expected - noise_floor_dbm(cfg)
        assert link_snr_db(tx, s_tx, rx, s_rx, cfg) == expected - noise_floor_dbm(cfg)
        reverse_d = math.hypot(tx_xy[0] - rx_xy[0], tx_xy[1] - rx_xy[1])
        assert table.power_dbm(rx, s_rx, tx, s_tx) == (
            rx.tx_power_dbm
            + sector_gain_dbi(rx.codebook, s_rx, bearing_deg(rx.position, tx.position))
            + sector_gain_dbi(tx.codebook, s_tx, bearing_deg(tx.position, rx.position))
            - (path_loss_db(reverse_d, cfg.carrier_hz) + (extra_loss or 0.0))
        )
