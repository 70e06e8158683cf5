import math

import pytest

from tddsim.domain import (
    DEFAULT_MCS_TABLE,
    McsEntry,
    NodeModel,
    PowerLimits,
    Role,
    Sector,
    bearing_deg,
    mcs_from_snr,
    normalize_angle_deg,
    sector_gain_dbi,
    uniform_codebook,
    validate_mcs_table,
)

from conftest import make_node


def test_normalize_angle_wraps_into_half_open_range():
    assert normalize_angle_deg(0.0) == 0.0
    assert normalize_angle_deg(180.0) == 180.0
    assert normalize_angle_deg(-180.0) == 180.0
    assert normalize_angle_deg(190.0) == -170.0
    assert normalize_angle_deg(720.0 + 30.0) == 30.0
    assert normalize_angle_deg(-540.0) == 180.0


def test_bearing_matches_atan2():
    assert bearing_deg((0.0, 0.0), (1.0, 0.0)) == 0.0
    assert bearing_deg((0.0, 0.0), (0.0, 1.0)) == 90.0
    assert bearing_deg((0.0, 0.0), (-1.0, 0.0)) == 180.0
    assert bearing_deg((0.0, 0.0), (0.0, -1.0)) == -90.0
    assert bearing_deg((2.0, 2.0), (3.0, 3.0)) == pytest.approx(45.0)
    with pytest.raises(ValueError):
        bearing_deg((1.0, 1.0), (1.0, 1.0))


def test_uniform_codebook_geometry():
    cb = uniform_codebook(8)
    assert len(cb) == 8
    for i, sector in enumerate(cb.sectors):
        assert sector.index == i
        assert sector.boresight_deg == pytest.approx(normalize_angle_deg(i * 45.0))
        assert sector.beamwidth_deg == pytest.approx(45.0)


def test_uniform_codebook_covers_every_bearing():
    # Default beamwidth 360/n leaves no angular gap: every bearing falls in
    # at least one sector's mainlobe.
    for n in (1, 2, 3, 4, 7, 8, 16):
        cb = uniform_codebook(n)
        for k in range(720):
            angle = k * 0.5 - 180.0
            gains = [sector_gain_dbi(cb, i, angle) for i in range(n)]
            assert max(gains) == pytest.approx(25.0), (n, angle)


def test_sector_gain_flat_top():
    cb = uniform_codebook(4, mainlobe_gain_dbi=20.0, sidelobe_gain_dbi=-5.0)
    # Sector 0 boresight 0 deg, beamwidth 90: mainlobe on [-45, 45].
    assert sector_gain_dbi(cb, 0, 0.0) == 20.0
    assert sector_gain_dbi(cb, 0, 44.9) == 20.0
    assert sector_gain_dbi(cb, 0, 45.0) == 20.0  # boundary inclusive
    assert sector_gain_dbi(cb, 0, 45.1) == -5.0
    assert sector_gain_dbi(cb, 0, 180.0) == -5.0
    # Wrapping: sector 2 boresight 180, mainlobe covers (-180, -135] too.
    assert sector_gain_dbi(cb, 2, -140.0) == 20.0
    with pytest.raises(ValueError):
        sector_gain_dbi(cb, 4, 0.0)


def test_sector_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        Sector(index=0, boresight_deg=0.0, beamwidth_deg=0.0,
               mainlobe_gain_dbi=20.0, sidelobe_gain_dbi=-5.0)
    with pytest.raises(ValueError):
        Sector(index=0, boresight_deg=0.0, beamwidth_deg=45.0,
               mainlobe_gain_dbi=-5.0, sidelobe_gain_dbi=-5.0)


def test_default_mcs_table_shape():
    validate_mcs_table(DEFAULT_MCS_TABLE)
    assert DEFAULT_MCS_TABLE[0] == McsEntry(0, 1.0, 385_000_000)
    assert DEFAULT_MCS_TABLE[-1] == McsEntry(12, 18.0, 4_620_000_000)


def test_mcs_from_snr_threshold_walk():
    table = DEFAULT_MCS_TABLE
    assert mcs_from_snr(table, 0.999) is None
    assert mcs_from_snr(table, 1.0).mcs_index == 0
    assert mcs_from_snr(table, 17.999).mcs_index == 10
    assert mcs_from_snr(table, 18.0).mcs_index == 12
    assert mcs_from_snr(table, 60.0).mcs_index == 12


def test_mcs_table_must_be_strictly_monotone():
    with pytest.raises(ValueError):
        validate_mcs_table([McsEntry(0, 1.0, 385), McsEntry(1, 1.0, 770)])
    with pytest.raises(ValueError):
        validate_mcs_table([McsEntry(0, 1.0, 770), McsEntry(1, 3.0, 770)])
    with pytest.raises(ValueError):
        validate_mcs_table([])


def test_power_limits_clamp():
    limits = PowerLimits(min_dbm=-10.0, max_dbm=20.0)
    assert limits.clamp(25.0) == 20.0
    assert limits.clamp(-15.0) == -10.0
    assert limits.clamp(3.5) == 3.5


def test_node_power_must_start_within_limits():
    with pytest.raises(ValueError):
        make_node("x", tx_power_dbm=30.0)


def test_set_tx_power_enforces_limits():
    node = make_node("x")
    node.set_tx_power(15.0)
    assert node.tx_power_dbm == 15.0
    with pytest.raises(ValueError):
        node.set_tx_power(21.0)


def test_node_roles_and_defaults():
    ap = make_node("a", role=Role.DN_AP)
    sta = make_node("b", role=Role.CN_STA, position=(1.0, 0.0))
    assert ap.is_ap and not sta.is_ap
