"""Core node, antenna and rate-table types shared by every other module.

Geometry is 2-D planar; angles are degrees normalized to (-180, 180].
Antenna sectors use a flat-top pattern: constant mainlobe gain inside the
beamwidth, constant sidelobe floor outside. The same codebook serves
transmit and receive (antenna reciprocity).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence


class Role(Enum):
    DN_AP = "dn_ap"
    DN_STA = "dn_sta"
    CN_STA = "cn_sta"


def normalize_angle_deg(angle: float) -> float:
    """Wrap an angle in degrees into (-180, 180]."""
    a = math.fmod(angle, 360.0)
    if a > 180.0:
        a -= 360.0
    elif a <= -180.0:
        a += 360.0
    return a


def bearing_deg(from_xy: tuple[float, float], to_xy: tuple[float, float]) -> float:
    """Bearing of `to_xy` as seen from `from_xy`, degrees in (-180, 180]."""
    dx = to_xy[0] - from_xy[0]
    dy = to_xy[1] - from_xy[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("bearing undefined for coincident positions")
    return normalize_angle_deg(math.degrees(math.atan2(dy, dx)))


class Sector:
    __slots__ = ("index", "boresight_deg", "beamwidth_deg", "mainlobe_gain_dbi", "sidelobe_gain_dbi")

    def __init__(
        self, index: int, boresight_deg: float, beamwidth_deg: float,
        mainlobe_gain_dbi: float, sidelobe_gain_dbi: float,
    ):
        if beamwidth_deg <= 0:
            raise ValueError(f"sector {index}: beamwidth must be positive")
        if mainlobe_gain_dbi <= sidelobe_gain_dbi:
            raise ValueError(f"sector {index}: mainlobe gain must exceed sidelobe gain")
        self.index = index
        self.boresight_deg = boresight_deg
        self.beamwidth_deg = beamwidth_deg
        self.mainlobe_gain_dbi = mainlobe_gain_dbi
        self.sidelobe_gain_dbi = sidelobe_gain_dbi


class Codebook:
    __slots__ = ("sectors",)

    def __init__(self, sectors: tuple[Sector, ...]):
        if not sectors:
            raise ValueError("codebook needs at least one sector")
        if [s.index for s in sectors] != list(range(len(sectors))):
            raise ValueError("sector indices must be 0..n-1 with no gaps")
        self.sectors = sectors

    def __len__(self) -> int:
        return len(self.sectors)


def uniform_codebook(
    n_sectors: int,
    mainlobe_gain_dbi: float = 25.0,
    sidelobe_gain_dbi: float = -10.0,
) -> Codebook:
    """Ring of `n_sectors` sectors with evenly spaced boresights, each
    360/n wide, so together they cover every azimuth without a gap."""
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")
    sectors = tuple(
        Sector(
            index=i,
            boresight_deg=normalize_angle_deg(i * 360.0 / n_sectors),
            beamwidth_deg=360.0 / n_sectors,
            mainlobe_gain_dbi=mainlobe_gain_dbi,
            sidelobe_gain_dbi=sidelobe_gain_dbi,
        )
        for i in range(n_sectors)
    )
    return Codebook(sectors=sectors)


def sector_gain_dbi(codebook: Codebook, sector_index: int, angle_deg: float) -> float:
    """Flat-top antenna gain of one sector toward `angle_deg`.

    Mainlobe gain if the angular offset from boresight is within half the
    beamwidth (boundary inclusive), sidelobe floor otherwise.
    """
    if not 0 <= sector_index < len(codebook.sectors):
        raise ValueError(f"unknown sector index {sector_index}")
    sector = codebook.sectors[sector_index]
    offset = abs(normalize_angle_deg(angle_deg - sector.boresight_deg))
    # Boundary inclusive, with an epsilon so 360/n beamwidths stay gap-free
    # when the edge angle is not exactly representable.
    if offset <= sector.beamwidth_deg / 2.0 + 1e-9:
        return sector.mainlobe_gain_dbi
    return sector.sidelobe_gain_dbi


class McsEntry(NamedTuple):
    mcs_index: int
    min_snr_db: float
    phy_rate_bps: int


# Monotone table shaped after single-carrier DMG rates; loadable from config.
DEFAULT_MCS_TABLE: tuple[McsEntry, ...] = (
    McsEntry(0, 1.0, 385_000_000),
    McsEntry(1, 3.0, 770_000_000),
    McsEntry(2, 5.0, 1_155_000_000),
    McsEntry(3, 7.0, 1_540_000_000),
    McsEntry(4, 9.0, 1_925_000_000),
    McsEntry(6, 12.0, 2_693_000_000),
    McsEntry(8, 15.0, 3_080_000_000),
    McsEntry(10, 17.0, 3_850_000_000),
    McsEntry(12, 18.0, 4_620_000_000),
)


def validate_mcs_table(table: Sequence[McsEntry]) -> None:
    if not table:
        raise ValueError("MCS table must not be empty")
    for prev, cur in zip(table, table[1:]):
        if cur.min_snr_db <= prev.min_snr_db or cur.phy_rate_bps <= prev.phy_rate_bps:
            raise ValueError(
                "MCS table must be strictly increasing in min_snr_db and phy_rate_bps"
            )


def mcs_from_snr(table: Sequence[McsEntry], snr_db: float) -> Optional[McsEntry]:
    """Highest-rate entry whose SNR threshold is met, or None below MCS 0."""
    if not table:
        raise ValueError("MCS table must not be empty")
    best = None
    for entry in table:
        if entry.min_snr_db <= snr_db:
            best = entry
    return best


class PowerLimits:
    __slots__ = ("min_dbm", "max_dbm")

    def __init__(self, min_dbm: float = -10.0, max_dbm: float = 20.0):
        if min_dbm > max_dbm:
            raise ValueError("power limits: min exceeds max")
        self.min_dbm = min_dbm
        self.max_dbm = max_dbm

    def clamp(self, value_dbm: float) -> float:
        return min(self.max_dbm, max(self.min_dbm, value_dbm))


class NodeModel:
    """A DN sector (AP role) or client node (STA role)."""

    __slots__ = (
        "node_id", "role", "position", "codebook", "tx_power_dbm", "power_limits",
    )

    def __init__(
        self, node_id: str, role: Role, position: tuple[float, float], codebook: Codebook,
        tx_power_dbm: float = 10.0, power_limits: PowerLimits = PowerLimits(),
    ):
        if not (power_limits.min_dbm <= tx_power_dbm <= power_limits.max_dbm):
            raise ValueError(
                f"node {node_id}: tx_power_dbm {tx_power_dbm} outside "
                f"[{power_limits.min_dbm}, {power_limits.max_dbm}]"
            )
        self.node_id = node_id
        self.role = role
        self.position = position
        self.codebook = codebook
        self.tx_power_dbm = tx_power_dbm
        self.power_limits = power_limits

    def copy(self) -> NodeModel:
        """A node of its own with the same fields; the codebook is shared."""
        return NodeModel(
            self.node_id, self.role, self.position, self.codebook,
            self.tx_power_dbm, self.power_limits,
        )

    @property
    def is_ap(self) -> bool:
        return self.role is Role.DN_AP

    def set_tx_power(self, value_dbm: float) -> None:
        if not (self.power_limits.min_dbm <= value_dbm <= self.power_limits.max_dbm):
            raise ValueError(f"node {self.node_id}: power {value_dbm} outside limits")
        self.tx_power_dbm = value_dbm
