"""Deterministic LOS directional link budget between (node, sector) pairs.

Free-space propagation only: no fading, blockage or NLOS components, so
every SNR is an exact function of geometry, sector pattern and power.
A per-link constant extra loss can be configured for what-if studies.
"""

from __future__ import annotations

import math
from typing import Optional

from .domain import Codebook, NodeModel, bearing_deg, sector_gain_dbi

SPEED_OF_LIGHT_M_PER_US = 299.792458


class LinkBudgetConfig:
    __slots__ = (
        "carrier_hz", "bandwidth_hz", "noise_figure_db", "interference_threshold_db", "extra_loss_db",
    )

    def __init__(
        self, carrier_hz: float = 60e9, bandwidth_hz: float = 2.16e9, noise_figure_db: float = 10.0,
        interference_threshold_db: float = 0.0,
        extra_loss_db: Optional[dict[frozenset, float]] = None,
    ):
        if carrier_hz <= 0 or bandwidth_hz <= 0:
            raise ValueError("carrier_hz and bandwidth_hz must be positive")
        self.carrier_hz = carrier_hz
        self.bandwidth_hz = bandwidth_hz
        self.noise_figure_db = noise_figure_db
        # Unintended power above noise_floor + this threshold marks two
        # concurrent transmissions as conflicting.
        self.interference_threshold_db = interference_threshold_db
        # Optional per-link constant loss, keyed by unordered node-id pair.
        self.extra_loss_db = {} if extra_loss_db is None else extra_loss_db

    def pair_loss_db(self, node_a: str, node_b: str) -> float:
        return self.extra_loss_db.get(frozenset((node_a, node_b)), 0.0)


def path_loss_db(distance_m: float, carrier_hz: float) -> float:
    """Friis free-space loss in dB."""
    if distance_m <= 0:
        raise ValueError("distance_m must be positive")
    return 20.0 * math.log10(distance_m) + 20.0 * math.log10(carrier_hz) - 147.55


def noise_floor_dbm(cfg: LinkBudgetConfig) -> float:
    """Thermal noise floor plus receiver noise figure, in dBm."""
    return -174.0 + 10.0 * math.log10(cfg.bandwidth_hz) + cfg.noise_figure_db


def distance_m(a: NodeModel, b: NodeModel) -> float:
    return math.hypot(b.position[0] - a.position[0], b.position[1] - a.position[1])


def propagation_delay_us(a: NodeModel, b: NodeModel) -> float:
    return distance_m(a, b) / SPEED_OF_LIGHT_M_PER_US


class _SectorGains(dict):
    """Gain of each sector of a codebook toward one bearing, computed the
    first time the sector is asked for. An unknown sector index, negative
    ones included, raises ValueError and is not stored."""

    __slots__ = ("codebook", "bearing")

    def __init__(self, codebook: Codebook, bearing: float):
        super().__init__()
        self.codebook = codebook
        self.bearing = bearing

    def __missing__(self, sector: int) -> float:
        gain = self[sector] = sector_gain_dbi(self.codebook, sector, self.bearing)
        return gain


class LinkTable:
    """Link budgets between nodes, one entry per ordered (tx, rx) node pair,
    built on first use.

    An entry is what geometry fixes: `(loss, tx_gain, rx_gain)`, the loss and
    each end's gain per sector toward the other. Transmit power is read from
    the transmitting node on every query, so a power change never makes an
    entry stale. Node ids key the table, so one table serves one set of nodes.
    """

    def __init__(self, cfg: LinkBudgetConfig):
        self.cfg = cfg
        self.noise_floor_dbm = noise_floor_dbm(cfg)
        self._entries: dict[tuple[str, str], tuple[float, _SectorGains, _SectorGains]] = {}

    def entry(self, tx: NodeModel, rx: NodeModel) -> tuple[float, _SectorGains, _SectorGains]:
        key = (tx.node_id, rx.node_id)
        found = self._entries.get(key)
        if found is None:
            d = distance_m(tx, rx)
            if d == 0.0:
                raise ValueError(f"nodes {tx.node_id} and {rx.node_id} are coincident")
            cfg = self.cfg
            loss = path_loss_db(d, cfg.carrier_hz) + cfg.pair_loss_db(tx.node_id, rx.node_id)
            found = self._entries[key] = (
                loss,
                _SectorGains(tx.codebook, bearing_deg(tx.position, rx.position)),
                _SectorGains(rx.codebook, bearing_deg(rx.position, tx.position)),
            )
        return found

    def power_dbm(self, tx: NodeModel, tx_sector: int, rx: NodeModel, rx_sector: int) -> float:
        """Power of tx's signal at rx for the given sector pair, in dBm."""
        loss, tx_gain, rx_gain = self.entry(tx, rx)
        return tx.tx_power_dbm + tx_gain[tx_sector] + rx_gain[rx_sector] - loss

    def snr_db(self, tx: NodeModel, tx_sector: int, rx: NodeModel, rx_sector: int) -> float:
        return self.power_dbm(tx, tx_sector, rx, rx_sector) - self.noise_floor_dbm


def link_snr_db(
    tx: NodeModel,
    tx_sector: int,
    rx: NodeModel,
    rx_sector: int,
    cfg: LinkBudgetConfig,
) -> float:
    """SNR of one directed (sector, sector) link, in dB, from a one-off table."""
    return LinkTable(cfg).snr_db(tx, tx_sector, rx, rx_sector)
