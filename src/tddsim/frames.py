"""MAC frame size defaults used by the engine and the configuration."""

from __future__ import annotations

from typing import NamedTuple


class FrameSizes(NamedTuple):
    """Frame sizes in bytes; data separates payload from MAC overhead."""

    data_payload: int = 1500
    data_overhead: int = 40
    ack: int = 16
    measurement_report: int = 64

    @property
    def data_total_bits(self) -> int:
        return (self.data_payload + self.data_overhead) * 8
