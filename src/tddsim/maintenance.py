"""Link maintenance: unsolicited periodic link measurement and transmit
power control. The engine's maintenance tick checks keep-alives itself.

Periodic link measurement is negotiated once by a request and then runs
unsolicited on the agreed schedule; each emission is aligned to the start
of the covering transmit slot of the reporting node.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .channel import LinkSample
from .domain import PowerLimits
from .errors import ProtocolError
from .schedule import AbsoluteSlot

DEFAULT_TPC_MAX_STEP_DB = 3.0


# ---------------------------------------------------------------------------
# Periodic link measurement.


class TpcFields(NamedTuple):
    tx_power_dbm: float
    target_rsni_db: float
    max_step_db: float = DEFAULT_TPC_MAX_STEP_DB


class PeriodicReportRequest:
    __slots__ = ("start_time_us", "interval_us", "count")

    def __init__(self, start_time_us: int, interval_us: int, count: int):
        if interval_us <= 0:
            raise ValueError("report interval must be positive")
        if count < 1:
            raise ValueError("report count must be at least 1")
        self.start_time_us = start_time_us
        self.interval_us = interval_us
        self.count = count

    def nominal_times(self) -> tuple[int, ...]:
        return tuple(self.start_time_us + k * self.interval_us for k in range(self.count))


class LinkMeasurementReport(NamedTuple):
    link_id: str
    rcpi_dbm: float
    rsni_db: float
    tpc_fields: TpcFields
    sequence_number: int


class ReportSchedule(NamedTuple):
    """Outcome of a periodic report negotiation."""

    accepted: bool
    emission_times_us: tuple[int, ...] = ()
    reason: Optional[str] = None


def handle_periodic_report_request(
    req: PeriodicReportRequest,
    responder_tx_slots: Sequence[AbsoluteSlot],
) -> ReportSchedule:
    """Accept with slot-aligned emission times, or reject.

    Each nominal time start + k*interval maps to the start of the earliest
    slot in responder_tx_slots that ends after it. The request is rejected
    when any nominal time has no covering transmit slot.
    """
    slots = sorted(responder_tx_slots, key=lambda s: s.start_us)
    # The first slot, in start order, whose running maximum of ends passes
    # `nominal` is the first that itself ends after it.
    ends = list(accumulate((s.end_us for s in slots), max))
    times = []
    for nominal in req.nominal_times():
        i = bisect_right(ends, nominal)
        if i == len(slots):
            return ReportSchedule(
                accepted=False,
                reason=f"no transmit slot covers report time {nominal}us",
            )
        times.append(slots[i].start_us)
    return ReportSchedule(accepted=True, emission_times_us=tuple(times))


def emit_link_measurement_report(
    link_id: str,
    sample: Optional[LinkSample],
    seq: int,
    tpc_fields: Optional[TpcFields] = None,
) -> LinkMeasurementReport:
    """Produce one unsolicited measurement report from the current link state."""
    if sample is None:
        raise ProtocolError(f"cannot emit measurement report on untrained link {link_id}")
    return LinkMeasurementReport(
        link_id=link_id,
        rcpi_dbm=sample.rcpi_dbm,
        rsni_db=sample.rsni_db,
        tpc_fields=tpc_fields or TpcFields(tx_power_dbm=0.0, target_rsni_db=0.0),
        sequence_number=seq,
    )


# ---------------------------------------------------------------------------
# Transmit power control.


def tpc_update(
    current_dbm: float,
    measured_rsni_db: float,
    target_rsni_db: float,
    limits: PowerLimits,
    max_step_db: float = DEFAULT_TPC_MAX_STEP_DB,
) -> float:
    """One closed-loop power step toward the target RSNI.

    The correction equals the measurement error, limited to max_step_db per
    update, and the result never leaves the hardware limits.
    """
    if max_step_db <= 0:
        raise ValueError("max_step_db must be positive")
    if not limits.min_dbm <= current_dbm <= limits.max_dbm:
        raise ValueError("current power outside hardware limits")
    error = measured_rsni_db - target_rsni_db
    step = max(-max_step_db, min(max_step_db, error))
    return limits.clamp(current_dbm - step)
