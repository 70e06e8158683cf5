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

from .domain import PowerLimits

DEFAULT_TPC_MAX_STEP_DB = 3.0


# ---------------------------------------------------------------------------
# Periodic link measurement.


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


class ReportSchedule(NamedTuple):
    """Outcome of a periodic report negotiation."""

    accepted: bool
    emission_times_us: tuple[int, ...] = ()
    reason: Optional[str] = None


def handle_periodic_report_request(
    req: PeriodicReportRequest,
    responder_tx_windows: Sequence[tuple[int, int]],
) -> ReportSchedule:
    """Accept with slot-aligned emission times, or reject.

    Each nominal time start + k*interval maps to the start of the earliest
    `(start_us, end_us)` transmit window that ends after it. The request is
    rejected when any nominal time has no covering transmit window.
    """
    windows = sorted(responder_tx_windows)
    # The first window, in start order, whose running maximum of ends passes
    # `nominal` is the first that itself ends after it.
    ends = list(accumulate((end for _, end in windows), max))
    times = []
    for nominal in req.nominal_times():
        i = bisect_right(ends, nominal)
        if i == len(windows):
            return ReportSchedule(
                accepted=False,
                reason=f"no transmit slot covers report time {nominal}us",
            )
        times.append(windows[i][0])
    return ReportSchedule(accepted=True, emission_times_us=tuple(times))


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
