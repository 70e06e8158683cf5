from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from tddsim.domain import PowerLimits
from tddsim.maintenance import (
    PeriodicReportRequest,
    handle_periodic_report_request,
    tpc_update,
)
from tddsim.schedule import (
    ExtendedScheduleEntry,
    SlotCategory,
    default_slot_structure,
    expand_sp,
)


def responder_tx_windows(duration_us=25600):
    """The `(start, end)` of each BASIC slot of one SP, all the STA's
    transmit opportunities."""
    entry = ExtendedScheduleEntry(1, 0, duration_us)
    slots = expand_sp(entry, default_slot_structure(1))
    return [(s.start_us, s.end_us) for s in slots if s.category is SlotCategory.BASIC]


def test_element_validation():
    with pytest.raises(ValueError):
        PeriodicReportRequest(start_time_us=0, interval_us=0, count=1)
    with pytest.raises(ValueError):
        PeriodicReportRequest(start_time_us=0, interval_us=100, count=0)


def test_report_request_nominal_times():
    req = PeriodicReportRequest(start_time_us=10000, interval_us=100000, count=3)
    assert req.nominal_times() == (10000, 110000, 210000)


def test_covering_slot_alignment():
    req = PeriodicReportRequest(start_time_us=10000, interval_us=100000, count=3)
    windows = responder_tx_windows(duration_us=299200)
    schedule = handle_periodic_report_request(req, windows)
    assert schedule.accepted
    assert len(schedule.emission_times_us) == 3
    # Each emission starts at the earliest tx slot that ends after the
    # nominal time, so it is never earlier than nominal minus one slot.
    for nominal, emitted in zip(req.nominal_times(), schedule.emission_times_us):
        covering = next(start for start, end in sorted(windows) if end > nominal)
        assert emitted == covering
    # Frozen walk on the two-BASIC grid: 10000 falls inside interval 6
    # (9600..11200) past its slot 0, and slot 12 starts at 10392 covering it.
    assert schedule.emission_times_us[0] == 10392


def linear_scan(req, windows):
    """The covering rule read literally: the first window, in start order,
    that ends after each nominal time."""
    ordered = sorted(windows, key=lambda w: w[0])
    times = []
    for nominal in req.nominal_times():
        covering = next((w for w in ordered if w[1] > nominal), None)
        if covering is None:
            return None
        times.append(covering[0])
    return tuple(times)


@st.composite
def slots_and_requests(draw):
    """Windows anywhere, overlapping, nested or tied, and a request among them."""
    spans = draw(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 120)), max_size=12))
    windows = [(start, start + duration) for start, duration in spans]
    req = PeriodicReportRequest(
        start_time_us=draw(st.integers(0, 500)),
        interval_us=draw(st.integers(1, 200)),
        count=draw(st.integers(1, 6)),
    )
    return req, windows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(slots_and_requests())
def test_bisected_mapping_equals_the_linear_scan(case):
    req, windows = case
    schedule = handle_periodic_report_request(req, windows)
    expected = linear_scan(req, windows)
    assert schedule.accepted == (expected is not None)
    assert schedule.emission_times_us == (expected or ())


def test_report_request_rejected_without_coverage():
    req = PeriodicReportRequest(start_time_us=30000, interval_us=1000, count=2)
    schedule = handle_periodic_report_request(req, responder_tx_windows(duration_us=25600))
    assert not schedule.accepted
    assert "no transmit slot" in schedule.reason
    assert schedule.emission_times_us == ()


class LinkState(Enum):
    ALIVE = "alive"
    DEAD = "dead"


def keepalive_check(last_rx_us: float, now_us: float, timeout_us: float) -> LinkState:
    """The keep-alive rule that the engine's maintenance tick applies inline:
    DEAD only when strictly past the timeout; the boundary itself is ALIVE."""
    if timeout_us <= 0:
        raise ValueError("keep-alive timeout must be positive")
    return LinkState.DEAD if now_us - last_rx_us > timeout_us else LinkState.ALIVE


def test_keepalive_boundary_is_alive():
    assert keepalive_check(0.0, 100.0, timeout_us=100.0) is LinkState.ALIVE
    assert keepalive_check(0.0, 100.0 + 1e-9, timeout_us=100.0) is LinkState.DEAD
    assert keepalive_check(50.0, 60.0, timeout_us=100.0) is LinkState.ALIVE
    with pytest.raises(ValueError):
        keepalive_check(0.0, 1.0, timeout_us=0.0)


def test_tpc_single_step_within_limits():
    limits = PowerLimits(min_dbm=-10.0, max_dbm=20.0)
    # 6 dB hot, step cap 3: power drops exactly 3 dB.
    assert tpc_update(10.0, 26.0, 20.0, limits, max_step_db=3.0) == 7.0
    # 1 dB hot: correction equals the error.
    assert tpc_update(10.0, 21.0, 20.0, limits, max_step_db=3.0) == 9.0
    # 2 dB cold: power rises by the error.
    assert tpc_update(10.0, 18.0, 20.0, limits, max_step_db=3.0) == 12.0
    # Clamped at the hardware ceiling.
    assert tpc_update(19.0, 10.0, 20.0, limits, max_step_db=3.0) == 20.0
    with pytest.raises(ValueError):
        tpc_update(25.0, 20.0, 20.0, limits)
    with pytest.raises(ValueError):
        tpc_update(10.0, 20.0, 20.0, limits, max_step_db=0.0)


def test_tpc_walk_converges_from_nine_db_error():
    """A 9 dB initial error with 3 dB steps reaches the target band in 3 moves."""
    limits = PowerLimits(min_dbm=-10.0, max_dbm=20.0)
    target = 20.0
    power = 10.0
    rsni = 29.0  # 9 dB hot
    history = []
    for _ in range(4):
        new_power = tpc_update(power, rsni, target, limits, max_step_db=3.0)
        rsni += new_power - power
        power = new_power
        history.append(power)
    assert history == [7.0, 4.0, 1.0, 1.0]
    assert abs(rsni - target) <= 3.0
