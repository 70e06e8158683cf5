from bisect import bisect_right
from enum import Enum
from itertools import accumulate, count

import pytest
from hypothesis import given, settings, strategies as st

from tddsim.config import ScenarioConfig
from tddsim.domain import PowerLimits
from tddsim.maintenance import (
    PeriodicReportRequest,
    ReportSchedule,
    handle_periodic_report_request,
    tpc_update,
)
from tddsim.schedule import (
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    expand_sp,
    intervals,
)


def responder_tx_windows(duration_us=25600):
    """The `(start, end)` of each BASIC slot of one SP, all the STA's
    transmit opportunities."""
    slots = expand_sp(ScenarioConfig().build_structure(), 0, duration_us)
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
    schedule = handle_periodic_report_request(req, sorted(windows))
    expected = linear_scan(req, windows)
    assert schedule.accepted == (expected is not None)
    assert schedule.emission_times_us == (expected or ())


def test_windows_out_of_start_order_are_refused():
    req = PeriodicReportRequest(start_time_us=35, interval_us=10, count=1)
    with pytest.raises(ValueError, match="start order"):
        handle_periodic_report_request(req, [(0, 10), (20, 30), (15, 40)])
    # Only the windows read are checked: the first report needs two.
    early = PeriodicReportRequest(start_time_us=25, interval_us=10, count=1)
    schedule = handle_periodic_report_request(early, [(0, 10), (20, 30), (15, 40)])
    assert schedule.emission_times_us == (20,)


def test_an_endless_window_stream_is_read_to_the_last_report():
    read = []

    def windows():
        for k in count():
            read.append(k)
            yield 100 * k, 100 * k + 10

    req = PeriodicReportRequest(start_time_us=5, interval_us=250, count=4)
    schedule = handle_periodic_report_request(req, windows())
    # Nominal 5, 255, 505, 755: windows 0, 3, 5 and 8 are the first to end after them.
    assert schedule.emission_times_us == (0, 300, 500, 800)
    assert read == list(range(9))


def listed_and_bisected(req, sp, structure, beacon_interval_us, t_end_us, template):
    """The mapping as it was: every window of the run listed and sorted, and
    each nominal time bisected on the running maximum of their ends."""
    runs = list(intervals(structure, *sp, beacon_interval_us, t_end_us))
    windows = sorted((base + s, base + e) for _, base in runs for s, e in template)
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


@st.composite
def report_grids(draw):
    """An SP of 1-4 intervals at an offset, recurring after a beacon gap, a
    run end anywhere (inside an interval too), 1-3 BASIC windows per
    interval in any order, and a request over that span."""
    interval_us = draw(st.integers(4, 60))
    spans = draw(st.lists(st.tuples(st.integers(0, interval_us - 1), st.integers(1, interval_us)),
                          min_size=1, max_size=3))
    template = [(start, min(start + duration, interval_us)) for start, duration in spans]
    sp_duration_us = interval_us * draw(st.integers(1, 4))
    sp_start_us = draw(st.integers(0, 200))
    beacon_interval_us = sp_duration_us + draw(st.integers(0, 100))
    t_end_us = sp_start_us + draw(st.integers(0, 4 * beacon_interval_us))
    req = PeriodicReportRequest(
        start_time_us=draw(st.integers(0, t_end_us + 50)),
        interval_us=draw(st.integers(1, 2 * beacon_interval_us)),
        count=draw(st.integers(1, 6)),
    )
    return req, (sp_start_us, sp_duration_us), interval_us, beacon_interval_us, t_end_us, template


def test_stream_scan_equals_the_listed_and_bisected_mapping():
    outcomes = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(report_grids())
    def check(case):
        req, sp, interval_us, beacon_interval_us, t_end_us, template = case
        slots = tuple(SlotSpec(s, e - s, SlotCategory.BASIC) for s, e in template)
        structure = TddSlotStructure(1, interval_us, slots)
        # The stream as `cli.build_report_schedules` builds it.
        own = sorted(template)
        runs = intervals(structure, *sp, beacon_interval_us, t_end_us)
        stream = ((base + s, base + e) for _, base in runs for s, e in own)
        expected = listed_and_bisected(
            req, sp, structure, beacon_interval_us, t_end_us, template
        )
        assert handle_periodic_report_request(req, stream) == expected
        outcomes.add(expected.accepted)

    check()
    assert outcomes == {True, False}


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
