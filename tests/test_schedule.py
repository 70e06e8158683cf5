import pytest
from hypothesis import given, settings, strategies as st

from tddsim.config import ScenarioConfig
from tddsim.errors import StructureError
from tddsim.schedule import (
    Direction,
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    expand_sp,
    intervals,
    sp_window,
    validate_structure,
)

DEFAULT = ScenarioConfig().build_structure()


def test_direction_reverse():
    assert Direction.DOWNLINK.reverse() is Direction.UPLINK
    assert Direction.UPLINK.reverse() is Direction.DOWNLINK


def test_default_structure_shape():
    s = DEFAULT
    assert s.allocation_id == 1
    assert s.interval_duration_us == 1600
    assert len(s.slots) == 24
    assert all(spec.duration_us == 66 for spec in s.slots)
    assert [i for i, spec in enumerate(s.slots) if spec.category is SlotCategory.BASIC] == [0, 12]
    # 24 * 66 = 1584; the last 16 us of the interval are guard time.
    last = s.slots[-1]
    assert last.start_offset_us + last.duration_us == 1584
    assert validate_structure(s) == []


def test_validate_structure_rejections():
    bad_interval = TddSlotStructure(1, 0, ())
    kinds = {v.kind for v in validate_structure(bad_interval)}
    assert "bad-interval" in kinds

    overlapping = TddSlotStructure(
        1,
        200,
        (
            SlotSpec(0, 60, SlotCategory.BASIC),
            SlotSpec(50, 60, SlotCategory.DATA),
        ),
    )
    kinds = {v.kind for v in validate_structure(overlapping)}
    assert "overlapping-slots" in kinds

    outside = TddSlotStructure(1, 100, (SlotSpec(60, 66, SlotCategory.BASIC),))
    kinds = {v.kind for v in validate_structure(outside)}
    assert "slot-outside-interval" in kinds

    zero_len = TddSlotStructure(1, 100, (SlotSpec(0, 0, SlotCategory.BASIC),))
    kinds = {v.kind for v in validate_structure(zero_len)}
    assert "bad-slot-duration" in kinds

    no_basic = TddSlotStructure(1, 100, (SlotSpec(0, 66, SlotCategory.DATA),))
    kinds = {v.kind for v in validate_structure(no_basic)}
    assert "no-basic-slot" in kinds


def test_expand_sp_full_service_period():
    slots = expand_sp(DEFAULT, 0, 25600)
    # 16 intervals of 24 slots each.
    assert len(slots) == 384
    assert slots[0].start_us == 0
    assert slots[0].category is SlotCategory.BASIC
    assert slots[0].sp_allocation_id == 1
    assert slots[1].start_us == 66 and slots[1].category is SlotCategory.DATA
    # Interval boundaries land every 1600 us regardless of the slot gap.
    assert slots[24].start_us == 1600 and slots[24].interval_index == 1
    assert slots[383].start_us == 15 * 1600 + 23 * 66
    assert slots[383].end_us == 24000 + 1584
    # The second BASIC slot of each interval sits at offset 12 * 66.
    assert slots[12].start_us == 792 and slots[12].category is SlotCategory.BASIC


def test_expand_sp_offset_entry():
    slots = expand_sp(DEFAULT, 5000, 3200)
    assert len(slots) == 48
    assert slots[0].start_us == 5000
    assert slots[24].start_us == 6600


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 300), st.integers(1, 300)), min_size=1, max_size=5),
)
def test_sp_window_is_the_span_of_the_expanded_slots(start_us, n_intervals, spans):
    # Slots in any order, overlapping or not, a guard or none.
    slots = tuple(SlotSpec(offset, length, SlotCategory.DATA) for offset, length in spans)
    interval_us = max(offset + length for offset, length in spans)
    structure = TddSlotStructure(1, interval_us, slots)
    expanded = expand_sp(structure, start_us, n_intervals * interval_us)
    assert sp_window(structure, start_us, n_intervals * interval_us) == (
        min(s.start_us for s in expanded), max(s.end_us for s in expanded)
    )


@pytest.mark.parametrize("duration_us", [0, -1600, 1601])
@pytest.mark.parametrize("expand", [
    lambda duration_us: next(intervals(DEFAULT, 0, duration_us, 25600, 25600)),
    lambda duration_us: sp_window(DEFAULT, 0, duration_us),
    lambda duration_us: expand_sp(DEFAULT, 0, duration_us),
], ids=["intervals", "sp_window", "expand_sp"])
def test_sp_must_be_a_positive_whole_number_of_intervals(expand, duration_us):
    with pytest.raises(StructureError, match="not a positive multiple of interval 1600"):
        expand(duration_us)


def test_sp_window_rejects_a_structure_without_slots():
    with pytest.raises(ValueError, match="holds no slot"):
        sp_window(TddSlotStructure(1, 1600, ()), 0, 1600)


def test_expand_sp_yields_slots_in_start_order():
    structure = TddSlotStructure(1, 300, (
        SlotSpec(200, 100, SlotCategory.BASIC),
        SlotSpec(0, 100, SlotCategory.DATA),
        SlotSpec(100, 100, SlotCategory.DATA),
    ))
    assert validate_structure(structure) == []
    slots = expand_sp(structure, 0, 600)
    assert [(s.start_us, s.slot_index) for s in slots] == [
        (0, 1), (100, 2), (200, 0), (300, 1), (400, 2), (500, 0),
    ]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(1, 100)), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
    st.integers(1, 3),
)
def test_expand_sp_starts_never_decrease(gaps_and_lengths, rnd, n_intervals):
    # A valid structure (its first slot BASIC) listed in any index order.
    slots, end = [], 0
    for gap, length in gaps_and_lengths:
        category = SlotCategory.DATA if slots else SlotCategory.BASIC
        slots.append(SlotSpec(end + gap, length, category))
        end += gap + length
    rnd.shuffle(slots)
    structure = TddSlotStructure(1, end, tuple(slots))
    assert validate_structure(structure) == []
    expanded = expand_sp(structure, 0, n_intervals * end)
    assert len(expanded) == n_intervals * len(slots)
    starts = [s.start_us for s in expanded]
    assert starts == sorted(starts)


def test_intervals_recur_per_beacon_interval_and_count_intervals():
    # Two 1.6 ms intervals per 10 ms beacon interval offset by 1 ms, run to
    # 22 ms: SPs start at 1000, 11000 and 21000; the third has no whole interval.
    assert list(intervals(DEFAULT, 1000, 3200, 10_000, 22_000)) == [
        (0, 1000), (1, 2600), (2, 11000), (3, 12600),
    ]


def test_intervals_run_only_whole_intervals():
    # 3199 us holds one whole interval; the second would end at 3200.
    assert list(intervals(DEFAULT, 0, 25600, 25600, 3199)) == [(0, 0)]
    assert list(intervals(DEFAULT, 0, 25600, 25600, 3200)) == [(0, 0), (1, 1600)]
    assert list(intervals(DEFAULT, 0, 25600, 25600, 1599)) == []
    # One SP is expand_sp's intervals.
    one_sp = list(intervals(DEFAULT, 0, 25600, 25600, 25600))
    assert one_sp == [(s.interval_index, s.start_us) for s in expand_sp(DEFAULT, 0, 25600)[::24]]
    assert len(list(intervals(DEFAULT, 0, 25600, 25600, 51200))) == 2 * 16
    with pytest.raises(ValueError, match="does not fit in the beacon interval"):
        next(intervals(DEFAULT, 0, 25600, 1600, 25600))
