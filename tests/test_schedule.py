import pytest
from hypothesis import given, settings, strategies as st

from tddsim.errors import StructureError
from tddsim.schedule import (
    Direction,
    ExtendedScheduleEntry,
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    default_slot_structure,
    expand_sp,
    sp_window,
    timeline,
    validate_structure,
)


def test_direction_reverse():
    assert Direction.DOWNLINK.reverse() is Direction.UPLINK
    assert Direction.UPLINK.reverse() is Direction.DOWNLINK


def test_default_structure_shape():
    s = default_slot_structure(allocation_id=7)
    assert s.allocation_id == 7
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
    entry = ExtendedScheduleEntry(allocation_id=1, start_time_us=0, duration_us=25600)
    structure = default_slot_structure(1)
    slots = expand_sp(entry, structure)
    # 16 intervals of 24 slots each.
    assert len(slots) == 384
    assert slots[0].start_us == 0
    assert slots[0].category is SlotCategory.BASIC
    assert slots[1].start_us == 66 and slots[1].category is SlotCategory.DATA
    # Interval boundaries land every 1600 us regardless of the slot gap.
    assert slots[24].start_us == 1600 and slots[24].interval_index == 1
    assert slots[383].start_us == 15 * 1600 + 23 * 66
    assert slots[383].end_us == 24000 + 1584
    # The second BASIC slot of each interval sits at offset 12 * 66.
    assert slots[12].start_us == 792 and slots[12].category is SlotCategory.BASIC


def test_expand_sp_offset_entry():
    entry = ExtendedScheduleEntry(allocation_id=1, start_time_us=5000, duration_us=3200)
    slots = expand_sp(entry, default_slot_structure(1))
    assert len(slots) == 48
    assert slots[0].start_us == 5000
    assert slots[24].start_us == 6600


def test_expand_sp_rejections():
    structure = default_slot_structure(1)
    non_tdd = ExtendedScheduleEntry(1, 0, 1600, is_tdd=False)
    with pytest.raises(ValueError):
        expand_sp(non_tdd, structure)
    wrong_alloc = ExtendedScheduleEntry(2, 0, 1600)
    with pytest.raises(ValueError):
        expand_sp(wrong_alloc, structure)
    ragged = ExtendedScheduleEntry(1, 0, 1601)
    with pytest.raises(StructureError):
        expand_sp(ragged, structure)


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
    entry = ExtendedScheduleEntry(1, start_us, n_intervals * interval_us)
    expanded = expand_sp(entry, structure)
    assert sp_window(entry, structure) == (
        min(s.start_us for s in expanded), max(s.end_us for s in expanded)
    )


def test_sp_window_rejects_what_expand_sp_rejects():
    structure = default_slot_structure(1)
    for entry, error in (
        (ExtendedScheduleEntry(1, 0, 1600, is_tdd=False), ValueError),
        (ExtendedScheduleEntry(2, 0, 1600), ValueError),
        (ExtendedScheduleEntry(1, 0, 1601), StructureError),
    ):
        for expand in (expand_sp, sp_window):
            with pytest.raises(error) as raised:
                expand(entry, structure)
            assert type(raised.value) is error
    with pytest.raises(ValueError, match="holds no slot"):
        sp_window(ExtendedScheduleEntry(1, 0, 1600), TddSlotStructure(1, 1600, ()))


def test_timeline_recurs_per_beacon_interval_and_counts_intervals():
    # Two 3.2 ms SPs per 10 ms beacon interval offset by 1 ms, run to 22 ms:
    # SPs start at 1000, 11000 and 21000; the third has no whole interval.
    first_sp = ExtendedScheduleEntry(allocation_id=1, start_time_us=1000, duration_us=3200)
    slots = list(timeline(first_sp, default_slot_structure(1), 10_000, 22_000))
    assert len(slots) == 4 * 24
    assert [s.start_us for s in slots if s.slot_index == 0] == [1000, 2600, 11000, 12600]
    assert [s.interval_index for s in slots[::24]] == [0, 1, 2, 3]
    assert slots[-1].end_us == 12600 + 1584


def test_timeline_runs_only_whole_intervals():
    first_sp = ExtendedScheduleEntry(allocation_id=1, start_time_us=0, duration_us=25600)
    structure = default_slot_structure(1)
    # 3199 us holds one whole interval; the second would end at 3200.
    assert len(list(timeline(first_sp, structure, 25600, 3199))) == 24
    assert len(list(timeline(first_sp, structure, 25600, 3200))) == 48
    assert list(timeline(first_sp, structure, 25600, 1599)) == []
    # The single-SP case is expand_sp.
    assert list(timeline(first_sp, structure, 25600, 25600)) == expand_sp(first_sp, structure)
    assert len(list(timeline(first_sp, structure, 25600, 51200))) == 2 * 384
    with pytest.raises(ValueError):
        next(timeline(first_sp, structure, 1600, 25600))
