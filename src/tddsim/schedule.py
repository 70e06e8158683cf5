"""TDD service-period scheduling: slot structures and the run's slot timeline.

Time hierarchy: a beacon interval carries one TDD SP (one extended-schedule
entry); an SP is a run of consecutive, adjacent TDD intervals; each interval
holds the same ordered list of TDD slots. Slots carry unidirectional
traffic; a station never both transmits and receives within one slot.

All times are integer microseconds.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

from .errors import StructureError


class SlotCategory(Enum):
    BASIC = "basic"
    DATA = "data"


class Direction(Enum):
    DOWNLINK = "downlink"
    UPLINK = "uplink"

    def reverse(self) -> "Direction":
        return Direction.UPLINK if self is Direction.DOWNLINK else Direction.DOWNLINK


class ExtendedScheduleEntry:
    __slots__ = ("allocation_id", "start_time_us", "duration_us", "is_tdd")

    def __init__(
        self, allocation_id: int, start_time_us: int, duration_us: int, is_tdd: bool = True
    ):
        if duration_us <= 0:
            raise ValueError("entry duration must be positive")
        self.allocation_id = allocation_id
        self.start_time_us = start_time_us
        self.duration_us = duration_us
        self.is_tdd = is_tdd

    @property
    def end_time_us(self) -> int:
        return self.start_time_us + self.duration_us


class SlotSpec(NamedTuple):
    start_offset_us: int
    duration_us: int
    category: SlotCategory


class TddSlotStructure(NamedTuple):
    allocation_id: int
    interval_duration_us: int
    slots: tuple[SlotSpec, ...]


class AbsoluteSlot(NamedTuple):
    """One concrete slot instance on the simulation timeline."""

    sp_allocation_id: int
    interval_index: int
    slot_index: int
    start_us: int
    duration_us: int
    category: SlotCategory

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


def default_slot_structure(allocation_id: int = 0) -> TddSlotStructure:
    """24 slots of 66 us inside a 1.6 ms interval, 16 us trailing guard.

    Slots 0 and 12 are BASIC, the rest DATA.
    """
    slots = tuple(
        SlotSpec(
            start_offset_us=i * 66,
            duration_us=66,
            category=SlotCategory.BASIC if i in (0, 12) else SlotCategory.DATA,
        )
        for i in range(24)
    )
    return TddSlotStructure(allocation_id=allocation_id, interval_duration_us=1600, slots=slots)


class ScheduleViolation(NamedTuple):
    kind: str
    detail: str


def validate_structure(structure: TddSlotStructure) -> list[ScheduleViolation]:
    violations = []
    if structure.interval_duration_us <= 0:
        violations.append(ScheduleViolation("bad-interval", "interval duration must be positive"))
        return violations
    ordered = sorted(structure.slots, key=lambda s: s.start_offset_us)
    for i, slot in enumerate(ordered):
        if slot.duration_us <= 0:
            violations.append(
                ScheduleViolation("bad-slot-duration", f"slot at offset {slot.start_offset_us} has duration {slot.duration_us}")
            )
            continue
        if slot.start_offset_us < 0 or slot.start_offset_us + slot.duration_us > structure.interval_duration_us:
            violations.append(
                ScheduleViolation(
                    "slot-outside-interval",
                    f"slot at offset {slot.start_offset_us} (+{slot.duration_us}) exceeds interval "
                    f"{structure.interval_duration_us}",
                )
            )
        if i + 1 < len(ordered):
            nxt = ordered[i + 1]
            if slot.start_offset_us + slot.duration_us > nxt.start_offset_us:
                violations.append(
                    ScheduleViolation(
                        "overlapping-slots",
                        f"slots at offsets {slot.start_offset_us} and {nxt.start_offset_us} overlap",
                    )
                )
    if not any(s.category is SlotCategory.BASIC for s in structure.slots):
        violations.append(
            ScheduleViolation("no-basic-slot", "structure holds no BASIC slot; delayed acks have nowhere to go")
        )
    return violations


def _intervals_per_sp(sp: ExtendedScheduleEntry, structure: TddSlotStructure) -> int:
    """How many TDD intervals `sp` holds, after checking that it is a TDD SP
    of `structure`'s allocation made of whole intervals."""
    if not sp.is_tdd:
        raise ValueError("entry is not a TDD SP")
    if structure.allocation_id != sp.allocation_id:
        raise ValueError(
            f"structure allocation {structure.allocation_id} != entry {sp.allocation_id}"
        )
    interval_us = structure.interval_duration_us
    if sp.duration_us % interval_us != 0:
        raise StructureError(
            f"SP duration {sp.duration_us} is not a multiple of interval {interval_us}"
        )
    return sp.duration_us // interval_us


def intervals(
    first_sp: ExtendedScheduleEntry,
    structure: TddSlotStructure,
    beacon_interval_us: int,
    t_end_us: int,
) -> Iterator[tuple[int, int]]:
    """`(interval_index, start_us)` of every TDD interval of a run, in time order.

    The TDD SP `first_sp` recurs once per beacon interval, and each SP is a
    whole number of adjacent TDD intervals. Only intervals that end by
    `t_end_us` run; a partial final interval is dropped. `interval_index`
    counts intervals across the whole run, from 0.
    """
    n_intervals = _intervals_per_sp(first_sp, structure)
    if beacon_interval_us < first_sp.duration_us:
        raise ValueError("the SP does not fit in the beacon interval")
    interval_us = structure.interval_duration_us
    interval_index = 0
    sp_start = first_sp.start_time_us
    while True:
        for k in range(n_intervals):
            base = sp_start + k * interval_us
            if base + interval_us > t_end_us:
                return
            yield interval_index, base
            interval_index += 1
        sp_start += beacon_interval_us


def timeline(
    first_sp: ExtendedScheduleEntry,
    structure: TddSlotStructure,
    beacon_interval_us: int,
    t_end_us: int,
) -> Iterator[AbsoluteSlot]:
    """Every slot of a run, in time order: each slot of each of `intervals()`,
    in the order the slots start (slots that start together keep index order)."""
    allocation_id = first_sp.allocation_id
    ordered = sorted(enumerate(structure.slots), key=lambda item: item[1].start_offset_us)
    for interval_index, base in intervals(first_sp, structure, beacon_interval_us, t_end_us):
        for slot_index, spec in ordered:
            yield AbsoluteSlot(
                allocation_id, interval_index, slot_index,
                base + spec.start_offset_us, spec.duration_us, spec.category,
            )


def expand_sp(entry: ExtendedScheduleEntry, structure: TddSlotStructure) -> list[AbsoluteSlot]:
    """The slots of one TDD SP: intervals x slots-per-interval."""
    return list(timeline(entry, structure, entry.duration_us, entry.end_time_us))


def sp_window(entry: ExtendedScheduleEntry, structure: TddSlotStructure) -> tuple[int, int]:
    """`(start of the first slot, end of the last)` of one TDD SP.

    The span that `expand_sp`'s slots cover, with the same errors, computed
    without expanding them: the earliest slot of the first interval and the
    latest end in the last.
    """
    n_intervals = _intervals_per_sp(entry, structure)
    if not structure.slots:
        raise ValueError("the slot structure holds no slot")
    last_base = entry.start_time_us + (n_intervals - 1) * structure.interval_duration_us
    return (
        entry.start_time_us + min(s.start_offset_us for s in structure.slots),
        last_base + max(s.start_offset_us + s.duration_us for s in structure.slots),
    )
