"""TDD service-period scheduling: slot structures and the run's slot timeline.

Time hierarchy: a beacon interval carries one TDD SP, the allocation that
802.11ay's extended schedule element announces; an SP is a run of
consecutive, adjacent TDD intervals; each interval holds the same ordered
list of TDD slots. Slots carry unidirectional traffic; a station never both
transmits and receives within one slot.

Every SP of a run belongs to its slot structure's allocation, so an SP is
just its start and duration: two integers beside a `TddSlotStructure`, and
`intervals` is the one expansion of a run's slot grid.

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


def _intervals_per_sp(structure: TddSlotStructure, sp_duration_us: int) -> int:
    """How many TDD intervals an SP of `sp_duration_us` holds; StructureError
    unless that is a positive whole number."""
    interval_us = structure.interval_duration_us
    if sp_duration_us <= 0 or sp_duration_us % interval_us != 0:
        raise StructureError(
            f"SP duration {sp_duration_us} is not a positive multiple of interval {interval_us}"
        )
    return sp_duration_us // interval_us


def intervals(
    structure: TddSlotStructure,
    sp_start_us: int,
    sp_duration_us: int,
    beacon_interval_us: int,
    t_end_us: int,
) -> Iterator[tuple[int, int]]:
    """`(interval_index, start_us)` of every TDD interval of a run, in time order.

    The SP that starts at `sp_start_us` recurs once per beacon interval, and
    each SP is a whole number of adjacent TDD intervals. Only intervals that
    end by `t_end_us` run; a partial final interval is dropped.
    `interval_index` counts intervals across the whole run, from 0.
    """
    n_intervals = _intervals_per_sp(structure, sp_duration_us)
    if beacon_interval_us < sp_duration_us:
        raise ValueError("the SP does not fit in the beacon interval")
    interval_us = structure.interval_duration_us
    interval_index = 0
    while True:
        for k in range(n_intervals):
            base = sp_start_us + k * interval_us
            if base + interval_us > t_end_us:
                return
            yield interval_index, base
            interval_index += 1
        sp_start_us += beacon_interval_us


def expand_sp(structure: TddSlotStructure, sp_start_us: int, sp_duration_us: int) -> list[AbsoluteSlot]:
    """The slots of one SP, interval by interval, each interval's in the
    order the slots start (slots that start together keep index order)."""
    ordered = sorted(enumerate(structure.slots), key=lambda item: item[1].start_offset_us)
    end_us = sp_start_us + sp_duration_us
    return [
        AbsoluteSlot(
            structure.allocation_id, interval_index, slot_index,
            base + spec.start_offset_us, spec.duration_us, spec.category,
        )
        for interval_index, base in intervals(structure, sp_start_us, sp_duration_us, sp_duration_us, end_us)
        for slot_index, spec in ordered
    ]


def sp_window(structure: TddSlotStructure, sp_start_us: int, sp_duration_us: int) -> tuple[int, int]:
    """`(start of the first slot, end of the last)` of one SP.

    The span that `expand_sp`'s slots cover, with the same errors, computed
    without expanding them: the earliest slot of the first interval and the
    latest end in the last.
    """
    n_intervals = _intervals_per_sp(structure, sp_duration_us)
    if not structure.slots:
        raise ValueError("the slot structure holds no slot")
    last_base = sp_start_us + (n_intervals - 1) * structure.interval_duration_us
    return (
        sp_start_us + min(s.start_offset_us for s in structure.slots),
        last_base + max(s.start_offset_us + s.duration_us for s in structure.slots),
    )
