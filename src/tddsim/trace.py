"""JSON-lines trace recording shared by the beamforming driver and engine.

Records wait in a reorder buffer keyed by (time, insertion order). When the
caller promises that no record earlier than a watermark can still arrive
(`advance`), the records below it are sorted, numbered with the next `seq`
values and handed to the sink, so the written trace has strictly increasing
(t, seq) keys even when a record is stamped behind the current time. The
sink is either an in-memory list, which the queries read, or a writer,
such as a text file, that the records stream to as the run proceeds.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import SimulationError

_ENCODER = json.JSONEncoder(sort_keys=True)


def _jsonl(records: Iterable[dict[str, Any]]) -> str:
    return "".join(_ENCODER.encode(rec) + "\n" for rec in records)


class TraceRecorder:
    """A reorder buffer in front of an in-memory list or a JSONL writer.

    Without `write`, written records are kept and `sorted_records`,
    `iter_kind` and `to_jsonl` see the whole trace. With it, they are passed
    to `write` as JSON lines, such as a text file's `write`, and not kept;
    `close` writes the rest.
    """

    def __init__(self, enabled: bool = True, write: Optional[Callable[[str], Any]] = None):
        self.enabled = enabled
        self._pending: list[tuple[float, int, dict[str, Any]]] = []
        self._order = 0
        self._next_seq = 0
        self._watermark: float = -math.inf
        self._records: list[dict[str, Any]] = []
        if write is None:
            self._sink = self._records.extend
        else:
            self._sink = lambda records: write(_jsonl(records))

    def record(self, t_us: float, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        t = round(float(t_us), 3)
        if t < self._watermark:
            raise SimulationError(
                f"trace record {kind!r} at t={t} arrived after the trace "
                f"was written up to t={self._watermark}"
            )
        rec = {"t": t, "kind": kind}
        for key, value in fields.items():
            if value is not None:
                rec[key] = value
        self._pending.append((t, self._order, rec))
        self._order += 1

    def advance(self, watermark_us: float) -> None:
        """Write every buffered record with t below `watermark_us`.

        A record stamped below the watermark afterwards raises
        `SimulationError` instead of being written out of order.
        """
        pending = self._pending
        pending.sort()  # insertion order is unique, so records are never compared
        cut = bisect_left(pending, (watermark_us,))
        ready = [rec for _, _, rec in pending[:cut]]
        del pending[:cut]
        for seq, rec in enumerate(ready, self._next_seq):
            rec["seq"] = seq
        self._next_seq += len(ready)
        self._watermark = max(self._watermark, watermark_us)
        if ready:
            self._sink(ready)

    def close(self) -> None:
        """Write the rest of the buffer; no record may follow."""
        self.advance(math.inf)

    @property
    def closed(self) -> bool:
        return self._watermark == math.inf

    @property
    def buffered(self) -> int:
        """How many records wait in the reorder buffer."""
        return len(self._pending)

    def _ordered(self) -> Iterator[dict[str, Any]]:
        """Written records, then buffered ones numbered as they will be."""
        yield from self._records
        self._pending.sort()
        for seq, (_, _, rec) in enumerate(self._pending, self._next_seq):
            yield {**rec, "seq": seq}

    def sorted_records(self) -> list[dict[str, Any]]:
        return [dict(rec) for rec in self._ordered()]

    def iter_kind(self, kind: str) -> list[dict[str, Any]]:
        return [rec for rec in self._ordered() if rec["kind"] == kind]

    def to_jsonl(self) -> str:
        return _jsonl(self._ordered())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def null_recorder() -> TraceRecorder:
    return TraceRecorder(enabled=False)
