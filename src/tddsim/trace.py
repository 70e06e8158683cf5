"""JSON-lines trace recording shared by the beamforming driver and engine.

Every record kind and the fields it may carry are declared in `KINDS`. A
record is kept as one flat tuple `(t, shape, *values)`, where `t` is the
trace time `round(t_us, 3)`: a shape is one kind with one list of fields
its records carry and, for `shape`'s rows, the values of any fixed fields
that all its records share. It is numbered per recorder when it is first
seen, or for fixed fields when `shape` is called, which is also when its
kind, its field names and the types of its values are checked against
`KINDS`: an undeclared kind or field, or a wrongly typed value, raises
`SimulationError`.

Records arrive in one of two ways. `record(t_us, kind, **fields)` takes a
record by keyword, drops `None` fields and looks its shape up per record.
`extend(rows)` appends a batch of rows in their final form, as they are:
each is led by its trace time and the number `shape(kind, fixed,
**first)` registered from `first`'s names and values, and holds its values
in `first`'s field order; the fields in `fixed` are not in the row. A
batch is a list, or an iterator that an in-memory trace builds only when
it is read. The hot loops write batches: the training sweep's frames, one
lazy batch per sweep, with node, frame and end of training (transmit) or
outcome (receive) fixed per leg, the engine's data `frame_tx`/`frame_rx`
rows, one batch up to each heap event or timeline entry, with node, frame,
link and (sent) MCS fixed per runtime, and its `slot` rows, one row as
each boundary runs, with all but `interval` fixed per slot index; the
rarer kinds go through `record`. Both append to one buffer and raise the same `SimulationError`
for a record stamped below the watermark.

Records wait in a reorder buffer, in insertion order at equal times. When
the caller promises that no record earlier than a watermark can still
arrive (`advance`), the buffer is sorted by time, a stable sort that keeps
that order, and the records below it are numbered with the next `seq`
values and handed to the sink, so the written trace has strictly
increasing (t, seq) keys even when a record is stamped behind the current
time. The sink is either a writer, such as a text file, that the records
stream to as the run proceeds, or an in-memory list, which the queries
read. An in-memory trace is sorted and numbered when it is first read, not
at each `advance`, and a batch handed to `extend` as an iterator is built
only then: a record below the watermark is refused when it arrives, so one
stable sort of every record in arrival order gives the order and `seq`
numbers of sorting at each watermark.

Lines are rendered by one writer per shape, with the JSON of its fixed
values built in; the writers of one field layout share one formatter,
compiled once from `KINDS`. Every line equals what
`json.JSONEncoder(sort_keys=True)` writes for the record's dict, the fixed
fields included. It is a record's one rendering: the queries parse the
lines that a trace file would hold.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from .errors import SimulationError

# JSON types of record fields, with the Python types each accepts.
STRING, NUMBER, BOOL, LIST = "string", "number", "bool", "list"
_ACCEPTS = {STRING: (str,), NUMBER: (int, float), BOOL: (bool,), LIST: (list, tuple)}

# Every record kind, with every field it may carry. Each record also has
# `t`, `kind` and `seq`.
_FRAME = {"node": STRING, "frame": STRING, "link": STRING, "sector": NUMBER}
KINDS: dict[str, dict[str, str]] = {
    "run_header": {"scenario": STRING, "seed": NUMBER, "duration_us": NUMBER},
    "slot": {
        "slot_index": NUMBER, "interval": NUMBER, "category": STRING,
        "direction": STRING, "links": LIST,
    },
    "announce": {"node": STRING, "elements": LIST, "broadcast": BOOL},
    "frame_tx": {
        **_FRAME, "data_seq": NUMBER, "bits": NUMBER, "last_fragment": BOOL,
        "mcs": NUMBER, "covered": LIST, "report_seq": NUMBER, "rcpi_dbm": NUMBER,
        "rsni_db": NUMBER, "frame_index": NUMBER, "end_of_training": BOOL,
        "slot_countdown": NUMBER, "best_tx_sector": NUMBER, "responder": STRING,
    },
    "frame_rx": {
        **_FRAME, "data_seq": NUMBER, "bits": NUMBER, "last_fragment": BOOL,
        "outcome": STRING, "report_seq": NUMBER, "tx_sector": NUMBER, "snr_db": NUMBER,
    },
    "frame_drop": {"node": STRING, "link": STRING, "data_seq": NUMBER, "reason": STRING},
    "link_dead": {"link": STRING, "node": STRING, "last_rx": NUMBER},
    "tpc_update": {
        "node": STRING, "link": STRING, "power_dbm": NUMBER,
        "measured_rsni_db": NUMBER, "target_rsni_db": NUMBER,
    },
    "bf_start": {
        "mode": STRING, "initiator": STRING, "responders": LIST,
        "tx_sectors": NUMBER, "repetitions": NUMBER,
    },
    "bf_report": {"node": STRING, "samples": NUMBER},
    "bf_trained": {
        "initiator": STRING, "responder": STRING, "initiator_sector": NUMBER,
        "responder_sector": NUMBER, "snr_db": NUMBER,
    },
}

_ENCODER = json.JSONEncoder(sort_keys=True)

Record = tuple  # (t, shape, *values), t being the trace time round(t_us, 3)
# kind, the names of the fields a row carries, in row order, and the fixed
# fields' values.
Shape = tuple[str, tuple[str, ...], dict[str, Any]]

_time = itemgetter(0)


def _list_json(value: list | tuple) -> str:
    """What the JSON encoder writes for a list or tuple; one of exact ints
    only (no bool) is joined without it."""
    for item in value:
        if item.__class__ is not int:
            return _ENCODER.encode(value)
    return "[" + ", ".join(map(str, value)) + "]"


@functools.cache
def _formatter(kind: str, names: tuple[str, ...], fixed: tuple[str, ...]) -> Callable[..., Callable]:
    """The line writers of one field layout: `kind` with the fields `names`
    that its rows carry, in row order, and the fields `fixed` that every
    row of one shape shares.

    `make(reference, *fixed_json)` returns the writer of one shape of the
    layout, `(strings, seq, record) -> line` for a record `(t, shape,
    *values)`, with the JSON of its fixed values, in `fixed`'s order, baked
    into the line. So a layout is compiled once, whatever its fixed values.
    `strings` maps each string to its JSON encoding. Keys are sorted, and
    numbers are written with `repr`, as `json` writes them; a record
    carrying NaN or an infinity is handed to `reference(seq, record)`
    instead, the encoder's line for the record's dict. A list or tuple is
    encoded each time it is written.
    """
    declared = KINDS[kind]
    carried = {"seq": "{seq}", "t": "{t!r}"}
    numbers = ["t"]
    for i, name in enumerate(names):
        v = f"v{i}"
        carried[name] = {
            STRING: f"{{S[{v}]}}", NUMBER: f"{{{v}!r}}", BOOL: f"{{B[{v}]}}",
            LIST: f"{{L({v})}}",
        }[declared[name]]
        if declared[name] == NUMBER:
            numbers.append(v)
    constant = {"kind": repr(encode_basestring_ascii(kind))}
    constant.update((name, f"F{i}") for i, name in enumerate(fixed))
    # The text before each carried value, fixed values and all, is joined
    # once per shape, into P0, P1, ...
    texts, body, text = [], [], ["'{'"]
    for n, key in enumerate(sorted([*carried, *constant])):
        text.append(repr(f'{", " if n else ""}"{key}": '))
        if key in constant:
            text.append(constant[key])
        else:
            body.append(f"{{P{len(texts)}}}{carried[key]}")
            texts.append(" + ".join(text))
            text = []
    texts.append(" + ".join([*text, repr("}\n")]))
    source = "\n".join((
        "def make(reference, " + "".join(f"F{i}, " for i in range(len(fixed))) + "):",
        *(f"    P{j} = {expr}" for j, expr in enumerate(texts)),
        "    def line(S, seq, rec):",
        "        t, _, " + "".join(f"v{i}, " for i in range(len(names))) + "= rec",
        "        if " + " or ".join(f"{v} - {v}" for v in numbers) + ":",  # NaN or ±inf
        "            return reference(seq, rec)",
        "        return f'" + "".join(body) + f"{{P{len(body)}}}'",
        "    return line",
    ))
    namespace = {"B": ("false", "true"), "L": _list_json}
    # Named after this file, so that a profile counts the formatters' time
    # as this module's.
    exec(compile(source, f"{__file__} (line formatter: {kind})", "exec"), namespace)
    return namespace["make"]


def _line_writer(shape: Shape) -> Callable[[dict, int, Record], str]:
    kind, names, fixed = shape
    return _formatter(kind, names, tuple(fixed))(
        lambda seq, rec: _ENCODER.encode(
            {"t": rec[0], "kind": kind, **fixed, **dict(zip(names, rec[2:])), "seq": seq}
        ) + "\n",
        *map(_ENCODER.encode, fixed.values()),
    )


class _JsonStrings(dict):
    """The JSON encoding of every string written so far, each encoded once."""

    def __missing__(self, value: str) -> str:
        self[value] = encoded = encode_basestring_ascii(value)
        return encoded


class TraceRecorder:
    """A reorder buffer in front of an in-memory list or a JSONL writer.

    Without `write`, records are kept and `sorted_records`, `iter_kind` and
    `to_jsonl` see the whole trace. It is sorted and numbered when first
    read: `advance` only raises the watermark, and a lazy batch stays
    unbuilt until a query or `buffered` reads the recorder. With `write`,
    records are passed to it as JSON lines at each `advance`, such as to a
    text file's `write`, and not kept; `close` writes the rest. A query
    returns `json.loads` of each line that `to_jsonl` would write: keys in
    sorted order, lists for tuples, and NaN and the infinities as freshly
    parsed floats.
    """

    def __init__(self, enabled: bool = True, write: Optional[Callable[[str], Any]] = None):
        self.enabled = enabled
        self._write = write
        self._pending: list[Record] = []
        # In memory, (place in _pending, rest of a lazy batch) to build when read.
        self._lazy: list[tuple[int, Iterator[Record]]] = []
        self._next_seq = 0
        self._watermark: float = -math.inf
        self._records: list[Record] = []  # written records; seq is the index
        self._shape_ids: dict[tuple[str, ...], int] = {}  # (kind, *names) -> shape without fixed fields
        self._shapes: list[Shape] = []  # shape -> (kind, names, fixed)
        self._formatters: list[Callable[[dict, int, Record], str]] = []  # compiled on first write
        self._strings = _JsonStrings()

    def record(self, t_us: float, kind: str, **fields: Any) -> None:
        """Record `kind` at `t_us` with `fields`, leaving out any that is None."""
        if not self.enabled:
            return
        t = round(float(t_us), 3)
        if t < self._watermark:
            raise self._late(kind, t)
        if None in fields.values():
            fields = {key: value for key, value in fields.items() if value is not None}
        key = (kind, *fields)
        shape = self._shape_ids.get(key)
        if shape is None:
            shape = self._add_shape(kind, fields)
        self._pending.append((t, shape, *fields.values()))

    def shape(self, kind: str, fixed: Optional[dict[str, Any]] = None, /, **first: Any) -> int:
        """The number of the shape of `kind` with `first`'s fields, in that
        order, which leads the values of this shape's rows in `extend`.

        `first` holds a value of each field's type. `fixed` holds the value
        of each field that is the same on every row of this shape: a row
        carries only `first`'s fields, and each record has the fixed ones
        too, written, read and queried as if the row carried them; each call
        with fixed fields registers a new shape. The values are checked
        against KINDS here, as `record` checks a shape it sees for the first
        time; rows are not checked again, so each must hold one value of
        the declared type per field of `first`.
        """
        return self._add_shape(kind, first, fixed)

    def extend(self, rows: list[tuple] | Iterator[tuple]) -> None:
        """Append `(t, shape, *values)` rows as they are, in their final
        form: `t` is already the trace time, `round(t_us, 3)`, so the rows
        write what `record` would for the same records. Their times must
        not decrease, as the first is checked against the watermark for
        all. `rows` is a list or an iterator; an in-memory recorder takes
        an iterator's first row now and the rest when it is read. A
        disabled recorder keeps nothing and checks nothing."""
        if not self.enabled:
            return
        if rows.__class__ is list:
            if not rows:
                return
            first, rest = rows[0], None
        else:
            rest = iter(rows)
            first = next(rest, None)
            if first is None:
                return
        if first[0] < self._watermark:
            raise self._late(self._shapes[first[1]][0], first[0])
        if rest is None:
            self._pending += rows
        else:
            self._pending.append(first)
            if self._write is None:
                self._lazy.append((len(self._pending), rest))
            else:
                self._pending += rest

    def _late(self, kind: str, t: float) -> SimulationError:
        return SimulationError(
            f"trace record {kind!r} at t={t} arrived after the trace "
            f"was written up to t={self._watermark}"
        )

    def _add_shape(self, kind: str, fields: dict[str, Any], fixed: Optional[dict[str, Any]] = None) -> int:
        """The number of a shape, after checking it and its values against KINDS.

        A shape without fixed fields is shared by every record of its kind
        and field names; one with fixed fields is new on each call.
        """
        key = (kind, *fields)
        if not fixed:
            shape = self._shape_ids.get(key)
            if shape is not None:
                return shape
        declared = KINDS.get(kind)
        if declared is None:
            raise SimulationError(f"trace record kind {kind!r} is not declared in trace.KINDS")
        fixed = fixed or {}
        for name, value in (*fixed.items(), *fields.items()):
            if name not in declared:
                raise SimulationError(f"trace record {kind!r} has undeclared field {name!r}")
            if type(value) not in _ACCEPTS[declared[name]]:
                raise SimulationError(
                    f"trace record {kind!r} field {name!r} is a {type(value).__name__}, "
                    f"declared {declared[name]}"
                )
            if name in fixed and name in fields:
                raise SimulationError(f"trace record {kind!r} field {name!r} is both fixed and carried")
        shape = len(self._shapes)
        if not fixed:
            self._shape_ids[key] = shape
        self._shapes.append((kind, tuple(fields), fixed))
        return shape

    def advance(self, watermark_us: float) -> None:
        """Write every buffered record with t below `watermark_us`, or all at
        +inf; in memory, when the trace is next read.

        A record stamped below the watermark afterwards raises
        `SimulationError` instead of being written out of order.
        """
        self._watermark = max(self._watermark, watermark_us)
        if self._write is not None:
            ready = self._take_ready()
            if ready:
                self._write(self._lines(enumerate(ready, self._next_seq)))
                self._next_seq += len(ready)

    def _take_ready(self) -> list[Record]:
        """Sort the buffer and take out the records below the watermark, all at +inf."""
        pending = self._pending
        pending.sort(key=_time)  # stable, so equal times keep insertion order
        watermark = self._watermark
        # At +inf every record is written, those stamped +inf too.
        cut = bisect_left(pending, watermark, key=_time) if watermark < math.inf else len(pending)
        ready = pending[:cut]
        del pending[:cut]
        return ready

    def _settle(self) -> None:
        """Bring the trace up to date for reading: in memory, build the lazy
        batches in their places and keep the records below the watermark;
        with a writer, sort the buffer."""
        if self._write is not None:
            self._pending.sort(key=_time)
            return
        if self._lazy:
            pending, built, start = self._pending, [], 0
            for end, rest in self._lazy:
                built += pending[start:end]
                built += rest
                start = end
            built += pending[start:]
            self._pending, self._lazy = built, []
        ready = self._take_ready()
        self._records += ready
        self._next_seq += len(ready)

    def close(self) -> None:
        """Write the rest of the buffer; no record may follow."""
        self.advance(math.inf)

    @property
    def closed(self) -> bool:
        return self._watermark == math.inf

    @property
    def buffered(self) -> int:
        """How many records wait in the reorder buffer."""
        self._settle()
        return len(self._pending)

    def _lines(self, numbered: Iterator[tuple[int, Record]]) -> str:
        formatters, shapes = self._formatters, self._shapes
        formatters += [_line_writer(shape) for shape in shapes[len(formatters):]]
        strings = self._strings
        return "".join([formatters[rec[1]](strings, seq, rec) for seq, rec in numbered])

    def _ordered(self) -> Iterator[tuple[int, Record]]:
        """(seq, record) of written records, then buffered ones numbered as they will be."""
        self._settle()
        yield from enumerate(self._records)
        yield from enumerate(self._pending, self._next_seq)

    def sorted_records(self) -> list[dict[str, Any]]:
        return [json.loads(line) for line in self.to_jsonl().splitlines()]

    def iter_kind(self, kind: str) -> list[dict[str, Any]]:
        of_kind = {i for i, shape in enumerate(self._shapes) if shape[0] == kind}
        lines = self._lines((seq, rec) for seq, rec in self._ordered() if rec[1] in of_kind)
        return [json.loads(line) for line in lines.splitlines()]

    def to_jsonl(self) -> str:
        return self._lines(self._ordered())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
