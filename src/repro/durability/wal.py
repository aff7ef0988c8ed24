"""The segmented write-ahead log.

Every logical mutation of a durable cube appends exactly one record.
Because the TT-dimension is append-only, the log is written strictly
sequentially and replayed strictly sequentially; there is no undo, no
page-level logging and no seek -- a record is a delta on top of a
checkpoint, nothing more.

The record types are the rows of :data:`RECORD_TYPES`.  A row is the
one place a record type is spelled: its tag on disk, the name log-info
prints, the record class, the body layout, the ``DurableCube`` method
that logs it, the front kind that method needs and the call that
replays it.  The codec here, ``inspect_log``, ``DurableCube``'s logged
methods and its replay all read the rows, so a new logged operation is
one row plus one golden frame in the tests.

Physical format (all integers little-endian):

* a segment file ``wal-<seq>.log`` starts with a 14-byte header
  ``ECWL | u16 format version | u64 base LSN`` and then holds
  consecutive records;
* a record is framed as ``u32 payload length | u32 CRC32(payload) |
  payload``; the payload is ``u8 record type | u64 LSN | body``;
* LSNs are assigned densely (1, 2, 3, ...) across segments; a segment's
  base LSN is the LSN its first record will carry;
* a body has one of four shapes -- a *scalar* (one ``i64``, or ``u64``
  for the checkpoint id; -1 stands for the drain limit ``None``), a
  *vector* record ``u16 n | leading i64s | n x i64 | trailing i64s``
  (``update``, ``out_of_order``, ``interval_insert``), a *batch*
  ``[u8 mode] | u32 n | u16 k | columns`` (``update_batch``,
  ``out_of_order_batch``, ``interval_batch``), or *sections*
  ``u16 s | u16 k | s x (shard | in-order rows | buffered rows) | runs``
  (``sharded_batch``: one sharded ``update_many`` as its router logs
  it, the three numbers of a section zigzag LEB128, then per section
  its in-order run and its buffered run, each the ``k`` point columns
  and the delta column in the shard's local coordinates with headers of
  their own, an empty run taking no bytes) -- and is exactly as long as
  its own headers imply;
* a batch's columns are laid out by the segment's format version.  In
  version 4, which this build writes, a ``sharded_batch``'s in-order
  run is a sorted set: its rows in lexicographic order of point (the
  router sorts them, and applies them in that order), stored as one key
  a point with the keys' gaps Rice-coded (:func:`~repro.durability.
  bit_columns.pack_sorted`).  Its buffered run keeps arrival order, and
  every other batch is laid out as in version 3, which version 4 reads
  too (an in-order run there is in arrival order).  In version 3 every
  scalar column of the fields
  in declared order (``points``: k, ``intervals``: 2, ``deltas`` /
  ``values``: 1) has a header ``zigzag-LEB128 base (<= 10 bytes) | u8
  bits``, all headers first: ``base`` is the column's minimum and
  ``bits = max(1, bit_length(max - min))``, 1 to 64.  The rows follow as
  one LSB-first bit stream, zero-padded to a byte: row ``i`` holds each
  column's ``value - base`` in its ``bits``, the columns in order, so it
  spans the ``i``-th run of ``sum(bits)`` bits and the stream is exactly
  ``ceil(n * sum(bits) / 8)`` bytes (:mod:`repro.durability.bit_columns`).
  A column spends at least one bit per row, so ``n`` stays bounded by the
  body's own length (``n <= 8 x`` its bytes, checked before anything is
  allocated).  Version 2 (read
  only) stores each column as ``i64 base | u8 width | n x u<width>``,
  width the narrowest of 1, 2, 4, 8 bytes; version 1 (read only) has
  each array field row-major as raw ``i64``.  A segment holds one
  layout, so opening an older build's tail repairs and rolls.

Torn tails: a crash can leave the final record half-written (short
frame, short payload, a CRC mismatch, or an LSN out of sequence where
stale bytes follow).  Opening the log for append *truncates* the
partial record instead of failing -- the prefix up to the last intact
record is the durable history.  The same damage in a non-final segment
is real corruption and raises :class:`~repro.core.errors.StorageError`
instead of silently dropping committed records.  A frame that checksums
clean and carries the expected LSN is not torn, wherever it sits: if
this build cannot decode it (a newer build's record type, a body that
is not its type's shape) opening and replaying raise ``StorageError``
and truncate nothing.  Opening checks that every committed frame decodes
-- tag, headers, every column header and the exact length -- without
decoding a bit stream (``decode_payload(..., decode=False)``; a sorted
run's key that only its remainders carry past its widths is refused
when the run is decoded); replay decodes each record once, as it yields
it.

Fsync policy (``"always" | "batch" | "off"``): ``always`` fsyncs after
every appended record.  ``batch`` is a group commit: the log fsyncs by
itself once ``group_commit`` records have accumulated since the last
sync, and on every :meth:`commit`, segment roll and :meth:`close`.  The
durable front-ends do *not* commit per public operation -- they call
:meth:`commit` only around a checkpoint and from their ``flush()`` --
so a machine crash can lose up to ``group_commit - 1`` trailing acknowledged
records (a whole ``update_many`` batch is one record), never corrupt one;
``off`` never fsyncs.  :meth:`append` always hands the frame to the OS before
it returns, so a killed *process* loses no acknowledged record; a crash loses
only an unsynced suffix, which recovery handles like any other missing tail.
"""

from __future__ import annotations

import io
import math
import os
import re
import struct
import zlib
from collections import Counter, deque, namedtuple
from dataclasses import MISSING, dataclass, field, make_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.errors import DomainError, StorageError
from repro.core.types import TimeInterval
from repro.durability import bit_columns
from repro.durability.bit_columns import within

#: Magic bytes opening every segment file.
SEGMENT_MAGIC = b"ECWL"
#: Bump when the record codec changes incompatibly.  (2: batch bodies
#: are packed columns; 3: packed at bit width, as one bit stream; 4: a
#: sharded batch's in-order runs are sorted sets, Rice-coded gaps of
#: one key per point.)
WAL_FORMAT_VERSION = 4

_HEADER = struct.Struct("<4sHQ")  # magic, format version, base LSN
_FRAME = struct.Struct("<II")  # payload length, CRC32(payload)
_PREFIX = struct.Struct("<BQ")  # record type, LSN
_COLUMN = struct.Struct("<qB")  # a version-2 column's base and bytes per value
#: Bound on a single record's payload: ``append`` refuses a longer one,
#: a scan takes a longer frame for a torn write.
MAX_RECORD_BYTES = 1 << 28

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

FSYNC_POLICIES = ("always", "batch", "off")

# -- body shapes ------------------------------------------------------------------
#
# A shape names its record's fields in constructor order, normalises a
# caller's values into what the record holds (``None``: an empty batch,
# nothing to log), packs them, and -- for ``_unpack`` -- declares its
# header, how many bytes must follow a given header, and how to read them
# (a batch's columns carry headers of their own: its reader walks them).

#: "buffer": an older build's shard logged points its router classified
#: as globally historic, which replay re-buffers rather than re-deriving
#: orderedness from the shard-local timeline (now a buffered run)
_MODE_CODES = {"fast": 0, "metered": 1, "buffer": 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}
_I64 = np.dtype("<i8")
#: bytes per value of a version-2 column -> how the values are stored
_WIDTHS = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: _I64}


def _mode_code(mode) -> int:
    if mode not in _MODE_CODES:
        raise DomainError(f"unknown execution mode {mode!r}")
    return _MODE_CODES[mode]


def check_drain_limit(limit) -> None:
    """``drain(limit)`` takes ``None`` or a non-negative integer."""
    if limit is not None and not (
        isinstance(limit, (int, np.integer)) and limit >= 0
    ):
        raise DomainError(
            f"drain limit must be None or a non-negative integer, got {limit!r}"
        )


class _Scalar:
    """``<q`` (or ``<Q``): one integer.  Given a ``check``, the value may
    also be ``None`` (stored as -1) and ``check`` vets it before logging."""

    head = struct.Struct("<")  # no header: the size is the format's

    def __init__(self, field: str, fmt: str = "<q", check=None) -> None:
        self.fields = (field,)
        self.defaults = {} if check is None else {field: None}
        self._struct, self._check = struct.Struct(fmt), check

    def normalise(self, value) -> tuple:
        if self._check is None:
            return (int(value),)
        self._check(value)
        return (value,)

    def pack(self, value) -> bytes:
        (value,) = self.normalise(value)
        return self._struct.pack(-1 if value is None else value)

    def extent(self) -> int:
        return self._struct.size

    def read(self, body: bytes) -> tuple:
        (value,) = self._struct.unpack(body)
        return (None if self._check is not None and value < 0 else value,)


class _Vector:
    """``H n | leading q's | n x q | trailing q's``: one coordinate vector
    between fixed integer fields."""

    head = struct.Struct("<H")
    defaults = {}

    def __init__(self, vector: str, pre=(), post=()) -> None:
        self.fields = (*pre, vector, *post)
        self._pre, self._fixed = len(pre), len(pre) + len(post)

    def normalise(self, *values) -> tuple:
        pre, vector, post = (
            values[: self._pre], values[self._pre], values[self._pre + 1 :]
        )
        return (*map(int, pre), tuple(int(c) for c in vector), *map(int, post))

    def pack(self, *values) -> bytes:
        values = self.normalise(*values)
        vector = values[self._pre]
        flat = (*values[: self._pre], *vector, *values[self._pre + 1 :])
        return struct.pack(f"<H{len(flat)}q", len(vector), *flat)

    def extent(self, n: int) -> int:
        return 8 * (self._fixed + n)

    def read(self, body: bytes, n: int) -> tuple:
        values = struct.unpack_from(f"<{self._fixed + n}q", body, self.head.size)
        stop = self._pre + n
        return (*values[: self._pre], values[self._pre : stop], *values[stop:])


class _Batch:
    """``[B mode] | I n | H k | columns``: a whole batch in one record.

    ``columns`` gives every array field its shape in terms of the
    header's ``n`` and ``k`` -- ``("n", "k")`` for exactly one of them,
    ``("n",)`` or ``("n", 2)`` for the others -- and the arrays follow
    the header in that order, as the segment's format version lays them
    out (see the module docstring).
    """

    def __init__(self, mode: bool, **columns) -> None:
        self.fields = (*columns, *(("mode",) if mode else ()))
        self.defaults = {"mode": "fast"} if mode else {}
        self._columns = columns
        self._keyed = [*columns.values()].index(("n", "k"))
        self.head = struct.Struct("<BIH" if mode else "<IH")

    def _shapes(self, n: int, k: int) -> list[tuple[int, ...]]:
        sizes = {"n": n, "k": k}
        return [
            tuple(sizes.get(axis, axis) for axis in shape)
            for shape in self._columns.values()
        ]

    def normalise(self, *values) -> tuple | None:
        count = len(self._columns)
        for mode in values[count:]:
            _mode_code(mode)
        arrays = [np.asarray(a, dtype=np.int64) for a in values[:count]]
        return (*arrays, *values[count:]) if arrays[0].shape[0] else None

    def pack(self, *values) -> bytes:
        count = len(self._columns)
        arrays = [np.asarray(a, dtype=np.int64) for a in values[:count]]
        n = arrays[0].shape[0] if arrays[0].ndim else -1
        k = arrays[self._keyed].shape[-1] if arrays[self._keyed].ndim else -1
        shapes = self._shapes(n, k)
        if [a.shape for a in arrays] != shapes:
            needs = (
                f"({', '.join(map(str, shape))}) {name}"
                for name, shape in self._columns.items()
            )
            raise DomainError(f"batch record needs {', '.join(needs)}")
        head = self.head.pack(*map(_mode_code, values[count:]), n, k)
        # one column-major copy: a contiguous column reduces and shifts
        # faster than a strided one
        counts = [math.prod(shape[1:]) for shape in shapes]
        columns = np.empty((sum(counts), n), dtype=np.int64)
        at = 0
        for width, array in zip(counts, arrays):
            columns[at : at + width] = array.reshape(n, width).T
            at += width
        return head + bit_columns.pack(columns)

    def read(self, body: bytes, version: int, *head, decode: bool = True) -> tuple:
        # walk the columns, which must end exactly where the body ends (a
        # column spends a bit per row or more: checking that they fit
        # bounds ``n`` by the body's length before anything is allocated)
        *mode, n, k = head
        if mode and mode[0] not in _MODE_NAMES:
            raise StorageError(f"unknown batch mode code {mode[0]}")
        shapes = self._shapes(n, k)
        counts = [math.prod(shape[1:]) for shape in shapes]
        if version >= 3:
            arrays, stop = bit_columns.read(body, self.head.size, n, counts, decode)
            _ends(body, stop)
            if arrays is None:
                return None
        else:
            arrays = _read_byte_columns(body, self.head.size, n, counts, version)
        return (
            *(array.reshape(shape) for array, shape in zip(arrays, shapes)),
            *(_MODE_NAMES[code] for code in mode),
        )


class _Sections:
    """``H s | H k | s x (shard | in-order rows | buffered rows) | runs``:
    one sharded ``update_many`` (see the module docstring)."""

    head = struct.Struct("<HH")
    fields = ("shards", "runs", "points", "deltas")
    defaults = {}

    def pack(self, shards, runs, points, deltas) -> bytes:
        runs, points = np.asarray(runs), np.asarray(points, dtype=np.int64)
        if int(runs.sum()) != len(points) or len(deltas) != len(points):
            raise DomainError("a sharded batch's runs must add up to its points")
        heads = np.column_stack([shards, runs]).ravel().tolist()
        out = [self.head.pack(len(runs), points.shape[1]), *map(bit_columns.varint, heads)]
        columns, at = np.vstack([points.T, deltas]).astype(np.int64), 0
        for count, late in zip(runs.ravel().tolist(), [False, True] * len(runs)):
            if count:
                pack = bit_columns.pack if late else bit_columns.pack_sorted
                out.append(pack(columns[:, at : at + count].copy()))
                at += count
        return b"".join(out)

    def read(self, body: bytes, version: int, count: int, k: int, decode=True):
        offset, heads = self.head.size, []
        for _ in range(3 * count):
            value, offset = bit_columns.read_varint(body, offset)
            heads.append(value)
        heads = np.array(heads, dtype=np.int64).reshape(count, 3)
        if count and int(heads.min()) < 0:
            raise StorageError("a sharded batch section holds a negative number")
        runs = []
        for n, late in zip(heads[:, 1:].ravel().tolist(), [False, True] * count):
            if n:
                read = bit_columns.read if late or version < 4 else bit_columns.read_sorted
                fields, offset = read(body, offset, n, [k, 1], decode)
                runs.append(fields)
        _ends(body, offset)
        if not decode:
            return None
        points = [points for points, _ in runs] or [np.empty((0, k), np.int64)]
        deltas = [deltas[:, 0] for _, deltas in runs] or [np.empty(0, np.int64)]
        return (
            heads[:, 0].copy(), heads[:, 1:].copy(),
            np.concatenate(points), np.concatenate(deltas),
        )  # fmt: skip


def _ends(body: bytes, stop: int) -> None:
    if stop != len(body):
        raise StorageError(f"{len(body) - stop} bytes follow the last column")


def _read_byte_columns(
    body: bytes, offset: int, n: int, counts: list[int], version: int
) -> list[np.ndarray]:
    """The ``(n, count)`` fields of a version-1 or version-2 body, whose
    columns must end it."""
    arrays = []
    for count in counts:
        if version == 1:  # the whole field, row-major and raw
            start, offset = offset, within(body, offset + 8 * n * count)
            array = np.frombuffer(body, _I64, n * count, start).astype(np.int64)
        else:
            within(body, offset + (n + _COLUMN.size) * count)
            array = np.empty((n, count), dtype=np.int64)
            for j in range(count):
                offset = _read_column(body, offset, array[:, j])
        arrays.append(array.reshape(n, count))
    _ends(body, offset)
    return arrays


def _read_column(body: bytes, offset: int, out: np.ndarray) -> int:
    """Decode the version-2 column at ``offset`` into ``out``; returns its end."""
    start = within(body, offset + _COLUMN.size)
    base, width = _COLUMN.unpack_from(body, offset)
    if width not in _WIDTHS or (width == 8 and base):
        raise StorageError(f"a packed column of width {width} over base {base}")
    stop = within(body, start + len(out) * width)
    raw = np.frombuffer(body, _WIDTHS[width], len(out), start)
    # (only a base this close to the top can carry an offset out of int64)
    if base + 256**width > 1 << 63 and base + int(raw.max(initial=0)) >= 1 << 63:
        raise StorageError(f"a packed column over base {base} leaves int64")
    np.add(raw, base, out=out, dtype=np.int64)
    return stop


def _unpack(layout, body: bytes, version: int, decode: bool = True) -> tuple | None:
    """A body's field values.  The one length rule of the codec: a body
    is exactly as long as its own headers say, or it is not read.  With
    ``decode=False`` a body of bit columns is checked, not decoded
    (``None``)."""
    if len(body) >= layout.head.size:
        head = layout.head.unpack_from(body)
        if isinstance(layout, (_Batch, _Sections)):  # walks its columns
            return layout.read(body, version, *head, decode=decode)
        if len(body) == layout.head.size + layout.extent(*head):
            return layout.read(body, *head)
    raise StorageError(
        f"a {len(body)}-byte record body is not the size its header implies"
    )


# -- record types: one row each ---------------------------------------------------


class WalRecord:
    """Base of the record classes: frozen dataclasses generated from
    their row's body shape -- ``UpdateRecord(point, delta)``, positional
    -- that compare by value, array fields included."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values())
        )


#: ``tag`` is the u8 record type on disk, ``name`` what log-info prints,
#: ``cls`` the record class (its fields are ``layout``'s), ``method`` the
#: ``DurableCube`` method that logs it, ``needs`` the front kind that
#: method needs (a key of ``repro.core.front.FRONT_KINDS``), ``apply`` and
#: ``replay`` the calls ``(durable, record) -> result`` behind the live
#: method and behind recovery, ``bind`` what turns the method's
#: arguments into a (raw) record and ``empty`` the method's answer to an
#: empty batch.
RecordType = namedtuple(
    "RecordType", "tag name cls layout method needs apply replay bind empty"
)


def _row(
    tag, name, cls_name, layout, method, needs, doc,
    apply=None, replay=None, bind=None, empty=None,
):
    fields = [
        (f, object, field(default=layout.defaults.get(f, MISSING)))
        for f in layout.fields
    ]
    cls = make_dataclass(cls_name, fields, bases=(WalRecord,), frozen=True, eq=False)
    cls.__doc__, cls.__module__ = doc, __name__
    cls.type, cls.log_name = tag, name
    if apply is None and method is not None:  # the front's own method, fields in order

        def apply(durable, record):
            return getattr(durable.front, method)(*vars(record).values())

    return RecordType(
        tag, name, cls, layout, method, needs, apply, replay or apply, bind or cls, empty
    )


def _insert_record(interval, cell, value=1):
    if not isinstance(interval, TimeInterval):
        # an inverted interval is refused here, before it is logged
        interval = TimeInterval(*map(int, interval))
    return IntervalInsertRecord(interval.start, interval.end, cell, value)


def _insert_many_record(intervals, cells, values=None, mode="fast"):
    if values is None:
        values = np.ones(len(intervals), dtype=np.int64)
    return IntervalBatchRecord(intervals, cells, values, mode)


_POINT_DELTA = _Vector("point", post=("delta",))
_POINTS_DELTAS = {"points": ("n", "k"), "deltas": ("n",)}
_TIME = _Scalar("time")

#: The log's vocabulary.  A new logged operation is one row here plus one
#: golden frame in ``tests/test_durability_wal.py``.  The sharded router
#: (:mod:`repro.sharding.router`) logs ``sharded_batch`` for an
#: ``update_many`` and the single-cube rows for its other mutations; no
#: ``DurableCube`` method logs ``sharded_batch``, and none replays it.
#:
#: A batch record carries its ``mode`` because the fast and metered paths
#: reach identical answers but different lazy-copy progress, and recovery
#: reproduces the original progress exactly.  ``retire`` and ``demote``
#: log nothing but their horizon: both are deterministic given the cube
#: state they run against (demotion's implied drain included; its tiles
#: are rewritten byte-identically on replay).  An out-of-order record is
#: replayed through ``replay_out_of_order``, which refuses -- instead of
#: resurrecting -- a time that a later ``retire`` aged out; a batch of them
#: replays through ``apply_out_of_order_many`` itself, so it applies what
#: the logged call applied.
RECORD_TYPES = (
    _row(1, "update", "UpdateRecord", _POINT_DELTA, "update", "point",
         "One in-order (append-path) point update."),
    _row(2, "update_batch", "UpdateBatchRecord",
         _Batch(True, **_POINTS_DELTAS), "update_many", "point",
         "One whole ``update_many`` batch, logged as a single record."),
    _row(3, "out_of_order", "OutOfOrderRecord", _POINT_DELTA,
         "apply_out_of_order", "unbuffered point",
         "One historic correction applied through ``apply_out_of_order``.",
         replay=lambda d, r: d.cube.replay_out_of_order(r.point, r.delta)),
    _row(4, "out_of_order_batch", "OutOfOrderBatchRecord",
         _Batch(False, **_POINTS_DELTAS),
         "apply_out_of_order_many", "unbuffered point",
         "One ``apply_out_of_order_many`` batch.", empty=0),
    _row(5, "retire", "RetireRecord", _TIME, "retire_before", "any",
         "A ``retire_before(time)`` data-aging call."),
    _row(6, "drain", "DrainRecord", _Scalar("limit", check=check_drain_limit),
         "drain", "buffered",
         "A ``drain(limit)`` of the out-of-order buffer (``None`` = unbounded)."),
    _row(7, "checkpoint_marker", "CheckpointMarkerRecord",
         _Scalar("checkpoint_id", "<Q"), None, "any",  # checkpoint() logs it
         "Marks the log position a checkpoint snapshot corresponds to.",
         apply=lambda d, r: True),
    _row(8, "interval_insert", "IntervalInsertRecord",
         _Vector("cell", pre=("start", "end"), post=("value",)), "insert", "extent",
         "One TT-extent object insert (Section 2.4): ``[start, end]`` at a cell.",
         apply=lambda d, r: d.front.insert((r.start, r.end), r.cell, r.value),
         bind=_insert_record),
    _row(9, "interval_batch", "IntervalBatchRecord",
         _Batch(True, intervals=("n", 2), cells=("n", "k"), values=("n",)),
         "insert_many", "extent",
         "One whole ``ExtentCube.insert_many`` batch, logged as a single record.",
         bind=_insert_many_record),
    _row(10, "advance", "AdvanceRecord", _TIME, "advance", "extent",
         "An explicit ``ExtentCube.advance(time)`` clock movement."),
    _row(11, "demote", "DemoteRecord", _TIME, "demote_before", "tiered",
         "A ``demote_before(time)`` tiered-retention call."),
    _row(12, "sharded_batch", "ShardedBatchRecord", _Sections(), None, "point",
         "One sharded ``update_many``, logged once by the router: per shard "
         "it reaches, its in-order points sorted by point, then its buffered "
         "points in arrival order, in local coordinates (no single cube "
         "replays it)."),
)
(
    UpdateRecord,
    UpdateBatchRecord,
    OutOfOrderRecord,
    OutOfOrderBatchRecord,
    RetireRecord,
    DrainRecord,
    CheckpointMarkerRecord,
    IntervalInsertRecord,
    IntervalBatchRecord,
    AdvanceRecord,
    DemoteRecord,
    ShardedBatchRecord,
) = (row.cls for row in RECORD_TYPES)

BY_TAG = {row.tag: row for row in RECORD_TYPES}
BY_CLASS = {row.cls: row for row in RECORD_TYPES}
#: logged method name -> the front kind it needs: what every layer of a
#: stack forwards, or refuses, a mutation by (:mod:`repro.core.front`)
LOGGED = {row.method: row.needs for row in RECORD_TYPES if row.method is not None}


def log_record(row, *args, **kwargs) -> WalRecord | None:
    """What ``row.method(*args, **kwargs)`` logs: names and defaults
    bound, values normalised; ``None`` when there is nothing to log."""
    values = row.layout.normalise(*vars(row.bind(*args, **kwargs)).values())
    return None if values is None else row.cls(*values)


class UnknownRecord(NamedTuple):
    """A committed frame this build cannot decode, as a tolerant scan
    (``inspect_log``) reports it.  Replay never builds these: skipping a
    committed mutation would corrupt the recovered state, so a strict
    scan raises instead."""

    type: int
    log_name: str  # unknown_<tag>, or malformed_<name> under a known tag


# -- codec ----------------------------------------------------------------------


def encode_record(record: WalRecord, lsn: int) -> bytes:
    """Frame one record (length | crc | type | lsn | body) as bytes."""
    row = BY_CLASS.get(type(record))
    if row is None:
        raise DomainError(f"cannot encode {type(record).__name__}")
    body = row.layout.pack(*vars(record).values())
    payload = _PREFIX.pack(row.tag, int(lsn)) + body
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(
    payload: bytes, version: int = WAL_FORMAT_VERSION, decode: bool = True
) -> tuple[int, WalRecord | None]:
    """Decode one record payload of a version-``version`` segment into
    ``(lsn, record)``; anything but a known type over a body of exactly
    its shape is a :class:`~repro.core.errors.StorageError`.
    ``decode=False`` checks a batch's shape without decoding its bit
    stream (the record is then ``None``)."""
    if len(payload) < _PREFIX.size:
        raise StorageError("record payload is too short to carry a type and an LSN")
    rtype, lsn = _PREFIX.unpack_from(payload)
    row = BY_TAG.get(rtype)
    if row is None:
        raise StorageError(f"unknown WAL record type {rtype}")
    values = _unpack(row.layout, payload[_PREFIX.size :], version, decode)
    return lsn, None if values is None else row.cls(*values)


# -- segment scanning -----------------------------------------------------------


@dataclass
class _ScanResult:
    #: ``(lsn, record)``, or ``(lsn, payload bytes)`` from an undecoded scan
    records: list[tuple[int, WalRecord | bytes]]
    valid_bytes: int  # prefix length holding intact records (incl. header)
    torn: bool  # a partial/corrupt record follows the prefix
    base_lsn: int
    version: int  # the layout every batch body of the segment has
    frame_bytes: list[int]  # per record, its whole frame's


def _frame_at(data: bytes, offset: int, lsn: int) -> bytes | None:
    """The payload of the frame at ``offset`` if it is intact and carries
    ``lsn``; ``None`` where the write did not complete -- cut short, too
    short to carry an LSN (as a zero-filled tail is), oversize, failing
    its CRC, or out of sequence (an overwritten or misordered tail is
    indistinguishable from a torn write)."""
    start = offset + _FRAME.size
    if start > len(data):
        return None
    length, crc = _FRAME.unpack_from(data, offset)
    if not _PREFIX.size <= length <= min(MAX_RECORD_BYTES, len(data) - start):
        return None
    payload = data[start : start + length]
    if zlib.crc32(payload) != crc or _PREFIX.unpack_from(payload)[1] != lsn:
        return None
    return payload


def _decode_committed(
    path: Path, lsn: int, payload: bytes, version: int, tolerant: bool = False,
    decode: bool = True,
) -> WalRecord | UnknownRecord | None:
    """The record an intact frame holds (``None`` when ``decode=False``
    only checked that it decodes).

    An intact frame *was* committed: if this build cannot decode it,
    dropping it -- and everything after it -- would lose acknowledged
    mutations, so that is a :class:`~repro.core.errors.StorageError` and
    nothing is truncated.  ``tolerant=True`` (diagnostics only) returns
    an :class:`UnknownRecord` placeholder instead.
    """
    try:
        return decode_payload(payload, version, decode)[1]
    except StorageError as exc:
        if not tolerant:
            raise StorageError(
                f"{path.name}: the record at LSN {lsn} checksums clean "
                f"but this build cannot decode it ({exc}); refusing to "
                "drop committed history"
            ) from exc
    known = BY_TAG.get(payload[0])
    return UnknownRecord(
        payload[0], f"malformed_{known.name}" if known else f"unknown_{payload[0]}"
    )


def _scan_segment(
    path: Path, tolerant: bool = False, decode: str = "decode"
) -> _ScanResult:
    """Walk a segment up to its first torn frame, decoding each intact
    one (:func:`_decode_committed`).  ``decode="check"`` checks that each
    one decodes without decoding a bit stream, ``"raw"`` not even that;
    both keep the payloads for the caller to decode one at a time."""
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise StorageError(f"{path.name}: truncated segment header")
    magic, version, base_lsn = _HEADER.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        raise StorageError(f"{path.name}: not a WAL segment (bad magic)")
    if not 1 <= version <= WAL_FORMAT_VERSION:
        raise StorageError(
            f"{path.name}: WAL format version {version} is not one this "
            f"build reads (1..{WAL_FORMAT_VERSION}); upgrade the library to "
            "replay a newer log"
        )
    records: list[tuple[int, WalRecord | bytes]] = []
    sizes, offset = [], _HEADER.size
    while offset < len(data):
        lsn = base_lsn + len(records)
        payload = _frame_at(data, offset, lsn)
        if payload is None:
            break
        sizes.append(_FRAME.size + len(payload))
        offset += sizes[-1]
        if decode == "check":
            _decode_committed(path, lsn, payload, version, decode=False)
        elif decode == "decode":
            payload = _decode_committed(path, lsn, payload, version, tolerant)
        records.append((lsn, payload))
    return _ScanResult(records, offset, offset < len(data), base_lsn, version, sizes)


def _segments(directory: Path) -> list[Path]:
    """A directory's segment files in sequence order (which, the sequence
    number being zero-padded to a fixed width, is name order)."""
    if not directory.is_dir():
        return []
    return sorted(
        entry for entry in directory.iterdir() if _SEGMENT_RE.match(entry.name)
    )


def _scan_log(directory: Path, tolerant: bool = False, decode: str = "decode"):
    """Scan a log's segments in order, yielding ``(path, scan)``.

    A final file shorter than a segment header comes last with ``None``
    for a scan: a crash between :meth:`WriteAheadLog.roll_segment`
    creating the file and the header write completing leaves exactly
    this -- a torn tail that holds no durable records.  Only legal after
    an intact predecessor, which proves the file was freshly rolled; a
    sole short segment is indistinguishable from lost committed history
    and stays a hard error.  Of the segments before it only the last may
    end torn -- anywhere else that is lost committed history too, which
    a strict scan refuses.
    """
    paths = _segments(directory)
    headed = len(paths)
    while headed > 1 and paths[headed - 1].stat().st_size < _HEADER.size:
        headed -= 1
    for position, path in enumerate(paths[:headed]):
        scan = _scan_segment(path, tolerant=tolerant, decode=decode)
        if scan.torn and not (position == headed - 1 or tolerant):
            raise StorageError(
                f"{path.name}: damaged record in a non-final WAL "
                "segment; committed history cannot be replayed"
            )
        yield path, scan
    for path in paths[headed:]:
        yield path, None


# -- the log --------------------------------------------------------------------


class WriteAheadLog:
    """Appender/replayer over a directory of sequential segments.

    Parameters
    ----------
    directory:
        Where segment files live; created if missing.
    fsync:
        ``"always"`` | ``"batch"`` | ``"off"`` (see module docstring).
    segment_bytes:
        Soft segment-size bound; an append that would overflow it rolls
        to a fresh segment first (records never span segments).
    group_commit:
        With ``fsync="batch"``: fsync automatically once this many
        records have accumulated since the last sync (a group commit;
        :meth:`commit` syncs sooner on demand).
    """

    def __init__(
        self,
        directory,
        fsync: str = "batch",
        segment_bytes: int = 4 << 20,
        group_commit: int = 256,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DomainError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        self.group_commit = max(1, int(group_commit))
        self._handle: io.BufferedWriter | None = None
        #: records appended since the last sync (commit batching stat)
        self.appends_since_sync = 0
        self._open_tail()

    # -- segment discovery ------------------------------------------------------

    def _segment_path(self, seq: int) -> Path:
        return self.directory / f"wal-{seq:08d}.log"

    def _open_tail(self) -> None:
        """Open the last segment for append, repairing a torn tail."""
        # every earlier segment must scan intact, every committed frame
        # decode (checked, not decoded: replay decodes each record once);
        # the last segment is the tail
        tail = deque(_scan_log(self.directory, decode="check"), maxlen=1)
        if not tail:
            self._active_seq = 1
            self.next_lsn = 1
            self._start_segment()
            return
        tail_path, scan = tail.pop()
        if scan is None:
            # a crash landed between segment creation and header
            # completion (a record arriving exactly on the segment-size
            # boundary rolls first): the file holds no durable records.
            # Drop it and re-open with the predecessor as the tail.
            tail_path.unlink()
            self._fsync_directory()
            self._open_tail()
            return
        if scan.torn:
            with open(tail_path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
                self._fsync_handle(handle)
        self._active_seq = int(_SEGMENT_RE.match(tail_path.name).group(1))
        self.next_lsn = scan.base_lsn + len(scan.records)
        self._handle = open(tail_path, "ab")
        if scan.version < WAL_FORMAT_VERSION:
            # a segment holds one layout: leave the older build's file
            # as it is and append to a segment of this build's
            self.roll_segment()

    def _start_segment(self) -> None:
        path = self._segment_path(self._active_seq)
        handle = open(path, "wb")
        handle.write(_HEADER.pack(SEGMENT_MAGIC, WAL_FORMAT_VERSION, self.next_lsn))
        handle.flush()
        self._fsync_handle(handle)
        self._handle = handle
        self._fsync_directory()

    def _fsync_handle(self, handle) -> None:
        if self.fsync != "off":
            os.fsync(handle.fileno())

    def _fsync_directory(self) -> None:
        if self.fsync == "off" or not hasattr(os, "O_DIRECTORY"):
            return
        fd = os.open(self.directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- appends ----------------------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Append one record; returns its LSN.

        On return the frame is the OS's (it survives this process); the fsync
        policy says when it is on disk: ``always`` here, ``batch`` at a commit.
        """
        if self._handle is None:
            raise StorageError("write-ahead log is closed")
        frame = encode_record(record, self.next_lsn)
        if len(frame) - _FRAME.size > MAX_RECORD_BYTES:
            # a scan would take the frame for a torn write and drop it
            # together with every record after it
            raise DomainError(f"a record is at most {MAX_RECORD_BYTES} bytes long")
        if (
            self._handle.tell() + len(frame) > self.segment_bytes
            and self._handle.tell() > _HEADER.size
        ):
            self.roll_segment()
        lsn = self.next_lsn
        self._handle.write(frame)
        self._handle.flush()  # an acknowledged record is the OS's, not this process's
        self.next_lsn += 1
        self.appends_since_sync += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self.appends_since_sync >= self.group_commit
        ):
            self.commit()
        return lsn

    def commit(self) -> None:
        """Fsync (unless ``fsync="off"``) what was appended (each write was flushed)."""
        if self._handle is None:
            return
        self._fsync_handle(self._handle)
        self.appends_since_sync = 0

    def roll_segment(self) -> int:
        """Close the active segment and start a fresh one."""
        self.commit()
        self._handle.close()
        self._active_seq += 1
        self._start_segment()
        return self._active_seq

    def close(self) -> None:
        if self._handle is not None:
            self.commit()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay -----------------------------------------------------------------

    def replay(self, after_lsn: int = 0):
        """Yield ``(lsn, record)`` for every record with LSN > ``after_lsn``.

        Stops cleanly at a torn tail in the final segment; damage
        anywhere else raises :class:`~repro.core.errors.StorageError`.
        Each record is decoded as it is yielded, so a replay holds one
        decoded record at a time, not a segment's worth.
        """
        for path, scan in _scan_log(self.directory, decode="raw"):
            # (a header-less final segment -- a crash during roll -- has none)
            for lsn, payload in scan.records if scan is not None else ():
                if lsn > after_lsn:
                    yield lsn, _decode_committed(path, lsn, payload, scan.version)

    # -- compaction and introspection -------------------------------------------

    def drop_covered_segments(self, covered_lsn: int) -> list[str]:
        """Delete segments whose every record is covered by a checkpoint.

        A segment is removable when the *next* segment's base LSN is at
        most ``covered_lsn + 1`` (so no record above the checkpoint can
        live in it); the active segment always stays.  Returns the names
        of the deleted files.
        """
        segments = _segments(self.directory)
        dropped: list[str] = []
        for path, next_path in zip(segments, segments[1:]):
            with open(next_path, "rb") as handle:
                next_base = _HEADER.unpack(handle.read(_HEADER.size))[2]
            if next_base <= covered_lsn + 1:
                path.unlink()
                dropped.append(path.name)
            else:
                break
        if dropped:
            self._fsync_directory()
        return dropped

    def segments(self) -> list[str]:
        return [path.name for path in _segments(self.directory)]

    def log_info(self) -> dict:
        """Summary of the physical log (for ``python -m repro log-info``)."""
        info = inspect_log(self.directory)
        info["fsync"] = self.fsync
        info["next_lsn"] = self.next_lsn
        return info

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, fsync={self.fsync!r}, "
            f"next_lsn={self.next_lsn})"
        )


def _updates(record) -> int:
    """The cube updates a record carries: a batch's ``n``, 1 for one point."""
    layout = getattr(BY_CLASS.get(type(record)), "layout", None)
    if isinstance(layout, _Batch):
        return len(getattr(record, layout.fields[0]))
    if isinstance(layout, _Sections):
        return len(record.points)
    return int(isinstance(layout, _Vector))


def inspect_log(directory) -> dict:
    """Read-only summary of a WAL directory (no tail repair, no locks)."""
    segments = []
    record_counts: Counter = Counter()  # (tag, log-info name) -> frames
    record_bytes: Counter = Counter()  # (tag, log-info name) -> their bytes
    updates = 0
    for path, scan in _scan_log(Path(directory), tolerant=True):
        # (a header-less final segment -- a crash during roll -- has none)
        records, sizes = ([], []) if scan is None else (scan.records, scan.frame_bytes)
        for (_, record), size in zip(records, sizes):
            record_counts[record.type, record.log_name] += 1
            record_bytes[record.type, record.log_name] += size
        updates += sum(_updates(record) for _, record in records)
        segments.append(
            {
                "file": path.name,
                "format_version": scan.version if scan is not None else None,
                "base_lsn": scan.base_lsn if scan is not None else None,
                "records": len(records),
                "bytes": path.stat().st_size,
                "torn_tail": scan is None or scan.torn,
            }
        )
    size = sum(segment["bytes"] for segment in segments)
    return {
        "format_version": WAL_FORMAT_VERSION,  # what this build writes
        "records": sum(segment["records"] for segment in segments),
        "record_counts": {
            name: count for (_, name), count in sorted(record_counts.items())
        },
        "record_bytes": {
            name: size for (_, name), size in sorted(record_bytes.items())
        },
        "updates": updates,
        "bytes_per_update": round(size / updates, 3) if updates else None,
        "segments": segments,
        "torn_tail": any(segment["torn_tail"] for segment in segments),
    }
