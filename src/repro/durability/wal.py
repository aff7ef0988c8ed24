"""The segmented write-ahead log.

Every logical mutation of a durable cube appends exactly one record --
an in-order update, a whole ``update_many`` batch, an out-of-order
correction (single or batched), a ``retire_before``, a drain, or a
checkpoint marker.  Because the TT-dimension is append-only, the log is
written strictly sequentially and replayed strictly sequentially; there
is no undo, no page-level logging and no seek.

Physical format (all integers little-endian):

* a segment file ``wal-<seq>.log`` starts with a 14-byte header
  ``ECWL | u16 format version | u64 base LSN`` and then holds
  consecutive records;
* a record is framed as ``u32 payload length | u32 CRC32(payload) |
  payload``; the payload is ``u8 record type | u64 LSN | body``;
* LSNs are assigned densely (1, 2, 3, ...) across segments; a segment's
  base LSN is the LSN its first record will carry.

Torn tails: a crash can leave the final record half-written (short
frame, short payload, or a CRC mismatch).  Opening the log for append
*truncates* the partial record instead of failing -- the prefix up to
the last intact record is the durable history.  The same damage in a
non-final segment is real corruption and raises
:class:`~repro.core.errors.StorageError` instead of silently dropping
committed records.

Fsync policy (``"always" | "batch" | "off"``): ``always`` fsyncs after
every appended record.  ``batch`` is a group commit: the log fsyncs by
itself once ``group_commit`` records have accumulated since the last
sync, and on every :meth:`commit`, segment roll and :meth:`close`.  The
durable front-ends do *not* commit per public operation -- they call
:meth:`commit` only around a checkpoint and from their ``flush()`` --
so a crash can lose up to ``group_commit - 1`` trailing acknowledged
records (a whole ``update_many`` batch is one record), never corrupt
one.  ``off`` never fsyncs (the OS flushes when it pleases).  Either
way a crash loses only an unflushed suffix, which recovery handles
like any other missing tail.
"""

from __future__ import annotations

import io
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.errors import DomainError, StorageError

#: Magic bytes opening every segment file.
SEGMENT_MAGIC = b"ECWL"
#: Bump when the record codec changes incompatibly.
WAL_FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHQ")  # magic, format version, base LSN
_FRAME = struct.Struct("<II")  # payload length, CRC32(payload)
_PREFIX = struct.Struct("<BQ")  # record type, LSN
#: Sanity bound on a single record's payload (a batch of ~4M points).
MAX_RECORD_BYTES = 1 << 28

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

FSYNC_POLICIES = ("always", "batch", "off")

# -- record types ---------------------------------------------------------------

TYPE_UPDATE = 1
TYPE_UPDATE_BATCH = 2
TYPE_OOB_UPDATE = 3
TYPE_OOB_BATCH = 4
TYPE_RETIRE = 5
TYPE_DRAIN = 6
TYPE_CHECKPOINT = 7
TYPE_INTERVAL = 8
TYPE_INTERVAL_BATCH = 9
TYPE_ADVANCE = 10
TYPE_DEMOTE = 11


@dataclass(frozen=True)
class UpdateRecord:
    """One in-order (append-path) point update."""

    point: tuple[int, ...]
    delta: int

    type = TYPE_UPDATE


@dataclass(frozen=True)
class UpdateBatchRecord:
    """One whole ``update_many`` batch, logged as a single record.

    ``mode`` is replayed too: the fast and metered paths reach identical
    answers but different lazy-copy progress, and recovery reproduces
    the original progress exactly.
    """

    points: np.ndarray  # (n, d) int64
    deltas: np.ndarray  # (n,) int64
    mode: str = "fast"

    type = TYPE_UPDATE_BATCH

    def __eq__(self, other) -> bool:  # ndarray fields need value equality
        return (
            isinstance(other, UpdateBatchRecord)
            and self.mode == other.mode
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.deltas, other.deltas)
        )


@dataclass(frozen=True)
class OutOfOrderRecord:
    """One historic correction applied through ``apply_out_of_order``."""

    point: tuple[int, ...]
    delta: int

    type = TYPE_OOB_UPDATE


@dataclass(frozen=True)
class OutOfOrderBatchRecord:
    """One ``apply_out_of_order_many`` batch."""

    points: np.ndarray
    deltas: np.ndarray

    type = TYPE_OOB_BATCH

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OutOfOrderBatchRecord)
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.deltas, other.deltas)
        )


@dataclass(frozen=True)
class RetireRecord:
    """A ``retire_before(time)`` data-aging call."""

    time: int

    type = TYPE_RETIRE


@dataclass(frozen=True)
class DrainRecord:
    """A ``drain(limit)`` of the out-of-order buffer (-1 = unbounded)."""

    limit: int | None

    type = TYPE_DRAIN


@dataclass(frozen=True)
class CheckpointMarkerRecord:
    """Marks the log position a checkpoint snapshot corresponds to."""

    checkpoint_id: int

    type = TYPE_CHECKPOINT


@dataclass(frozen=True)
class IntervalInsertRecord:
    """One TT-extent object insert (Section 2.4): ``[start, end]`` at a cell."""

    start: int
    end: int
    cell: tuple[int, ...]
    value: int

    type = TYPE_INTERVAL


@dataclass(frozen=True)
class IntervalBatchRecord:
    """One whole ``ExtentCube.insert_many`` batch, logged as a single record."""

    intervals: np.ndarray  # (n, 2) int64 start/end pairs
    cells: np.ndarray  # (n, d-1) int64
    values: np.ndarray  # (n,) int64
    mode: str = "fast"

    type = TYPE_INTERVAL_BATCH

    def __eq__(self, other) -> bool:  # ndarray fields need value equality
        return (
            isinstance(other, IntervalBatchRecord)
            and self.mode == other.mode
            and np.array_equal(self.intervals, other.intervals)
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class AdvanceRecord:
    """An explicit ``ExtentCube.advance(time)`` clock movement."""

    time: int

    type = TYPE_ADVANCE


@dataclass(frozen=True)
class DemoteRecord:
    """A ``demote_before(time)`` tiered-retention call.

    Demotion is deterministic given the cube state it runs against
    (tiles are rewritten byte-identically on replay), so -- exactly like
    :class:`RetireRecord` -- the horizon is all that needs logging.
    """

    time: int

    type = TYPE_DEMOTE


@dataclass(frozen=True)
class UnknownRecord:
    """A CRC-valid frame whose record type this build cannot decode.

    Only produced by tolerant scans (``inspect_log``): diagnostics can
    still report the frame's type and position instead of collapsing
    the whole tail into an opaque "torn" verdict.  Replay never builds
    these -- an unknown type there is a hard error, because skipping a
    committed mutation would corrupt the recovered state.
    """

    rtype: int

    @property
    def type(self) -> int:
        return self.rtype


WalRecord = (
    UpdateRecord
    | UpdateBatchRecord
    | OutOfOrderRecord
    | OutOfOrderBatchRecord
    | RetireRecord
    | DrainRecord
    | CheckpointMarkerRecord
    | IntervalInsertRecord
    | IntervalBatchRecord
    | AdvanceRecord
    | DemoteRecord
)

#: "buffer" is the sharded tier's escape hatch: the router classified
#: these points as globally historic, so replay must re-buffer them
#: rather than re-deriving orderedness from the shard-local timeline
_MODE_CODES = {"fast": 0, "metered": 1, "buffer": 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}


# -- codec ----------------------------------------------------------------------


def _encode_points(points: np.ndarray, deltas: np.ndarray) -> bytes:
    points = np.ascontiguousarray(points, dtype="<i8")
    deltas = np.ascontiguousarray(deltas, dtype="<i8")
    if points.ndim != 2 or deltas.shape != (points.shape[0],):
        raise DomainError("batch record needs (n, d) points and (n,) deltas")
    head = struct.pack("<IH", points.shape[0], points.shape[1])
    return head + points.tobytes() + deltas.tobytes()


def _decode_points(body: bytes, offset: int) -> tuple[np.ndarray, np.ndarray, int]:
    n, ndim = struct.unpack_from("<IH", body, offset)
    offset += 6
    point_bytes = n * ndim * 8
    points = np.frombuffer(body, dtype="<i8", count=n * ndim, offset=offset)
    points = points.reshape(n, ndim).astype(np.int64)
    offset += point_bytes
    deltas = np.frombuffer(body, dtype="<i8", count=n, offset=offset).astype(
        np.int64
    )
    offset += n * 8
    return points, deltas, offset


def encode_record(record: WalRecord, lsn: int) -> bytes:
    """Frame one record (length | crc | type | lsn | body) as bytes."""
    if isinstance(record, (UpdateRecord, OutOfOrderRecord)):
        point = tuple(int(c) for c in record.point)
        body = struct.pack(
            f"<H{len(point)}qq", len(point), *point, int(record.delta)
        )
    elif isinstance(record, UpdateBatchRecord):
        body = struct.pack("<B", _MODE_CODES[record.mode]) + _encode_points(
            record.points, record.deltas
        )
    elif isinstance(record, OutOfOrderBatchRecord):
        body = _encode_points(record.points, record.deltas)
    elif isinstance(record, RetireRecord):
        body = struct.pack("<q", int(record.time))
    elif isinstance(record, DrainRecord):
        limit = -1 if record.limit is None else int(record.limit)
        body = struct.pack("<q", limit)
    elif isinstance(record, CheckpointMarkerRecord):
        body = struct.pack("<Q", int(record.checkpoint_id))
    elif isinstance(record, IntervalInsertRecord):
        cell = tuple(int(c) for c in record.cell)
        body = struct.pack(
            f"<Hqq{len(cell)}qq",
            len(cell),
            int(record.start),
            int(record.end),
            *cell,
            int(record.value),
        )
    elif isinstance(record, IntervalBatchRecord):
        intervals = np.ascontiguousarray(record.intervals, dtype="<i8")
        cells = np.ascontiguousarray(record.cells, dtype="<i8")
        values = np.ascontiguousarray(record.values, dtype="<i8")
        if (
            intervals.ndim != 2
            or intervals.shape[1] != 2
            or cells.ndim != 2
            or cells.shape[0] != intervals.shape[0]
            or values.shape != (intervals.shape[0],)
        ):
            raise DomainError(
                "interval batch record needs (n, 2) intervals, (n, k) cells "
                "and (n,) values"
            )
        body = (
            struct.pack("<B", _MODE_CODES[record.mode])
            + struct.pack("<IH", intervals.shape[0], cells.shape[1])
            + intervals.tobytes()
            + cells.tobytes()
            + values.tobytes()
        )
    elif isinstance(record, (AdvanceRecord, DemoteRecord)):
        body = struct.pack("<q", int(record.time))
    else:
        raise DomainError(f"cannot encode {type(record).__name__}")
    payload = _PREFIX.pack(record.type, int(lsn)) + body
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> tuple[int, WalRecord]:
    """Decode one record payload into ``(lsn, record)``."""
    rtype, lsn = _PREFIX.unpack_from(payload, 0)
    body = payload[_PREFIX.size :]
    if rtype in (TYPE_UPDATE, TYPE_OOB_UPDATE):
        (ndim,) = struct.unpack_from("<H", body, 0)
        values = struct.unpack_from(f"<{ndim}qq", body, 2)
        cls = UpdateRecord if rtype == TYPE_UPDATE else OutOfOrderRecord
        return lsn, cls(point=tuple(values[:-1]), delta=values[-1])
    if rtype == TYPE_UPDATE_BATCH:
        (mode_code,) = struct.unpack_from("<B", body, 0)
        if mode_code not in _MODE_NAMES:
            raise StorageError(f"unknown batch mode code {mode_code}")
        points, deltas, _ = _decode_points(body, 1)
        return lsn, UpdateBatchRecord(points, deltas, _MODE_NAMES[mode_code])
    if rtype == TYPE_OOB_BATCH:
        points, deltas, _ = _decode_points(body, 0)
        return lsn, OutOfOrderBatchRecord(points, deltas)
    if rtype == TYPE_RETIRE:
        (time,) = struct.unpack_from("<q", body, 0)
        return lsn, RetireRecord(time)
    if rtype == TYPE_DRAIN:
        (limit,) = struct.unpack_from("<q", body, 0)
        return lsn, DrainRecord(None if limit < 0 else limit)
    if rtype == TYPE_CHECKPOINT:
        (checkpoint_id,) = struct.unpack_from("<Q", body, 0)
        return lsn, CheckpointMarkerRecord(checkpoint_id)
    if rtype == TYPE_INTERVAL:
        (ndim,) = struct.unpack_from("<H", body, 0)
        values = struct.unpack_from(f"<qq{ndim}qq", body, 2)
        return lsn, IntervalInsertRecord(
            start=values[0],
            end=values[1],
            cell=tuple(values[2:-1]),
            value=values[-1],
        )
    if rtype == TYPE_INTERVAL_BATCH:
        (mode_code,) = struct.unpack_from("<B", body, 0)
        if mode_code not in _MODE_NAMES:
            raise StorageError(f"unknown batch mode code {mode_code}")
        n, ndim = struct.unpack_from("<IH", body, 1)
        offset = 7
        intervals = np.frombuffer(
            body, dtype="<i8", count=n * 2, offset=offset
        ).reshape(n, 2).astype(np.int64)
        offset += n * 16
        cells = np.frombuffer(
            body, dtype="<i8", count=n * ndim, offset=offset
        ).reshape(n, ndim).astype(np.int64)
        offset += n * ndim * 8
        values = np.frombuffer(
            body, dtype="<i8", count=n, offset=offset
        ).astype(np.int64)
        return lsn, IntervalBatchRecord(
            intervals, cells, values, _MODE_NAMES[mode_code]
        )
    if rtype == TYPE_ADVANCE:
        (time,) = struct.unpack_from("<q", body, 0)
        return lsn, AdvanceRecord(time)
    if rtype == TYPE_DEMOTE:
        (time,) = struct.unpack_from("<q", body, 0)
        return lsn, DemoteRecord(time)
    raise StorageError(f"unknown WAL record type {rtype}")


# -- segment scanning -----------------------------------------------------------


@dataclass
class _ScanResult:
    records: list[tuple[int, WalRecord]]
    valid_bytes: int  # prefix length holding intact records (incl. header)
    torn: bool  # a partial/corrupt record follows the prefix
    base_lsn: int


def _scan_segment(
    path: Path,
    decode: bool = True,
    allow_partial_header: bool = False,
    unknown_ok: bool = False,
) -> _ScanResult | None:
    """Walk a segment, stopping at the first damaged record.

    ``decode=False`` validates frames and extracts LSNs without building
    record objects (used for log-info and compaction decisions).

    ``unknown_ok=True`` keeps walking past CRC-valid frames whose record
    type this build cannot decode, yielding :class:`UnknownRecord`
    placeholders (diagnostics only -- replay must never skip a committed
    mutation, so it scans strictly).

    ``allow_partial_header=True`` returns ``None`` instead of raising
    when the file is shorter than a segment header: a crash between
    :meth:`WriteAheadLog.roll_segment` creating the file and the header
    write completing leaves exactly this -- a torn tail that holds no
    durable records.  Only legal for the *final* segment when an intact
    predecessor proves the file was freshly rolled; a sole short
    segment is indistinguishable from lost committed history and stays
    a hard error.
    """
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        if allow_partial_header:
            return None
        raise StorageError(f"{path.name}: truncated segment header")
    magic, version, base_lsn = _HEADER.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        raise StorageError(f"{path.name}: not a WAL segment (bad magic)")
    if version > WAL_FORMAT_VERSION:
        raise StorageError(
            f"{path.name}: WAL format version {version} is newer than this "
            f"build reads ({WAL_FORMAT_VERSION}); upgrade the library to "
            "replay this log"
        )
    records: list[tuple[int, WalRecord]] = []
    offset = _HEADER.size
    expected_lsn = base_lsn
    torn = False
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            torn = True
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if length > MAX_RECORD_BYTES or start + length > len(data):
            torn = True
            break
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            lsn, record = decode_payload(payload)
        except (StorageError, struct.error):
            if not unknown_ok or len(payload) < _PREFIX.size:
                torn = True
                break
            # the frame checksummed clean, so its bytes are exactly what
            # was written: report the undecodable type instead of torn
            rtype, lsn = _PREFIX.unpack_from(payload, 0)
            record = UnknownRecord(rtype)
        if lsn != expected_lsn:
            # an overwritten or misordered tail is indistinguishable from
            # a torn write; the intact prefix is the durable history
            torn = True
            break
        records.append((lsn, record if decode else None))
        expected_lsn += 1
        offset = start + length
    return _ScanResult(records, offset, torn, base_lsn)


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
        self._dirty = False
        #: records appended since the last sync (commit batching stat)
        self.appends_since_sync = 0
        self._open_tail()

    # -- segment discovery ------------------------------------------------------

    def _segment_paths(self) -> list[tuple[int, Path]]:
        found = []
        for entry in self.directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def _segment_path(self, seq: int) -> Path:
        return self.directory / f"wal-{seq:08d}.log"

    def _open_tail(self) -> None:
        """Open the last segment for append, repairing a torn tail."""
        segments = self._segment_paths()
        if not segments:
            self._active_seq = 1
            self.next_lsn = 1
            self._start_segment()
            return
        seq, tail_path = segments[-1]
        scan = _scan_segment(
            tail_path, decode=False, allow_partial_header=len(segments) > 1
        )
        if scan is None:
            # a crash landed between segment creation and header
            # completion (a record arriving exactly on the segment-size
            # boundary rolls first): the file holds no durable records.
            # Drop it and re-open with the predecessor as the tail.
            tail_path.unlink()
            self._fsync_directory()
            self._open_tail()
            return
        # non-final segments must be fully intact
        for _, path in segments[:-1]:
            prior = _scan_segment(path, decode=False)
            if prior.torn:
                raise StorageError(
                    f"{path.name}: damaged record in a non-final WAL "
                    "segment; committed history cannot be replayed"
                )
        if scan.torn:
            with open(tail_path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
                self._fsync_handle(handle)
        self._active_seq = seq
        self.next_lsn = scan.base_lsn + len(scan.records)
        self._handle = open(tail_path, "ab")

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

        Durability on return depends on the fsync policy: ``always``
        syncs here, ``batch`` defers to the next :meth:`commit`.
        """
        if self._handle is None:
            raise StorageError("write-ahead log is closed")
        frame = encode_record(record, self.next_lsn)
        if (
            self._handle.tell() + len(frame) > self.segment_bytes
            and self._handle.tell() > _HEADER.size
        ):
            self.roll_segment()
        lsn = self.next_lsn
        self._handle.write(frame)
        self.next_lsn += 1
        self.appends_since_sync += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self.appends_since_sync >= self.group_commit
        ):
            self.commit()
        else:
            self._dirty = True
        return lsn

    def commit(self) -> None:
        """Flush (and, unless ``fsync="off"``, fsync) appended records."""
        if self._handle is None:
            return
        self._handle.flush()
        self._fsync_handle(self._handle)
        self._dirty = False
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
        """
        segments = self._segment_paths()
        if len(segments) > 1:
            tail = _scan_segment(
                segments[-1][1], decode=False, allow_partial_header=True
            )
            if tail is None:
                # pre-header tail garbage (crash during roll): no records
                segments = segments[:-1]
        for position, (_, path) in enumerate(segments):
            scan = _scan_segment(path)
            if scan.torn and position != len(segments) - 1:
                raise StorageError(
                    f"{path.name}: damaged record in a non-final WAL "
                    "segment; committed history cannot be replayed"
                )
            for lsn, record in scan.records:
                if lsn > after_lsn:
                    yield lsn, record

    # -- compaction and introspection -------------------------------------------

    def drop_covered_segments(self, covered_lsn: int) -> list[str]:
        """Delete segments whose every record is covered by a checkpoint.

        A segment is removable when the *next* segment's base LSN is at
        most ``covered_lsn + 1`` (so no record above the checkpoint can
        live in it); the active segment always stays.  Returns the names
        of the deleted files.
        """
        segments = self._segment_paths()
        dropped: list[str] = []
        for (_, path), (_, next_path) in zip(segments, segments[1:]):
            next_scan_base = _HEADER.unpack_from(
                next_path.read_bytes()[: _HEADER.size], 0
            )[2]
            if next_scan_base <= covered_lsn + 1:
                path.unlink()
                dropped.append(path.name)
            else:
                break
        if dropped:
            self._fsync_directory()
        return dropped

    def segments(self) -> list[str]:
        return [path.name for _, path in self._segment_paths()]

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


def inspect_log(directory) -> dict:
    """Read-only summary of a WAL directory (no tail repair, no locks)."""
    directory = Path(directory)
    segments = []
    total_records = 0
    torn = False
    record_counts: dict[int, int] = {}
    if directory.is_dir():
        found = sorted(
            (int(m.group(1)), entry)
            for entry in directory.iterdir()
            if (m := _SEGMENT_RE.match(entry.name))
        )
    else:
        found = []
    for position, (_, path) in enumerate(found):
        scan = _scan_segment(
            path,
            allow_partial_header=position == len(found) - 1 and position > 0,
            unknown_ok=True,
        )
        if scan is None:
            segments.append(
                {
                    "file": path.name,
                    "base_lsn": None,
                    "records": 0,
                    "bytes": path.stat().st_size,
                    "torn_tail": True,
                }
            )
            torn = True
            continue
        for _, record in scan.records:
            record_counts[record.type] = record_counts.get(record.type, 0) + 1
        segments.append(
            {
                "file": path.name,
                "base_lsn": scan.base_lsn,
                "records": len(scan.records),
                "bytes": path.stat().st_size,
                "torn_tail": scan.torn,
            }
        )
        total_records += len(scan.records)
        torn = torn or scan.torn
    type_names = {
        TYPE_UPDATE: "update",
        TYPE_UPDATE_BATCH: "update_batch",
        TYPE_OOB_UPDATE: "out_of_order",
        TYPE_OOB_BATCH: "out_of_order_batch",
        TYPE_RETIRE: "retire",
        TYPE_DRAIN: "drain",
        TYPE_CHECKPOINT: "checkpoint_marker",
        TYPE_INTERVAL: "interval_insert",
        TYPE_INTERVAL_BATCH: "interval_batch",
        TYPE_ADVANCE: "advance",
        TYPE_DEMOTE: "demote",
    }
    return {
        "format_version": WAL_FORMAT_VERSION,
        "records": total_records,
        "record_counts": {
            type_names.get(t, f"unknown_{t}"): n
            for t, n in sorted(record_counts.items())
        },
        "segments": segments,
        "torn_tail": torn,
    }
