"""The write-ahead log: codec round trips, torn tails, segments, fsync.

The codec properties are Hypothesis-driven: every record type with
arbitrary (including negative) deltas and coordinates must survive
``encode_record`` -> ``decode_payload`` bit-exactly -- batch columns are
drawn to land on both sides of the byte widths version 2 had and of the
57 bits one 8-byte read holds, the full int64 range included -- a
hostile edit of a batch's headers must be a ``StorageError`` before
anything the size of its claims is allocated, and a log truncated at
*any* byte offset must replay exactly an intact prefix of what was
written -- never garbage, never an error -- and accept appends again
after the open-for-append repair.

Bytes are pinned three times: ``GOLDEN_FRAMES`` are the frames a
version-1 segment holds (what older builds wrote: decoded, and for the
scalar and vector rows still encoded, byte for byte),
``GOLDEN_PACKED_FRAMES`` the batch rows a version-2 segment holds
(decoded, never written) and ``GOLDEN_BIT_FRAMES`` the batch rows as
this build writes them.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DomainError, StorageError
from repro.durability import wal as wal_module
from repro.durability.wal import (
    _COLUMN,
    _FRAME,
    _HEADER,
    _PREFIX,
    BY_CLASS,
    RECORD_TYPES,
    SEGMENT_MAGIC,
    WAL_FORMAT_VERSION,
    AdvanceRecord,
    CheckpointMarkerRecord,
    DemoteRecord,
    DrainRecord,
    IntervalBatchRecord,
    IntervalInsertRecord,
    OutOfOrderBatchRecord,
    OutOfOrderRecord,
    RetireRecord,
    ShardedBatchRecord,
    UpdateBatchRecord,
    UpdateRecord,
    WriteAheadLog,
    _Batch,
    decode_payload,
    encode_record,
    inspect_log,
)

# keep coordinates comfortably inside i64 so round trips are exact
COORD = st.integers(-(2**62), 2**62)
DELTA = st.integers(-(2**62), 2**62)


I64 = np.iinfo(np.int64)
#: ``max - min`` of a drawn batch column: both sides of every byte
#: width's limit, of the 57 bits an unaligned 8-byte read holds whole,
#: and int64's minimum and maximum in one column
SPANS = [0, 1, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**57 - 1, 2**57, 2**64 - 1]


@st.composite
def columns(draw, n, count):
    """An ``(n, count)`` int64 array; a column of two or more rows spans
    exactly one of ``SPANS``, wherever in int64 that fits."""
    out = np.empty((n, count), dtype=np.int64)
    for j in range(count):
        span = draw(st.sampled_from(SPANS))
        low = draw(st.integers(I64.min, I64.max - span))
        inner = st.lists(
            st.integers(low, low + span), min_size=max(n - 2, 0), max_size=max(n - 2, 0)
        )
        out[:, j] = draw(st.permutations([low, low + span, *draw(inner)]))[:n]
    return out


def _batch(draw, cls, **kwargs):
    n = draw(st.integers(1, 20))
    points = draw(columns(n, draw(st.integers(1, 4))))
    return cls(points, draw(columns(n, 1))[:, 0].copy(), **kwargs)


@st.composite
def update_batch_records(draw):
    return _batch(draw, UpdateBatchRecord, mode=draw(st.sampled_from(["fast", "metered"])))


@st.composite
def oob_batch_records(draw):
    return _batch(draw, OutOfOrderBatchRecord)


@st.composite
def point_records(draw, cls):
    ndim = draw(st.integers(1, 5))
    point = tuple(draw(COORD) for _ in range(ndim))
    return cls(point, draw(DELTA))


@st.composite
def interval_records(draw):
    ndim = draw(st.integers(1, 5))
    cell = tuple(draw(COORD) for _ in range(ndim))
    return IntervalInsertRecord(draw(COORD), draw(COORD), cell, draw(DELTA))


@st.composite
def interval_batch_records(draw):
    n = draw(st.integers(1, 20))
    return IntervalBatchRecord(
        draw(columns(n, 2)),
        draw(columns(n, draw(st.integers(1, 4)))),
        draw(columns(n, 1))[:, 0].copy(),
        mode=draw(st.sampled_from(["fast", "metered"])),
    )


@st.composite
def sharded_batch_records(draw):
    """Up to three sections over increasing shards, each run of 0 to 6
    rows (a section may be empty)."""
    shards = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=3)))
    runs = np.array(
        [[draw(st.integers(0, 6)), draw(st.integers(0, 6))] for _ in shards]
    )
    n = int(runs.sum())
    points = draw(columns(n, draw(st.integers(1, 4))))
    return ShardedBatchRecord(shards, runs, points, draw(columns(n, 1))[:, 0].copy())


#: log-info name of a row -> arbitrary records of its type
STRATEGIES = {
    "update": point_records(UpdateRecord),
    "update_batch": update_batch_records(),
    "out_of_order": point_records(OutOfOrderRecord),
    "out_of_order_batch": oob_batch_records(),
    "retire": st.builds(RetireRecord, time=COORD),
    "drain": st.builds(DrainRecord, limit=st.one_of(st.none(), st.integers(0, 2**32))),
    "checkpoint_marker": st.builds(
        CheckpointMarkerRecord, checkpoint_id=st.integers(0, 2**62)
    ),
    "interval_insert": interval_records(),
    "interval_batch": interval_batch_records(),
    "advance": st.builds(AdvanceRecord, time=COORD),
    "demote": st.builds(DemoteRecord, time=COORD),
    "sharded_batch": sharded_batch_records(),
}
RECORDS = st.one_of(*STRATEGIES.values())

_POINTS = np.array([[3, 1, 2], [4, 0, 3]], dtype=np.int64)
_DELTAS = np.array([5, -2], dtype=np.int64)
#: Bytes on disk, pinned: one ``(record, frame hex at LSN 40 + position)``
#: per row of the record table, as commit e4e8b7e wrote them.  A new row
#: needs a frame here.
GOLDEN_FRAMES = [
    (
        UpdateRecord((3, 1, 2), -7),
        "2b000000f20978b0012800000000000000030003000000000000000100"
        "0000000000000200000000000000f9ffffffffffffff",
    ),
    (
        UpdateBatchRecord(_POINTS, _DELTAS, "buffer"),
        "50000000079f8957022900000000000000020200000003000300000000"
        "0000000100000000000000020000000000000004000000000000000000"
        "00000000000003000000000000000500000000000000feffffffffffff"
        "ff",
    ),
    (
        OutOfOrderRecord((1, 0, 3), 9),
        "2b000000e300932d032a00000000000000030001000000000000000000"
        "00000000000003000000000000000900000000000000",
    ),
    (
        OutOfOrderBatchRecord(_POINTS, _DELTAS),
        "4f000000a380846b042b00000000000000020000000300030000000000"
        "0000010000000000000002000000000000000400000000000000000000"
        "000000000003000000000000000500000000000000feffffffffffffff",
    ),
    (RetireRecord(12), "11000000cba0f3da052c000000000000000c00000000000000"),
    (DrainRecord(None), "11000000e47fc834062d00000000000000ffffffffffffffff"),
    (
        CheckpointMarkerRecord(4),
        "11000000da0e8a5a072e000000000000000400000000000000",
    ),
    (
        IntervalInsertRecord(-3, 9, (2, 0), 6),
        "33000000ee7fe8d1082f000000000000000200fdffffffffffffff0900"
        "0000000000000200000000000000000000000000000006000000000000"
        "00",
    ),
    (
        IntervalBatchRecord(
            np.array([[0, 4], [2, 2]], dtype=np.int64),
            np.array([[1, 3], [0, 2]], dtype=np.int64),
            np.array([5, -1], dtype=np.int64),
            "metered",
        ),
        "60000000b3786d50093000000000000000010200000002000000000000"
        "0000000400000000000000020000000000000002000000000000000100"
        "0000000000000300000000000000000000000000000002000000000000"
        "000500000000000000ffffffffffffffff",
    ),
    (AdvanceRecord(17), "1100000023cba2140a31000000000000001100000000000000"),
    (DemoteRecord(8), "11000000929e38d90b32000000000000000800000000000000"),
    (
        ShardedBatchRecord(
            [0, 1],
            [[2, 1], [1, 0]],
            [[3, 1, 2], [3, 0, 0], [2, 1, 1], [3, 0, 3]],
            [5, -2, 1, 7],
        ),
        "2f000000795a3ba60c3300000000000000020003000004020202000601"
        "0001000203037a000401020102010201000601000106010e0100",
    ),
]
#: The batch rows of ``GOLDEN_FRAMES`` (by position), and the frames a
#: version-2 segment holds for the same records at the same LSNs, as
#: the commit that introduced packed columns wrote them (no later build
#: writes them).
BATCH_ROWS = (1, 3, 8)
GOLDEN_PACKED_FRAMES = [
    "3c000000605d9d3d022900000000000000020200000003000300000000"
    "00000001000100000000000000000101000200000000000000010001fe"
    "ffffffffffffff010700",
    "3b000000a64bba5b042b00000000000000020000000300030000000000"
    "000001000100000000000000000101000200000000000000010001feff"
    "ffffffffffff010700",
    "47000000d930cff6093000000000000000010200000002000000000000"
    "0000000100020200000000000000010200000000000000000001010002"
    "00000000000000010100ffffffffffffffff010600",
]
#: The same batch rows as a version-3 segment holds them (what this build
#: writes).  A new batch row needs a frame here too.
GOLDEN_BIT_FRAMES = [
    "1a000000276bcd0f022900000000000000020200000003000601000104"
    "0103037a01",
    "19000000406c4e3e042b00000000000000020000000300060100010401"
    "03037a01",
    "1d0000004d307b60093000000000000000010200000002000002040200"
    "0104010103b80500",
]


def _packed_body(n=2, mode=1, widths=(1, 1), bases=(5, I64.max - 1)) -> bytes:
    """An ``update_batch`` body in the version-2 layout, written by hand:
    ``n`` rows claimed, k = 1, so one ``points`` and one ``deltas`` column
    of two stored values each (0 and 2, then 1 and 0)."""
    dtypes = {0: "<u1", 1: "<u1", 2: "<u2", 3: "<u1", 4: "<u4", 8: "<i8"}
    return struct.pack("<BIH", mode, n, 1) + b"".join(
        _COLUMN.pack(base, width) + np.array(values, dtype=dtypes[width]).tobytes()
        for base, width, values in zip(bases, widths, ([0, 2], [1, 0]))
    )


def _varint(value: int) -> bytes:
    """``value`` zigzagged and LEB128-coded, as a version-3 column base."""
    value = (value << 1) ^ (value >> 63)
    out = bytearray()
    while True:
        out.append(value & 0x7F | (0x80 if value > 0x7F else 0))
        value >>= 7
        if not value:
            return bytes(out)


def _bit_body(
    n=2, mode=1, bits=(2, 1), bases=(5, I64.max - 1), stream=b"\x14", varints=(None, None)
) -> bytes:
    """An ``update_batch`` body in the version-3 layout, written by hand:
    ``n`` rows claimed, k = 1, so one ``points`` and one ``deltas``
    column; two rows of 3 bits, offsets (0, 1) then (2, 0)."""
    return struct.pack("<BIH", mode, n, 1) + b"".join(
        (varint or _varint(base)) + bytes((width,))
        for base, width, varint in zip(bases, bits, varints)
    ) + stream


#: the log-info names of the batch rows
BATCH_NAMES = [row.name for row in RECORD_TYPES if isinstance(row.layout, _Batch)]


@st.composite
def hostile_bit_bodies(draw):
    """The name of one hostile edit of a batch record's version-3 headers
    (or bytes after its rows) and the edited ``tag | body`` (no LSN)."""
    record = draw(st.one_of(STRATEGIES[name] for name in BATCH_NAMES))
    layout = BY_CLASS[type(record)].layout
    body = bytearray(encode_record(record, 1)[_FRAME.size + _PREFIX.size :])
    *mode, n, k = layout.head.unpack_from(body)
    columns = np.hstack(
        [np.asarray(value).reshape(n, -1) for value in vars(record).values()
         if isinstance(value, np.ndarray)]
    )
    spans = columns.max(axis=0).astype(object) - columns.min(axis=0).astype(object)
    heads, offset = [], layout.head.size  # each base varint's (start, stop)
    for _ in spans:
        stop = offset
        while body[stop] & 0x80:
            stop += 1
        heads.append((offset, stop + 1))
        offset = stop + 2
    column = draw(st.integers(0, len(heads) - 1))
    start, stop = heads[column]
    edit = draw(st.sampled_from(["rows", "bits", "long", "huge", "overflow", "trailing"]))
    if edit == "overflow" and not spans[column]:
        edit = "trailing"
    if edit == "rows":
        n = draw(st.integers(n + 8, 2**32 - 1))  # at least ``row`` bytes more
        body[: layout.head.size] = layout.head.pack(*mode, n, k)
    elif edit == "bits":
        body[stop] = draw(st.sampled_from([0, *range(65, 256)]))
    elif edit == "trailing":
        body += draw(st.binary(min_size=1, max_size=16))
    else:
        if edit == "long":
            base = b"\x80" * draw(st.integers(10, 20)) + b"\x00"
        elif edit == "huge":
            base = b"\xff" * 9 + bytes((draw(st.integers(2, 127)),))
        else:
            base = _varint(draw(st.integers(I64.max - spans[column] + 1, I64.max)))
        body[start:stop] = base
    return edit, bytes((BY_CLASS[type(record)].tag,)) + bytes(body)


class TestCodec:
    @given(record=RECORDS, lsn=st.integers(1, 2**62))
    def test_round_trip(self, record, lsn):
        frame = encode_record(record, lsn)
        length, crc = _FRAME.unpack_from(frame, 0)
        payload = frame[_FRAME.size :]
        assert length == len(payload)
        assert crc == zlib.crc32(payload)
        got_lsn, got = decode_payload(payload)
        assert got_lsn == lsn
        assert got == record
        for value in vars(got).values():
            if isinstance(value, np.ndarray):
                assert value.dtype == np.int64 and value.flags.c_contiguous

    @pytest.mark.parametrize("n", [0, 1])
    def test_the_shortest_batches_round_trip(self, n):
        """No row at all (never logged by a cube, but a legal record), and
        one row: every column's span is 0."""
        record = IntervalBatchRecord(
            np.full((n, 2), I64.max), np.full((n, 3), I64.min), np.zeros(n, np.int64)
        )
        frame = encode_record(record, 1)
        # six headers of a one-byte base and a bits byte; a row makes five
        # of the bases ten-byte varints and spends six bits, one byte
        assert len(frame) == _FRAME.size + _PREFIX.size + 7 + 6 * 2 + n * (5 * 9 + 1)
        assert decode_payload(frame[_FRAME.size :]) == (1, record)

    def test_a_batch_wider_than_the_layout_cache_round_trips(self):
        """More than 64 columns: the layout is built for the record and not
        kept (a log of wide records would pin every layout); 150 one-bit
        and full-range columns make rows of many words."""
        rng = np.random.default_rng(5)
        points = rng.integers(0, 2, (9, 150))
        points[:, ::7] = rng.integers(I64.min, I64.max, (9, 22))
        record = OutOfOrderBatchRecord(points, rng.integers(-9, 9, 9))
        for _ in range(2):
            assert decode_payload(encode_record(record, 3)[_FRAME.size :]) == (3, record)

    @given(record=RECORDS, lsn=st.integers(1, 2**32), flip=st.integers(0, 10**9))
    def test_any_payload_corruption_is_detected(self, record, lsn, flip):
        frame = bytearray(encode_record(record, lsn))
        position = _FRAME.size + flip % (len(frame) - _FRAME.size)
        frame[position] ^= 0x5A
        length, crc = _FRAME.unpack_from(bytes(frame), 0)
        assert zlib.crc32(bytes(frame[_FRAME.size :])) != crc

    def test_every_row_is_drawn_by_the_round_trip(self):
        assert sorted(STRATEGIES) == sorted(row.name for row in RECORD_TYPES)

    def test_frames_are_byte_identical_to_the_recorded_ones(self):
        """Bytes on disk, pinned -- and a row without a frame fails, in the
        version-1 table and, if it is a batch row, in the version-2 and
        version-3 ones.  Versions 1 and 2 are decoded, version 3 is also
        what this build writes."""
        assert [type(r) for r, _ in GOLDEN_FRAMES] == [row.cls for row in RECORD_TYPES]
        packed = dict(zip(BATCH_ROWS, GOLDEN_PACKED_FRAMES))
        bit = dict(zip(BATCH_ROWS, GOLDEN_BIT_FRAMES))
        assert [row.cls for row in RECORD_TYPES if isinstance(row.layout, _Batch)] == [
            type(GOLDEN_FRAMES[position][0]) for position in BATCH_ROWS
        ]
        for position, (record, frame) in enumerate(GOLDEN_FRAMES):
            lsn = 40 + position
            for version, table in ((1, {}), (2, packed), (3, bit)):
                old = bytes.fromhex(table.get(position, frame))
                assert decode_payload(old[_FRAME.size :], version=version) == (lsn, record)
            written = bit.get(position, frame)
            assert encode_record(record, lsn).hex() == written, record
            assert decode_payload(bytes.fromhex(written)[_FRAME.size :]) == (lsn, record)

    def test_unknown_type_rejected(self):
        payload = struct.pack("<BQ", 200, 1)
        with pytest.raises(StorageError):
            decode_payload(payload)

    @pytest.mark.parametrize(
        "body",
        [
            # scalar: a retire followed by 8 stray bytes, and one cut short
            struct.pack("<B", 5) + struct.pack("<qq", 12, 0),
            struct.pack("<B", 5) + b"\x0c\x00\x00",
            # vector: an update whose header promises 3 coordinates over 2
            struct.pack("<B", 1) + struct.pack("<H3q", 3, 1, 2, -7),
            struct.pack("<B", 1) + b"\x03",
            # batch: update_batch says n=1000, k=3 over an empty body
            struct.pack("<B", 2) + struct.pack("<BIH", 0, 1000, 3),
            struct.pack("<B", 2) + struct.pack("<BIH", 0, 1, 3) + bytes(8 * 5),
            struct.pack("<B", 4) + struct.pack("<I", 1),
        ],
    )
    def test_a_body_that_is_not_exactly_its_shape_is_a_storage_error(
        self, tmp_path, body
    ):
        """Neither a bare ValueError nor silently ignored trailing bytes."""
        payload = body[:1] + struct.pack("<Q", 1) + body[1:]
        with pytest.raises(StorageError):
            decode_payload(payload)
        segment = tmp_path / "wal-00000001.log"
        segment.write_bytes(
            _HEADER.pack(SEGMENT_MAGIC, 1, 1)
            + _FRAME.pack(len(payload), zlib.crc32(payload))
            + payload
        )
        name = {row.tag: row.name for row in RECORD_TYPES}[body[0]]
        assert inspect_log(tmp_path)["record_counts"] == {f"malformed_{name}": 1}
        with pytest.raises(StorageError, match="cannot decode"):
            WriteAheadLog(tmp_path, fsync="off")

    @pytest.mark.parametrize(
        "body, refusal",
        [
            (_packed_body(widths=(1, 3)), "width 3"),
            (_packed_body(widths=(0, 1)), "width 0"),
            (_packed_body(widths=(8, 1), bases=(1, 0)), "width 8 over base 1"),
            (_packed_body()[:-1], "runs past"),  # a column cut short
            (_packed_body()[: -_COLUMN.size - 2], "runs past"),  # a column missing
            (_packed_body(n=2**32 - 1), "runs past"),  # rows the body cannot hold
            (_packed_body() + b"\x00", "1 bytes follow"),
            (_packed_body(bases=(I64.max - 1, 0)), "leaves int64"),
            (_packed_body(mode=9), "mode code 9"),
        ],
    )
    def test_a_malformed_packed_body_is_a_storage_error(self, tmp_path, body, refusal):
        """Each refusal of the version-2 layout, over a frame whose CRC is
        valid: committed history that cannot be read is never truncated
        away as a torn tail."""
        payload = _PREFIX.pack(2, 2) + body
        with pytest.raises(StorageError, match=refusal):
            decode_payload(payload, version=2)
        segment = tmp_path / "wal-00000001.log"
        segment.write_bytes(
            _HEADER.pack(SEGMENT_MAGIC, 2, 1)
            + encode_record(RetireRecord(1), 1)
            + _FRAME.pack(len(payload), zlib.crc32(payload))
            + payload
            + encode_record(RetireRecord(3), 3)
        )
        size = segment.stat().st_size
        info = inspect_log(tmp_path)
        assert info["record_counts"] == {"retire": 2, "malformed_update_batch": 1}
        assert info["torn_tail"] is False
        with pytest.raises(StorageError, match="LSN 2 .* cannot decode"):
            WriteAheadLog(tmp_path, fsync="off")
        assert segment.stat().st_size == size

    def test_the_well_formed_packed_body_decodes(self):
        """(the body the malformed ones are one edit away from)"""
        _, record = decode_payload(_PREFIX.pack(2, 2) + _packed_body(), version=2)
        assert record == UpdateBatchRecord([[5], [7]], [I64.max, I64.max - 1], "metered")

    @pytest.mark.parametrize(
        "body, refusal",
        [
            (_bit_body(bits=(0, 1)), "width 0"),
            (_bit_body(bits=(2, 65)), "width 65"),
            (_bit_body(varints=(b"\x80" * 10 + b"\x00", None)), "longer than 10 bytes"),
            (_bit_body(varints=(b"\xff" * 9 + b"\x02", None)), "base leaves int64"),
            (_bit_body(n=2**32 - 1), "cannot fit"),
            (_bit_body(n=9), "runs past"),  # 27 bits of rows in one byte
            (_bit_body()[:9], "runs past"),  # a header cut short
            (_bit_body() + b"\x00", "1 bytes follow"),
            (_bit_body(bases=(I64.max - 1, 0)), "column over base .* leaves int64"),
            (_bit_body(stream=b"\x54"), "padding"),
            (_bit_body(mode=9), "mode code 9"),
        ],
    )
    def test_a_malformed_bit_column_body_is_a_storage_error(self, tmp_path, body, refusal):
        """Each refusal of the version-3 layout, over a frame whose CRC is
        valid: committed history that cannot be read is never truncated
        away as a torn tail."""
        payload = _PREFIX.pack(2, 2) + body
        with pytest.raises(StorageError, match=refusal):
            decode_payload(payload)
        segment = tmp_path / "wal-00000001.log"
        segment.write_bytes(
            _HEADER.pack(SEGMENT_MAGIC, WAL_FORMAT_VERSION, 1)
            + encode_record(RetireRecord(1), 1)
            + _FRAME.pack(len(payload), zlib.crc32(payload))
            + payload
            + encode_record(RetireRecord(3), 3)
        )
        size = segment.stat().st_size
        info = inspect_log(tmp_path)
        assert info["record_counts"] == {"retire": 2, "malformed_update_batch": 1}
        assert info["torn_tail"] is False
        with pytest.raises(StorageError, match="LSN 2 .* cannot decode"):
            WriteAheadLog(tmp_path, fsync="off")
        assert segment.stat().st_size == size

    def test_the_well_formed_bit_column_body_decodes(self):
        """(the body the malformed ones are one edit away from)"""
        _, record = decode_payload(_PREFIX.pack(2, 2) + _bit_body())
        assert record == UpdateBatchRecord([[5], [7]], [I64.max, I64.max - 1], "metered")

    @given(edited=hostile_bit_bodies())
    @settings(max_examples=300, deadline=None)
    def test_a_hostile_bit_column_header_is_a_storage_error(self, edited):
        """A batch's row count past its body, a width of 0 or above 64, a
        base longer than ten bytes or outside int64, bytes after the rows:
        each is a ``StorageError`` -- never another exception -- before
        anything larger than the body is allocated.  A base whose offsets
        leave int64 is found once the rows are decoded, into arrays of at
        most 64 bytes a body byte (a value is 8 bytes and spends a bit)."""
        edit, body = edited
        payload = _PREFIX.pack(body[0], 1) + body[1:]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(StorageError):
                decode_payload(payload)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        decoded = 4 * 64 * len(payload) if edit == "overflow" else len(payload)
        assert peak <= decoded + (64 << 10)

    @given(record=st.one_of(STRATEGIES[name] for name in BATCH_NAMES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_edit_of_a_bit_column_body_decodes_or_is_a_storage_error(
        self, record, data
    ):
        payload = bytearray(encode_record(record, 1)[_FRAME.size :])
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(_PREFIX.size, len(payload) - 1))
            payload[position] = data.draw(st.integers(0, 255))
        try:
            decode_payload(bytes(payload))
        except StorageError:
            pass

    @given(
        record=st.one_of(*(STRATEGIES[name] for name in ("sharded_batch", *BATCH_NAMES))),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_shape_check_refuses_exactly_what_decoding_refuses(self, record, data):
        """What opening a log checks without decoding a bit stream: an
        edited body passes the check exactly when it decodes."""
        payload = bytearray(encode_record(record, 1)[_FRAME.size :])
        for _ in range(data.draw(st.integers(0, 3))):
            position = data.draw(st.integers(_PREFIX.size, len(payload) - 1))
            payload[position] = data.draw(st.integers(0, 255))
        outcomes = []
        for decode in (True, False):
            try:
                outcomes.append(decode_payload(bytes(payload), decode=decode)[1] is None)
            except StorageError:
                outcomes.append("refused")
        assert outcomes in ([False, True], ["refused", "refused"])

    @pytest.mark.parametrize("n, ceiling", [(512, 2.5), (128, 3.0)])
    def test_a_benchmark_shaped_batch_costs_its_values_width(self, n, ceiling):
        """What a shard logs per preload frame of the serving benchmark:
        two occurring times, cells on 32 x 32 x 8, deltas 1..9 -- rows of
        1 + 5 + 5 + 3 + 4 = 18 bits, where version 1 spent 40 bytes per
        update and version 2 five."""
        rng = np.random.default_rng(n)
        points = np.column_stack(
            [np.repeat([40, 41], n // 2), *(rng.integers(0, s, n) for s in (32, 32, 8))]
        )
        frame = encode_record(UpdateBatchRecord(points, rng.integers(1, 10, n)), 1)
        assert len(frame) / n <= ceiling

    def test_full_range_columns_cost_64_bits_a_row_and_11_header_bytes(self):
        n, k = 16, 3
        points = np.tile([[I64.min], [I64.max]], (n // 2, k))
        record = OutOfOrderBatchRecord(points, np.resize([2**32, 0], n))
        # the deltas' column: a one-byte base (0), a bits byte, 33 bits a row
        headers, row = 11 * k + 2, 64 * k + 33
        assert len(encode_record(record, 1)) == (
            _FRAME.size + _PREFIX.size + 6 + headers + n * row // 8
        )
        assert decode_payload(encode_record(record, 1)[_FRAME.size :]) == (1, record)


def _sample_records(count):
    rng = np.random.default_rng(count)
    out = []
    for i in range(count):
        kind = i % 6
        if kind == 0:
            out.append(UpdateRecord((i, int(rng.integers(0, 8))), int(rng.integers(-5, 9))))
        elif kind == 1:
            n = int(rng.integers(1, 5))
            out.append(  # columns one, two, four and eight bytes wide
                UpdateBatchRecord(
                    rng.integers(0, 16, size=(n, 3)) * [1, 300, 70_000],
                    rng.integers(-4, 9, size=n) * 2**40,
                )
            )
        elif kind == 2:
            out.append(RetireRecord(i))
        elif kind == 3:
            out.append(DrainRecord(None if i % 8 == 3 else i))
        elif kind == 4:
            out.append(
                IntervalInsertRecord(
                    i, i + int(rng.integers(0, 9)), (int(rng.integers(0, 8)),), int(rng.integers(1, 5))
                )
            )
        else:
            n = int(rng.integers(1, 4))
            starts = rng.integers(0, 64, size=(n, 1))
            out.append(
                IntervalBatchRecord(
                    np.hstack((starts, starts + rng.integers(0, 16, size=(n, 1)))).astype(np.int64),
                    rng.integers(0, 8, size=(n, 2)).astype(np.int64),
                    rng.integers(1, 6, size=n).astype(np.int64),
                )
            )
    return out


class TestTornTail:
    @given(count=st.integers(1, 12), cut=st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_truncation_yields_exact_prefix(self, tmp_path_factory, count, cut):
        directory = tmp_path_factory.mktemp("wal")
        records = _sample_records(count)
        with WriteAheadLog(directory, fsync="off") as wal:
            for record in records:
                wal.append(record)
        (path,) = [directory / name for name in sorted(p.name for p in directory.iterdir())]
        size = path.stat().st_size
        # (the batch frames among them are packed: a cut can land inside a
        # column header, between two columns, or in a column's values)
        assert size == _HEADER.size + sum(
            len(encode_record(record, 1)) for record in records
        )
        keep = _HEADER.size + cut % (size - _HEADER.size + 1)
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        # read-only inspection reports the intact prefix without repair
        info = inspect_log(directory)
        survivors = info["records"]
        assert survivors <= count
        assert path.stat().st_size == keep
        # open-for-append repairs the tail, replay yields the prefix
        with WriteAheadLog(directory, fsync="off") as wal:
            replayed = [record for _, record in wal.replay()]
            assert replayed == records[:survivors]
            new_lsn = wal.append(RetireRecord(9999))
            assert new_lsn == survivors + 1
        with WriteAheadLog(directory, fsync="off") as wal:
            tail = [record for _, record in wal.replay()]
        assert tail == records[:survivors] + [RetireRecord(9999)]

    def test_a_committed_record_this_build_cannot_decode_is_not_a_torn_tail(
        self, tmp_path
    ):
        """``retire@1 | type 99@2 | retire@3``: every frame checksums clean
        and carries its LSN, so nothing may be truncated away."""
        from repro.durability import DurableCube
        from repro.durability.recovery import WAL_SUBDIR

        DurableCube((4, 4), tmp_path, fsync="off").close()
        foreign = _PREFIX.pack(99, 2) + b"\xab" * 4
        (segment,) = (tmp_path / WAL_SUBDIR).iterdir()
        segment.write_bytes(
            _HEADER.pack(SEGMENT_MAGIC, 1, 1)
            + encode_record(RetireRecord(1), 1)
            + _FRAME.pack(len(foreign), zlib.crc32(foreign))
            + foreign
            + encode_record(RetireRecord(3), 3)
        )
        size = segment.stat().st_size
        for reopen in (
            lambda: WriteAheadLog(tmp_path / WAL_SUBDIR, fsync="off"),
            lambda: DurableCube.recover(tmp_path),
        ):
            with pytest.raises(StorageError, match="LSN 2 .* cannot decode"):
                reopen()
            assert segment.stat().st_size == size
        info = inspect_log(tmp_path / WAL_SUBDIR)
        assert info["records"] == 3 and info["torn_tail"] is False
        assert info["record_counts"] == {"retire": 2, "unknown_99": 1}

    def test_a_zero_filled_tail_is_torn_not_undecodable(self, tmp_path):
        """Eight zero bytes are a CRC-valid frame of length 0: it carries
        no LSN, so it was never a committed record."""
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(RetireRecord(1))
        (segment,) = tmp_path.iterdir()
        intact = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(bytes(64))
        assert inspect_log(tmp_path)["torn_tail"] is True
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert [record for _, record in wal.replay()] == [RetireRecord(1)]
            assert wal.append(RetireRecord(2)) == 2
        assert segment.stat().st_size == intact + len(encode_record(RetireRecord(2), 2))

    def test_truncated_header_is_an_error(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(RetireRecord(1))
        (path,) = [p for p in tmp_path.iterdir()]
        with open(path, "r+b") as handle:
            handle.truncate(_HEADER.size - 2)
        with pytest.raises(StorageError):
            WriteAheadLog(tmp_path, fsync="off")

    def test_bad_magic_is_an_error(self, tmp_path):
        (tmp_path / "wal-00000001.log").write_bytes(
            _HEADER.pack(b"JUNK", 1, 1)
        )
        with pytest.raises(StorageError):
            WriteAheadLog(tmp_path, fsync="off")

    def test_future_wal_version_refused(self, tmp_path):
        """A version this build does not read -- the next one, a far one,
        or 0, which no build ever wrote -- is refused by name, not decoded
        as the nearest layout."""
        segment = tmp_path / "wal-00000001.log"
        for version in (WAL_FORMAT_VERSION + 1, 999, 0):
            segment.write_bytes(
                _HEADER.pack(SEGMENT_MAGIC, version, 1)
                + encode_record(RetireRecord(1), 1)
            )
            with pytest.raises(
                StorageError, match=f"format version {version} is not .* upgrade"
            ):
                WriteAheadLog(tmp_path, fsync="off")
            assert segment.stat().st_size == _HEADER.size + 25

    def test_damage_in_non_final_segment_is_an_error(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=64) as wal:
            for record in _sample_records(10):
                wal.append(record)
            names = wal.segments()
        assert len(names) > 1
        first = tmp_path / names[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF  # corrupt committed (non-tail) history
        first.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="non-final"):
            WriteAheadLog(tmp_path, fsync="off")


class TestSegments:
    def test_rolling_preserves_order_and_lsns(self, tmp_path):
        records = _sample_records(30)
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=128) as wal:
            lsns = [wal.append(record) for record in records]
            assert lsns == list(range(1, 31))
            assert len(wal.segments()) > 2
            wal.commit()  # replay reads the files, not the write buffer
            replayed = list(wal.replay())
        assert [lsn for lsn, _ in replayed] == lsns
        assert [record for _, record in replayed] == records

    def test_replay_after_lsn(self, tmp_path):
        records = _sample_records(8)
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=96) as wal:
            for record in records:
                wal.append(record)
            wal.commit()
            suffix = [record for _, record in wal.replay(after_lsn=5)]
        assert suffix == records[5:]

    def test_drop_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=96) as wal:
            for record in _sample_records(20):
                wal.append(record)
            wal.commit()
            segments_before = wal.segments()
            # nothing covered: nothing dropped
            assert wal.drop_covered_segments(0) == []
            dropped = wal.drop_covered_segments(20)
            # the active segment always stays, everything covered goes
            assert wal.segments() == segments_before[len(dropped) :]
            assert len(wal.segments()) >= 1
            survivors = [lsn for lsn, _ in wal.replay()]
            base = survivors[0] if survivors else 21
            assert all(lsn >= base for lsn in survivors)

    def test_drop_covered_segments_reads_headers_only(self, tmp_path, monkeypatch):
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=96) as wal:
            for record in _sample_records(20):
                wal.append(record)
            wal.commit()
            monkeypatch.setattr(
                type(tmp_path), "read_bytes", lambda path: pytest.fail(f"read {path}")
            )
            names = wal.segments()
            assert wal.drop_covered_segments(20) == names[:-1] != []

    def test_a_version_1_tail_is_repaired_and_never_appended_to(self, tmp_path):
        """A segment holds one layout: the first append after opening an
        older build's log lands in a fresh segment."""
        frames = [
            bytes.fromhex(frame) for _, frame in GOLDEN_FRAMES[:11]
        ]  # LSNs 40..50, as a version-1 segment holds them (the rows it knew)
        old = tmp_path / "wal-00000007.log"
        old.write_bytes(_HEADER.pack(SEGMENT_MAGIC, 1, 40) + b"".join(frames)[:-3])
        intact = _HEADER.size + sum(map(len, frames[:-1]))
        batch = GOLDEN_FRAMES[1][0]
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert old.stat().st_size == intact  # the torn demote@50 is gone
            assert wal.segments() == ["wal-00000007.log", "wal-00000008.log"]
            assert wal.append(batch) == 50
        assert old.stat().st_size == intact
        with WriteAheadLog(tmp_path, fsync="off") as wal:  # the tail is ours now
            assert wal.segments() == ["wal-00000007.log", "wal-00000008.log"]
            assert list(wal.replay()) == [
                (40 + i, record) for i, (record, _) in enumerate(GOLDEN_FRAMES[:10])
            ] + [(50, batch)]
        info = inspect_log(tmp_path)
        assert [(s["format_version"], s["base_lsn"]) for s in info["segments"]] == [
            (1, 40),
            (WAL_FORMAT_VERSION, 50),
        ]
        # update, out_of_order, interval_insert: 1 each; four batches of 2
        assert info["updates"] == 3 + 4 * 2
        assert info["bytes_per_update"] == round(
            sum(s["bytes"] for s in info["segments"]) / 11, 3
        )

    def test_a_version_2_tail_is_repaired_and_never_appended_to(self, tmp_path):
        """The same for a log the packed-column builds wrote: its batch
        frames are version-2 bodies, read by the segment's version, and the
        first append after the open lands in a fresh version-3 segment."""
        packed = dict(zip(BATCH_ROWS, GOLDEN_PACKED_FRAMES))
        frames = [
            bytes.fromhex(packed.get(position, frame))
            for position, (_, frame) in enumerate(GOLDEN_FRAMES[:11])
        ]  # LSNs 40..50, as a version-2 segment holds them (the rows it knew)
        old = tmp_path / "wal-00000007.log"
        old.write_bytes(_HEADER.pack(SEGMENT_MAGIC, 2, 40) + b"".join(frames)[:-3])
        intact = _HEADER.size + sum(map(len, frames[:-1]))
        batch = GOLDEN_FRAMES[8][0]
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert old.stat().st_size == intact  # the torn demote@50 is gone
            assert wal.segments() == ["wal-00000007.log", "wal-00000008.log"]
            assert wal.append(batch) == 50
        assert old.stat().st_size == intact
        with WriteAheadLog(tmp_path, fsync="off") as wal:  # the tail is ours now
            assert wal.segments() == ["wal-00000007.log", "wal-00000008.log"]
            assert list(wal.replay()) == [
                (40 + i, record) for i, (record, _) in enumerate(GOLDEN_FRAMES[:10])
            ] + [(50, batch)]
        new = tmp_path / "wal-00000008.log"
        assert new.read_bytes() == _HEADER.pack(
            SEGMENT_MAGIC, WAL_FORMAT_VERSION, 50
        ) + encode_record(batch, 50)
        info = inspect_log(tmp_path)
        assert [(s["format_version"], s["base_lsn"]) for s in info["segments"]] == [
            (2, 40),
            (3, 50),
        ]
        assert info["format_version"] == WAL_FORMAT_VERSION == 3
        assert info["updates"] == 3 + 4 * 2

    def test_inspect_log_counts_types(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(UpdateRecord((0, 1), 2))
            wal.append(RetireRecord(1))
            wal.append(RetireRecord(2))
        info = inspect_log(tmp_path)
        assert info["records"] == 3
        assert info["record_counts"] == {"update": 1, "retire": 2}
        assert info["torn_tail"] is False


class TestFsyncPolicy:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    @pytest.mark.parametrize("policy", ["always", "batch", "off"])
    def test_policies_accept_appends(self, tmp_path, policy):
        with WriteAheadLog(tmp_path / policy, fsync=policy) as wal:
            for record in _sample_records(5):
                wal.append(record)
        with WriteAheadLog(tmp_path / policy, fsync="off") as wal:
            assert len(list(wal.replay())) == 5

    def test_group_commit_resets_counter(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch", group_commit=4)
        try:
            for i in range(3):
                wal.append(RetireRecord(i))
            assert wal.appends_since_sync == 3
            wal.append(RetireRecord(3))  # fourth append triggers the sync
            assert wal.appends_since_sync == 0
            wal.append(RetireRecord(4))
            wal.commit()
            assert wal.appends_since_sync == 0
        finally:
            wal.close()

    @pytest.mark.parametrize("policy", ["batch", "off"])
    def test_a_killed_process_loses_no_acknowledged_record(self, tmp_path, policy):
        """``append`` hands the frame to the OS before it returns: records a
        few bytes long (well inside the writer's buffer) that were never
        committed survive a process that dies without closing its log."""
        script = (
            "import os, sys; from repro.durability.wal import *\n"
            f"wal = WriteAheadLog(sys.argv[1], fsync={policy!r}, group_commit=10**6)\n"
            "for i in range(7): wal.append(RetireRecord(i))\n"
            "os._exit(0)  # no close, no commit, no interpreter shutdown\n"
        )
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            check=True,
        )
        assert inspect_log(tmp_path)["torn_tail"] is False
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert [r for _, r in wal.replay()] == [RetireRecord(i) for i in range(7)]

    def test_an_oversize_record_is_refused_before_it_is_acknowledged(
        self, tmp_path, monkeypatch
    ):
        """A scan takes a frame beyond ``MAX_RECORD_BYTES`` for a torn
        write: had ``append`` written it, the next open would have dropped
        it and every record after it."""
        small = UpdateBatchRecord(np.zeros((4, 2), np.int64), np.ones(4, np.int64))
        # (distinct values: 200 rows of 9 + 9 + 1 bits are 475 bytes)
        large = UpdateBatchRecord(np.arange(400).reshape(200, 2), np.ones(200, np.int64))
        monkeypatch.setattr(wal_module, "MAX_RECORD_BYTES", 200)
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.append(small) == 1
            wal.commit()
            (segment,) = tmp_path.iterdir()
            size = segment.stat().st_size
            with pytest.raises(DomainError, match="at most 200 bytes"):
                wal.append(large)
            wal.commit()
            assert (wal.next_lsn, segment.stat().st_size) == (2, size)
            assert wal.append(RetireRecord(3)) == 2
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert list(wal.replay()) == [(1, small), (2, RetireRecord(3))]
            assert wal.next_lsn == 3

    def test_append_after_close_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        with pytest.raises(StorageError):
            wal.append(RetireRecord(0))


class TestSegmentBoundaryTear:
    """A torn final record landing exactly on a segment boundary.

    ``append`` rolls to a fresh segment *before* writing a record that
    would overflow the active one, so a crash at that moment leaves the
    new segment file with a partial (or empty) header.  That file holds
    no durable records: opening for append must truncate it away and
    resume on the predecessor instead of raising ``StorageError``.
    """

    def _rolled_log(self, directory, count=30):
        with WriteAheadLog(directory, fsync="off", segment_bytes=200) as wal:
            for record in _sample_records(count):
                wal.append(record)
            names = wal.segments()
            next_lsn = wal.next_lsn
        assert len(names) > 1
        return names, next_lsn

    @pytest.mark.parametrize("header_bytes", [0, 1, 6, _HEADER.size - 1])
    def test_partial_header_tail_is_truncated(self, tmp_path, header_bytes):
        _, next_lsn = self._rolled_log(tmp_path)
        seq = max(
            int(p.name[4:12]) for p in tmp_path.glob("wal-*.log")
        )
        partial = tmp_path / f"wal-{seq + 1:08d}.log"
        partial.write_bytes(
            _HEADER.pack(SEGMENT_MAGIC, 1, next_lsn)[:header_bytes]
        )
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=200) as wal:
            assert not partial.exists()
            assert wal.next_lsn == next_lsn
            replayed = list(wal.replay())
            assert len(replayed) == next_lsn - 1
            # and the log accepts appends again
            assert wal.append(RetireRecord(7)) == next_lsn

    def test_partial_header_after_torn_predecessor(self, tmp_path):
        """fsync=off can tear the predecessor too; both repairs compose."""
        _, next_lsn = self._rolled_log(tmp_path)
        paths = sorted(tmp_path.glob("wal-*.log"))
        # tear the (current) final segment's last record mid-frame...
        tail = paths[-1]
        tail.write_bytes(tail.read_bytes()[:-3])
        # ...and add a header-less just-rolled segment after it
        seq = int(tail.name[4:12])
        (tmp_path / f"wal-{seq + 1:08d}.log").write_bytes(b"EC")
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=200) as wal:
            survivors = list(wal.replay())
            assert survivors  # intact prefix, no error
            assert wal.next_lsn == survivors[-1][0] + 1

    def test_sole_short_segment_stays_an_error(self, tmp_path):
        """Without an intact predecessor a short file could be lost
        committed history; recovery must not guess."""
        (tmp_path / "wal-00000001.log").write_bytes(b"ECWL")
        with pytest.raises(StorageError, match="truncated segment header"):
            WriteAheadLog(tmp_path, fsync="off")

    def test_inspect_log_reports_partial_tail_instead_of_raising(
        self, tmp_path
    ):
        self._rolled_log(tmp_path)
        seq = max(int(p.name[4:12]) for p in tmp_path.glob("wal-*.log"))
        (tmp_path / f"wal-{seq + 1:08d}.log").write_bytes(b"ECWL\x01")
        info = inspect_log(tmp_path)
        assert info["torn_tail"] is True
        tail_entry = info["segments"][-1]
        assert tail_entry["records"] == 0
        assert tail_entry["base_lsn"] is None
        assert tail_entry["torn_tail"] is True

    def test_durable_cube_recovers_over_boundary_tear(self, tmp_path):
        from repro.durability.recovery import WAL_SUBDIR, DurableCube

        directory = tmp_path / "cube"
        with DurableCube(
            (4, 4),
            directory,
            buffered=False,
            fsync="off",
            segment_bytes=256,
            num_times=64,
        ) as cube:
            for t in range(40):
                cube.update((t, t % 4, (t * 3) % 4), 1 + t % 5)
            expected_total = cube.total()
        wal_dir = directory / WAL_SUBDIR
        seq = max(int(p.name[4:12]) for p in wal_dir.glob("wal-*.log"))
        assert seq > 1
        (wal_dir / f"wal-{seq + 1:08d}.log").write_bytes(b"ECWL")
        recovered = DurableCube.recover(directory)
        try:
            assert recovered.total() == expected_total
        finally:
            recovered.close()
