"""Batch columns at bit width (WAL format version 3) and sorted runs (4).

A batch record's scalar columns (``repro.durability.wal``'s ``_Batch``
lays its fields out as a ``(C, n)`` column-major array) are stored as

* every column's header, in order: its base -- the column's minimum --
  as zigzag LEB128 (7 bits a byte, low first, 1 to 10 bytes), then one
  byte of ``bits = max(1, bit_length(max - min))``, 1 to 64;
* the rows as one LSB-first bit stream, zero-padded to a byte: row ``i``
  holds each column's ``value - base`` in its ``bits``, the columns in
  order, so it is the ``i``-th run of ``row = sum(bits)`` bits and the
  stream is exactly ``ceil(n * row / 8)`` bytes.

So a record costs ``sum(bits)`` bits a row plus two to eleven bytes a
column, and any int64 batch round-trips bit-identically (offsets are
taken modulo 2**64).  A column spends at least one bit a row, so a body
bounds its own ``n`` (``n <= 8 x`` its bytes), and :func:`read` checks
that, the headers and the stream's exact length before it allocates
anything the size of the header's claims.  Only an offset that carries
its column out of int64 is found after the rows are decoded, into
arrays of at most ``64 x`` the body's bytes each (a value is 8 bytes
and spends at least a bit of the body).

Both directions lean on the stream's period.  A row's columns are cut
into consecutive *words* of at most 64 bits.  The writer builds each
row's words as ``uint64``\\ s from the columns' offsets shifted apart;
``64 / gcd(row, 64)`` rows fill whole ``uint64`` words of the stream, so
each stream word is a fixed handful of row words shifted into place.
The reader uses that eight rows take ``row`` bytes: a word of row
``8g + r`` is one unaligned 8-byte load at a byte and a bit fixed by
``r`` (a second load for a word wider than 57 bits).  The tables behind
both are cached per tuple of widths.

A *sorted run* (:func:`pack_sorted`, version 4: a sharded batch's
in-order points, ``k`` point columns and the delta, in lexicographic
order of point) is stored as a set of keys.  A point's key is its
columns' offsets side by side at their widths, the first column on top,
so key order is point order; a run is

* the ``k`` point columns' headers, as above;
* ``u8 rice k``, then the unary stream's length in bytes (zigzag LEB128)
  and the stream: per key, in order, the quotient ``gap >> rice`` as
  that many 0 bits and a terminating 1, LSB-first, zero-padded to a
  byte (a gap is a key less the one before it, the first key's is
  itself);
* the remainders ``gap & (2**rice - 1)`` and the deltas, as two columns
  of the layout above.

Decoding is ``unpackbits -> flatnonzero``: the ``i``-th 1 sits at the
quotients' sum up to ``i`` plus ``i``, so each key is that sum shifted
up ``rice`` bits plus the remainders' running sum, and the keys split
back into their columns with one shift and mask a column.  A run whose
widths sum past :data:`KEY_BITS` is stored as columns instead: ``rice
k`` is :data:`WIDE`, and the delta's header and the rows of all ``k +
1`` columns follow it.  The unary stream holds a 1 a row, so it bounds
``n`` by the body's length too; every check -- its count of 1s, its
padding, a key past its widths, the bytes after the run -- comes before
anything sized by a claim is allocated.  Checking a run without decoding
it finds a key past its widths only where the quotients alone put it
there; one that the remainders carry over is found on decoding.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from repro.core.errors import DomainError, StorageError

_U64 = np.dtype("<u8")


def within(body: bytes, stop: int) -> int:
    """``stop``, if the body reaches it (a batch column may not run past)."""
    if stop > len(body):
        raise StorageError("a batch column runs past its record body")
    return stop


def _spans(columns: np.ndarray) -> tuple[list[int], list[int]]:
    """Each of ``(C, n)`` columns' base (its minimum) and ``bits``."""
    lows = columns.min(axis=1).tolist()
    # (Python integers: the span of a full-range column cannot wrap)
    return lows, [
        max(1, (high - low).bit_length())
        for low, high in zip(lows, columns.max(axis=1).tolist())
    ]


def pack(columns: np.ndarray) -> bytes:
    """The headers and the bit stream of a batch's ``(C, n)`` int64
    columns (overwritten: they are the caller's own working copy)."""
    if not columns.shape[1]:
        return b"\x00\x01" * len(columns)  # base 0, one bit, no rows
    lows, bits = _spans(columns)
    return _headers(lows, bits) + _stream(columns, lows, bits)


def read(
    body: bytes, offset: int, n: int, counts: list[int], decode: bool = True
) -> tuple[list[np.ndarray] | None, int]:
    """The ``(n, count)`` int64 fields of the columns at ``offset`` (the
    fields' column counts, in order) and the offset where they end.
    Every refusal but one comes before anything sized by the header's
    claims is allocated; an offset carrying its column out of int64 is
    found after the rows are decoded (see the module docstring).

    ``decode=False`` checks the columns' shape -- headers, widths, the
    stream's length and padding -- and returns ``None`` for the fields
    without decoding the stream, unless a base lies close enough to the
    top of int64 that only the decoded rows can tell."""
    if n > 8 * len(body):
        raise StorageError(f"{n} batch rows cannot fit a {len(body)}-byte body")
    bases, bits, offset = _read_headers(body, offset, sum(counts))
    return _read_rows(body, offset, n, counts, bases, bits, decode)


def _read_headers(body: bytes, offset: int, count: int) -> tuple[list, list, int]:
    """The bases and ``bits`` of the ``count`` column headers at
    ``offset``, and where they end."""
    within(body, offset + 2 * count)  # a header is two bytes or more
    heads = body[offset : offset + 2 * count]
    if max(heads[::2]) < 0x80:  # every base is one byte: the usual case
        bases = [(byte >> 1) ^ -(byte & 1) for byte in heads[::2]]
        bits, offset = list(heads[1::2]), offset + len(heads)
    else:
        bases, bits = [], []
        for _ in range(count):
            base, offset = read_varint(body, offset)
            bases.append(base)
            bits.append(body[within(body, offset + 1) - 1])
            offset += 1
    if min(bits) < 1 or max(bits) > 64:
        width = min(bits) if min(bits) < 1 else max(bits)
        raise StorageError(f"a bit column of width {width}")
    return bases, bits, offset


def _read_rows(
    body: bytes, offset: int, n: int, counts: list[int], bases, bits, decode=True
) -> tuple[list[np.ndarray] | None, int]:
    """:func:`read` past the headers: the rows at ``offset``."""
    row = sum(bits)
    stop = within(body, offset + (n * row + 7) // 8)
    if n * row % 8 and body[stop - 1] >> n * row % 8:
        raise StorageError("the padding after the last batch row is not zero")
    top = 1 << 63  # (only a base this close to the top can carry an offset out)
    if not n or not decode and max(bases) + (1 << max(bits)) <= top:
        empty = [np.empty((0, count), dtype=np.int64) for count in counts]
        return (empty if decode else None), stop
    return _decode(body, offset, stop, n, counts, bases, bits, decode), stop


def _decode(body, offset, stop, n, counts, bases, bits, keep) -> list | None:
    """The fields of a checked stream (``None`` unless ``keep``)."""
    row, top = sum(bits), 1 << 63
    layout = _bit_layout(tuple(bits))
    groups = -(-n // 8)
    stream = np.frombuffer(
        body[offset:stop] + bytes(groups * row + 16 - (stop - offset)), np.uint8
    )
    windows = np.ndarray((groups, row + 8), _U64, stream, 0, (row, 1))  # unaligned
    codes = np.empty((len(layout.widths), groups, 8), dtype=_U64)  # rows 8g + r
    for code, width, at, shift in zip(
        codes, layout.widths, layout.phase_bytes, layout.phase_bits
    ):
        np.right_shift(windows[:, at], shift, out=code)
        if width + 7 > 64:
            code |= windows[:, at + 8] << np.uint64(64) - shift
    # one row per column: its offsets, then its values (int64 wraps, so
    # the unsigned sum is the value whenever the value fits)
    codes = codes.reshape(len(codes), -1)[:, :n]
    values = (codes if len(codes) == 1 else codes[layout.word]) >> layout.down
    values &= layout.masks
    if max(bases) + (1 << max(bits)) > top:
        for column, (base, width) in enumerate(zip(bases, bits)):
            if base + (1 << width) > top and base + int(values[column].max()) >= top:
                raise StorageError(f"a bit column over base {base} leaves int64")
    if not keep:
        return None
    values += np.array(bases, dtype=np.int64).view(_U64)[:, None]
    values = values.view(np.int64)
    fields = itertools.pairwise(itertools.accumulate(counts, initial=0))
    return [np.ascontiguousarray(values[low:high].T) for low, high in fields]


def _headers(bases: list[int], bits: list[int]) -> bytes:
    return b"".join(varint(base) + bytes((width,)) for base, width in zip(bases, bits))


def varint(value: int) -> bytes:
    """An int64 as zigzag LEB128 (what a column base is stored as)."""
    value, out = (value << 1) ^ (value >> 63), bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def read_varint(body: bytes, offset: int) -> tuple[int, int]:
    """The zigzag-LEB128 int64 at ``offset`` and where it ends."""
    value = 0
    for position in range(offset, min(offset + 10, len(body))):
        value |= (body[position] & 0x7F) << 7 * (position - offset)
        if body[position] < 0x80:
            if value >> 64:
                raise StorageError("a column base leaves int64")
            return (value >> 1) ^ -(value & 1), position + 1
    if offset + 10 <= len(body):
        raise StorageError("a column base runs longer than 10 bytes")
    raise StorageError("a batch column runs past its record body")


# -- sorted runs (WAL format 4) ------------------------------------------------------

#: ``rice k`` of a sorted run stored as plain columns: its keys would be
#: wider than :data:`KEY_BITS`
WIDE = 255
#: the widest key a sorted run is coded by (a wider run is stored as
#: columns): every key and gap is then a non-negative int64
KEY_BITS = 62


def pack_sorted(columns: np.ndarray) -> bytes:
    """A run of ``(k + 1, n)`` int64 columns, ``k`` point columns and
    the delta, whose points are in lexicographic order, as a sorted set
    (see the module docstring; the columns may be overwritten, as
    :func:`pack`'s are).  An unsorted run is a
    :class:`~repro.core.errors.DomainError`."""
    points, n = columns[:-1], columns.shape[1]
    lows, bits = _spans(points)
    width = sum(bits)
    if width > KEY_BITS:
        if (np.lexsort(points[::-1]) != np.arange(n)).any():
            raise DomainError("a sorted run's points are not in order")
        low, wide = _spans(columns[-1:])
        return (
            _headers(lows, bits) + bytes((WIDE,)) + _headers(low, wide)
            + _stream(columns, lows + low, bits + wide)
        )  # fmt: skip
    # one key a point, its offsets side by side, the first column's on
    # top (int64 arithmetic wraps, so the weighted sum is each key exactly)
    weights = np.array([1 << shift for shift in _key_shifts(bits)], dtype=np.int64)
    keys = weights @ points
    keys -= weights @ np.array(lows, dtype=np.int64)
    gaps = np.empty_like(keys)
    gaps[0] = keys[0]
    np.subtract(keys[1:], keys[:-1], out=gaps[1:])
    if n > 1 and gaps[1:].min() < 0:
        raise DomainError("a sorted run's points are not in order")
    # the Rice parameter: of the two just below the mean gap, the one
    # whose quotients and remainders take fewer bits
    rice = max((int(keys[-1]) // n).bit_length() - 2, 0)
    quotients = gaps >> rice
    halves = quotients >> 1
    if int(halves.sum()) + n * (rice > 0) < int(quotients.sum()):
        rice, quotients = rice + 1, halves
    quotients += 1
    ends = np.cumsum(quotients, out=quotients)  # one past each terminating 1
    unary = np.zeros(int(ends[-1]) + 1, dtype=np.uint8)
    unary[ends] = 1
    unary = np.packbits(unary[1:], bitorder="little").tobytes()
    gaps &= (1 << rice) - 1  # the remainders
    return (
        _headers(lows, bits) + bytes((rice,)) + varint(len(unary)) + unary
        + pack(np.vstack([gaps, columns[-1]]))
    )  # fmt: skip


def read_sorted(
    body: bytes, offset: int, n: int, counts: list[int], decode: bool = True
) -> tuple[list[np.ndarray] | None, int]:
    """:func:`read` for a sorted run of ``n >= 1`` rows, whose fields
    are its points and its deltas (``counts`` is ``[k, 1]``).  Every
    refusal comes before anything sized by the body's claims is
    allocated.  ``decode=False`` checks the run's shape without decoding
    its remainders, so a key that only they carry past its widths is
    refused when the run is decoded."""
    bases, bits, offset = _read_headers(body, offset, counts[0])
    rice = body[within(body, offset + 1) - 1]
    if rice == WIDE:
        low, wide, offset = _read_headers(body, offset + 1, 1)
        return _read_rows(body, offset, n, counts, bases + low, bits + wide, decode)
    width = sum(bits)
    if rice > KEY_BITS or width > KEY_BITS:
        raise StorageError(f"a sorted run of {width}-bit keys over rice k {rice}")
    size, offset = read_varint(body, offset + 1)
    if size < 1:
        raise StorageError(f"a unary stream of {size} bytes for {n} rows")
    stop = within(body, offset + size)
    unary = np.unpackbits(np.frombuffer(body, np.uint8, size, offset), bitorder="little")
    ones = np.flatnonzero(unary)
    if len(ones) < n or int(ones[n - 1]) >> 3 != size - 1:
        raise StorageError(
            f"a unary stream of {len(ones)} quotients in {size} bytes for {n} rows"
        )
    if len(ones) > n:
        raise StorageError("the padding after the last quotient is not zero")
    low, wide, offset = _read_headers(body, stop, 2)
    if low[0] < 0:
        raise StorageError("a sorted run's remainders are negative")
    top, least = 1 << width, (int(ones[-1]) + 1 - n) << rice  # the quotients' part
    if least + n * low[0] >= top:
        raise StorageError(f"a sorted run's key leaves its {width} bits")
    rest, stop = _read_rows(body, offset, n, [1, 1], low, wide, decode)
    if rest is None:
        return None, stop
    # (a remainder is below 2**63: a running sum that wraps goes negative)
    keys = np.cumsum(rest[0][:, 0])
    if int(keys.min()) < 0 or least + int(keys[-1]) >= top:
        raise StorageError(f"a sorted run's key leaves its {width} bits")
    ones -= np.arange(n)  # each key's quotients, summed
    ones <<= rice
    keys += ones
    points = keys >> np.array(_key_shifts(bits))[:, None]
    points &= np.array([(1 << b) - 1 for b in bits])[:, None]
    for base, b, column in zip(bases, bits, points):
        if base + (1 << b) > 1 << 63 and base + int(column.max()) >= 1 << 63:
            raise StorageError(f"a bit column over base {base} leaves int64")
    points += np.array(bases, dtype=np.int64)[:, None]
    return [np.ascontiguousarray(points.T), rest[1]], stop


def _key_shifts(bits: list[int]) -> list[int]:
    """Where each column's offset sits in a key, the first on top."""
    return [sum(bits) - end for end in itertools.accumulate(bits)]


def _cached(build):
    """``build(widths)`` memoised for at most 64 widths: a longer tuple's
    value costs about its record's size to build, and a log of such
    records would pin every one of them."""
    memo = functools.lru_cache(maxsize=256)(build)

    def call(widths: tuple[int, ...]):
        return memo(widths) if len(widths) <= 64 else build(widths)

    return call


class _BitLayout(NamedTuple):
    """Where a row keeps its columns, given their ``bits``: the columns
    cut into consecutive *words* of at most 64 bits, each read and
    written as one ``uint64`` holding its columns from its low bit up."""

    row: int  # bits a row spends: sum(bits)
    widths: tuple[int, ...]  # per word: the bits it uses
    columns: list[slice]  # per word: its columns
    word: list[int]  # per column: its word
    #: per column, ``(C, 1)``: its first bit in its word, ``2**bits - 1``
    down: np.ndarray
    masks: np.ndarray
    #: per word, for rows 8g + r (r < 8): its byte, and its bit in that
    #: byte, counted from the first byte of the group (which is byte
    #: g * row: eight rows take ``row`` bytes)
    phase_bytes: np.ndarray
    phase_bits: np.ndarray


@_cached
def _bit_layout(bits: tuple[int, ...]) -> _BitLayout:
    row, firsts, shifts, used = sum(bits), [], [], 64
    for column, width in enumerate(bits):
        if used + width > 64:
            firsts.append(column)
            used = 0
        shifts.append(used)
        used += width
    columns = [slice(*pair) for pair in itertools.pairwise([*firsts, len(bits)])]
    widths = tuple(sum(bits[word]) for word in columns)
    phases = np.arange(8) * row + np.array(_starts(widths))[:, None]
    return _BitLayout(
        row,
        widths,
        columns,
        [w for w, word in enumerate(columns) for _ in bits[word]],
        np.array(shifts, dtype=_U64)[:, None],
        np.array([(1 << width) - 1 for width in bits], dtype=_U64)[:, None],
        phases >> 3,
        (phases & 7).astype(_U64),
    )


def _starts(widths: tuple[int, ...]) -> list[int]:
    """Each word's first bit in the row."""
    return [0, *itertools.accumulate(widths[:-1])]


class _StreamWords(NamedTuple):
    """The stream as ``uint64`` words, given a row's word ``widths``:
    ``period`` rows fill whole words, and word k of a period is, over t,
    the or of that period's row words ``pick[t, k]`` (row-major) shifted
    up by ``lift[t, k]`` and down by ``drop[t, k]`` (a shift of 64
    contributes nothing)."""

    period: int
    pick: np.ndarray
    lift: np.ndarray
    drop: np.ndarray


@_cached
def _stream_words(widths: tuple[int, ...]) -> _StreamWords:
    row = sum(widths)
    period = 64 // math.gcd(row, 64)
    # (item, shift) of every row word that meets word k of a period
    meets = [[] for _ in range(period * row // 64)]
    for item, (r, start) in enumerate(itertools.product(range(period), _starts(widths))):
        first = r * row + start
        for k in range(first // 64, (first + widths[item % len(widths)] - 1) // 64 + 1):
            meets[k].append((item, first - 64 * k))
    depth = max(map(len, meets))
    pick = np.zeros((depth, len(meets)), dtype=np.intp)
    lift = np.full((depth, len(meets)), 64, dtype=np.uint8)
    drop = np.zeros((depth, len(meets)), dtype=np.uint8)
    for k, items in enumerate(meets):
        for t, (item, shift) in enumerate(items):
            pick[t, k], lift[t, k], drop[t, k] = item, max(shift, 0), max(-shift, 0)
    return _StreamWords(period, pick, lift, drop)


def _stream(columns: np.ndarray, bases: list[int], bits: list[int]) -> bytes:
    """The rows of ``(C, n)`` columns over their minima ``bases``."""
    layout = _bit_layout(tuple(bits))
    period, pick, lift, drop = _stream_words(layout.widths)
    n, groups = columns.shape[1], -(-columns.shape[1] // period)
    # (int64 arithmetic wraps: read unsigned, each offset is exact, and
    # offsets shifted apart never carry into each other)
    columns -= np.array(bases, dtype=np.int64)[:, None]
    offsets = columns.view(_U64)
    offsets <<= layout.down
    codes = np.zeros((groups * period, len(layout.widths)), dtype=_U64)
    for w, word in enumerate(layout.columns):
        np.bitwise_or.reduce(offsets[word], axis=0, out=codes[:n, w])
    # (rows past n stay 0: the stream's padding)
    parts = codes.reshape(groups, -1)[:, pick]
    parts <<= lift
    parts >>= drop
    return np.bitwise_or.reduce(parts, axis=1).tobytes()[: (n * layout.row + 7) // 8]
