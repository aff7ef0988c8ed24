"""Delta-encoded, checksummed, immutable on-disk historic tiles.

When :meth:`~repro.retention.planner.TieredCube.demote_before` moves
aged PS slices out of the live store, their full-fidelity detail lands
here: a *tile* is one immutable file holding a run of consecutive
converged PS slices together with their occurring times.  Compact
immutable representations of aged event data follow Brisaboa et al.
(arXiv:1803.02576): exploit that the payload never changes again and
trade decode work for storage.

Encoding pipeline (all vectorized; pure NumPy + :mod:`zlib`):

1. **difference along every axis** -- consecutive converged PS slices
   differ only by the updates of one instance (§2), and differencing a
   PS slice along each cell axis inverts its prefix sum, so the stack
   is differenced in place along time and then along every cell axis
   (the first hyperplane of each axis stays as it is).  What is stored
   is the first slice's raw cell values plus each later instance's raw
   updates: mostly zeros.  This is format version 2, the header's
   version byte; version 1 tiles (differenced along time only) still
   decode, and no build writes them any more;
2. **zigzag** -- signed deltas map to small unsigned integers
   (``(v << 1) ^ (v >> 63)``), so magnitude, not sign, decides width;
3. **width packing** -- the whole zigzag array is stored at the smallest
   of 1/2/4/8 bytes per value that fits its maximum (a vectorized
   stand-in for per-value varints, which would need a compiled loop);
4. **compression** -- :func:`zlib.compress` at a *fixed* level, so a
   replayed demotion rewrites byte-identical tiles (determinism is what
   lets crash recovery atomically overwrite a half-applied demote).
   zlib is the one codec (header codec id 1); a tile naming any other
   id is refused before its payload is touched.

The differences wrap modulo 2**64 like every int64 operation here, and
so do the sums that undo them: the round trip is exact over the whole
int64 range.

Every tile carries two CRC32 checksums (header and payload).
:func:`inflate_tile` *refuses* rather than guesses: a torn tail, a
corrupt checksum, a bad magic/version, or trailing garbage all raise
:class:`~repro.core.errors.StorageError`.  :func:`decode_tile` undoes
the whole stack at once; it is the reference the store's per-slice
reads are tested against.

:class:`TileStore` owns a directory of tiles, writes them atomically
(tmp + fsync + rename, like the checkpoint archive writer) and reads a
tile's file whole on first use, verifying and inflating it once.  A
prefix needs one slice of a tile, so the store decodes only that slice:
the time deltas of the planes up to it are summed, then a ``cumsum``
along each cell axis integrates the sum (§2: the slice is the prefix sum
of the updates up to its instance).  A decoded slice stays memoised
beside its packed tile; the :data:`CACHE_TILES` most recently used tiles
stay resident, each in at most the bytes of its whole decoded int64
stack.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.errors import DomainError, StorageError

MAGIC = b"RPTL"
#: the tile format this build writes: 2 differences along every axis,
#: 1 (still read) along time only
VERSION = 2
_READABLE_VERSIONS = (1, 2)
CODEC_ZLIB = 1
#: fixed compression level: tile bytes must be a pure function of the
#: demoted slices so WAL replay can atomically overwrite torn tiles
_ZLIB_LEVEL = 6
#: tiles a :class:`TileStore` keeps resident, each in at most the bytes of
#: its decoded int64 stack
CACHE_TILES = 2

#: magic, version, codec, width, ndim, k
_FIXED = struct.Struct("<4sBBBBI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_WIDTH_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

_TILE_NAME = re.compile(r"^tile-(-?\d+)-(-?\d+)\.tile$")


# -- integer transforms --------------------------------------------------------


# Both zigzag maps allocate their result and one boolean mask, nothing
# else the size of the stack: a demotion runs, and a cold tile decodes,
# inside a shard worker, whose allocator keeps the heap it has grown into.


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map int64 onto uint64 so small magnitudes become small numbers:
    ``(v << 1) ^ (v >> 63)``, i.e. ``2v`` for ``v >= 0`` and ``~(2v)``
    below zero."""
    v = np.asarray(values, dtype=np.int64)
    out = v.astype(np.uint64)
    np.left_shift(out, np.uint64(1), out=out)
    np.invert(out, out=out, where=v < 0)
    return out


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode` for any unsigned integer array
    (a packed width is widened on the fly): ``v >> 1``, inverted where
    ``v`` is odd."""
    v = np.asarray(values)
    if v.dtype.kind != "u":
        v = v.astype(np.uint64)
    out = np.right_shift(v, v.dtype.type(1), dtype=np.uint64)
    np.invert(out, out=out, where=(v & v.dtype.type(1)).astype(bool))
    return out.view(np.int64)


def _pack_width(zz: np.ndarray) -> tuple[int, bytes]:
    """Store a zigzag array at the smallest fitting byte width."""
    top = int(zz.max()) if zz.size else 0
    for width in (1, 2, 4):
        if top < 1 << (8 * width):
            return width, zz.astype(_WIDTH_DTYPES[width]).tobytes()
    return 8, zz.astype(_WIDTH_DTYPES[8]).tobytes()


def _unpack_width(width: int, raw: bytes, count: int) -> np.ndarray:
    dtype = _WIDTH_DTYPES.get(width)
    if dtype is None:
        raise StorageError(f"corrupt tile: invalid value width {width}")
    if len(raw) != count * width:
        raise StorageError(
            f"corrupt tile: packed length {len(raw)} != {count}x{width}"
        )
    return np.frombuffer(raw, dtype=dtype)


def _difference(work: np.ndarray, axis: int) -> None:
    """First differences of ``work`` along ``axis``, in place; the inverse
    of ``np.cumsum(work, axis=axis)``.  Plane by plane from the far end,
    so no temporary the size of ``work`` is made."""
    planes = np.moveaxis(work, axis, 0)
    for i in range(planes.shape[0] - 1, 0, -1):
        planes[i] -= planes[i - 1]


# -- tile codec ----------------------------------------------------------------


def encode_tile(stack: np.ndarray, times: np.ndarray) -> bytes:
    """Serialize a ``(k, *shape)`` stack of PS slices and their times.

    ``times`` must be strictly increasing (occurring-time order); the
    result is byte-deterministic for a given input.  The tile is format
    :data:`VERSION`.
    """
    stack = np.array(stack, dtype=np.int64, order="C")  # differenced in place
    times = np.ascontiguousarray(times, dtype=np.int64)
    if stack.ndim < 2:
        raise DomainError(f"tile stack must be (k, *shape); got {stack.shape}")
    if times.shape != (stack.shape[0],):
        raise DomainError("need exactly one occurring time per slice")
    if stack.shape[0] == 0:
        raise DomainError("refusing to encode an empty tile")
    if times.size > 1 and not bool(np.all(np.diff(times) > 0)):
        raise DomainError("tile times must be strictly increasing")
    for axis in range(stack.ndim):
        _difference(stack, axis)
    width, packed = _pack_width(zigzag_encode(stack.reshape(-1)))
    payload = zlib.compress(packed, _ZLIB_LEVEL)
    ndim = stack.ndim - 1
    header = bytearray()
    header += _FIXED.pack(MAGIC, VERSION, CODEC_ZLIB, width, ndim, stack.shape[0])
    for n in stack.shape[1:]:
        header += _U32.pack(int(n))
    header += _U64.pack(len(packed))
    header += _U64.pack(len(payload))
    header += times.astype("<i8").tobytes()
    header += _U32.pack(zlib.crc32(bytes(header)))
    return bytes(header) + payload + _U32.pack(zlib.crc32(payload))


class InflatedTile(NamedTuple):
    """A verified tile, inflated but not decoded (:func:`inflate_tile`)."""

    #: format version: 2 differenced along every axis, 1 along time only
    version: int
    #: strictly increasing occurring times, one per plane
    times: np.ndarray
    #: ``(k, *shape)`` zigzag planes at their packed width (read-only)
    planes: np.ndarray


def inflate_tile(data) -> InflatedTile:
    """Verify a tile and inflate its payload, decoding no value.

    Raises :class:`~repro.core.errors.StorageError` on any torn tail,
    checksum mismatch, malformed header, or trailing garbage -- a tile
    either inflates whole or not at all.
    """
    data = bytes(data)
    if len(data) < _FIXED.size:
        raise StorageError("torn tile: truncated header")
    magic, version, codec_id, width, ndim, k = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError("not a tile file (bad magic)")
    if version not in _READABLE_VERSIONS:
        raise StorageError(f"unsupported tile version {version}")
    header_len = _FIXED.size + 4 * ndim + 16 + 8 * k + 4
    if len(data) < header_len:
        raise StorageError("torn tile: truncated header")
    offset = _FIXED.size
    shape = []
    for _ in range(ndim):
        shape.append(_U32.unpack_from(data, offset)[0])
        offset += 4
    raw_len = _U64.unpack_from(data, offset)[0]
    payload_len = _U64.unpack_from(data, offset + 8)[0]
    offset += 16
    times = np.frombuffer(data, dtype="<i8", count=k, offset=offset).astype(
        np.int64
    )
    offset += 8 * k
    (header_crc,) = _U32.unpack_from(data, offset)
    if zlib.crc32(data[:offset]) != header_crc:
        raise StorageError("corrupt tile: header checksum mismatch")
    if codec_id != CODEC_ZLIB:
        raise StorageError(f"unsupported tile codec id {codec_id}")
    offset += 4
    total = offset + payload_len + 4
    if len(data) < total:
        raise StorageError("torn tile: truncated payload")
    if len(data) > total:
        raise StorageError("corrupt tile: trailing bytes after payload")
    payload = data[offset : offset + payload_len]
    (payload_crc,) = _U32.unpack_from(data, offset + payload_len)
    if zlib.crc32(payload) != payload_crc:
        raise StorageError("corrupt tile: payload checksum mismatch")
    try:
        packed = zlib.decompress(payload)
    except zlib.error as exc:
        raise StorageError(f"corrupt tile payload: {exc}") from exc
    if len(packed) != raw_len:
        raise StorageError(
            f"corrupt tile: decompressed {len(packed)} bytes, expected {raw_len}"
        )
    count = int(k)
    for n in shape:
        count *= int(n)
    planes = _unpack_width(width, packed, count).reshape((k, *shape))
    return InflatedTile(int(version), times, planes)


def decode_tile(data) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_tile`; returns ``(stack, times)``.

    Raises :class:`~repro.core.errors.StorageError` where
    :func:`inflate_tile` does -- a tile either decodes exactly or not at
    all.
    """
    version, times, planes = inflate_tile(data)
    stack = zigzag_decode(planes)
    # undo the differencing: the cell axes, then time (version 1
    # differenced along time only)
    for axis in (*range(1, stack.ndim), 0) if version >= 2 else (0,):
        np.cumsum(stack, axis=axis, out=stack)
    return stack, times


# -- the tile directory --------------------------------------------------------


def tile_name(first_time: int, last_time: int) -> str:
    """Deterministic file name for the tile covering ``[first, last]``."""
    return f"tile-{int(first_time)}-{int(last_time)}.tile"


class TileStore:
    """A directory of immutable tiles, indexed by occurring time.

    Tiles never overlap: demotion writes strictly newer runs of slices.
    A tile is read, verified and inflated on first use, and a slice is
    decoded when a read first asks for it (module docstring).  The
    :data:`CACHE_TILES` most recently used tiles stay resident with the
    slices decoded from them, each tile in at most the bytes of its
    decoded int64 stack.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: (first_time, last_time, name), ascending and disjoint
        self._index: list[tuple[int, int, str]] = []
        #: name -> (inflated tile, position -> its decoded slice), LRU order
        self._cache: OrderedDict[str, tuple[InflatedTile, dict]] = OrderedDict()
        self.rescan()

    # -- directory scan -------------------------------------------------------

    def rescan(self) -> None:
        """Rebuild the index from the file names on disk.

        Only complete tiles are visible: the atomic-rename write protocol
        means a crash can leave ``*.tmp`` litter but never a half-named
        tile, so everything matching the name pattern is a published
        tile (its checksums are still verified on first decode).
        """
        index = []
        for entry in self.directory.iterdir():
            match = _TILE_NAME.match(entry.name)
            if match:
                index.append((int(match.group(1)), int(match.group(2)), entry.name))
        index.sort()
        self._index = index

    def drop_cache(self) -> None:
        """Evict every resident tile; subsequent reads inflate cold."""
        self._cache.clear()

    def resident_bytes(self) -> int:
        """Bytes the resident tiles hold: packed planes plus decoded slices."""
        return sum(
            tile.planes.nbytes + sum(ps.nbytes for ps in slices.values())
            for tile, slices in self._cache.values()
        )

    def tile_names(self) -> list[str]:
        return [name for _, _, name in self._index]

    def __len__(self) -> int:
        return len(self._index)

    def disk_bytes(self) -> int:
        """Total on-disk size of all tiles (compressed)."""
        return sum(
            (self.directory / name).stat().st_size
            for _, _, name in self._index
        )

    def versions(self) -> dict[str, int]:
        """Tile count per format version, read from each tile's fixed
        header without decoding it (``"unreadable"`` counts a file too
        short or with the wrong magic to say)."""
        counts: dict[str, int] = {}
        for _, _, name in self._index:
            with open(self.directory / name, "rb") as handle:
                head = handle.read(_FIXED.size)
            if len(head) == _FIXED.size and head[:4] == MAGIC:
                version = str(head[4])
            else:
                version = "unreadable"
            counts[version] = counts.get(version, 0) + 1
        return dict(sorted(counts.items()))

    def spans(self) -> np.ndarray:
        """``(m, 2)`` array of (first_time, last_time) per tile."""
        if not self._index:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(
            [(first, last) for first, last, _ in self._index], dtype=np.int64
        )

    # -- writing --------------------------------------------------------------

    def write_tile(self, stack: np.ndarray, times: np.ndarray) -> str:
        """Atomically publish one tile; returns its file name.

        Writing the same slice run again (a replayed demotion) rewrites
        the byte-identical file, so an interrupted first write is simply
        overwritten.
        """
        times = np.asarray(times, dtype=np.int64)
        data = encode_tile(stack, times)
        name = tile_name(int(times[0]), int(times[-1]))
        target = self.directory / name
        tmp = self.directory / (name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        self._fsync_directory()
        self._cache.pop(name, None)
        self._index = [e for e in self._index if e[2] != name]
        self._index.append((int(times[0]), int(times[-1]), name))
        self._index.sort()
        return name

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- reading --------------------------------------------------------------

    def _load(self, name: str) -> tuple[InflatedTile, dict]:
        cached = self._cache.get(name)
        if cached is not None:
            self._cache.move_to_end(name)
            return cached
        path = self.directory / name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise StorageError(f"unreadable tile {path}: {exc}") from exc
        entry = self._cache[name] = (inflate_tile(data), {})
        while len(self._cache) > CACHE_TILES:
            self._cache.popitem(last=False)
        return entry

    def covers(self, time: int) -> bool:
        """Whether some tile's span contains ``time``."""
        return self._find(int(time)) is not None

    def _find(self, time: int) -> str | None:
        for first, last, name in self._index:
            if first <= time <= last:
                return name
        return None

    def slice_at(self, time: int) -> np.ndarray | None:
        """The PS slice at occurring time ``time`` (read-only), or ``None``.

        Exact-match lookup: the planner resolves a query prefix to a
        *floor* occurring time first, so a hit here is always the
        cumulative instance the undemoted kernel would have used.
        """
        name = self._find(int(time))
        if name is None:
            return None
        tile, slices = self._load(name)
        pos = int(np.searchsorted(tile.times, int(time)))
        if pos >= tile.times.shape[0] or int(tile.times[pos]) != int(time):
            return None
        ps = slices.get(pos)
        if ps is None:
            ps = _decode_slice(tile, slices, pos)
        return ps

    def verify(self) -> int:
        """Inflate every tile (checksum walk); returns the tile count."""
        for _, _, name in self._index:
            self._load(name)
        return len(self._index)


def _decode_slice(tile: InflatedTile, slices: dict, pos: int) -> np.ndarray:
    """Decode the slice at ``pos`` of an inflated tile and memoise it in
    ``slices`` (read-only).

    The slice is the newest memoised one below it plus the time deltas of
    the planes after that one, integrated by a ``cumsum`` along each cell
    axis (version 2; version 1 differenced along time only): prefix sums are
    linear, so summing first and integrating once is the same integers
    as :func:`decode_tile`'s whole-stack ``cumsum`` s, modulo 2**64 as
    they are.  One plane is widened at a time.  Older memoised slices
    make room when the tile would pass the bytes of its decoded stack;
    one that cannot fit is not kept.
    """
    base = max((p for p in slices if p < pos), default=-1)
    ps = np.zeros(tile.planes.shape[1:], dtype=np.int64)
    for plane in tile.planes[base + 1 : pos + 1]:
        ps += zigzag_decode(plane)
    if tile.version >= 2:
        for axis in range(ps.ndim):
            np.cumsum(ps, axis=axis, out=ps)
    if base >= 0:
        ps += slices[base]
    ps.flags.writeable = False
    room = tile.planes.size * 8 - tile.planes.nbytes - ps.nbytes
    used = sum(memo.nbytes for memo in slices.values())
    while slices and used > room:
        used -= slices.pop(next(iter(slices))).nbytes
    if used <= room:
        slices[pos] = ps
    return ps
