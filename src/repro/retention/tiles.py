"""Delta-encoded, checksummed, immutable on-disk historic tiles.

When :meth:`~repro.retention.planner.TieredCube.demote_before` moves
aged PS slices out of the live store, their full-fidelity detail lands
here: a *tile* is one immutable file holding a run of consecutive
converged PS slices together with their occurring times.  Compact
immutable representations of aged event data follow Brisaboa et al.
(arXiv:1803.02576): exploit that the payload never changes again and
trade decode work for storage.

Encoding pipeline (all vectorized; pure NumPy + :mod:`zlib`):

1. **delta-of-PS** -- consecutive converged PS slices differ only by the
   updates of one instance, so the stack is stored as its first slice
   plus temporal differences (:func:`numpy.diff` along the time axis),
   which concentrates the value distribution near zero;
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

Every tile carries two CRC32 checksums (header and payload).  Decoding
*refuses* rather than guesses: a torn tail, a corrupt checksum, a bad
magic/version, or trailing garbage all raise
:class:`~repro.core.errors.StorageError`.

:class:`TileStore` owns a directory of tiles, writes them atomically
(tmp + fsync + rename, like the checkpoint archive writer) and serves
reads off a read-only :mod:`mmap` of the file (like
:mod:`repro.storage.mmap_npz`), decoding lazily and caching the
:data:`CACHE_TILES` most recently used stacks.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.errors import DomainError, StorageError

MAGIC = b"RPTL"
VERSION = 1
CODEC_ZLIB = 1
#: fixed compression level: tile bytes must be a pure function of the
#: demoted slices so WAL replay can atomically overwrite torn tiles
_ZLIB_LEVEL = 6
#: decoded tile stacks a :class:`TileStore` keeps resident
CACHE_TILES = 2

#: magic, version, codec, width, ndim, k
_FIXED = struct.Struct("<4sBBBBI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_WIDTH_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

_TILE_NAME = re.compile(r"^tile-(-?\d+)-(-?\d+)\.tile$")


# -- integer transforms --------------------------------------------------------


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map int64 onto uint64 so small magnitudes become small numbers."""
    v = np.asarray(values, dtype=np.int64)
    return ((v.astype(np.uint64) << np.uint64(1)) ^ (v >> np.int64(63)).astype(
        np.uint64
    ))


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(
        (v & np.uint64(1)).astype(np.int64)
    )


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
    return np.frombuffer(raw, dtype=dtype).astype(np.uint64)


# -- tile codec ----------------------------------------------------------------


def encode_tile(stack: np.ndarray, times: np.ndarray) -> bytes:
    """Serialize a ``(k, *shape)`` stack of PS slices and their times.

    ``times`` must be strictly increasing (occurring-time order); the
    result is byte-deterministic for a given input.
    """
    stack = np.ascontiguousarray(stack, dtype=np.int64)
    times = np.ascontiguousarray(times, dtype=np.int64)
    if stack.ndim < 2:
        raise DomainError(f"tile stack must be (k, *shape); got {stack.shape}")
    if times.shape != (stack.shape[0],):
        raise DomainError("need exactly one occurring time per slice")
    if stack.shape[0] == 0:
        raise DomainError("refusing to encode an empty tile")
    if times.size > 1 and not bool(np.all(np.diff(times) > 0)):
        raise DomainError("tile times must be strictly increasing")
    deltas = np.concatenate(
        (stack[:1], np.diff(stack, axis=0)), axis=0
    ).reshape(-1)
    width, packed = _pack_width(zigzag_encode(deltas))
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


def decode_tile(data) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_tile`; returns ``(stack, times)``.

    Raises :class:`~repro.core.errors.StorageError` on any torn tail,
    checksum mismatch, malformed header, or trailing garbage -- a tile
    either decodes exactly or not at all.
    """
    data = bytes(data)
    if len(data) < _FIXED.size:
        raise StorageError("torn tile: truncated header")
    magic, version, codec_id, width, ndim, k = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError("not a tile file (bad magic)")
    if version != VERSION:
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
    deltas = zigzag_decode(_unpack_width(width, packed, count)).reshape(
        (k, *shape)
    )
    return np.cumsum(deltas, axis=0, dtype=np.int64), times


# -- the tile directory --------------------------------------------------------


def tile_name(first_time: int, last_time: int) -> str:
    """Deterministic file name for the tile covering ``[first, last]``."""
    return f"tile-{int(first_time)}-{int(last_time)}.tile"


class TileStore:
    """A directory of immutable tiles, indexed by occurring time.

    Tiles never overlap: demotion writes strictly newer runs of slices.
    Reads map the file read-only and decode lazily; the
    :data:`CACHE_TILES` most recently decoded stacks stay resident.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: (first_time, last_time, name), ascending and disjoint
        self._index: list[tuple[int, int, str]] = []
        self._cache: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
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
        """Evict decoded tile stacks; subsequent reads decode cold."""
        self._cache.clear()

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

    def _load(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        cached = self._cache.get(name)
        if cached is not None:
            self._cache.move_to_end(name)
            return cached
        path = self.directory / name
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise StorageError(f"unreadable tile {path}: {exc}") from exc
        try:
            stack, times = decode_tile(mapped)
        finally:
            mapped.close()
        self._cache[name] = (stack, times)
        while len(self._cache) > CACHE_TILES:
            self._cache.popitem(last=False)
        return stack, times

    def covers(self, time: int) -> bool:
        """Whether some tile's span contains ``time``."""
        return self._find(int(time)) is not None

    def _find(self, time: int) -> str | None:
        for first, last, name in self._index:
            if first <= time <= last:
                return name
        return None

    def slice_at(self, time: int) -> np.ndarray | None:
        """The PS slice at occurring time ``time``, or ``None``.

        Exact-match lookup: the planner resolves a query prefix to a
        *floor* occurring time first, so a hit here is always the
        cumulative instance the undemoted kernel would have used.
        """
        name = self._find(int(time))
        if name is None:
            return None
        stack, times = self._load(name)
        pos = int(np.searchsorted(times, int(time)))
        if pos >= times.shape[0] or int(times[pos]) != int(time):
            return None
        return stack[pos]

    def verify(self) -> int:
        """Decode every tile (checksum walk); returns the tile count."""
        for _, _, name in self._index:
            self._load(name)
        return len(self._index)
