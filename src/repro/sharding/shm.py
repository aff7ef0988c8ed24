"""Shared-memory publication of frozen epochs.

A shard worker owns its cube and publishes every :class:`Epoch` into
named shared-memory blocks; the router's process attaches the blocks and
answers queries zero-copy.  The epoch design makes this safe without
cross-process synchronization: a published block is immutable, so the
only coordination is the epoch-id handoff that rides the control pipe.

What is published
-----------------

A historic instance's *content* is final the moment a newer time occurs
(Section 2), and every :class:`~repro.concurrent.snapshot.SnapshotCube`
publishes it once, as a finished prefix-sum *row*: swept when it becomes
historic, read-only, and adopted by the store as the slice itself: a
plain row, or an offset row -- a narrow offset from the newest anchor
row below it, its values ``anchor + offset`` in int64 -- where that
offset is narrower than the values (``DenseStore.make_row``); every
array at the narrowest signed width that holds it
(:func:`~repro.ecube.stores.row_dtype`).  An attached
:class:`EpochExporter` only decides where rows live: it is the store's
row allocator (``DenseStore.new_row``), so

* one *row block* holds each plain row and each offset array, and the
  cube's slice is a read-only view of it -- the rows the cube published
  before the exporter was attached are moved into blocks then.  The
  block's meta carries the dtype; every reader widens to int64 where it
  gathers (the batch evaluator's corner buffer is int64), never
  computing on a narrow array.  :meth:`EpochExporter._row` is the one
  place a row block is created.
* an exported slice entry names its row's own block (the plain row, or
  the offset), and the descriptor's ``anchors`` name the anchor block of
  each offset row; an anchor block stays while a row over it is cited,
  also when the anchor's own instance was retired.  A row is replaced
  only when its content moves: a correction or splice reaching instance
  ``i`` re-publishes the rows at and above ``i`` (an offset row whose
  offset did not move keeps its block); retirement only drops rows.
* one *frontier block* per epoch holds the occurring-time directory, the
  frozen cache values (the latest instance's DDC array) and the ``G_d``
  columns.

Unlink discipline
-----------------

Blocks are plain POSIX segments, opened with ``_posixshmem.shm_open``
and mapped with :mod:`mmap` (:class:`_Segment`, the one mapping path: a
host without POSIX shared memory cannot import this module); no
:mod:`multiprocessing.resource_tracker` process ever hears of them.
The owning worker reference-counts every block by the epochs that cite
it (plus one self-reference for a row block the cube still holds) and
unlinks on the drop to zero; :meth:`EpochExporter.close` unlinks
everything unconditionally.  It keeps a block mapped while it owns it or
an array aliases it (an adopted slice, a pinned epoch's row): one
mapping -- before Python 3.13 one descriptor -- per resident row, as in
the attaching process.  It is the writable mapping the block was filled
through: the owner's rows are immutable by numpy's ``writeable`` flag,
set by the store alone (``adopt_row``), not by page protection.
Attaching processes never unlink -- they map read-only and unmap.  What
a killed owner leaves behind is found by name: every block carries its
owner's pid, :func:`unlink_orphaned` removes the blocks of
dead owners and :meth:`ShardedCube.close` sweeps its workers' prefixes.
"""

from __future__ import annotations

import mmap
import os
import re

import _posixshmem

import numpy as np

from repro.concurrent.snapshot import Epoch
from repro.core.errors import StorageError
from repro.ecube.stores import OffsetRow, heap_row

#: Every block name starts with this; tests sweep ``/dev/shm`` for it.
SHM_PREFIX = "repro-ecube"

#: The naming rule: ``repro-ecube-<tag>-<owner pid>-<sequence>``, the tag
#: ending in a field that is not a number.  The owner's pid is what lets
#: a starting server tell a crashed owner's orphans from the blocks of a
#: live one; the tag field keeps names of the earlier layout
#: (``<pid>-<hex>-<sequence>``, the hex possibly all digits) outside the
#: rule instead of reading their hex as a pid.
_BLOCK_NAME = re.compile(rf"^{SHM_PREFIX}-(?:.*-)?(?!\d*-)[^-]+-(\d+)-\d+$")

class _Segment:
    """One named shared-memory mapping no resource tracker knows about.

    With a ``size`` the segment is created (exclusively) and mapped
    writable; without, an existing one is mapped read-only.  Our
    descriptor is closed as soon as the mapping exists (before Python
    3.13 ``mmap`` keeps a duplicate of its own while the mapping lives).
    """

    def __init__(self, name: str, size: int = 0) -> None:
        self.name = name
        flags = os.O_CREAT | os.O_EXCL | os.O_RDWR if size else os.O_RDONLY
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if size:
                os.ftruncate(fd, size)
            access = mmap.ACCESS_WRITE if size else mmap.ACCESS_READ
            self.buf = mmap.mmap(fd, 0, access=access)
        except OSError:
            if size:
                _unlink(name)
            raise
        finally:
            os.close(fd)

    def close(self) -> None:
        """Unmap; ``BufferError`` while a view still aliases the mapping."""
        self.buf.close()

    def unlink(self) -> None:
        _unlink(self.name)


def _unlink(name: str) -> bool:
    """Remove one segment by name; was it there?"""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


def unlink_by_prefix(prefix: str) -> int:
    """Unlink every segment whose name starts with ``prefix``.

    Cleanup of blocks orphaned by a crashed worker (the owner died
    before its refcounts dropped); returns the number removed.
    """
    return sum(_unlink(name) for name in leaked_segments(prefix))


def leaked_segments(prefix: str = SHM_PREFIX) -> list[str]:
    """Names under ``/dev/shm`` carrying our prefix (leak detection)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux fallback
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def _owner_pid(name: str) -> int | None:
    """The pid in a block name, or ``None`` for a name outside the rule."""
    match = _BLOCK_NAME.match(name)
    return int(match.group(1)) if match else None


def _owner_alive(name: str) -> bool:
    """Is the process that created block ``name`` still running?

    A name outside the naming rule was not created by a
    :class:`BlockOwner`; nothing proves its owner dead, so it counts as
    alive.
    """
    pid = _owner_pid(name)
    if pid is None:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's process
        return True
    return True


def unlink_orphaned() -> list[str]:
    """Unlink every block whose owning process is dead; returns the names.

    Blocks of a live owner -- another server on this host, an
    in-process :class:`~repro.sharding.ShardedCube` -- are spared.
    """
    orphans = [name for name in leaked_segments() if not _owner_alive(name)]
    for name in orphans:
        _unlink(name)
    return orphans


# -- array packing -------------------------------------------------------------


def _pack_layout(arrays: dict[str, np.ndarray]) -> tuple[int, list[tuple]]:
    """(total bytes, [(key, dtype str, shape, offset), ...]) with alignment."""
    offset = 0
    metas: list[tuple] = []
    for key, array in arrays.items():
        offset = (offset + 63) & ~63  # 64-byte align each array
        metas.append((key, array.dtype.str, array.shape, offset))
        offset += array.nbytes
    return max(offset, 1), metas


def _views(buffer, metas) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in metas:
        count = int(np.prod(shape, dtype=np.int64))
        array = np.frombuffer(
            buffer, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)
        out[key] = array
    return out


# -- owner side ----------------------------------------------------------------


class BlockOwner:
    """Creates, reference-counts and unlinks this process's blocks."""

    def __init__(self, tag: str = "") -> None:
        self._tag = tag or "b" + os.urandom(3).hex()
        self._sequence = 0
        self._blocks: dict[str, _Segment] = {}
        self._refs: dict[str, int] = {}

    def create(self, arrays: dict[str, np.ndarray]) -> tuple[str, list[tuple], dict]:
        """New block holding copies of ``arrays``: ``(name, metas, views)``, with
        one reference.  It stays mapped while it is owned here or an array
        aliases it; one that cannot be filled is unlinked, not leaked."""
        size, metas = _pack_layout(arrays)
        self._sequence += 1
        name = f"{SHM_PREFIX}-{self._tag}-{os.getpid()}-{self._sequence}"
        try:
            segment = _Segment(name, size)
        except OSError as exc:  # pragma: no cover - exhausted /dev/shm
            raise StorageError(f"cannot create shared memory block: {exc}") from exc
        try:
            views = _views(segment.buf, metas)
            for key, array in arrays.items():
                np.copyto(views[key], array)
        except BaseException:
            segment.unlink()
            raise
        self._blocks[name] = segment
        self._refs[name] = 1
        return name, metas, views

    def incref(self, name: str) -> None:
        self._refs[name] += 1

    def decref(self, name: str) -> None:
        self._refs[name] -= 1
        if not self._refs[name]:
            del self._refs[name]
            self._blocks.pop(name).unlink()

    def close_all(self) -> None:
        """Unlink every surviving block (shutdown path)."""
        for name in list(self._blocks):
            self._refs[name] = 1
            self.decref(name)

    def __len__(self) -> int:
        return len(self._blocks)


# -- attach side ---------------------------------------------------------------


class BlockCache:
    """Per-process memo of attached blocks (the router's read path)."""

    def __init__(self) -> None:
        #: name -> (mapping, its read-only array views)
        self._blocks: dict[str, tuple[_Segment, dict[str, np.ndarray]]] = {}
        self._zombies: list[_Segment] = []

    def arrays(self, name: str, metas) -> dict[str, np.ndarray]:
        held = self._blocks.get(name)
        if held is None:
            try:
                segment = _Segment(name)
            except FileNotFoundError as exc:
                raise StorageError(
                    f"shared memory block {name!r} disappeared; its owning "
                    "shard worker likely died"
                ) from exc
            held = self._blocks[name] = (segment, _views(segment.buf, metas))
        return held[1]

    def _try_close(self, segment: _Segment) -> None:
        try:
            segment.close()
        except BufferError:
            # a numpy view still aliases the mapping; retry on next prune
            self._zombies.append(segment)

    def prune(self, live: set[str]) -> None:
        """Close mappings for blocks no longer referenced by any epoch."""
        zombies, self._zombies = self._zombies, []
        for segment in zombies:
            self._try_close(segment)
        for name in [n for n in self._blocks if n not in live]:
            self._try_close(self._blocks.pop(name)[0])

    def close_all(self) -> None:
        self.prune(set())
        self._zombies.clear()


# -- epoch export / import -----------------------------------------------------


class EpochExporter:
    """Publishes a :class:`SnapshotCube`'s epochs into shared memory.

    Attached, it is where the cube's rows live (the store's ``new_row``),
    and it moves the rows the cube already published into blocks.  Lives
    on the worker's writer thread and exports between operations.
    """

    def __init__(self, snapshot_cube, tag: str = "") -> None:
        self.snap = snapshot_cube
        self.owner = BlockOwner(tag)
        #: id(row) -> (name, metas, row) of every row block the cube may
        #: still cite: self-referenced until an export finds it uncited
        self._held: dict[int, tuple[str, list[tuple], np.ndarray]] = {}
        self._store = snapshot_cube.kernel.store
        self._store.new_row = self._row
        #: epoch id -> names of the blocks that epoch cites
        self._epoch_blocks: dict[int, list[str]] = {}
        self._last: dict | None = None
        snapshot_cube.move_rows()

    # -- publication -----------------------------------------------------------

    def export(self) -> dict:
        """Describe the current epoch as shared-memory blocks (picklable)."""
        epoch = self.snap._current
        if self._last is not None and self._last["sequence"] == epoch.sequence:
            return self._last
        historic = range(epoch.retired_below, max(epoch.num_slices - 1, 0))
        rows = [epoch.rows[index] for index in historic]
        # an offset row is its offset array plus its anchor's block
        own = [row.offset if isinstance(row, OffsetRow) else row for row in rows]
        anchored = [
            (index, row.anchor)
            for index, row in zip(historic, rows)
            if isinstance(row, OffsetRow)
        ]
        # rows that left the cube's history, and rows it re-published
        cited = {id(array) for array in own} | {id(anchor) for _, anchor in anchored}
        for key in [key for key in self._held if key not in cited]:
            self.owner.decref(self._held.pop(key)[0])
        slices = [
            (index, *self._held[id(array)][:2]) for index, array in zip(historic, own)
        ]
        anchors = {index: self._held[id(anchor)][:2] for index, anchor in anchored}
        names = [name for _, name, _ in slices] + [name for name, _ in anchors.values()]
        for name in names:
            self.owner.incref(name)
        frontier: dict[str, np.ndarray] = {"times": epoch.times}
        if epoch.cache_values is not None:
            frontier["cache_values"] = epoch.cache_values
        if epoch.gd_points is not None:
            frontier["gd_points"] = epoch.gd_points
            frontier["gd_deltas"] = epoch.gd_deltas
        frontier_block = self.owner.create(frontier)[:2]
        names.append(frontier_block[0])
        self._epoch_blocks[epoch.sequence] = names
        self._last = {
            "sequence": epoch.sequence,
            "kernel_version": epoch.kernel_version,
            "num_slices": epoch.num_slices,
            "retired_below": epoch.retired_below,
            "slice_shape": epoch.slice_shape,
            "frontier": frontier_block,
            "slices": slices,
            "anchors": anchors,
        }
        return self._last

    def _row(self, values: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The store's row allocator while attached: a new row block holding
        ``values`` as ``dtype`` (a plain row or an offset array, each at the
        width of what it holds).  The only creator of row blocks."""
        name, metas, views = self.owner.create({"ps": values.astype(dtype, copy=False)})
        row = views["ps"]
        self._held[id(row)] = (name, metas, row)
        return row

    # -- release ---------------------------------------------------------------

    def release_below(self, sequence: int) -> None:
        """Drop block references held by epochs older than ``sequence``."""
        for epoch_id in [e for e in self._epoch_blocks if e < sequence]:
            for name in self._epoch_blocks.pop(epoch_id):
                self.owner.decref(name)

    def close(self) -> None:
        """Unlink every block this exporter ever published; the cube's rows
        stay mapped, and its next rows are heap arrays."""
        self._store.new_row = heap_row
        self._epoch_blocks.clear()
        self._held.clear()
        self._last = None
        self.owner.close_all()


def epoch_from_shared_memory(descriptor: dict, cache: BlockCache) -> Epoch:
    """Rebuild an :class:`Epoch` from an exported descriptor.

    The arrays are read-only views straight into the shared blocks -- no
    copies, each at the dtype its meta names (a row may be narrower than
    int64; the evaluator widens as it gathers); every historic instance
    arrives as a finished prefix-sum row -- an offset row is rebuilt over
    its anchor block's array, one array per block, so the rows over one
    anchor share it as they do in the owner -- and preparing and querying
    the epoch never touches a kernel and normalizes nothing but the
    epoch-latest instance.
    """
    frontier = cache.arrays(*descriptor["frontier"])
    anchors = descriptor["anchors"]
    rows = {}
    for index, name, metas in descriptor["slices"]:
        row = cache.arrays(name, metas)["ps"]
        if index in anchors:  # one array per block: rows share their anchor
            row = OffsetRow(cache.arrays(*anchors[index])["ps"], row)
        rows[index] = row
    return Epoch(
        descriptor["kernel_version"],
        descriptor["sequence"],
        descriptor["num_slices"],
        frontier["times"],
        descriptor["retired_below"],
        tuple(descriptor["slice_shape"]),
        frontier.get("cache_values"),
        rows,
        frontier.get("gd_points"),
        frontier.get("gd_deltas"),
    )


def descriptor_blocks(descriptor: dict) -> set[str]:
    """All block names a descriptor cites (for :meth:`BlockCache.prune`)."""
    names = {descriptor["frontier"][0]}
    for _, name, _ in descriptor["slices"]:
        names.add(name)
    for name, _ in descriptor["anchors"].values():
        names.add(name)
    return names
