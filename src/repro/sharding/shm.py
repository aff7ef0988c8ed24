"""Shared-memory publication of frozen epochs.

A shard worker owns its cube and publishes every :class:`Epoch` into
named shared-memory blocks; the router's process attaches the blocks and
answers queries zero-copy.  The PR 5 epoch design makes this safe without
cross-process synchronization: a published block is immutable, so the
only coordination is the epoch-id handoff that rides the control pipe.

What is published
-----------------

A historic instance's *content* is final the moment a newer time occurs
(Section 2); lazy copies landing and DDC cells converting to PS only
move its *representation*.  So the exporter publishes content, once:

* one *row block* per historic instance, holding its complete prefix-sum
  array.  The row is written when the instance becomes historic (or, for
  a restored checkpoint, at the first export, which a recovering worker
  runs before it replays its log tail): live slice storage is read
  through the epoch's frozen cache and swept DDC -> PS by
  :func:`~repro.ecube.fastpath._prefix_sum_rows`, the sweep every reader
  of that epoch would run, so a reader gathers corners from the row in
  place and never normalizes history.  The (dense) store then
  *adopts* the row (:meth:`~repro.ecube.stores.DenseStore.adopt_row`):
  the slice becomes a read-only view of the block, its heap arrays go.
* a row is replaced only when its content moves: an out-of-order
  correction or splice reaching instance ``i`` (reported through
  :meth:`SnapshotCube.preserve_epochs`) replaces the rows at and above
  ``i``; retirement only drops rows.  An adopted row is replaced
  copy-on-write: the correction promotes the slice into a *successor
  row*, a fresh block it writes in place, and the next export *seals*
  it (read-only, cited as it stands: no freeze, sweep or second block)
  or, its slice gone, unlinks it.  Anything else (a spliced-in clone, an
  archive view) is swept into a new row.
* one *frontier block* per epoch, holding the occurring-time directory,
  the frozen cache values (the latest instance's DDC array) and the
  ``G_d`` columns.

Unlink discipline
-----------------

Blocks are plain POSIX segments, opened with ``_posixshmem.shm_open``
and mapped with :mod:`mmap` (:class:`_Segment`, the one mapping path: a
host without POSIX shared memory cannot import this module); no
:mod:`multiprocessing.resource_tracker` process ever hears of them.
The owning worker reference-counts every block by
the epochs that cite it (plus one self-reference for a row it still
publishes) and unlinks on the drop to zero; :meth:`EpochExporter.close`
unlinks everything unconditionally.  It keeps a block mapped while it
owns it or an array aliases it (an adopted slice, a preserved epoch's
overlay): one mapping -- before Python 3.13 one descriptor -- per
resident row, as in the attaching process.  It is the writable mapping
the block was filled through: the owner's rows are immutable by numpy's
``writeable`` flag, set by the store alone (``adopt_row``, ``seal``),
not by page protection.  Attaching processes never unlink -- they map
read-only and unmap.  What a killed owner leaves behind is found by
name: every block carries its owner's pid, :func:`unlink_orphaned`
removes the blocks of dead owners and :meth:`ShardedCube.close` sweeps
its workers' prefixes.
"""

from __future__ import annotations

import mmap
import os
import re
import secrets

import _posixshmem

import numpy as np

from repro.concurrent.snapshot import Epoch, prepare_epoch
from repro.core.errors import StorageError
from repro.core.types import Box
from repro.ecube.fastpath import MIXED, PS, _prefix_sum_rows

#: Every block name starts with this; tests sweep ``/dev/shm`` for it.
SHM_PREFIX = "repro-ecube"

#: The naming rule: ``repro-ecube-<tag>-<owner pid>-<sequence>``, the tag
#: ending in a field that is not a number.  The owner's pid is what lets
#: a starting server tell a crashed owner's orphans from the blocks of a
#: live one; the tag field keeps names of the earlier layout
#: (``<pid>-<hex>-<sequence>``, the hex possibly all digits) outside the
#: rule instead of reading their hex as a pid.
_BLOCK_NAME = re.compile(rf"^{SHM_PREFIX}-(?:.*-)?(?!\d*-)[^-]+-(\d+)-\d+$")

#: Historic instances normalized per sweep when many are exported at once
#: (a recovered cube's first epoch): bounds the transient stack.
_ROWS_PER_SWEEP = 64


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
        self._tag = tag or "b" + secrets.token_hex(3)
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

    Lives on the worker's writer thread and exports between operations.
    It is also the ``normalised`` sink of the batch evaluator's
    normalization sweep: a finished prefix-sum row lands in its block.
    """

    def __init__(self, snapshot_cube, tag: str = "") -> None:
        self.snap = snapshot_cube
        self.owner = BlockOwner(tag)
        #: instance index -> (name, metas) of its published prefix-sum row
        self._rows: dict[int, tuple[str, list[tuple]]] = {}
        #: id(row) -> (name, metas, row) of the successor rows promotion
        #: created since the last export: written in place, cited by nothing
        self._unsealed: dict[int, tuple[str, list[tuple], np.ndarray]] = {}
        self._store = snapshot_cube.kernel.store
        self._store.successor_row = self._successor
        #: epoch id -> names of the blocks that epoch cites
        self._epoch_blocks: dict[int, list[str]] = {}
        self._last: dict | None = None

    # -- publication -----------------------------------------------------------

    def export(self) -> dict:
        """Describe the current epoch as shared-memory blocks (picklable)."""
        snap = self.snap
        epoch = snap._current
        rewritten = snap.take_rewritten_from()
        if (
            rewritten is None
            and self._last is not None
            and self._last["sequence"] == epoch.sequence
        ):
            return self._last
        first, stop = epoch.retired_below, max(epoch.num_slices - 1, 0)
        # rows that left the answerable range, and rows whose content moved
        keep_below = stop if rewritten is None else rewritten
        for index in [i for i in self._rows if not first <= i < keep_below]:
            self.owner.decref(self._rows.pop(index)[0])
        missing = [i for i in range(first, stop) if i not in self._rows]
        self._seal_rows(missing)
        self._publish_rows([i for i in missing if i not in self._rows])
        # every historic slice is a finished row now: what the cache still
        # owed them is void (nothing is copied; stamps advance)
        self._store.sync_copies()
        slices = [(index, *self._rows[index]) for index in range(first, stop)]
        cited = [name for _, name, _ in slices]
        for name in cited:
            self.owner.incref(name)
        frontier: dict[str, np.ndarray] = {"times": epoch.times}
        if epoch.cache_values is not None:
            frontier["cache_values"] = epoch.cache_values
        if epoch.gd_points is not None:
            frontier["gd_points"] = epoch.gd_points
            frontier["gd_deltas"] = epoch.gd_deltas
        frontier_block = self.owner.create(frontier)[:2]
        cited.append(frontier_block[0])
        self._epoch_blocks[epoch.sequence] = cited
        self._last = {
            "sequence": epoch.sequence,
            "kernel_version": epoch.kernel_version,
            "external_version": epoch.external_version,
            "num_slices": epoch.num_slices,
            "retired_below": epoch.retired_below,
            "slice_shape": epoch.slice_shape,
            "frontier": frontier_block,
            "slices": slices,
        }
        return self._last

    def _successor(self, values: np.ndarray) -> np.ndarray:
        """The store's ``successor_row``: a writable copy in a block of its own."""
        name, metas, views = self.owner.create({"ps": values})
        self._unsealed[id(views["ps"])] = (name, metas, views["ps"])
        return views["ps"]

    def _seal_rows(self, indices: list[int]) -> None:
        """Cite, read-only, each successor row still in place; unlink the rest."""
        unsealed, self._unsealed = self._unsealed, {}
        directory = self.snap.kernel.directory
        for index in indices if unsealed else ():
            _, payload = directory.at_index(index)
            if id(payload.values) in unsealed and self._store.seal(payload):
                self._rows[index] = unsealed.pop(id(payload.values))[:2]
        for name, _, _ in unsealed.values():
            self.owner.decref(name)

    def _publish_rows(self, indices: list[int]) -> None:
        """Export historic instances as finished prefix-sum rows.

        Between operations on the writer thread, live slice storage read
        through the current epoch's frozen cache is what any reader of
        that epoch would resolve, whatever lazy copies or conversions
        landed since -- so the evaluator's own sweep, run here once,
        yields the row every later epoch can cite.  Uncounted, like
        ``freeze_slice``.
        """
        kernel = self.snap.kernel
        for start in range(0, len(indices), _ROWS_PER_SWEEP):
            chunk = np.asarray(indices[start : start + _ROWS_PER_SWEEP])
            states = []
            for index in chunk:
                _, payload = kernel.directory.at_index(int(index))
                values, flags = kernel.store.freeze_slice(payload)
                states.append((PS if flags.all() else MIXED, values, flags))
            rows = _prefix_sum_rows(self, chunk, states)
            for index, row, (_, values, flags) in zip(chunk.tolist(), rows, states):
                if row is None:
                    row = self._walked_row(index, values, flags)
                if index not in self._rows:  # stored as PS, or just walked
                    self.normalised(index, row)

    def _walked_row(self, index: int, values, flags) -> np.ndarray:
        """One instance's prefix sums, cell by cell.

        The slice holds a converted cell whose DDC value is lost, which no
        array sweep recovers; the per-cell walk reads PS cells natively.
        Paid once here instead of per box by every reader.

        A served fleet writes and reads in fast mode only and never makes
        such a slice.  A directory on disk can hold one: an inline shard
        whose kernel answered a counted ``query`` (converting cells whose
        lazy copy had landed, so their stamp advanced past the slice) and
        was then checkpointed, recovered by a process fleet.
        """
        view = prepare_epoch(self.snap._current, self.snap)
        origin = (0,) * len(self.slice_shape)
        row = np.empty(self.slice_shape, dtype=np.int64)
        for cell in np.ndindex(*self.slice_shape):
            row[cell] = view.walk(index, Box(origin, cell), values, flags)
        return row

    # -- the normalization sweep's source of cache arrays, and its sink ----------

    @property
    def slice_shape(self) -> tuple[int, ...]:
        return self.snap._current.slice_shape

    def cache_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        epoch = self.snap._current
        return epoch.cache_values, epoch.cache_stamps

    def normalised(self, index: int, ps_row: np.ndarray) -> None:
        name, metas, views = self.owner.create({"ps": ps_row})
        self._rows[index] = (name, metas)
        _, payload = self.snap.kernel.directory.at_index(index)
        self._store.adopt_row(payload, views["ps"])

    # -- release ---------------------------------------------------------------

    def release_below(self, sequence: int) -> None:
        """Drop block references held by epochs older than ``sequence``."""
        for epoch_id in [e for e in self._epoch_blocks if e < sequence]:
            for name in self._epoch_blocks.pop(epoch_id):
                self.owner.decref(name)

    def close(self) -> None:
        """Unlink every block this exporter ever published."""
        self._store.successor_row = None  # adopted slices stay mapped
        self._epoch_blocks.clear()
        self._rows.clear()
        self._unsealed.clear()
        self._last = None
        self.owner.close_all()


def epoch_from_shared_memory(descriptor: dict, cache: BlockCache) -> Epoch:
    """Rebuild a detached :class:`Epoch` from an exported descriptor.

    The arrays are read-only views straight into the shared blocks -- no
    copies; every historic instance arrives as a finished prefix-sum row,
    so preparing and querying the epoch never touches a kernel and
    normalizes nothing but the epoch-latest instance.
    """
    frontier = cache.arrays(*descriptor["frontier"])
    epoch = Epoch(
        descriptor["kernel_version"],
        descriptor["external_version"],
        descriptor["sequence"],
        descriptor["num_slices"],
        frontier["times"],
        descriptor["retired_below"],
        tuple(descriptor["slice_shape"]),
        frontier.get("cache_values"),
        None,  # nothing attached reads through the cache by stamp
        {
            index: (cache.arrays(name, metas)["ps"], None)
            for index, name, metas in descriptor["slices"]
        },
        frontier.get("gd_points"),
        frontier.get("gd_deltas"),
    )
    epoch.detached = True
    return epoch


def descriptor_blocks(descriptor: dict) -> set[str]:
    """All block names a descriptor cites (for :meth:`BlockCache.prune`)."""
    names = {descriptor["frontier"][0]}
    for _, name, _ in descriptor["slices"]:
        names.add(name)
    return names
