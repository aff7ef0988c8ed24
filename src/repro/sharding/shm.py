"""Shared-memory publication of frozen epochs.

A shard worker owns its cube and publishes every :class:`Epoch` into
``multiprocessing.shared_memory`` blocks; reader processes attach the
blocks and serve queries zero-copy.  The PR 5 epoch design makes this
safe without cross-process synchronization: a published epoch's arrays
are immutable, so the only coordination is the epoch-id handoff that
rides the control pipe.

Block layout
------------

* one *slice block* per historic instance, holding the frozen
  ``(values, ps_flags)`` pair.  Slice blocks are content-addressed by
  ``(history generation, payload mutation version)``: they are reused
  across epochs verbatim while the slice is untouched, re-frozen when an
  answer-neutral in-place transform landed (lazy copy, conversion --
  detected through the seqlock counter), and re-frozen wholesale when
  history was rewritten (out-of-order application, splice, retirement --
  detected through the ``preserve_epochs`` hook).
* one *frontier block* per epoch, holding the occurring-time directory,
  the frozen cache values/stamps and the ``G_d`` columns.

Unlink discipline
-----------------

The owning worker reference-counts every block by the epochs that cite
it (plus one self-reference for the reusable current slice freeze) and
``unlink``\\ s on the drop to zero; :meth:`EpochExporter.close` unlinks
everything unconditionally.  Attaching processes *never* unlink -- they
``close`` their mapping and, crucially, unregister the segment from
:mod:`multiprocessing.resource_tracker`, which on CPython registers
shared memory in ``SharedMemory.__init__`` even for pure attachments and
would otherwise double-unlink (and warn) at interpreter exit.
"""

from __future__ import annotations

import os
import re
import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.errors import StorageError

from repro.concurrent.snapshot import Epoch

#: Every block name starts with this; tests sweep ``/dev/shm`` for it.
SHM_PREFIX = "repro-ecube"

#: The naming rule: ``repro-ecube-<tag>-<owner pid>-<sequence>``, the tag
#: ending in a field that is not a number.  The owner's pid is what lets
#: a starting server tell a crashed owner's orphans from the blocks of a
#: live one; the tag field keeps names of the earlier layout
#: (``<pid>-<hex>-<sequence>``, the hex possibly all digits) outside the
#: rule instead of reading their hex as a pid.
_BLOCK_NAME = re.compile(rf"^{SHM_PREFIX}-(?:.*-)?(?!\d*-)[^-]+-(\d+)-\d+$")


def _unregister(shm) -> None:
    """Drop an attached segment from the resource tracker (owner keeps it)."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker may be absent/foreign
        pass


def _force_unlink(name: str) -> bool:
    """Unlink one segment this process does not own; was it removed?"""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):  # pragma: no cover - race
        return False
    try:
        shm.close()
    except BufferError:  # pragma: no cover - still mapped here
        pass
    try:
        # a successful unlink also drops the attach's tracker entry
        shm.unlink()
        return True
    except FileNotFoundError:  # pragma: no cover - race
        _unregister(shm)
        return False


def unlink_by_prefix(prefix: str) -> int:
    """Force-unlink every segment whose name starts with ``prefix``.

    Cleanup of blocks orphaned by a crashed worker (the owner died
    before its refcounts dropped); returns the number removed.
    """
    return sum(_force_unlink(name) for name in leaked_segments(prefix))


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
        _force_unlink(name)
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
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._refs: dict[str, int] = {}

    def create(self, arrays: dict[str, np.ndarray]):
        """New block holding copies of ``arrays``; returns (name, metas, views).

        The returned views alias the block -- callers may also fill them
        in place (e.g. ``freeze_slice(..., out=...)``) instead of passing
        populated arrays.  The block starts with one reference.
        """
        size, metas = _pack_layout(arrays)
        self._sequence += 1
        name = f"{SHM_PREFIX}-{self._tag}-{os.getpid()}-{self._sequence}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        except OSError as exc:  # pragma: no cover - exhausted /dev/shm
            raise StorageError(f"cannot create shared memory block: {exc}") from exc
        views = _views(shm.buf, metas)
        for key, array in arrays.items():
            if array.nbytes:
                np.copyto(views[key], array)
        self._blocks[name] = shm
        self._refs[name] = 1
        return name, metas, views

    def incref(self, name: str) -> None:
        self._refs[name] += 1

    def decref(self, name: str) -> None:
        refs = self._refs[name] - 1
        if refs > 0:
            self._refs[name] = refs
            return
        shm = self._blocks.pop(name)
        del self._refs[name]
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close_all(self) -> None:
        """Unlink every surviving block (shutdown path)."""
        for name in list(self._blocks):
            self._refs[name] = 1
            self.decref(name)

    def __len__(self) -> int:
        return len(self._blocks)


# -- attach side ---------------------------------------------------------------


class BlockCache:
    """Per-process memo of attached blocks (readers and the router)."""

    def __init__(self) -> None:
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._zombies: list[shared_memory.SharedMemory] = []

    def arrays(self, name: str, metas) -> dict[str, np.ndarray]:
        shm = self._blocks.get(name)
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise StorageError(
                    f"shared memory block {name!r} disappeared; its owning "
                    "shard worker likely died"
                ) from exc
            if _owner_pid(name) != os.getpid():
                # (an owner in this very process shares our tracker entry
                # and drops it itself when it unlinks)
                _unregister(shm)
            self._blocks[name] = shm
        views = _views(shm.buf, metas)
        for view in views.values():
            view.flags.writeable = False
        return views

    def _try_close(self, shm) -> bool:
        try:
            shm.close()
            return True
        except BufferError:
            # a numpy view still aliases the mapping; retry on next prune
            self._zombies.append(shm)
            return False

    def prune(self, live: set[str]) -> None:
        """Close mappings for blocks no longer referenced by any epoch."""
        zombies, self._zombies = self._zombies, []
        for shm in zombies:
            self._try_close(shm)
        for name in [n for n in self._blocks if n not in live]:
            self._try_close(self._blocks.pop(name))

    def close_all(self) -> None:
        self.prune(set())
        self._zombies.clear()


# -- epoch export / import -----------------------------------------------------


class _SliceBlock:
    __slots__ = ("name", "metas", "generation", "mut_version")

    def __init__(self, name, metas, generation, mut_version) -> None:
        self.name = name
        self.metas = metas
        self.generation = generation
        self.mut_version = mut_version


class EpochExporter:
    """Publishes a :class:`SnapshotCube`'s epochs into shared memory.

    Lives on the worker's writer thread.  Hooks the snapshot front's
    ``preserve_epochs`` (which the kernel calls before every
    answer-changing historic mutation) to bump the history generation,
    invalidating all reusable slice freezes at once.
    """

    def __init__(self, snapshot_cube, tag: str = "") -> None:
        self.snap = snapshot_cube
        self.owner = BlockOwner(tag)
        self.history_generation = 0
        self._slice_blocks: dict[int, _SliceBlock] = {}
        #: epoch id -> names of the blocks that epoch cites
        self._epoch_blocks: dict[int, list[str]] = {}
        original = snapshot_cube.preserve_epochs

        def hooked_preserve():
            self.history_generation += 1
            return original()

        snapshot_cube.preserve_epochs = hooked_preserve

    # -- publication -----------------------------------------------------------

    def export(self) -> dict:
        """Describe the current epoch as shared-memory blocks (picklable)."""
        snap = self.snap
        epoch = snap._current
        kernel = snap.kernel
        generation = self.history_generation
        cited: list[str] = []
        slices: list[tuple] = []
        for index in range(epoch.retired_below, max(epoch.num_slices - 1, 0)):
            block = self._slice_blocks.get(index)
            _, payload = kernel.directory.at_index(index)
            if (
                block is None
                or block.generation != generation
                or block.mut_version != payload.mut_version
            ):
                name, metas, views = self.owner.create(
                    {
                        "values": np.empty(epoch.slice_shape, dtype=np.int64),
                        "flags": np.empty(epoch.slice_shape, dtype=bool),
                    }
                )
                kernel.store.freeze_slice(
                    payload, out=(views["values"], views["flags"])
                )
                if block is not None:
                    self.owner.decref(block.name)
                block = _SliceBlock(name, metas, generation, payload.mut_version)
                self._slice_blocks[index] = block
            slices.append((index, block.name, block.metas))
            self.owner.incref(block.name)
            cited.append(block.name)
        # freezes for slices that left the answerable range (retirement)
        for index in list(self._slice_blocks):
            if not epoch.retired_below <= index < epoch.num_slices - 1:
                self.owner.decref(self._slice_blocks.pop(index).name)
        frontier: dict[str, np.ndarray] = {"times": epoch.times}
        if epoch.cache_values is not None:
            frontier["cache_values"] = epoch.cache_values
            frontier["cache_stamps"] = epoch.cache_stamps
        if epoch.gd_points is not None:
            frontier["gd_points"] = epoch.gd_points
            frontier["gd_deltas"] = epoch.gd_deltas
        frontier_name, frontier_metas, _ = self.owner.create(frontier)
        cited.append(frontier_name)
        self._epoch_blocks[epoch.sequence] = cited
        return {
            "sequence": epoch.sequence,
            "kernel_version": epoch.kernel_version,
            "external_version": epoch.external_version,
            "num_slices": epoch.num_slices,
            "retired_below": epoch.retired_below,
            "slice_shape": epoch.slice_shape,
            "has_buffer": epoch.gd_points is not None,
            "frontier": (frontier_name, frontier_metas),
            "slices": slices,
        }

    def release_below(self, sequence: int) -> None:
        """Drop block references held by epochs older than ``sequence``."""
        for epoch_id in [e for e in self._epoch_blocks if e < sequence]:
            for name in self._epoch_blocks.pop(epoch_id):
                self.owner.decref(name)

    def close(self) -> None:
        """Unlink every block this exporter ever published."""
        self._epoch_blocks.clear()
        self._slice_blocks.clear()
        self.owner.close_all()


def epoch_from_shared_memory(descriptor: dict, cache: BlockCache) -> Epoch:
    """Rebuild a detached :class:`Epoch` from an exported descriptor.

    The arrays are read-only views straight into the shared blocks -- no
    copies; preparing and querying the epoch never touches a kernel.
    """
    frontier_name, frontier_metas = descriptor["frontier"]
    frontier = cache.arrays(frontier_name, frontier_metas)
    overlays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for index, name, metas in descriptor["slices"]:
        views = cache.arrays(name, metas)
        overlays[index] = (views["values"], views["flags"])
    gd_points = gd_deltas = None
    if descriptor["has_buffer"]:
        gd_points = frontier["gd_points"]
        gd_deltas = frontier["gd_deltas"]
    epoch = Epoch(
        descriptor["kernel_version"],
        descriptor["external_version"],
        descriptor["sequence"],
        descriptor["num_slices"],
        frontier["times"],
        descriptor["retired_below"],
        tuple(descriptor["slice_shape"]),
        frontier.get("cache_values"),
        frontier.get("cache_stamps"),
        overlays,
        gd_points,
        gd_deltas,
    )
    epoch.detached = True
    return epoch


def descriptor_blocks(descriptor: dict) -> set[str]:
    """All block names a descriptor cites (for :meth:`BlockCache.prune`)."""
    names = {descriptor["frontier"][0]}
    for _, name, _ in descriptor["slices"]:
        names.add(name)
    return names
