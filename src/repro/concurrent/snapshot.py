"""Snapshot-isolated concurrent reads over the dense cube kernel.

Only :class:`~repro.ecube.stores.DenseStore` has the hooks this module
reads (``freeze_cache``, ``freeze_slice`` and the ``DenseSlice``
seqlock); a snapshot over a paged or sparse kernel is refused when it is
built (:func:`repro.core.front.layers`).

The eCube is append-only: a published historic instance never changes its
*answers* again -- later kernel work against it is either answer-neutral
(lazy copies landing, DDC cells converting to PS, whole-slice finalize)
or an explicitly out-of-order correction, which the paper routes through
``G_d`` precisely so the instances stay immutable.  That makes snapshot
isolation almost free:

* The writer publishes an immutable :class:`Epoch` after every logical
  write (one per public kernel entry point; multi-step logical writes
  such as a drain defer publication with
  :meth:`~repro.ecube.kernel.CubeKernel.publish_barrier`).  Publication
  freezes only the *mutable frontier*: the cache array with its per-cell
  stamps, the occurring-time directory and the ``G_d`` columns --
  O(cache) work, independent of history length.  A copy-on-publish
  watermark (``CubeKernel.epoch_version``) skips even that when only the
  buffer changed.
* Readers :meth:`~SnapshotCube.pin` an epoch and answer range queries
  without locks.  Historic slice content is read straight from live
  storage under a per-slice seqlock (mutation counters around the few
  answer-neutral in-place transforms); the frozen stamps route every
  cell exactly as the kernel would have at publication time.
* The rare answer-*changing* historic mutations (out-of-order
  application, splicing a never-occurring time, data-aging retirement)
  first call :meth:`SnapshotCube.preserve_epochs`, which materializes
  every live epoch's historic slices into private overlays -- after
  that the epochs are self-contained and the writer may rewrite
  history freely.

Single-writer discipline: all mutating calls must come from one thread
(the same discipline the WAL already imposes); the front forwards the
record table's mutations and refuses those its stack lacks
(:mod:`repro.core.front`).  Readers are pure -- they
never charge the shared :class:`~repro.metrics.CostCounter`, never
persist DDC->PS conversions and never touch the directory's metered
lookup path, so metered golden costs are unchanged by concurrent
serving.
"""

from __future__ import annotations

import threading
import time as _time
from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.core.front import forward, layers, require
from repro.core.out_of_order import columnar_range_sums
from repro.core.types import Box, box_array
from repro.durability.wal import LOGGED
from repro.ecube.fastpath import (
    DDC,
    MIXED,
    PS,
    FastSliceEngine,
    stacked_query_many,
)
from repro.ecube.slices import ECubeSliceEngine

#: Seqlock spins between cooperative yields while a slice mutates.
_SPINS_PER_YIELD = 64


class Epoch:
    """One immutable published version of the cube's answerable state.

    Everything answer-relevant that the writer may change in place is
    frozen by value (cache values/stamps, occurring times, ``G_d``
    columns); the bulk historic slice content stays shared with live
    storage and is reached through :meth:`SnapshotView._slice_arrays`'s
    seqlock, or through ``overlays`` once the epoch was preserved.
    """

    __slots__ = (
        "kernel_version",
        "external_version",
        "sequence",
        "num_slices",
        "times",
        "retired_below",
        "slice_shape",
        "cache_values",
        "cache_stamps",
        "overlays",
        "gd_points",
        "gd_deltas",
        "pins",
        "detached",
    )

    def __init__(
        self,
        kernel_version: int,
        external_version: int,
        sequence: int,
        num_slices: int,
        times: np.ndarray,
        retired_below: int,
        slice_shape: tuple[int, ...],
        cache_values: np.ndarray | None,
        cache_stamps: np.ndarray | None,
        overlays: dict[int, tuple[np.ndarray, np.ndarray]],
        gd_points: np.ndarray | None,
        gd_deltas: np.ndarray | None,
    ) -> None:
        self.kernel_version = kernel_version
        self.external_version = external_version
        self.sequence = sequence
        self.num_slices = num_slices
        self.times = times
        self.retired_below = retired_below
        self.slice_shape = slice_shape
        self.cache_values = cache_values
        self.cache_stamps = cache_stamps
        #: slice index -> frozen ``(values, ps_flags)``, or ``(ps_row,
        #: None)`` once a reader normalized the slice to prefix sums (the
        #: epoch-latest index memoizes the converted cache the same way);
        #: shared by the epoch family, filled lazily by readers and
        #: eagerly by :meth:`SnapshotCube.preserve_epochs`.  An epoch
        #: attached from shared memory arrives with every historic row
        #: already in the second form
        self.overlays = overlays
        self.gd_points = gd_points
        self.gd_deltas = gd_deltas
        #: live pin count (maintained under the SnapshotCube lock)
        self.pins = 0
        #: True once every historic slice is materialized in overlays
        self.detached = False

    def __repr__(self) -> str:
        return (
            f"Epoch(seq={self.sequence}, slices={self.num_slices}, "
            f"pins={self.pins}, detached={self.detached})"
        )


class SnapshotView:
    """A reader's handle on one pinned epoch.

    Supports :meth:`query` / :meth:`query_many` with answers exactly
    equal to what the underlying cube would have returned at the moment
    the epoch was published, regardless of concurrent writer progress.
    Use as a context manager or call :meth:`release` when done.

    The view is the batch evaluator's slice source over frozen state
    (:class:`~repro.ecube.fastpath.SliceSource`): historic slices come
    from the seqlock freeze or the epoch's overlays, the latest instance
    and the read-through routing from the epoch's frozen cache columns.
    A frozen reader cannot persist a conversion, so each normalized
    slice is memoized in the overlays instead.
    """

    def __init__(
        self, cube: "SnapshotCube | None", epoch: Epoch, owns_pin: bool = True
    ) -> None:
        self._cube = cube
        self.epoch = epoch
        self._owns_pin = owns_pin
        self._released = False
        # only the unrecoverable-mixed-slice fallback needs engines
        self._fast: FastSliceEngine | None = None
        self._metered: ECubeSliceEngine | None = None

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        """Drop the pin; the epoch may be garbage collected afterwards."""
        if self._released:
            return
        self._released = True
        if self._owns_pin:
            self._cube._release(self.epoch)

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # -- introspection -------------------------------------------------------

    @property
    def sequence(self) -> int:
        """Monotone publication number of the pinned epoch."""
        return self.epoch.sequence

    @property
    def num_slices(self) -> int:
        return self.epoch.num_slices

    @property
    def ndim(self) -> int:
        return 1 + len(self.epoch.slice_shape)

    # -- queries -------------------------------------------------------------

    def query(self, box: Box) -> int:
        """Range aggregate against the pinned epoch (lock-free)."""
        return self.query_many([box])[0]

    def query_many(self, boxes: Sequence[Box] | np.ndarray) -> list[int]:
        """A batch of range aggregates against the pinned epoch.

        ``boxes`` is a :class:`Box` sequence or an ``(n, 2, d)`` int64
        corner array (:func:`~repro.core.types.box_array`).  The kernel's
        stacked batch read against the frozen state plus the frozen
        ``G_d`` contribution; results are bit-identical to ``query_many``
        on a quiesced cube.
        """
        if self._released:
            raise DomainError("view was released")
        corners = box_array(boxes, self.ndim)
        results = stacked_query_many(corners, self)
        points = self.epoch.gd_points
        if corners.shape[0] and points is not None and points.shape[0]:
            results += columnar_range_sums(
                points, self.epoch.gd_deltas, corners[:, 0], corners[:, 1]
            )
        return [int(v) for v in results]

    def total(self) -> int:
        """Sum of every update visible in this epoch."""
        epoch = self.epoch
        if epoch.num_slices == 0 and (
            epoch.gd_points is None or epoch.gd_points.shape[0] == 0
        ):
            return 0
        upper_time = int(epoch.times[-1]) if epoch.num_slices else 0
        if epoch.gd_points is not None and epoch.gd_points.shape[0]:
            upper_time = max(upper_time, int(epoch.gd_points[:, 0].max()))
        box = Box(
            (0,) + (0,) * len(epoch.slice_shape),
            (upper_time,) + tuple(n - 1 for n in epoch.slice_shape),
        )
        return self.query(box)

    # -- the evaluator's slice source over frozen state ------------------------

    @property
    def slice_shape(self) -> tuple[int, ...]:
        return self.epoch.slice_shape

    @property
    def times(self) -> np.ndarray:
        return self.epoch.times

    @property
    def retired_below(self) -> int:
        return self.epoch.retired_below

    @property
    def fast(self) -> FastSliceEngine:
        if self._fast is None:
            self._fast = FastSliceEngine(self.epoch.slice_shape)
        return self._fast

    def cache_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.epoch.cache_values, self.epoch.cache_stamps

    def fetch(self, index: int):
        epoch = self.epoch
        if index >= epoch.num_slices - 1:
            # the epoch-latest instance reads wholly from the frozen cache
            memo = epoch.overlays.get(index)
            if memo is not None:
                return PS, memo[0], None
            return DDC, epoch.cache_values, None
        values, flags = self._slice_arrays(index)
        if flags is None:
            return PS, values, None
        if bool(flags.all()):
            epoch.overlays[index] = (values, None)
            return PS, values, None
        return MIXED, values, flags

    def normalised(self, index: int, ps_row: np.ndarray) -> None:
        # one atomic dict store: racing readers of the epoch family see
        # either representation of the same instance, never a torn pair
        self.epoch.overlays[index] = (ps_row.copy(), None)

    def walk(
        self, index: int, box: Box, values: np.ndarray, flags: np.ndarray
    ) -> int:
        """Per-cell fallback mirroring the kernel's metered routing, but
        side-effect free: no counting, no conversion marking."""
        stamps = self.epoch.cache_stamps
        cache_values = self.epoch.cache_values

        def read(cell: tuple[int, ...]) -> tuple[int, bool]:
            if flags[cell]:
                return int(values[cell]), True
            if stamps[cell] > index:
                return int(values[cell]), False
            return int(cache_values[cell]), False

        if self._metered is None:
            self._metered = ECubeSliceEngine(self.epoch.slice_shape)
        return self._metered.range_query(box, read, None)

    def _slice_arrays(
        self, slice_index: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Frozen (values, ps_flags) for one historic slice.

        ``ps_flags`` is ``None`` once the slice is known to hold prefix
        sums throughout.  Preserved epochs hit their overlay directly.
        Otherwise the live payload is frozen under its seqlock: read the
        mutation counter, retry while odd (a transform is mid-flight) or
        if it changed across the copy.  The overlay dict doubles as a
        shared memo so each slice is frozen at most once per epoch
        family; the final overlay re-check closes the window where the
        writer preserves *and then mutates* between our version reads.
        """
        epoch = self.epoch
        arrays = epoch.overlays.get(slice_index)
        if arrays is not None:
            return arrays
        kernel = self._cube.kernel
        store = kernel.store
        directory = kernel.directory
        spins = 0
        while True:
            arrays = epoch.overlays.get(slice_index)
            if arrays is not None:
                return arrays
            _, payload = directory.at_index(slice_index)
            version = payload.mut_version
            if not version & 1:
                frozen = store.freeze_slice(payload)
                if payload.mut_version == version:
                    arrays = epoch.overlays.get(slice_index)
                    if arrays is not None:
                        return arrays
                    epoch.overlays[slice_index] = frozen
                    return frozen
            spins += 1
            if spins % _SPINS_PER_YIELD == 0:
                _time.sleep(0.0002)
            else:
                _time.sleep(0)


def prepare_epoch(epoch: Epoch, cube: "SnapshotCube | None" = None) -> SnapshotView:
    """Bind ``epoch`` to the batch evaluator; O(1), no per-slice work.

    ``cube`` (the owning :class:`SnapshotCube`) is only needed when the
    epoch is not detached: live slices are then frozen through the
    ordinary seqlock path.  Detached epochs -- in particular epochs
    attached from shared memory -- are read without touching any kernel.
    The view holds no pin; the caller keeps the epoch alive.
    """
    return SnapshotView(cube, epoch, owns_pin=False)


def check_mode(mode: str) -> None:
    """Refuse what is no :class:`~repro.core.framework.BatchExecutor` mode
    on a front whose reads run one path whatever ``mode`` says."""
    if mode not in ("fast", "metered"):
        raise DomainError(f"unknown execution mode {mode!r}")


class SnapshotCube:
    """Single-writer / many-reader front over a dense cube stack.

    Attaches to the kernel as its *epoch sink*: every mutating entry
    point publishes a fresh :class:`Epoch` on exit, and answer-changing
    historic mutations call :meth:`preserve_epochs` first.  Write calls
    are forwarded to the wrapped target unchanged (and must stay on one
    thread); reads go through pinned epochs and are safe from any
    thread.

    ``target`` is any point-object stack (:func:`repro.core.front.layers`):
    a dense :class:`~repro.ecube.kernel.CubeKernel`, bare or under a
    ``G_d`` buffer, retention tiers and a
    :class:`~repro.durability.recovery.DurableCube` (a paged or sparse
    kernel is refused: those are the paper's cost models, used bare).
    The forwarded writes are :data:`FORWARDED`; one the stack lacks
    (``drain`` over a bare kernel, ``checkpoint`` without a log) is
    refused with :class:`~repro.core.errors.DomainError`.
    """

    #: the serving layer of a stack (:mod:`repro.core.front`)
    kind = "snapshot"
    inner = property(lambda self: self.target)

    def __init__(self, target) -> None:
        self.target = target
        #: this layer and those under it, as they declare themselves
        self.stack = layers(self)
        require(self.stack, "point", "SnapshotCube", "target")
        self.kernel = self.stack["kernel"]
        self.buffer = (
            self.stack["buffered"].buffer if "buffered" in self.stack else None
        )
        if self.kernel._epoch_sink is not None:
            raise DomainError("the cube already has a snapshot front attached")
        self._lock = threading.Lock()
        self._sequence = 0
        self._current: Epoch | None = None
        self._pinned: set[Epoch] = set()
        self._rewritten_from: int | None = None
        self.kernel._epoch_sink = self
        self.publish()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the kernel (pinned views stay readable)."""
        if self.kernel._epoch_sink is self:
            self.kernel._epoch_sink = None

    def __enter__(self) -> "SnapshotCube":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the epoch-sink protocol (called by the kernel, writer thread) -------

    def publish(self) -> Epoch:
        """Publish the cube's current answerable state as a new epoch.

        Cheap by design: when ``kernel.epoch_version`` is unchanged (a
        buffer-only write) the frozen cache arrays and the overlay memo
        are shared with the previous epoch; only the ``G_d`` columns are
        re-frozen.  Otherwise the cache freeze is O(cache), independent
        of the number of historic instances.
        """
        kernel = self.kernel
        kernel_version = kernel.epoch_version
        previous = self._current
        if previous is not None and previous.kernel_version == kernel_version:
            num_slices = previous.num_slices
            times = previous.times
            retired_below = previous.retired_below
            cache_values = previous.cache_values
            cache_stamps = previous.cache_stamps
            overlays = previous.overlays
            detached = previous.detached
        else:
            num_slices = kernel.num_slices
            frozen = kernel.store.freeze_cache()
            if frozen is None or num_slices == 0:
                cache_values = cache_stamps = None
                num_slices = 0
            else:
                cache_values, cache_stamps = frozen
            times = np.asarray(kernel.directory.times(), dtype=np.int64)
            retired_below = kernel.retired_instances
            overlays = {}
            detached = False
        gd_points = gd_deltas = None
        if self.buffer is not None:
            gd_points, gd_deltas = self.buffer.snapshot_columns()
        self._sequence += 1
        epoch = Epoch(
            kernel_version,
            kernel.external_version,
            self._sequence,
            num_slices,
            times,
            retired_below,
            kernel.slice_shape,
            cache_values,
            cache_stamps,
            overlays,
            gd_points,
            gd_deltas,
        )
        epoch.detached = detached
        with self._lock:
            old = self._current
            self._current = epoch
            if old is not None and old.pins <= 0:
                self._pinned.discard(old)
        return epoch

    def preserve_epochs(self, rewritten_from: int | None = None) -> int:
        """Materialize every live epoch before history is rewritten.

        Runs on the writer thread *before* the first answer-changing
        historic mutation of an operation (out-of-order application,
        splice, retirement): each pinned epoch -- plus the current one --
        gets every not-yet-frozen historic slice copied into its private
        overlays, after which its answers no longer depend on live slice
        storage or directory indices.  Returns the number of slices
        copied.

        ``rewritten_from`` is the first instance index whose *content* is
        about to change (``None`` when the mutation only drops instances);
        whoever republishes history elsewhere collects the lowest one with
        :meth:`take_rewritten_from`.
        """
        if rewritten_from is not None and (
            self._rewritten_from is None or rewritten_from < self._rewritten_from
        ):
            self._rewritten_from = rewritten_from
        with self._lock:
            epochs = list(self._pinned)
            current = self._current
            if current is not None and current not in self._pinned:
                epochs.append(current)
        copied = 0
        seen: set[int] = set()
        for epoch in epochs:
            if id(epoch.overlays) in seen:
                # epoch families share one overlay dict; freeze once
                epoch.detached = True
                continue
            seen.add(id(epoch.overlays))
            copied += self._materialize(epoch)
        return copied

    def take_rewritten_from(self) -> int | None:
        """The lowest instance index whose content was rewritten since the
        last call, or ``None``; everything below it is as it was."""
        index, self._rewritten_from = self._rewritten_from, None
        return index

    def _materialize(self, epoch: Epoch) -> int:
        kernel = self.kernel
        store = kernel.store
        directory = kernel.directory
        copied = 0
        if not epoch.detached:
            for index in range(epoch.retired_below, epoch.num_slices - 1):
                if index in epoch.overlays:
                    continue
                _, payload = directory.at_index(index)
                epoch.overlays[index] = store.freeze_slice(payload)
                copied += 1
        epoch.detached = True
        return copied

    # -- pinning -------------------------------------------------------------

    def pin(self) -> SnapshotView:
        """Pin the current epoch and return a read view on it."""
        with self._lock:
            epoch = self._current
            if epoch is None:
                raise DomainError("no epoch published yet")
            epoch.pins += 1
            self._pinned.add(epoch)
        return SnapshotView(self, epoch)

    def snapshot(self) -> SnapshotView:
        """Alias for :meth:`pin` (reads naturally as a context manager)."""
        return self.pin()

    def _release(self, epoch: Epoch) -> None:
        with self._lock:
            epoch.pins -= 1
            if epoch.pins <= 0 and epoch is not self._current:
                self._pinned.discard(epoch)

    def current_sequence(self) -> int:
        with self._lock:
            assert self._current is not None
            return self._current.sequence

    def pinned_epochs(self) -> int:
        """Number of distinct epochs currently retained (introspection)."""
        with self._lock:
            count = len(self._pinned)
            if self._current is not None and self._current not in self._pinned:
                count += 1
            return count

    # -- reads (ephemeral pin per call; safe from any thread) ----------------

    def query(self, box: Box) -> int:
        with self.pin() as view:
            return view.query(box)

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """``mode`` is accepted for the :class:`~repro.core.framework.
        BatchExecutor` protocol; every read runs the stacked batch read
        over the pinned epoch (a :class:`Box` sequence or a corner array,
        :meth:`SnapshotView.query_many`) and charges no counter."""
        check_mode(mode)
        with self.pin() as view:
            return view.query_many(boxes)

    def total(self) -> int:
        with self.pin() as view:
            return view.total()

    def __repr__(self) -> str:
        with self._lock:
            seq = self._current.sequence if self._current else 0
        return (
            f"SnapshotCube(target={type(self.target).__name__}, "
            f"sequence={seq}, pinned={len(self._pinned)})"
        )


#: the forwarded writes (single writer thread): every logged mutation of
#: the record table, and ``checkpoint``
FORWARDED = {**LOGGED, "checkpoint": "durable"}
forward(SnapshotCube, FORWARDED, "target")
