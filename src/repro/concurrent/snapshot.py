"""Snapshot-isolated concurrent reads over the dense cube kernel.

Only :class:`~repro.ecube.stores.DenseStore` has the hooks this module
uses (``freeze_cache``, ``adopt_row``, ``make_row`` and ``new_row``); a
snapshot over a paged or sparse kernel is refused when it is built
(:func:`repro.core.front.layers`).

The eCube is append-only: a historic instance's *content* is final the
moment a newer time occurs (Section 2) -- lazy copies landing and DDC
cells converting to PS only move its representation, and the
answer-changing exceptions (out-of-order corrections, splices) are routed
through ``G_d`` or explicit cascades.  Serving takes the θ = 1 end of
Sections 3.2-3.3 and finishes each instance once, when it becomes
historic, so that nothing a reader holds is ever written:

* The front publishes an immutable :class:`Epoch` once after every
  write it forwards, in a ``finally`` (:func:`repro.core.front.forward`):
  a reader only ever sees the state at the end of a write, never a step
  inside one (a drain, a retirement's landing and fold).  This front and
  the shard worker, which writes past it, are the only publishers; the
  kernel only keeps the versions publication reads.  Publication first
  finishes history: each instance that became historic since the
  last epoch is swept DDC -> PS
  (:func:`~repro.ecube.fastpath._prefix_sum_rows`; a slice holding a
  converted cell whose DDC value is lost is walked cell by cell), stored
  as a read-only *row* and adopted by the store: the slice *is* the row
  from then on, and what the cache still owed it is void
  (``sync_copies``).  A row is an *offset row* -- a narrow offset plus
  the newest anchor row below it, its values ``anchor + offset`` summed
  in int64 (:class:`~repro.ecube.stores.OffsetRow`) -- where that offset
  is narrower than the row's values, else a *plain* row, the next
  anchor; every array at the narrowest width that holds it
  (:func:`~repro.ecube.stores.row_dtype`, ``DenseStore.make_row``).
  Then it copies the mutable frontier: the
  cache values (the latest instance's DDC array), the occurring-time
  directory and the ``G_d`` columns.  A copy-on-publish watermark
  (``CubeKernel.epoch_version``) skips all of it when only the buffer
  changed.
* Rows come from the store's one allocator, ``DenseStore.new_row``:
  heap arrays, or shared-memory blocks while an
  :class:`~repro.sharding.shm.EpochExporter` is attached.
* Readers :meth:`~SnapshotCube.pin` an epoch and answer without locks:
  every historic instance is a row nobody writes, the latest one the
  epoch's own copy of the cache.
* A correction or splice never writes a row either.  Corrections land
  in one pass (a drain's batch, or a single one), which re-publishes
  each row it reaches under the same rule (``DenseStore.landing``): an
  anchor takes a new array, an offset row over it whose offset did not
  move keeps its own; a spliced instance shares its floor's row until
  then.  A cascade (a batch reaching an instance not yet published)
  promotes rows copy-on-write into int64 heap copies, which the next
  publication sweeps into rows anew.  The kernel lowers a low-water mark
  to the first instance whose content moves
  (``CubeKernel.rewritten_from``), which publication reads and resets;
  retirement only drops rows (an anchor stays while a row over it
  does).

Single-writer discipline: all mutating calls must come from one thread
(the same discipline the WAL already imposes); the front forwards the
record table's mutations and refuses those its stack lacks
(:mod:`repro.core.front`).  Readers are pure -- they never charge the
shared :class:`~repro.metrics.CostCounter` and never touch the
directory's metered lookup path.  Publication is uncounted too, so
metered golden costs are unchanged by concurrent serving.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.core.front import forward, layers, require
from repro.core.out_of_order import columnar_range_sums
from repro.core.types import Box, box_array
from repro.durability.wal import LOGGED
from repro.ecube.fastpath import (
    DDC,
    PS,
    _prefix_sum_rows,
    slice_state,
    stacked_query_many,
)
from repro.ecube.stores import anchor_of, row_values

#: Historic instances normalized per sweep when many are published at
#: once (a restored checkpoint's first epoch): bounds the transient stack.
_ROWS_PER_SWEEP = 64


def _frozen(array: np.ndarray | None) -> np.ndarray | None:
    """``array``, read-only from here on (an epoch's own copy)."""
    if array is not None:
        array.flags.writeable = False
    return array


class Epoch:
    """One immutable published version of the cube's answerable state.

    Nothing it cites is ever written: historic instances are published
    rows, shared by every epoch that cites them; the cache values,
    occurring times and ``G_d`` columns are the epoch's own read-only
    copies.
    """

    __slots__ = (
        "kernel_version",
        "sequence",
        "num_slices",
        "times",
        "retired_below",
        "slice_shape",
        "cache_values",
        "rows",
        "gd_points",
        "gd_deltas",
        "pins",
    )

    def __init__(
        self,
        kernel_version: int,
        sequence: int,
        num_slices: int,
        times: np.ndarray,
        retired_below: int,
        slice_shape: tuple[int, ...],
        cache_values: np.ndarray | None,
        rows: dict,
        gd_points: np.ndarray | None,
        gd_deltas: np.ndarray | None,
    ) -> None:
        self.kernel_version = kernel_version
        self.sequence = sequence
        self.num_slices = num_slices
        self.times = times
        self.retired_below = retired_below
        self.slice_shape = slice_shape
        #: the latest instance's DDC array
        self.cache_values = cache_values
        #: instance index -> its read-only prefix-sum row (plain, or an
        #: :class:`~repro.ecube.stores.OffsetRow`): every historic
        #: instance's published row, and the epoch-latest instance's once a
        #: reader swept it (memoized for the epochs of one kernel version,
        #: which share the dict)
        self.rows = rows
        self.gd_points = gd_points
        self.gd_deltas = gd_deltas
        #: live pin count (maintained under the SnapshotCube lock)
        self.pins = 0

    def __repr__(self) -> str:
        return f"Epoch(seq={self.sequence}, slices={self.num_slices}, pins={self.pins})"


class SnapshotView:
    """A reader's handle on one pinned epoch.

    Supports :meth:`query` / :meth:`query_many` with answers exactly
    equal to what the underlying cube would have returned at the moment
    the epoch was published, regardless of concurrent writer progress.
    Use as a context manager or call :meth:`release` when done.

    The view is the batch evaluator's slice source over the epoch
    (:class:`~repro.ecube.fastpath.SliceSource`): a historic instance is
    its row, the latest one the epoch's copy of the cache, swept once and
    memoized in the epoch's rows.
    """

    def __init__(
        self, cube: "SnapshotCube | None", epoch: Epoch, owns_pin: bool = True
    ) -> None:
        self._cube = cube
        self.epoch = epoch
        self._owns_pin = owns_pin
        self._released = False

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
        stacked batch read against the epoch plus the frozen ``G_d``
        contribution; results are bit-identical to ``query_many`` on a
        quiesced cube.
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
        """Sum of every update visible in this epoch: the open prefix over
        all of history and every cell, as ``CubeKernel.total`` answers it
        (``G_d`` included; retired detail stays inside it)."""
        epoch = self.epoch
        times = epoch.times
        if epoch.gd_points is not None:
            times = np.concatenate((times, epoch.gd_points[:, 0]))
        if not times.size:
            return 0
        corners = np.zeros((1, 2, self.ndim), dtype=np.int64)
        corners[0, :, 0] = times.min(), times.max()
        corners[0, 1, 1:] = np.asarray(epoch.slice_shape) - 1
        return self.query_many(corners)[0]

    # -- the evaluator's slice source over the epoch ---------------------------

    @property
    def slice_shape(self) -> tuple[int, ...]:
        return self.epoch.slice_shape

    @property
    def times(self) -> np.ndarray:
        return self.epoch.times

    @property
    def retired_below(self) -> int:
        return self.epoch.retired_below

    def fetch(self, index: int):
        epoch = self.epoch
        if index < epoch.num_slices - 1:
            return PS, epoch.rows[index], None
        memo = epoch.rows.get(index)
        if memo is None:  # the latest instance reads wholly from the cache
            return DDC, epoch.cache_values, None
        return PS, memo, None

    def normalised(self, index: int, ps_row: np.ndarray) -> None:
        # only the epoch-latest instance is ever swept here; one atomic dict
        # store, so racing readers see either representation of it
        self.epoch.rows[index] = _frozen(ps_row.copy())


def prepare_epoch(epoch: Epoch) -> SnapshotView:
    """Bind ``epoch`` to the batch evaluator; O(1), no per-slice work.

    Every historic instance of an epoch is a finished row, whether the
    epoch is a :class:`SnapshotCube`'s own or attached from shared
    memory, so the view never touches a kernel.  The view holds no pin;
    the caller keeps the epoch alive.
    """
    return SnapshotView(None, epoch, owns_pin=False)


def check_mode(mode: str) -> None:
    """Refuse what is no :class:`~repro.core.framework.BatchExecutor` mode
    on a front whose reads run one path whatever ``mode`` says."""
    if mode not in ("fast", "metered"):
        raise DomainError(f"unknown execution mode {mode!r}")


class SnapshotCube:
    """Single-writer / many-reader front over a dense cube stack.

    Every write it forwards to the wrapped target (on one thread)
    publishes one fresh :class:`Epoch` when it returns or raises --
    finishing the instances that became historic into rows first, and
    re-publishing the rows from the first one a correction or splice
    rewrote.  Reads go through pinned epochs and are safe from any
    thread.  A kernel serves one front at a time.

    ``target`` is any point-object stack (:func:`repro.core.front.layers`):
    a dense :class:`~repro.ecube.kernel.CubeKernel`, bare or under a
    ``G_d`` buffer, retention tiers and a
    :class:`~repro.durability.recovery.DurableCube` (a paged or sparse
    kernel is refused: those are the paper's cost models, used bare).
    The forwarded writes are ``wal.LOGGED``'s; one the stack lacks
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
        if self.kernel.snapshot_front is not None:
            raise DomainError("the cube already has a snapshot front attached")
        self._lock = threading.Lock()
        self._sequence = 0
        self._current: Epoch | None = None
        self._pinned: set[Epoch] = set()
        #: instance index -> the row it is published as, for every historic
        #: instance the kernel holds detail of
        self._rows: dict = {}
        self.kernel.snapshot_front = self
        self.publish()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Let the kernel serve another front (pinned views stay readable)."""
        if self.kernel.snapshot_front is self:
            self.kernel.snapshot_front = None

    def __enter__(self) -> "SnapshotCube":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- publication (writer thread) -----------------------------------------

    def publish(self) -> Epoch:
        """Publish the cube's current answerable state as a new epoch:
        after every forwarded write, and by a writer that wrote past this
        front (the shard worker).

        When ``kernel.epoch_version`` is unchanged (a buffer-only write)
        history, the frozen cache and the rows are shared with the
        previous epoch; only the ``G_d`` columns are copied.  Otherwise
        the instances that became historic are finished into rows
        (:meth:`_finish_history`) and the cache values are copied:
        O(cache) plus one sweep per new historic instance, independent of
        the length of history.
        """
        kernel = self.kernel
        kernel_version = kernel.epoch_version
        previous = self._current
        if previous is not None and previous.kernel_version == kernel_version:
            num_slices = previous.num_slices
            times = previous.times
            retired_below = previous.retired_below
            cache_values = previous.cache_values
            rows = previous.rows
        else:
            self._finish_history()
            num_slices = kernel.num_slices
            cache_values = kernel.store.freeze_cache()
            if cache_values is None or num_slices == 0:
                cache_values = None
                num_slices = 0
            times = np.asarray(kernel.directory.times(), dtype=np.int64)
            retired_below = kernel.retired_instances
            rows = dict(self._rows)
        gd_points = gd_deltas = None
        if self.buffer is not None:
            gd_points, gd_deltas = self.buffer.snapshot_columns()
        self._sequence += 1
        epoch = Epoch(
            kernel_version,
            self._sequence,
            num_slices,
            _frozen(times),
            retired_below,
            kernel.slice_shape,
            _frozen(cache_values),
            rows,
            _frozen(gd_points),
            _frozen(gd_deltas),
        )
        with self._lock:
            old = self._current
            self._current = epoch
            if old is not None and old.pins <= 0:
                self._pinned.discard(old)
        return epoch

    def move_rows(self) -> None:
        """Re-create every published row through the store's current
        allocator and publish an epoch that cites them (an allocator was
        just attached: :class:`~repro.sharding.shm.EpochExporter`)."""
        if self._rows:
            for index, row in sorted(self._rows.items()):
                self._adopt(index, row_values(row))
            self.kernel.epoch_version += 1  # what the epoch cites moved
            self.publish()

    # -- finishing history -----------------------------------------------------

    def _finish_history(self) -> None:
        """Publish every historic instance that has no row yet, oldest first.

        On the writer thread between operations.  Rows below the
        retirement boundary and rows whose content moved (from the
        kernel's ``rewritten_from`` up, which this resets) are dropped
        first.  A row a one-pass landing
        published (``DenseStore.landing``) is cited as it stands; every
        other instance -- newly historic, spliced in, restored from an
        archive, or a cascade's promoted int64 copy -- is swept into its
        prefix sums (a fully PS slice is its own) and published under the
        anchor rule (:meth:`_adopt`).  Then every historic slice is its row,
        and what the cache still owed them is void: nothing is copied,
        stamps advance.
        """
        kernel = self.kernel
        store = kernel.store
        first, stop = kernel.retired_instances, max(kernel.num_slices - 1, 0)
        rewritten, kernel.rewritten_from = kernel.rewritten_from, None
        keep_below = stop if rewritten is None else rewritten
        self._rows = {i: row for i, row in self._rows.items() if first <= i < keep_below}
        pending = [index for index in range(first, stop) if index not in self._rows]
        for start in range(0, len(pending), _ROWS_PER_SWEEP):
            chunk = pending[start : start + _ROWS_PER_SWEEP]
            payloads = [kernel.directory.at_index(index)[1] for index in chunk]
            swept = [i for i, p in zip(chunk, payloads) if not store.published(p)]
            states = [
                slice_state(*kernel.directory.at_index(i)[1].data()) for i in swept
            ]
            rows = _prefix_sum_rows(self, np.array(swept, dtype=np.int64), states)
            swept_rows = dict(zip(swept, zip(rows, states)))
            for index, payload in zip(chunk, payloads):
                if index not in swept_rows:  # a landing's row, as it stands
                    self._rows[index] = payload.values
                    continue
                row, (_, values, flags) = swept_rows[index]
                if row is None:
                    row = self._walked_row(index, values, flags)
                self._adopt(index, row)
        store.sync_copies()

    def _adopt(self, index: int, values: np.ndarray) -> None:
        """Publish ``values`` as instance ``index``'s row, read-only, the
        slice from now on: an offset from the newest anchor below it (the
        row of ``index - 1``'s, if that row is published) where the offset
        is narrower, else plain (``DenseStore.make_row``)."""
        store = self.kernel.store
        below = self._rows.get(index - 1)
        row = store.make_row(values, None if below is None else anchor_of(below))
        store.adopt_row(self.kernel.directory.at_index(index)[1], row)
        self._rows[index] = row

    def _walked_row(self, index: int, values, flags) -> np.ndarray:
        """One instance's prefix sums, cell by cell.

        The slice holds a converted cell whose DDC value is lost, which no
        array sweep recovers; the per-cell walk reads PS cells natively.
        Paid once here instead of per box by every reader.

        A kernel under a snapshot front never makes such a slice: its
        historic instances are finished rows before anything converts a
        cell.  A kernel that answered a counted ``query`` on its own can
        (converting cells whose lazy copy had landed, so their stamp
        advanced past the slice), and so can the checkpoint of one.
        """
        cache_values, stamps = self.kernel.store.cache_views()

        def read(cell: tuple[int, ...]) -> tuple[int, bool]:
            if flags[cell]:
                return int(values[cell]), True
            if stamps[cell] > index:
                return int(values[cell]), False
            return int(cache_values[cell]), False

        shape = self.kernel.slice_shape
        origin = (0,) * len(shape)
        row = np.empty(shape, dtype=np.int64)
        for cell in np.ndindex(*shape):
            row[cell] = self.kernel.engine.range_query(Box(origin, cell), read, None)
        return row

    # -- the sweep's slice source: live state, between operations ---------------

    @property
    def slice_shape(self) -> tuple[int, ...]:
        return self.kernel.slice_shape

    def cache_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.kernel.store.cache_views()

    def normalised(self, index: int, ps_row: np.ndarray) -> None:
        pass  # _finish_history publishes the swept rows, oldest first

    def checkpoint(self):
        """``target.checkpoint()`` (a durable stack): archives the current
        epoch, pinned while it is written; publishes nothing."""
        require(self.stack, "durable", "checkpoint")
        return self.target.checkpoint()

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


# the forwarded writes (single writer thread): every logged mutation of
# the record table, each followed by one publication
forward(SnapshotCube, LOGGED, "target")
