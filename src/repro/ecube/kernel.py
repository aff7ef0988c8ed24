"""The storage-agnostic evolving-cube kernel.

The paper's framework (Section 2) and the eCube algorithm (Section 3)
are independent of where slice bytes live: the in-memory cube (Section
3.4), the external-memory cube (Section 3.5) and the sparse follow-up
(Section 7) run the *same* directory, lazy-copying, read-through,
conversion, out-of-order and aging logic over different slice
representations.  :class:`CubeKernel` implements that logic exactly
once, driving a pluggable :class:`~repro.ecube.stores.SliceStore` for
every physical touch; the public cube classes
(:class:`~repro.ecube.ecube.EvolvingDataCube`,
:class:`~repro.ecube.disk.DiskEvolvingDataCube`,
:class:`~repro.ecube.sparse.SparseEvolvingDataCube`) are thin
configurations of this kernel.

Cost semantics are store-mediated: the kernel decides *what* is
touched, the store decides *what it costs* (counted cell accesses for
in-memory backends, distinct pages per operation for the paged one).
Every public entry point is bracketed as one operation so page-charging
backends can deduplicate page touches per operation -- nested entry
points (a metered batch replay) share the outermost operation's scope,
which is exactly the pre-refactor behaviour of the disk cube's shared
per-batch tracker.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np

from repro.core.directory import TimeDirectory
from repro.core.errors import AgedOutError, AppendOrderError, DomainError
from repro.core.types import Box, as_boxes, box_array
from repro.ecube import compiled
from repro.ecube.fastpath import (
    DDC,
    MIXED,
    PS,
    FastSliceEngine,
    retired_instance_error,
    stacked_query_many,
)
from repro.ecube.slices import ECubeSliceEngine
from repro.ecube.stores import SliceStore
from repro.metrics import CostCounter
from repro.storage.serialize import require_dense


class CubeKernel:
    """Append-only MOLAP cube algorithm over an abstract slice store.

    Parameters
    ----------
    slice_shape:
        Domain sizes of the non-time dimensions ``N_2 .. N_d``.
    store:
        The slice-storage backend; bound to this kernel on construction.
    num_times:
        Optional upper bound on the TT-domain (used only for validation;
        the structure grows one *occurring* time at a time regardless).
    counter:
        Cost counter; a private one is created when omitted.
    finalize_threshold:
        Fast mode: conversion-flag density at which a historic slice is
        bulk-finalized to PS instead of evaluated cell-mixed.
    finalize_after:
        Fast mode: number of fast queries hitting a still-mixed historic
        slice before it is bulk-finalized.
    """

    #: the bottom of a point-object stack (:mod:`repro.core.front`)
    kind = "kernel"
    inner = None
    kernels = property(lambda self: (self,))

    def __init__(
        self,
        slice_shape: Sequence[int],
        store: SliceStore,
        num_times: int | None = None,
        counter: CostCounter | None = None,
        finalize_threshold: float = 0.05,
        finalize_after: int = 3,
    ) -> None:
        self.slice_shape = tuple(int(n) for n in slice_shape)
        if any(n <= 0 for n in self.slice_shape):
            raise DomainError(f"invalid slice shape {self.slice_shape}")
        self.num_times = int(num_times) if num_times is not None else None
        self.counter = counter if counter is not None else CostCounter()
        self.engine = ECubeSliceEngine(self.slice_shape)
        self.directory: TimeDirectory = TimeDirectory()
        self.updates_applied = 0
        # directory indices below this have had their detail retired
        self._retired_below = 0
        # budget for lazy copy-ahead work; thin cube classes that meter
        # copy work in cell accesses override this with the Section 3.4
        # amortized default (the paged backend bounds copy-ahead by I/O
        # instead and never reads it)
        self.copy_budget = 0
        # fast-mode machinery (term tables) is built on first use
        self.finalize_threshold = float(finalize_threshold)
        self.finalize_after = int(finalize_after)
        self._fast: FastSliceEngine | None = None
        self._num_slice_cells = int(np.prod(self.slice_shape))
        # per-operation page-access total of the most recent entry point
        # (stays 0 for backends that charge cell accesses)
        self.last_op_page_accesses = 0
        # -- epoch publication (snapshot-isolated concurrent reads) --------
        # bumped once per answer-changing kernel operation; the serving
        # front-end (repro.concurrent.SnapshotCube) uses it as the
        # copy-on-publish watermark for the frozen cache arrays
        self.epoch_version = 0
        # bumped by wrapper components (the G_d buffer) whose mutations
        # change answers without touching kernel state
        self.external_version = 0
        # the attached SnapshotCube (or None): receives publish() after
        # every answer-changing operation and note_rewrite() before every
        # mutation that rewrites the content of a historic instance
        self._epoch_sink = None
        self._epoch_dirty = False
        self._publish_barrier_depth = 0
        self._publish_pending = False
        self.store = store
        store.bind(self)

    @property
    def fast(self) -> FastSliceEngine:
        """The vectorized execution engine (built lazily: term tables)."""
        if self._fast is None:
            self._fast = FastSliceEngine(self.slice_shape)
        return self._fast

    @property
    def cache(self):
        """The backend's slice cache (dense/paged) or ``None`` (sparse)."""
        return getattr(self.store, "cache", None)

    @cache.setter
    def cache(self, value) -> None:
        self.store.cache = value

    # -- operation scoping --------------------------------------------------------

    @contextmanager
    def _op(self):
        """Bracket one public entry point for per-operation cost scoping.

        The bracket is also the epoch-publication point: when the
        outermost operation of an entry point mutated answer-affecting
        state (:meth:`_note_mutation`), the epoch version advances once
        and the attached snapshot front-end republishes -- nested entry
        points (batch replays) publish exactly one epoch.
        """
        opened = self.store.begin_op()
        try:
            yield
        finally:
            pages = self.store.end_op(opened)
            if pages is not None:
                self.last_op_page_accesses = pages
            if opened and self._epoch_dirty:
                self._epoch_dirty = False
                self.epoch_version += 1
                self._notify_sink()

    # -- epoch publication (snapshot-isolated concurrent reads) -------------------

    def _note_mutation(self) -> None:
        """Mark the current operation as answer-changing (epoch advance)."""
        self._epoch_dirty = True

    def _notify_sink(self) -> None:
        sink = self._epoch_sink
        if sink is None:
            return
        if self._publish_barrier_depth > 0:
            self._publish_pending = True
        else:
            sink.publish()

    def note_external_mutation(self) -> None:
        """A wrapper component (e.g. the ``G_d`` buffer) changed answers.

        Advances the external epoch version and republishes, so snapshot
        readers see buffer-only writes (a historic update landing in
        ``G_d`` without any kernel operation) as a new epoch too.
        """
        self.external_version += 1
        self._notify_sink()

    @contextmanager
    def publish_barrier(self):
        """Defer epoch publication until a multi-step operation completes.

        A logical write that mutates in several kernel steps (a buffered
        ``update_many`` split, a drain loop) must not expose its
        intermediate states: inside the barrier, version bumps still
        happen but the sink is notified only once, at barrier exit.
        """
        self._publish_barrier_depth += 1
        try:
            yield
        finally:
            self._publish_barrier_depth -= 1
            if self._publish_barrier_depth == 0 and self._publish_pending:
                self._publish_pending = False
                sink = self._epoch_sink
                if sink is not None:
                    sink.publish()

    def _note_rewrite(self, index: int) -> None:
        """Tell the snapshot front that historic content is about to change.

        Out-of-order corrections and splices are the only operations that
        change what historic instances answer; ``index`` is the first one
        whose content changes -- they reach it and every instance above.
        No published row is written (a correction re-publishes it); the
        front re-publishes the rows from ``index`` on.
        """
        sink = self._epoch_sink
        if sink is not None:
            sink.note_rewrite(index)

    # -- introspection ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        return 1 + len(self.slice_shape)

    @property
    def num_slices(self) -> int:
        return len(self.directory)

    @property
    def latest_time(self) -> int | None:
        return self.directory.latest_time if self.directory else None

    def incomplete_historic_instances(self) -> int:
        """Table 4 statistic: historic instances not yet completely copied."""
        return self.store.incomplete_instances()

    @property
    def retired_instances(self) -> int:
        return self._retired_below

    def occurring_times(self) -> tuple[int, ...]:
        return self.directory.times()

    def _check_cell(self, cell: tuple[int, ...]) -> None:
        for coord, size in zip(cell, self.slice_shape):
            if not 0 <= coord < size:
                raise DomainError(
                    f"cell {cell} outside slice shape {self.slice_shape}"
                )

    def _check_time(self, time: int) -> None:
        if self.num_times is not None and not 0 <= time < self.num_times:
            raise DomainError(f"time {time} outside [0, {self.num_times - 1}]")

    # -- data aging (Section 7) -------------------------------------------------

    def retire_before(self, time: int) -> int:
        """Retire detail slices older than ``time`` (data aging).

        Every slice with an occurring time strictly below ``time`` is
        released except the newest of them: that *boundary instance* is
        cumulative, so aggregates over all retired history remain
        answerable for free ("aggregates of retired detail data can be
        retained without additional computation costs").  Queries whose
        lower time bound falls inside the retired region afterwards raise
        :class:`~repro.core.errors.AgedOutError`.

        Returns the number of slices retired by this call.
        """
        if not self.directory:
            return 0
        boundary = self.directory.floor_index(int(time) - 1)
        if boundary <= self._retired_below:
            return 0
        retired = 0
        for index in range(self._retired_below, boundary):
            _, payload = self.directory.at_index(index)
            if not payload.retired:
                payload.retire()
                retired += 1
        self._retired_below = boundary
        self.epoch_version += 1
        self._notify_sink()
        return retired

    # -- updates (Figure 8) -------------------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        """Add ``delta`` to the cell at ``point = (t, x_2, .., x_d)``.

        ``t`` must be greater than or equal to the latest occurring time
        (append-only discipline); out-of-order updates belong in the
        framework's ``G_d`` buffer, not here.
        """
        point = tuple(int(c) for c in point)
        if len(point) != self.ndim:
            raise DomainError(f"point arity {len(point)} != {self.ndim}")
        time, cell = point[0], point[1:]
        self._check_cell(cell)
        self._check_time(time)
        delta = int(delta)
        with self._op():
            self._note_mutation()
            cost_at_start = self.counter.snapshot()

            # Step 1: reserve a new time slice when time advances.
            self._append_time(time)
            store = self.store
            last_index = store.last_index

            # Steps 2-3: DDC update set; lazy forced copies for stale cells.
            for affected in self.engine.update_cells(cell):
                value, stamp = store.cache_read(affected)
                if stamp < last_index:
                    self._copy_cell(affected, value, stamp, last_index)
                    store.cache_restamp(affected, last_index)
                store.cache_apply_delta(affected, delta)

            # Step 4: copy-ahead "while the current total cost of the
            # operation is low": the store spends whatever currency it
            # meters (the in-memory backends spend the cell-access headroom
            # left under the budget, the paged backend one page write).
            spent = (self.counter.snapshot() - cost_at_start).cell_accesses
            store.copy_ahead(spent)
            self.updates_applied += 1

    def _append_time(self, time: int) -> None:
        store = self.store
        if not self.directory:
            self.directory.append(time, store.new_slice())
            store.start_cache()
        elif time > self.directory.latest_time:
            self.directory.append(time, store.new_slice())
            store.notice_new_time()
        elif time < self.directory.latest_time:
            raise AppendOrderError(
                f"update at time {time} precedes latest occurring time "
                f"{self.directory.latest_time}; wrap the cube in an "
                "AppendOnlyAggregator with an out-of-order buffer instead"
            )

    def _copy_cell(
        self,
        cell: tuple[int, ...],
        value: int,
        from_index: int,
        to_index: int,
    ) -> None:
        """Write a cell's old value into slices ``[from_index, to_index)``.

        Cells already converted to PS by a query are skipped: their
        (converted) content is final and correct.
        """
        store = self.store
        with self.counter.copying():
            for index in range(max(from_index, self._retired_below), to_index):
                _, payload = self.directory.at_index(index)
                if payload.retired or store.is_ps(payload, cell):
                    continue
                store.copy_write(payload, cell, value)

    # -- out-of-order corrections (Section 2.5 drain target) ---------------------

    def apply_out_of_order(self, point: Sequence[int], delta: int) -> None:
        """Apply a historic update directly: a one-row batch of
        :meth:`land_historic`, which lands it in one pass where every
        instance it reaches is fully PS and cascades it through the slices
        otherwise (:meth:`_cascade`).

        This is the expensive operation the ``G_d`` buffer defers: a delta
        at TT-coordinate ``u`` must reach every cumulative instance with
        time >= ``u``.  Correctness over the *mixed* eCube representation:

        * the cache and DDC-flagged slice cells receive the delta on the
          DDC update set of the cell;
        * PS-flagged slice cells hold prefix sums, so every flagged cell
          dominating the updated cell (component-wise >=) receives the
          delta;
        * cells whose lazy copy is still pending are force-completed with
          their *old* value first, so the cache's future copies cannot
          leak the delta into instances older than ``u``.

        A correction at a historic time that never occurred in the stream
        first *splices* a new instance into the directory
        (:meth:`_splice_instance`).  Only corrections into the *retired*
        region remain unappliable
        (:class:`~repro.core.errors.AgedOutError`) -- those stay buffered
        in ``G_d``, where queries keep them exact.
        """
        point = tuple(int(c) for c in point)
        if len(point) != self.ndim:
            raise DomainError(f"point arity {len(point)} != {self.ndim}")
        time, cell = point[0], point[1:]
        self._check_cell(cell)
        self._check_historic(time)
        kept = self.land_historic(
            np.array([point], dtype=np.int64), np.array([int(delta)], dtype=np.int64)
        )
        if kept[0]:
            raise AgedOutError(
                f"time {time} lies in the retired region; the correction "
                "cannot be applied to freed detail"
            )

    def _check_historic(self, time: int) -> None:
        if not self.directory:
            raise AppendOrderError("cube is empty; append normally instead")
        if time >= self.directory.latest_time:
            raise AppendOrderError(
                f"time {time} is not historic; use update() for appends"
            )

    def _cascade(self, time: int, cell: tuple[int, ...], delta: int) -> None:
        """One validated correction through every instance from ``time`` up."""
        start_index = self.directory.floor_index(time)
        found_time, _ = (
            self.directory.at_index(start_index) if start_index >= 0 else (None, None)
        )
        # corrections rewrite historic instances from here on (a
        # never-occurring time is spliced in right above its floor)
        self._note_rewrite(start_index if found_time == time else start_index + 1)
        self._note_mutation()
        if found_time != time:
            start_index = self._splice_instance(time)
        elif start_index < self._retired_below:
            raise AgedOutError(
                f"time {time} lies in the retired region; the correction "
                "cannot be applied to freed detail"
            )
        store = self.store
        last_index = store.last_index

        # DDC path: cache plus already-copied unconverted slice cells.
        for affected in self.engine.update_cells(cell):
            value, stamp = store.cache_read(affected)
            if stamp < last_index:
                self._copy_cell(affected, value, stamp, last_index)
                store.cache_restamp(affected, last_index)
            store.cache_apply_delta(affected, delta)
            for index in range(max(start_index, self._retired_below), last_index):
                _, payload = self.directory.at_index(index)
                if payload.retired or store.is_ps(payload, affected):
                    continue
                store.oob_slice_add(payload, affected, delta)

        # PS path: every converted cell dominating the updated cell.
        dominating = None
        if store.wants_dominating_mask:
            dominating = np.ones(self.slice_shape, dtype=bool)
            for axis, coord in enumerate(cell):
                index_grid = np.arange(self.slice_shape[axis])
                shape = [1] * len(self.slice_shape)
                shape[axis] = self.slice_shape[axis]
                dominating &= (index_grid >= coord).reshape(shape)
        for index in range(max(start_index, self._retired_below), last_index):
            _, payload = self.directory.at_index(index)
            if payload.retired:
                continue
            store.dominating_ps_add(payload, cell, dominating, delta)

    def _splice_instance(self, time: int) -> int:
        """Make a never-occurring historic ``time`` occurring; return its index.

        The new instance's cumulative point set equals its floor
        instance's (no points lie strictly between the two occurring
        times), so the spliced slice *clones* the floor slice -- values,
        conversion flags and conversion count.  A correction before the
        first occurring time splices an all-zero instance (the empty
        cumulative set).  The cache's index-based stamps are shifted via
        the store's ``notice_spliced_index``.
        """
        floor_index = self.directory.floor_index(time)
        if floor_index < self._retired_below and self._retired_below > 0:
            raise AgedOutError(
                f"time {time} precedes the retirement boundary; a new "
                "instance cannot be spliced into freed detail"
            )
        floor_payload = None
        if floor_index >= 0:
            _, floor_payload = self.directory.at_index(floor_index)
            if floor_payload.retired:
                raise AgedOutError(
                    "slice detail was retired by data aging; its storage is "
                    "no longer accessible"
                )
        payload = self.store.clone_payload(floor_payload)
        # Materializing the instance is a full-slice copy, charged as
        # copying work (one read plus one write per cell).
        with self.counter.copying():
            self.counter.read_cells(self._num_slice_cells)
            self.counter.write_cells(self._num_slice_cells)
        index = self.directory.insert_historic(time, payload)
        self.store.notice_spliced_index(index)
        return index

    def apply_out_of_order_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
    ) -> int:
        """Apply a batch of historic corrections; return how many.

        The whole batch is checked before anything moves, sorted newest
        time first ("beginning with the latest instance", Section 2.5) and
        landed by :meth:`land_historic`: in one pass over the instances
        where every instance it reaches is fully PS, otherwise the
        :meth:`apply_out_of_order` cascade, once per correction.  A correction
        aimed into the retired region is not applied; the rest are, and
        then :class:`~repro.core.errors.AgedOutError` is raised -- the
        state a cascade newest first stops in when it reaches the first of
        them, so a logged batch replays to the same cube.
        """
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.shape[0] == 0:
            return 0
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise DomainError(
                f"points must be (n, {self.ndim}); got {points.shape}"
            )
        if deltas.shape != (points.shape[0],):
            raise DomainError("need exactly one delta per point")
        self._check_historic(int(points[:, 0].max()))
        order = np.argsort(points[:, 0], kind="stable")[::-1]
        points, deltas = points[order], deltas[order]
        kept = self.land_historic(points, deltas)
        if kept.any():
            raise AgedOutError(
                f"time {int(points[kept][0, 0])} lies in the retired region; "
                "the correction cannot be applied to freed detail"
            )
        return int(points.shape[0])

    def check_cells(self, cells: Sequence[Sequence[int]] | np.ndarray) -> None:
        """Refuse a batch holding a cell outside the slice shape
        (:class:`~repro.core.errors.DomainError`)."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and (
            (cells < 0).any() or (cells >= np.asarray(self.slice_shape)).any()
        ):
            raise DomainError(
                f"batch contains cells outside slice shape {self.slice_shape}"
            )

    def land_historic(self, points: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Land corrections at times before the latest, given newest first.

        Every cell is checked before anything moves.  A correction aimed
        into the retired region is kept back; the mask of those is
        returned.  The rest land in one pass (:meth:`_land_in_one_pass`)
        when every instance they reach is fully PS -- every historic
        instance under a snapshot front is a published row -- and
        otherwise by one :meth:`_cascade` each, newest first: the
        reproduction kernel's mixed slices and its counted costs.
        """
        self.check_cells(points[:, 1:])
        times = points[:, 0]
        if self._retired_below:
            kept = times < self.directory.at_index(self._retired_below)[0]
        else:
            kept = np.zeros(times.shape, dtype=bool)
        live = ~kept
        with self._op():
            self._note_mutation()
            if not live.any():
                return kept
            if self._reaches_only_ps(int(times[live].min())):
                self._land_in_one_pass(points[live], deltas[live])
            else:
                for point, delta in zip(points[live].tolist(), deltas[live].tolist()):
                    self._cascade(point[0], tuple(point[1:]), delta)
        return kept

    def _reaches_only_ps(self, time: int) -> bool:
        """Whether every instance a correction at ``time`` or later writes
        is fully PS: from the floor of ``time`` (a splice clones it), or
        from the oldest instance a pending lazy copy still owes, up."""
        store = self.store
        if store.kind != "dense":
            return False
        low = self.directory.floor_index(time)
        if store.cache.pending:
            low = min(low, store.cache.min_stamp_index())
        full = self._num_slice_cells
        return all(
            self.directory.at_index(index)[1].ps_count >= full
            for index in range(max(low, self._retired_below), store.last_index)
        )

    def _land_in_one_pass(self, points: np.ndarray, deltas: np.ndarray) -> None:
        """Land live corrections over fully PS instances in one pass.

        Colley's delta summation: one running sum of the corrections,
        added to every later state.  Each never-occurring time is spliced
        in once and the rewrite is noted once, at the lowest target.  The
        whole batch's DDC update sets reach the cache in one scatter; a
        stale cell's forced copies would land only in PS cells, which take
        none, so it is just restamped.  Then the instances are walked from
        the lowest target up with the running delta array and its prefix
        sums, each added to its instance once (``DenseStore.landing``: a
        published row is re-published under the anchor rule).  Charged in
        bulk: the cache's cells read and written, and one write per cell of
        every instance the walk adds to.
        """
        directory, store, shape = self.directory, self.store, self.slice_shape
        times = points[:, 0]
        low = int(times.min())
        floor = directory.floor_index(low)
        found = floor >= 0 and directory.at_index(floor)[0] == low
        self._note_rewrite(floor if found else floor + 1)
        for time in sorted(set(times.tolist()) - set(directory.times()), reverse=True):
            payload = directory.at_index(self._splice_instance(time))[1]
            if not payload.ps_count:  # before the first instance: zeros, PS too
                if store.published(directory.at_index(1)[1]):  # a row, as above
                    store.adopt_row(payload, store.make_row(payload.values, None))
                else:
                    payload.ps_flags[...] = True
                    payload.ps_count = self._num_slice_cells
        self.counter.record_fast_op(int(times.shape[0]))
        cache, last = store.cache, store.last_index
        flat, sizes = self.fast.ddc_tables.update_flat_sets(points[:, 1:])
        affected = compiled.sorted_unique(flat)
        self.counter.read_cells(int(affected.size))
        cache.bulk_restamp(affected[cache.flat_stamps[affected] < last], last)
        compiled.scatter_add(cache.flat_values, flat, np.repeat(deltas, sizes))
        self.counter.write_cells(int(flat.size))

        targets = np.searchsorted(np.asarray(directory.times()), times)
        order = np.argsort(targets, kind="stable")
        targets, deltas = targets[order], deltas[order]
        cells = np.ravel_multi_index(tuple(points[order, 1:].T), shape)
        first = int(targets[0])
        stops = np.searchsorted(targets, np.arange(first, last), side="right")
        running = np.zeros(shape, dtype=np.int64)
        sums = np.empty_like(running)
        landing = store.landing(
            directory.at_index(first - 1)[1] if first > self._retired_below else None
        )
        start = 0
        for index, stop in zip(range(first, last), stops.tolist()):
            changed = stop > start
            if changed:
                compiled.scatter_add(
                    running.reshape(-1), cells[start:stop], deltas[start:stop]
                )
                np.cumsum(running, axis=0, out=sums)
                for axis in range(1, sums.ndim):
                    np.cumsum(sums, axis=axis, out=sums)
                start = stop
            landing.add(directory.at_index(index)[1], sums, changed)
        self.counter.write_cells((last - first) * self._num_slice_cells)

    # -- queries (Figure 9) ---------------------------------------------------------

    def query(self, box: Box) -> int:
        """Aggregate over an inclusive d-dimensional box (time is axis 0)."""
        if box.ndim != self.ndim:
            raise DomainError(f"box arity {box.ndim} != cube arity {self.ndim}")
        if not self.directory:
            with self._op():
                pass
            return 0
        with self._op():
            time_low, time_up = box.time_range
            slice_box = box.drop_first().clip_to(self.slice_shape)
            upper = self._prefix_time_query(slice_box, time_up)
            lower = self._prefix_time_query(slice_box, time_low - 1)
        return upper - lower

    def _prefix_time_query(self, slice_box: Box, time: int) -> int:
        """eCubeQuery of Figure 9: slice query at the cumulative instance
        covering all points with TT-coordinate <= ``time``.

        Note: Section 2.3's prose picks the *smallest occurring time >=
        upper bound*, but that instance would include points beyond the
        query range; the worked example of Section 2.2 ("greatest time
        value which is less than or equal to the upper value") is the
        correct -- and implemented -- selection.
        """
        found = self.directory.floor_index(time)
        if found < 0:
            return 0
        return self._slice_query(found, slice_box)

    def _slice_query(self, slice_index: int, slice_box: Box) -> int:
        _, payload = self.directory.at_index(slice_index)
        if payload.retired:
            time, _ = self.directory.at_index(slice_index)
            raise retired_instance_error(time)
        store = self.store
        counter = self.counter

        def read(cell: tuple[int, ...]) -> tuple[int, bool]:
            counter.read_cells()
            if store.is_ps(payload, cell):
                # A persisted conversion is final for this slice even if the
                # lazy copy of the underlying DDC value has not landed yet.
                return store.slice_peek(payload, cell), True
            if store.cache_peek_stamp(cell) > slice_index:
                return store.slice_peek(payload, cell), False
            # Not copied yet: the cache value is current for this slice
            # (its last change happened at or before slice_index).
            return store.cache_peek_value(cell), False

        if slice_index < store.last_index:
            def mark(cell: tuple[int, ...], ps_value: int) -> None:
                # Historic content is final: persist the conversion.
                store.mark_ps(payload, cell, ps_value)
        else:
            # The latest instance may still change (same-time updates);
            # never persist conversions into it.
            mark = None

        return self.engine.range_query(slice_box, read, mark)

    # -- fast (vectorized) execution mode -----------------------------------------
    #
    # The metered paths above walk term sets cell by cell so counted costs
    # match the paper's traces exactly.  The fast mode below answers the
    # same queries and applies the same updates with flat NumPy gathers,
    # scatters and whole-slice transforms; results are bit-identical, and
    # accesses are charged in bulk (aggregate tallies, not per-cell call
    # sequences) in whichever currency the store meters.

    def fast_query(self, box: Box) -> int:
        """:meth:`query` on the vectorized path (identical result)."""
        return self.query_many([box], mode="fast")[0]

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """Answer a batch of d-dimensional range aggregates.

        ``boxes`` is a :class:`Box` sequence or an ``(n, 2, d)`` int64
        corner array (:func:`~repro.core.types.box_array`).
        ``mode="metered"`` runs the per-cell counted path per box;
        ``mode="fast"`` is the stacked batch read
        (:func:`~repro.ecube.fastpath.stacked_query_many`) over the live
        store: each touched slice is set up (and, past the hit or
        conversion-density threshold, bulk-finalized) once per batch
        instead of once per query.
        """
        corners = box_array(boxes, self.ndim)
        if mode == "metered":
            with self._op():
                return [self.query(box) for box in as_boxes(corners)]
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        n = corners.shape[0]
        with self._op():
            if not n:
                return []
            if not self.directory:
                return [0] * n
            self.counter.record_fast_op(n)
            results = stacked_query_many(corners, _LiveSlices(self), self.counter)
            return [int(v) for v in results]

    def bulk_finalize_slice(self, slice_index: int) -> bool:
        """Convert one historic slice to PS in a single vectorized sweep.

        Replaces per-cell conversion recursion: the slice's effective DDC
        array is assembled from slice storage and cache, deaggregated per
        axis and prefix-summed per axis (``np.cumsum``).  Returns True
        when the slice is fully PS afterwards; False when it cannot be
        finalized (latest instance, retired detail, or a converted cell
        whose DDC value was dropped by a skipped lazy copy).
        """
        store = self.store
        with self._op():
            if not 0 <= slice_index < store.last_index:
                return False
            if slice_index < self._retired_below:
                return False
            _, payload = self.directory.at_index(slice_index)
            if payload.retired:
                return False
            if payload.ps_count >= self._num_slice_cells:
                return True
            fast = self.fast
            values, flags = store.slice_views(payload)
            cache_values, stamps = store.cache_views()
            effective = fast.effective_ddc(
                values, flags, stamps, cache_values, slice_index
            )
            if effective is None:
                return False
            store.finalize_commit(payload, fast.ddc_to_ps(effective))
            # Bulk charge: one read per cell assembled.  Conversion writes
            # are not charged, matching the metered mark() path.
            self.counter.read_cells(self._num_slice_cells)
            return True

    def update_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
        mode: str = "fast",
    ) -> None:
        """Apply a batch of append-ordered updates.

        ``mode="metered"`` replays the batch through :meth:`update`.
        ``mode="fast"`` groups updates by occurring time and, per group,
        scatters all DDC update sets into the cache with one
        ``np.add.at``, performing the forced lazy copies for stale cells
        as per-historic-slice vectorized writes first.  Resulting cube
        state answers every query identically to the metered replay
        (fast mode performs no copy-ahead; see :meth:`sync_copies`).
        """
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise DomainError(
                f"points must be (n, {self.ndim}); got {points.shape}"
            )
        if deltas.shape != (points.shape[0],):
            raise DomainError("need exactly one delta per point")
        if points.shape[0] == 0:
            return
        if mode == "metered":
            with self._op():
                for point, delta in zip(points, deltas):
                    self.update(tuple(int(c) for c in point), int(delta))
            return
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        times = points[:, 0]
        cells = points[:, 1:]
        self.check_cells(cells)
        if self.num_times is not None and (
            int(times.min()) < 0 or int(times.max()) >= self.num_times
        ):
            raise DomainError(
                f"batch contains times outside [0, {self.num_times - 1}]"
            )
        if np.any(np.diff(times) < 0):
            raise AppendOrderError("batch times must be non-decreasing")
        if self.directory and int(times[0]) < self.directory.latest_time:
            raise AppendOrderError(
                f"update at time {int(times[0])} precedes latest occurring "
                f"time {self.directory.latest_time}; wrap the cube in an "
                "AppendOnlyAggregator with an out-of-order buffer instead"
            )
        with self._op():
            self._note_mutation()
            self.counter.record_fast_op(points.shape[0])
            fast = self.fast
            boundaries = np.nonzero(np.diff(times))[0] + 1
            starts = np.concatenate(([0], boundaries))
            stops = np.concatenate((boundaries, [points.shape[0]]))
            for start, stop in zip(starts, stops):
                time = int(times[start])
                if not self.directory or time > self.directory.latest_time:
                    self._append_time(time)
                self.store.fast_group_apply(
                    cells[start:stop], deltas[start:stop], fast
                )
                self.updates_applied += int(stop - start)

    def sync_copies(self) -> int:
        """Complete every pending lazy copy in vectorized sweeps.

        The fast update path performs only the *forced* copies required
        for correctness; this is its batched replacement for the metered
        copy-ahead loop, restoring the "all timestamps current" state in
        one pass.  Returns the number of cells copied.
        """
        with self._op():
            return self.store.sync_copies()

    def resident_slice_bytes(self) -> int:
        """Resident bytes of all live (non-retired) slice payloads.

        The quantity data aging reclaims: retired payloads count zero,
        the shared update cache is excluded (identical either way).  The
        tiered-retention benchmark compares this between a demoted and
        an undemoted (dense) cube.
        """
        self._require_dense("resident_slice_bytes")
        total = 0
        for index in range(len(self.directory)):
            _, payload = self.directory.at_index(index)
            total += self.store.payload_nbytes(payload)
        return total

    # -- durability hooks (checkpoint snapshots and log replay) -------------------

    def _require_dense(self, name: str) -> None:
        """Refuse a serving hook (persistence, the resident footprint
        tiers report) on a paged or sparse kernel."""
        if self.store.kind != "dense":
            raise DomainError(
                f"{name}() serves dense kernels only; a {self.store.kind} "
                "kernel is one of the paper's cost models, used bare"
            )

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Snapshot the (dense) kernel's durable state as named arrays.

        ``fast_hits`` finalization counters are deliberately not part of
        durable state: they are a performance heuristic, not an
        answer-affecting quantity.
        """
        self._require_dense("state_arrays")
        arrays: dict[str, np.ndarray] = {
            "slice_shape": np.array(self.slice_shape, dtype=np.int64),
            "num_times": np.array(
                [-1 if self.num_times is None else self.num_times]
            ),
            "copy_budget": np.array([self.copy_budget]),
            "retired_below": np.array([self._retired_below]),
            "updates_applied": np.array([self.updates_applied]),
            "occurring_times": np.array(self.directory.times(), dtype=np.int64),
            "backend": np.array("dense"),
        }
        for index in range(len(self.directory)):
            _, payload = self.directory.at_index(index)
            self.store.snapshot_slice(payload, index, arrays)
        self.store.snapshot_cache(arrays)
        return arrays

    def restore_state(self, arrays) -> None:
        """Rebuild directory, slices and cache from :meth:`state_arrays`.

        The kernel must be freshly constructed with the same slice shape;
        counters are not restored (a recovered cube starts cost
        accounting from zero).  Arrays an older build wrote for a paged
        or sparse kernel are refused (``serialize.require_dense``).
        """
        self._require_dense("restore_state")
        if self.directory:
            raise DomainError("restore_state requires an empty cube")
        if "backend" in arrays:
            require_dense(str(np.asarray(arrays["backend"]).item()), "the archive")
        self.copy_budget = int(np.asarray(arrays["copy_budget"])[0])
        times = [int(t) for t in np.asarray(arrays["occurring_times"])]
        for index, time in enumerate(times):
            self.directory.append(time, self.store.restore_slice(index, arrays))
        self._retired_below = int(np.asarray(arrays["retired_below"])[0])
        self.updates_applied = int(np.asarray(arrays["updates_applied"])[0])
        self.store.restore_cache(arrays, len(times))
        self.epoch_version += 1
        self._notify_sink()

    def replay_out_of_order(self, point: Sequence[int], delta: int) -> bool:
        """:meth:`apply_out_of_order` for log replay; guards data aging.

        A replayed tail can carry corrections addressed to times that
        were already retired when the log was written (the original call
        raised and the cube stayed unchanged).  Replay must not let such
        a record resurrect freed detail -- or abort recovery -- so the
        aged-out case is reported as ``False`` instead of raised.
        """
        try:
            self.apply_out_of_order(point, delta)
        except AgedOutError:
            return False
        return True

    # -- whole-cube helpers ------------------------------------------------------

    def total(self) -> int:
        """Aggregate over the entire cube."""
        if not self.directory:
            with self._op():
                pass
            return 0
        full = Box(
            (0,) * len(self.slice_shape),
            tuple(n - 1 for n in self.slice_shape),
        )
        with self._op():
            return self._slice_query(len(self.directory) - 1, full)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(slice_shape={self.slice_shape}, "
            f"slices={self.num_slices}, updates={self.updates_applied})"
        )


class _LiveSlices:
    """The live store as the batch evaluator's slice source.

    Reuse of a slice's normalization is the kernel's finalize policy: a
    historic slice that keeps being read (or is already densely
    converted) is bulk-finalized in storage, charged as one read per
    cell.  The per-cell fallback is the metered walk, because on the live
    cube it must charge and mark.
    """

    def __init__(self, kernel: CubeKernel) -> None:
        self.kernel = kernel
        self.slice_shape = kernel.slice_shape
        self.times = np.asarray(kernel.directory.times(), dtype=np.int64)
        self.retired_below = kernel.retired_instances

    @property
    def fast(self) -> FastSliceEngine:
        return self.kernel.fast

    def cache_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.kernel.store.cache_views()

    def fetch(self, index: int):
        kernel = self.kernel
        store = kernel.store
        if index >= store.last_index:
            # the latest instance always reads through to the cache,
            # whose content is the instance's DDC array
            return DDC, store.cache_views()[0], None
        _, payload = kernel.directory.at_index(index)
        fully_ps = payload.ps_count >= kernel._num_slice_cells
        if not fully_ps:
            payload.fast_hits += 1
            density = payload.ps_count / kernel._num_slice_cells
            if (
                payload.fast_hits >= kernel.finalize_after
                or density >= kernel.finalize_threshold
            ):
                fully_ps = kernel.bulk_finalize_slice(index)
        values, flags = store.slice_views(payload)
        return (PS if fully_ps else MIXED), values, flags

    def normalised(self, index: int, ps_row: np.ndarray) -> None:
        pass

    def walk(self, index: int, box: Box, values, flags) -> int:
        return self.kernel._slice_query(index, box)
