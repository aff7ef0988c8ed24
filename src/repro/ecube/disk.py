"""The external-memory Evolving Data Cube (Section 3.5).

Differences from the in-memory cube:

* historic slices live on simulated disk pages
  (:class:`repro.storage.PagedArray`, 8 KiB pages, 4-byte cells, so one
  page holds 2048 cells);
* the cache stays in main memory -- touching it costs cell accesses but no
  I/O;
* lazy copying is *page-wise*: the copy-ahead step performs at most one
  page write per update, and "a single page write copies 2048 cells",
  which is why the disk variant never leaves more than one historic
  instance incomplete (Table 4);
* per-operation cost is the number of distinct pages touched (the paper
  used no caching across operations; within one operation a page is
  charged once).

The cube is the shared :class:`~repro.ecube.kernel.CubeKernel` over
:class:`PagedStore`: directory, lazy copying, read-through, out-of-order
corrections, data aging and the batch entry points are the kernel's;
this module supplies the page-charging store and its geometry.  Batch
operations (``update_many``/``query_many``) share one
:class:`~repro.storage.PageAccessTracker` across the batch, so a page
touched by several updates or consulted by several queries is charged
once per batch; ``last_op_page_accesses`` afterwards holds the batch
total.

It is the paper's cost model, used as a bare kernel: no ``G_d`` buffer,
log, snapshot, tier or shard sits over a paged store
(:func:`repro.core.front.layers` refuses such a stack), so this module
carries none of the serving hooks :class:`~repro.ecube.stores.DenseStore`
has.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ecube import compiled
from repro.ecube.kernel import CubeKernel
from repro.ecube.stores import ArrayCacheStore
from repro.metrics import CostCounter
from repro.storage.layout import DEFAULT_CELL_SIZE, DEFAULT_PAGE_SIZE
from repro.storage.pages import PageAccessTracker, PagedArray


class PagedSlice:
    """One historic (or latest) slice stored across simulated pages.

    The PS/DDC flag bit rides inside the cell on disk; tracking it in
    memory here does not change page counts.
    """

    __slots__ = ("store", "ps_flags", "ps_count", "fast_hits", "retired")

    def __init__(
        self, shape: tuple[int, ...], page_size: int, cell_size: int,
        counter,
    ) -> None:
        self.store = PagedArray(shape, page_size, cell_size, counter)
        self.ps_flags = np.zeros(shape, dtype=bool)
        self.ps_count = 0
        self.fast_hits = 0
        self.retired = False

    def retire(self) -> None:
        self.store = None
        self.ps_flags = None
        self.retired = True


class PagedStore(ArrayCacheStore):
    """Slices on simulated disk pages; cost = distinct pages per operation.

    The cache stays in main memory, so cache touches cost cell accesses
    exactly as in the dense backend; slice touches record (store, page)
    pairs on the per-operation tracker and are flushed to the counter as
    page reads/writes when the outermost operation ends.  Lazy copying is
    page-wise: forced copies write through :meth:`PagedArray.write`
    (pages only) and the copy-ahead performs at most one
    :meth:`PagedArray.write_page` per update ("a single page write copies
    2048 cells", Section 3.5).
    """

    kind = "paged"

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        cell_size: int = DEFAULT_CELL_SIZE,
    ) -> None:
        super().__init__()
        self.page_size = page_size
        self.cell_size = cell_size
        self._tracker: PageAccessTracker | None = None
        # roving page pointer of the page-wise copy-ahead
        self._copy_slice_index = 0
        self._copy_page = 0

    # -- operation scoping -----------------------------------------------------

    def _op_started(self) -> None:
        self._tracker = PageAccessTracker()

    def _op_finished(self) -> int:
        pages = self._tracker.flush_to(self.counter)
        self._tracker = None
        return pages

    @property
    def tracker(self) -> PageAccessTracker:
        if self._tracker is None:
            # every kernel entry point opens an op; this only triggers for
            # direct store poking outside the kernel (never flushed)
            self._tracker = PageAccessTracker()
        return self._tracker

    # -- slice primitives ------------------------------------------------------

    def new_slice(self) -> PagedSlice:
        return PagedSlice(
            self.kernel.slice_shape, self.page_size, self.cell_size,
            self.counter,
        )

    def slice_peek(self, payload, cell) -> int:
        return payload.store.read(cell, self.tracker)

    def copy_write(self, payload, cell, value: int) -> None:
        # page charge only: external-memory copies cost I/O, not cell work
        payload.store.write(cell, value, self.tracker)

    def mark_ps(self, payload, cell, ps_value: int) -> None:
        payload.store.write(cell, ps_value, self.tracker)
        if not payload.ps_flags[cell]:
            payload.ps_count += 1
        payload.ps_flags[cell] = True

    def oob_slice_add(self, payload, cell, delta: int) -> None:
        store = payload.store
        self.tracker.record_write(store.store_id, store.page_of(cell))
        store.cells[tuple(cell)] += delta

    def dominating_ps_add(self, payload, cell, dominating, delta: int) -> None:
        mask = payload.ps_flags & dominating
        flat = np.nonzero(mask.reshape(-1))[0]
        if flat.size == 0:
            return
        store = payload.store
        store.cells.reshape(-1)[flat] += delta
        for page in compiled.sorted_unique(flat // store.cells_per_page):
            self.tracker.record_write(store.store_id, int(page))

    def clone_payload(self, floor_payload) -> PagedSlice:
        payload = self.new_slice()
        tracker = self.tracker
        if floor_payload is not None:
            for page in range(floor_payload.store.num_pages):
                tracker.record_read(floor_payload.store.store_id, page)
            payload.store.cells[...] = floor_payload.store.cells
            payload.ps_flags[...] = floor_payload.ps_flags
            payload.ps_count = floor_payload.ps_count
        for page in range(payload.store.num_pages):
            tracker.record_write(payload.store.store_id, page)
        return payload

    # -- page-wise copy-ahead (Section 3.5) ------------------------------------

    def copy_ahead(self, spent: int) -> None:
        """At most one page write copying pending cells of the earliest
        incomplete slice; the cell-budget argument is ignored (the paged
        backend bounds copy-ahead by I/O, not cell work)."""
        cache = self.cache
        if cache.pending == 0:
            return
        target = cache.min_stamp_index()
        if target >= cache.last_index:
            return
        if target != self._copy_slice_index:
            self._copy_slice_index = target
            self._copy_page = 0
        _, payload = self.kernel.directory.at_index(target)
        if payload.retired:
            # aged-out target: nothing to write, just advance the stamps
            flat_stamps = cache.stamps.reshape(-1)
            for linear in np.nonzero(flat_stamps == target)[0]:
                cell = tuple(
                    int(c) for c in np.unravel_index(int(linear), cache.shape)
                )
                cache.restamp(cell, target + 1)
            return
        store = payload.store
        per_page = store.cells_per_page
        flat_values = cache.values.reshape(-1)
        flat_stamps = cache.stamps.reshape(-1)
        flags_flat = payload.ps_flags.reshape(-1)
        num_cells = cache.num_cells
        # find the next page of this slice holding cells still stamped at
        # the target index
        for _ in range(store.num_pages):
            page = self._copy_page
            start = page * per_page
            stop = min(start + per_page, num_cells)
            stamps = flat_stamps[start:stop]
            pending_mask = stamps == target
            self._copy_page = (page + 1) % store.num_pages
            if not pending_mask.any():
                continue
            linear = np.nonzero(pending_mask)[0] + start
            writable = linear[~flags_flat[linear]]
            # cells a query already converted to PS are not written; only
            # their stamps advance
            if writable.size:
                with self.counter.copying():
                    store.write_page(
                        page,
                        writable.tolist(),
                        flat_values[writable].tolist(),
                        self.tracker,
                    )
                    self.counter.write_cells(int(writable.size))
            for cell_linear in linear.tolist():
                cell = tuple(
                    int(c)
                    for c in np.unravel_index(cell_linear, cache.shape)
                )
                cache.restamp(cell, target + 1)
            return

    # -- fast-engine views -----------------------------------------------------

    def slice_views(self, payload) -> tuple[np.ndarray, np.ndarray]:
        """Direct cell/flag arrays; charges a read of every slice page.

        Fast-mode evaluation consults the slice wholesale, so the charge
        is slice-granular: one read per page of the instance, deduplicated
        per operation by the tracker.
        """
        store = payload.store
        tracker = self.tracker
        for page in range(store.num_pages):
            tracker.record_read(store.store_id, page)
        return store.cells, payload.ps_flags

    def finalize_commit(self, payload, ps: np.ndarray) -> None:
        store = payload.store
        store.cells[...] = ps
        payload.ps_flags[...] = True
        payload.ps_count = self.kernel._num_slice_cells
        tracker = self.tracker
        for page in range(store.num_pages):
            tracker.record_write(store.store_id, page)

    def _bulk_copy(self, payload, writable: np.ndarray, values: np.ndarray) -> None:
        store = payload.store
        store.cells.reshape(-1)[writable] = values
        for page in compiled.sorted_unique(writable // store.cells_per_page):
            self.tracker.record_write(store.store_id, int(page))


class DiskEvolvingDataCube(CubeKernel):
    """Append-only MOLAP cube with page-granular historic storage."""

    def __init__(
        self,
        slice_shape: Sequence[int],
        num_times: int | None = None,
        counter: CostCounter | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cell_size: int = DEFAULT_CELL_SIZE,
    ) -> None:
        super().__init__(
            slice_shape,
            PagedStore(page_size=page_size, cell_size=cell_size),
            num_times=num_times,
            counter=counter,
        )
        self.page_size = page_size
        self.cell_size = cell_size

    def __repr__(self) -> str:
        return (
            f"DiskEvolvingDataCube(slice_shape={self.slice_shape}, "
            f"slices={self.num_slices}, updates={self.updates_applied})"
        )
