"""Pluggable slice-storage backends for the unified cube kernel.

The paper's framework (Section 2) is storage-agnostic: the eCube
(Section 3), its external-memory variant (Section 3.5) and the sparse
follow-up (Section 7) are *one* algorithm over different slice
representations.  :class:`~repro.ecube.kernel.CubeKernel` implements that
algorithm once; this module supplies the representations:

:class:`DenseStore`
    ndarray slices and the dense :class:`~repro.ecube.cache.SliceCache`
    (Section 3.4).  Every slice touch is a counted cell access.

:class:`PagedStore`
    slices on simulated disk pages (:class:`~repro.storage.PagedArray`,
    Section 3.5).  The cache stays in main memory (cell accesses); slice
    touches are charged as *distinct pages per operation* through a
    :class:`~repro.storage.PageAccessTracker` scoped to the kernel's
    public entry points, and lazy copying is page-wise: at most one
    copy-ahead page write per update.

:class:`SparseStore`
    dict-of-touched-cells slices and cache (Section 7 future work).  An
    untouched cell is implicitly zero and never owes copies (its stamp
    is implicitly current); conversion to PS densifies, which the store
    tracks as ``materialized_cells``.

Each store mediates *where bytes live and what an access costs*; the
kernel owns the directory, the read-through routing, lazy copying
discipline, conversion, out-of-order corrections and aging.  The cost
semantics of the three pre-refactor cube classes are preserved exactly
-- the golden-cost suite pins the dense counts and the equivalence suite
(`tests/test_backend_equivalence.py`) pins the cross-backend agreement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.ecube import compiled
from repro.ecube.cache import SliceCache
from repro.storage.layout import DEFAULT_CELL_SIZE, DEFAULT_PAGE_SIZE
from repro.storage.pages import PageAccessTracker, PagedArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.ecube.fastpath import FastSliceEngine
    from repro.ecube.kernel import CubeKernel


def _adopt_array(raw, dtype) -> np.ndarray:
    """Restore-time array adoption: zero-copy for read-only sources.

    A read-only input (an mmap view over a checkpoint archive,
    :mod:`repro.storage.mmap_npz`) is adopted as-is -- the owning store
    promotes it to a heap copy on first write.  A writable input is
    copied, preserving the no-aliasing contract of dict-based
    ``state_arrays``/``restore_state`` round trips.
    """
    array = np.asarray(raw, dtype=dtype)
    return array if not array.flags.writeable else array.copy()


# -- slice payloads ------------------------------------------------------------


class DenseSlice:
    """Reserved storage for one historic (or latest) time slice.

    After :meth:`retire` the arrays are released; any further access must
    go through :meth:`data`, which raises
    :class:`~repro.core.errors.AgedOutError` instead of surfacing a bare
    ``NoneType`` failure.
    """

    __slots__ = ("values", "ps_flags", "ps_count", "fast_hits", "mut_version")

    values: np.ndarray | None
    ps_flags: np.ndarray | None

    def __init__(self, shape: tuple[int, ...]) -> None:
        # 'Reserved' in the paper's sense: allocated but semantically
        # unfilled; reads are only routed here once a copy has landed.
        self.values = np.zeros(shape, dtype=np.int64)
        self.ps_flags = np.zeros(shape, dtype=bool)
        # number of flag bits set (conversion density, drives bulk finalize)
        self.ps_count = 0
        # fast-mode queries that touched this slice while still mixed
        self.fast_hits = 0
        # seqlock generation for lock-free snapshot readers: odd while a
        # value/flag pair is being rewritten (conversions, corrections)
        self.mut_version = 0

    def retire(self) -> None:
        """Release the detail storage (moved to mass storage, Section 7)."""
        self.values = None
        self.ps_flags = None

    @property
    def retired(self) -> bool:
        return self.values is None

    def data(self) -> tuple[np.ndarray, np.ndarray]:
        """The (values, ps_flags) arrays; raises after retirement."""
        if self.values is None or self.ps_flags is None:
            from repro.core.errors import AgedOutError

            raise AgedOutError(
                "slice detail was retired by data aging; its storage is "
                "no longer accessible"
            )
        return self.values, self.ps_flags


class PagedSlice:
    """One historic (or latest) slice stored across simulated pages.

    The PS/DDC flag bit rides inside the cell on disk; tracking it in
    memory here does not change page counts.
    """

    __slots__ = ("store", "ps_flags", "ps_count", "fast_hits", "retired",
                 "mut_version")

    def __init__(
        self, shape: tuple[int, ...], page_size: int, cell_size: int,
        counter,
    ) -> None:
        self.store = PagedArray(shape, page_size, cell_size, counter)
        self.ps_flags = np.zeros(shape, dtype=bool)
        self.ps_count = 0
        self.fast_hits = 0
        self.retired = False
        self.mut_version = 0

    def retire(self) -> None:
        self.store = None
        self.ps_flags = None
        self.retired = True


class SparseSlice:
    """One slice: touched cells only.  value map + PS flag set."""

    __slots__ = ("values", "ps_cells", "fast_hits", "retired", "mut_version")

    def __init__(self) -> None:
        self.values: dict[tuple[int, ...], int] = {}
        self.ps_cells: set[tuple[int, ...]] = set()
        self.fast_hits = 0
        self.retired = False
        self.mut_version = 0

    @property
    def ps_count(self) -> int:
        return len(self.ps_cells)

    def retire(self) -> None:
        self.values = {}
        self.ps_cells = set()
        self.retired = True


# -- the store protocol --------------------------------------------------------


@runtime_checkable
class SliceStore(Protocol):
    """What the kernel requires of a slice-storage backend.

    A store owns the physical representation of the cache and the slice
    payloads and charges every access in its own cost currency (cell
    accesses for in-memory backends, distinct pages per operation for the
    external-memory one).  The kernel drives it exclusively through this
    interface; see :class:`BaseSliceStore` for the shared scaffolding and
    the three concrete backends for the semantics of each method.
    """

    kind: str
    wants_dominating_mask: bool

    def bind(self, kernel: "CubeKernel") -> None: ...

    def new_slice(self): ...

    def start_cache(self) -> None: ...

    def notice_new_time(self) -> None: ...

    def notice_spliced_index(self, index: int) -> None: ...

    @property
    def last_index(self) -> int: ...

    def cache_read(self, cell) -> tuple[int, int]: ...

    def cache_apply_delta(self, cell, delta: int) -> None: ...

    def cache_restamp(self, cell, index: int) -> None: ...

    def cache_peek_stamp(self, cell) -> int: ...

    def cache_peek_value(self, cell) -> int: ...

    def is_ps(self, payload, cell) -> bool: ...

    def slice_peek(self, payload, cell) -> int: ...

    def copy_write(self, payload, cell, value: int) -> None: ...

    def mark_ps(self, payload, cell, ps_value: int) -> None: ...

    def copy_ahead(self, spent: int) -> None: ...

    def incomplete_instances(self) -> int: ...

    def snapshot_slice(self, payload, index: int, arrays: dict) -> None: ...

    def restore_slice(self, index: int, arrays): ...

    def snapshot_cache(self, arrays: dict) -> None: ...

    def restore_cache(self, arrays, num_slices: int) -> None: ...

    def freeze_cache(self) -> tuple[np.ndarray, np.ndarray] | None: ...

    def freeze_slice(self, payload) -> tuple[np.ndarray, np.ndarray]: ...


# -- shared scaffolding --------------------------------------------------------


class BaseSliceStore:
    """Kernel binding plus per-operation scoping shared by all backends.

    ``begin_op``/``end_op`` bracket one public kernel entry point.  They
    nest (a batch replay wraps single operations), and only the outermost
    bracket produces a per-operation cost: backends that charge pages
    open their :class:`PageAccessTracker` in :meth:`_op_started` and
    flush it in :meth:`_op_finished`, which makes page sharing across a
    batch fall out of the nesting for free.
    """

    kind = "abstract"
    wants_dominating_mask = True
    #: can a published prefix-sum row *be* a historic slice of this store
    #: (:meth:`DenseStore.adopt_row`)?  Pages and dicts are not flat arrays.
    adopts_rows = False
    #: set by whoever publishes the store's history (:class:`~repro.sharding.
    #: shm.EpochExporter`): ``values -> a writable copy where the next
    #: publication cites it``; ``None``: a promoted slice goes to the heap
    successor_row = None

    def __init__(self) -> None:
        self.kernel: CubeKernel | None = None
        self.counter = None
        self._op_depth = 0

    def bind(self, kernel: "CubeKernel") -> None:
        self.kernel = kernel
        self.counter = kernel.counter

    # -- operation scoping ---------------------------------------------------

    def begin_op(self) -> bool:
        self._op_depth += 1
        if self._op_depth == 1:
            self._op_started()
            return True
        return False

    def end_op(self, opened: bool) -> int | None:
        self._op_depth -= 1
        if opened:
            return self._op_finished()
        return None

    def _op_started(self) -> None:
        pass

    def _op_finished(self) -> int:
        return 0


class ArrayCacheStore(BaseSliceStore):
    """Shared base for backends whose cache is the dense SliceCache."""

    def __init__(self) -> None:
        super().__init__()
        self.cache: SliceCache | None = None

    # -- cache primitives -----------------------------------------------------

    def start_cache(self) -> None:
        self.cache = SliceCache(self.kernel.slice_shape, self.counter)

    def notice_new_time(self) -> None:
        self.cache.notice_new_time()

    def notice_spliced_index(self, index: int) -> None:
        self.cache.notice_spliced_index(index)

    @property
    def last_index(self) -> int:
        return self.cache.last_index if self.cache is not None else -1

    def cache_read(self, cell) -> tuple[int, int]:
        return self.cache.read(cell)

    def cache_apply_delta(self, cell, delta: int) -> None:
        self.cache.apply_delta(cell, delta)

    def cache_restamp(self, cell, index: int) -> None:
        self.cache.restamp(cell, index)

    def cache_peek_stamp(self, cell) -> int:
        return self.cache.peek_stamp(cell)

    def cache_peek_value(self, cell) -> int:
        return self.cache.peek_value(cell)

    def incomplete_instances(self) -> int:
        if self.cache is None:
            return 0
        return self.cache.incomplete_instances()

    # -- durable snapshots (checkpoint machinery) ------------------------------

    def snapshot_cache(self, arrays: dict) -> None:
        if self.cache is not None:
            arrays["cache_values"] = self.cache.values
            arrays["cache_stamps"] = self.cache.stamps

    def restore_cache(self, arrays, num_slices: int) -> None:
        if "cache_values" not in arrays:
            return
        self.cache = SliceCache.from_state(
            self.kernel.slice_shape,
            self.counter,
            np.asarray(arrays["cache_values"], dtype=np.int64).copy(),
            np.asarray(arrays["cache_stamps"], dtype=np.int64).copy(),
            num_slices,
        )

    # -- array views for the fast engine --------------------------------------

    def cache_views(self) -> tuple[np.ndarray, np.ndarray]:
        """(cache values, cache stamps) as shaped arrays."""
        return self.cache.values, self.cache.stamps

    def freeze_cache(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Epoch-publication copies of (cache values, stamps); uncounted.

        Runs on the writer thread between operations; the copies become
        the immutable read-through target of a published
        :class:`~repro.concurrent.snapshot.Epoch`.
        """
        if self.cache is None:
            return None
        return self.cache.freeze()

    def is_ps(self, payload, cell) -> bool:
        return bool(payload.ps_flags[cell])

    # -- fast-mode batch update (shared scatter; copy landing differs) --------

    def _flags_flat(self, payload) -> np.ndarray:
        return payload.ps_flags.reshape(-1)

    def _bulk_copy(self, payload, writable: np.ndarray, values: np.ndarray) -> None:
        raise NotImplementedError

    def fast_group_apply(
        self, cells: np.ndarray, deltas: np.ndarray, fast: "FastSliceEngine"
    ) -> None:
        """Apply one same-time group of updates with vectorized scatters.

        Forced lazy copies for stale cells land per historic slice first
        (each backend charging in its own currency), then all DDC update
        sets scatter into the cache with one ``np.add.at``.
        """
        kernel = self.kernel
        cache = self.cache
        last_index = cache.last_index
        all_flat, set_sizes = fast.ddc_tables.update_flat_sets(cells)
        all_deltas = np.repeat(deltas, set_sizes)
        affected = np.unique(all_flat)
        self.counter.read_cells(int(affected.size))  # stamp/value inspection
        stamps_flat = cache.flat_stamps
        cache_flat = cache.flat_values
        stale = affected[stamps_flat[affected] < last_index]
        if stale.size:
            # forced lazy copies: each incompletely-copied historic slice
            # receives the pre-update cache values of its stale cells
            stale_stamps = stamps_flat[stale]
            first = max(int(stale_stamps.min()), kernel._retired_below)
            with self.counter.copying():
                for index in range(first, last_index):
                    _, payload = kernel.directory.at_index(index)
                    if payload.retired:
                        continue
                    targets = stale[stale_stamps <= index]
                    if targets.size == 0:
                        continue
                    writable = compiled.select_writable(
                        targets, self._flags_flat(payload)
                    )
                    if writable.size:
                        self._bulk_copy(payload, writable, cache_flat[writable])
            cache.bulk_restamp(stale, last_index)
        compiled.scatter_add(cache_flat, all_flat, all_deltas)
        self.counter.write_cells(int(all_flat.size))

    def sync_copies(self) -> int:
        """Complete every pending lazy copy in vectorized sweeps."""
        cache = self.cache
        if cache is None or cache.pending == 0:
            return 0
        kernel = self.kernel
        last_index = cache.last_index
        stamps_flat = cache.flat_stamps
        cache_flat = cache.flat_values
        pending = np.nonzero(stamps_flat < last_index)[0].astype(
            np.int64, copy=False
        )
        copied = 0
        first = max(cache.min_stamp_index(), kernel._retired_below)
        with self.counter.copying():
            for index in range(first, last_index):
                _, payload = kernel.directory.at_index(index)
                if payload.retired:
                    continue
                targets = pending[stamps_flat[pending] <= index]
                if targets.size == 0:
                    continue
                writable = compiled.select_writable(
                    targets, self._flags_flat(payload)
                )
                if writable.size:
                    self._bulk_copy(payload, writable, cache_flat[writable])
                    copied += int(writable.size)
        cache.bulk_restamp(pending, last_index)
        return copied


# -- dense backend -------------------------------------------------------------


class DenseStore(ArrayCacheStore):
    """In-memory ndarray slices; every touch is a counted cell access."""

    kind = "dense"
    adopts_rows = True

    def bind(self, kernel: "CubeKernel") -> None:
        super().bind(kernel)
        #: the flags of every adopted slice: one read-only all-``True`` array
        self._all_ps = np.ones(kernel.slice_shape, dtype=bool)
        self._all_ps.flags.writeable = False

    def new_slice(self) -> DenseSlice:
        return DenseSlice(self.kernel.slice_shape)

    # -- slice primitives ------------------------------------------------------

    def adopt_row(self, payload, row: np.ndarray) -> None:
        """The published prefix-sum ``row`` becomes the slice, read-only:
        complete and fully PS from here on -- historic content is final, so
        no lazy copy or conversion finds a cell to write -- and off the heap."""
        row.flags.writeable = False
        payload.mut_version += 1
        payload.values, payload.ps_flags = row, self._all_ps
        payload.ps_count = self.kernel._num_slice_cells
        payload.mut_version += 1

    def seal(self, payload) -> bool:
        """Make a promoted slice immutable again if it is still fully PS:
        its successor row is then what an adopted row is, citable as it is."""
        if payload.ps_flags is not self._all_ps:
            return False
        payload.values.flags.writeable = False
        return True

    def _promote(self, payload) -> None:
        """Copy-on-write for a slice held in read-only memory.

        A restored slice reads off mmap views of the checkpoint archive:
        heap-copied, so the archive is never written through.  An adopted
        slice is a published row that epochs cite: a correction writes
        into its *successor* (:attr:`successor_row`), which the next
        publication seals and cites with no further copy; the flags of a
        fully PS slice are never written, so they stay the shared array.
        """
        values = payload.values
        if values is None or values.flags.writeable:
            return
        if self.successor_row is not None and payload.ps_flags is self._all_ps:
            payload.values = self.successor_row(values)
        else:
            payload.values = values.copy()
            payload.ps_flags = payload.ps_flags.copy()

    def slice_peek(self, payload, cell) -> int:
        return int(payload.values[cell])

    def copy_write(self, payload, cell, value: int) -> None:
        # Copy landings need no seqlock bump: every published epoch's
        # frozen stamps still route the cell through the cache, so no
        # reader uses the slice cell a landing may tear.
        self.counter.write_cells()
        self._promote(payload)
        payload.values[cell] = value

    def mark_ps(self, payload, cell, ps_value: int) -> None:
        # Historic content is final: persist the conversion.  The seqlock
        # bump keeps the value/flag pair consistent for snapshot readers.
        self._promote(payload)
        payload.mut_version += 1
        try:
            payload.values[cell] = ps_value
            if not payload.ps_flags[cell]:
                payload.ps_count += 1
            payload.ps_flags[cell] = True
        finally:
            payload.mut_version += 1

    def oob_slice_add(self, payload, cell, delta: int) -> None:
        self.counter.write_cells()
        self._promote(payload)
        payload.mut_version += 1
        try:
            payload.values[cell] = int(payload.values[cell]) + delta
        finally:
            payload.mut_version += 1

    def dominating_ps_add(self, payload, cell, dominating, delta: int) -> None:
        mask = payload.ps_flags & dominating
        touched = int(mask.sum())
        if touched:
            self.counter.write_cells(touched)
            self._promote(payload)
            payload.mut_version += 1
            try:
                payload.values[mask] += delta
            finally:
                payload.mut_version += 1

    def clone_payload(self, floor_payload) -> DenseSlice:
        payload = self.new_slice()
        if floor_payload is not None:
            floor_values, floor_flags = floor_payload.data()
            payload.values = floor_values.copy()
            payload.ps_flags = floor_flags.copy()
            payload.ps_count = floor_payload.ps_count
        return payload

    # -- durable snapshots ------------------------------------------------------

    def snapshot_slice(self, payload, index: int, arrays: dict) -> None:
        if payload.retired:
            arrays[f"slice_{index}_retired"] = np.array([1])
        else:
            arrays[f"slice_{index}_values"] = payload.values
            arrays[f"slice_{index}_flags"] = payload.ps_flags

    def restore_slice(self, index: int, arrays) -> DenseSlice:
        payload = self.new_slice()
        if f"slice_{index}_retired" in arrays:
            payload.retire()
        else:
            payload.values = _adopt_array(
                arrays[f"slice_{index}_values"], np.int64
            )
            payload.ps_flags = _adopt_array(
                arrays[f"slice_{index}_flags"], bool
            )
            payload.ps_count = int(payload.ps_flags.sum())
        return payload

    # -- lazy copy-ahead (Figure 8, step 4: roving pointer Z) ------------------

    def copy_ahead(self, spent: int) -> None:
        budget = self.kernel.copy_budget - spent
        cache = self.cache
        last_index = cache.last_index
        if budget <= 0 or cache.pending == 0 or last_index == 0:
            return
        kernel = self.kernel
        used = 0
        scanned = 0
        while used < budget and cache.pending > 0 and scanned <= cache.num_cells:
            cell = cache.rover_cell()
            used += 1  # inspecting cache[Z] is a cell access
            self.counter.read_cells()
            stamp = cache.peek_stamp(cell)
            if stamp < last_index:
                value = cache.peek_value(cell)
                _, payload = kernel.directory.at_index(stamp)
                if not payload.retired and not payload.ps_flags[cell]:
                    with self.counter.copying():
                        self.counter.write_cells()
                        self._promote(payload)
                        payload.values[cell] = value
                    used += 1
                cache.restamp(cell, stamp + 1)
                scanned = 0
            else:
                cache.rover_advance()
                scanned += 1

    def payload_nbytes(self, payload) -> int:
        """Resident bytes of one slice payload (0 once retired)."""
        if payload.retired:
            return 0
        return payload.values.nbytes + payload.ps_flags.nbytes

    # -- fast-engine views -----------------------------------------------------

    def slice_views(self, payload) -> tuple[np.ndarray, np.ndarray]:
        return payload.data()

    def freeze_slice(self, payload) -> tuple[np.ndarray, np.ndarray]:
        """Uncounted (values, flags) for lock-free snapshot readers.

        Readers bracket this call with :attr:`DenseSlice.mut_version`
        checks (seqlock) so the pair is mutually consistent even while
        the writer converts or corrects cells.  Writable arrays are
        copied; a read-only pair (an adopted row, an archive view) is
        returned as it is: a mutation replaces it (:meth:`_promote`).
        """
        values, flags = payload.data()
        if not (values.flags.writeable or flags.flags.writeable):
            return values, flags
        return values.copy(), flags.copy()

    def finalize_commit(self, payload, ps: np.ndarray) -> None:
        self._promote(payload)
        values, flags = payload.data()
        payload.mut_version += 1
        try:
            values[...] = ps
            flags[...] = True
            payload.ps_count = self.kernel._num_slice_cells
        finally:
            payload.mut_version += 1

    def _bulk_copy(self, payload, writable: np.ndarray, values: np.ndarray) -> None:
        self._promote(payload)
        payload.values.reshape(-1)[writable] = values
        self.counter.write_cells(int(writable.size))


# -- paged (external-memory) backend ------------------------------------------


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

    @staticmethod
    def _promote(payload) -> None:
        """Heap-copy a slice that still aliases a read-only checkpoint mmap.

        Restored slices adopt the archive's arrays zero-copy; the first
        mutation lands here and pays for the copy, so the checkpoint file
        itself is never written through.
        """
        store = payload.store
        if store is not None and not store.cells.flags.writeable:
            store.cells = store.cells.copy()
            payload.ps_flags = payload.ps_flags.copy()

    def slice_peek(self, payload, cell) -> int:
        return payload.store.read(cell, self.tracker)

    def copy_write(self, payload, cell, value: int) -> None:
        # page charge only: external-memory copies cost I/O, not cell work
        self._promote(payload)
        payload.store.write(cell, value, self.tracker)

    def mark_ps(self, payload, cell, ps_value: int) -> None:
        self._promote(payload)
        payload.mut_version += 1
        try:
            payload.store.write(cell, ps_value, self.tracker)
            if not payload.ps_flags[cell]:
                payload.ps_count += 1
            payload.ps_flags[cell] = True
        finally:
            payload.mut_version += 1

    def oob_slice_add(self, payload, cell, delta: int) -> None:
        self._promote(payload)
        store = payload.store
        self.tracker.record_write(store.store_id, store.page_of(cell))
        payload.mut_version += 1
        try:
            store.cells[tuple(cell)] += delta
        finally:
            payload.mut_version += 1

    def dominating_ps_add(self, payload, cell, dominating, delta: int) -> None:
        mask = payload.ps_flags & dominating
        flat = np.nonzero(mask.reshape(-1))[0]
        if flat.size == 0:
            return
        self._promote(payload)
        store = payload.store
        payload.mut_version += 1
        try:
            store.cells.reshape(-1)[flat] += delta
        finally:
            payload.mut_version += 1
        for page in np.unique(flat // store.cells_per_page):
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

    # -- durable snapshots ------------------------------------------------------

    def snapshot_slice(self, payload, index: int, arrays: dict) -> None:
        if payload.retired:
            arrays[f"slice_{index}_retired"] = np.array([1])
        else:
            arrays[f"slice_{index}_values"] = payload.store.cells
            arrays[f"slice_{index}_flags"] = payload.ps_flags

    def restore_slice(self, index: int, arrays) -> PagedSlice:
        payload = self.new_slice()
        if f"slice_{index}_retired" in arrays:
            payload.retire()
        else:
            payload.store.cells = _adopt_array(
                arrays[f"slice_{index}_values"], np.int64
            )
            payload.ps_flags = _adopt_array(arrays[f"slice_{index}_flags"], bool)
            payload.ps_count = int(payload.ps_flags.sum())
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
            with self.counter.copying():
                if writable.size:
                    self._promote(payload)
                    store.write_page(
                        page,
                        writable.tolist(),
                        flat_values[writable].tolist(),
                        self.tracker,
                    )
                    self.counter.write_cells(int(writable.size))
                else:
                    # every pending cell on the page was already converted
                    # to PS by a query; only the stamps advance
                    pass
            for cell_linear in linear.tolist():
                cell = tuple(
                    int(c)
                    for c in np.unravel_index(cell_linear, cache.shape)
                )
                cache.restamp(cell, target + 1)
            return

    def payload_nbytes(self, payload) -> int:
        """Resident bytes of one slice payload (0 once retired)."""
        if payload.retired:
            return 0
        return payload.store.cells.nbytes + payload.ps_flags.nbytes

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

    def freeze_slice(self, payload) -> tuple[np.ndarray, np.ndarray]:
        """Uncounted (cells, flags) copies for lock-free snapshot readers.

        Snapshot reads bypass the page tracker deliberately: they model
        replica serving from memory, not the paper's I/O cost trace, and
        must not perturb the metered golden counts.
        """
        store = payload.store
        if store is None:
            from repro.core.errors import AgedOutError

            raise AgedOutError(
                "slice detail was retired by data aging; its storage is "
                "no longer accessible"
            )
        return store.cells.copy(), payload.ps_flags.copy()

    def finalize_commit(self, payload, ps: np.ndarray) -> None:
        self._promote(payload)
        store = payload.store
        payload.mut_version += 1
        try:
            store.cells[...] = ps
            payload.ps_flags[...] = True
            payload.ps_count = self.kernel._num_slice_cells
        finally:
            payload.mut_version += 1
        tracker = self.tracker
        for page in range(store.num_pages):
            tracker.record_write(store.store_id, page)

    def _bulk_copy(self, payload, writable: np.ndarray, values: np.ndarray) -> None:
        self._promote(payload)
        store = payload.store
        store.cells.reshape(-1)[writable] = values
        for page in np.unique(writable // store.cells_per_page):
            self.tracker.record_write(store.store_id, int(page))


# -- sparse backend ------------------------------------------------------------


class SparseStore(BaseSliceStore):
    """Dict-of-touched-cells slices and cache (Section 7 follow-up).

    Storage is proportional to update chains, not the domain: an
    untouched cell is implicitly zero, its stamp implicitly *current*
    (it never owes copies).  Counted cell costs match the dense backend
    for the same operations; only the representation differs -- except
    that conversion to PS *densifies* (a PS value is usually non-zero
    where the raw data is empty), which :attr:`materialized_cells`
    exposes as the storage-vs-query-speed dial.
    """

    kind = "sparse"
    wants_dominating_mask = False

    def __init__(self) -> None:
        super().__init__()
        # sparse cache: cell -> (cumulative DDC value, stamp index)
        self._cache: dict[tuple[int, ...], tuple[int, int]] = {}
        self._cache_views: tuple[np.ndarray, np.ndarray] | None = None

    def _touch(self) -> None:
        self._cache_views = None

    # -- cache primitives ------------------------------------------------------

    def new_slice(self) -> SparseSlice:
        return SparseSlice()

    def start_cache(self) -> None:
        pass  # the dict is the cache; nothing to allocate up front

    def notice_new_time(self) -> None:
        self._touch()

    def notice_spliced_index(self, index: int) -> None:
        for cell, (value, stamp) in list(self._cache.items()):
            if stamp >= index:
                self._cache[cell] = (value, stamp + 1)
        self._touch()

    @property
    def last_index(self) -> int:
        return len(self.kernel.directory) - 1

    def cache_read(self, cell) -> tuple[int, int]:
        self.counter.read_cells()
        return self._cache.get(cell, (0, self.last_index))

    def cache_apply_delta(self, cell, delta: int) -> None:
        self.counter.write_cells()
        value, stamp = self._cache.get(cell, (0, self.last_index))
        self._cache[cell] = (value + delta, stamp)
        self._touch()

    def cache_restamp(self, cell, index: int) -> None:
        value, _ = self._cache.get(cell, (0, self.last_index))
        self._cache[cell] = (value, index)
        self._touch()

    def cache_peek_stamp(self, cell) -> int:
        entry = self._cache.get(cell)
        # an untouched cell is implicitly current: it never owes copies
        return entry[1] if entry is not None else self.last_index

    def cache_peek_value(self, cell) -> int:
        entry = self._cache.get(cell)
        return entry[0] if entry is not None else 0

    def incomplete_instances(self) -> int:
        if not self.kernel.directory:
            return 0
        last = self.last_index
        stamps = [stamp for _, stamp in self._cache.values() if stamp < last]
        if not stamps:
            return 0
        return last - min(stamps)

    # -- slice primitives ------------------------------------------------------

    def is_ps(self, payload, cell) -> bool:
        return cell in payload.ps_cells

    def slice_peek(self, payload, cell) -> int:
        return payload.values.get(cell, 0)

    def copy_write(self, payload, cell, value: int) -> None:
        self.counter.write_cells()
        payload.values[cell] = value

    def mark_ps(self, payload, cell, ps_value: int) -> None:
        payload.mut_version += 1
        try:
            payload.values[cell] = ps_value
            payload.ps_cells.add(cell)
        finally:
            payload.mut_version += 1

    def oob_slice_add(self, payload, cell, delta: int) -> None:
        self.counter.write_cells()
        payload.mut_version += 1
        try:
            payload.values[cell] = payload.values.get(cell, 0) + delta
        finally:
            payload.mut_version += 1

    def dominating_ps_add(self, payload, cell, dominating, delta: int) -> None:
        touched = [
            ps_cell
            for ps_cell in payload.ps_cells
            if all(pc >= c for pc, c in zip(ps_cell, cell))
        ]
        if touched:
            self.counter.write_cells(len(touched))
            payload.mut_version += 1
            try:
                for ps_cell in touched:
                    payload.values[ps_cell] += delta
            finally:
                payload.mut_version += 1

    def clone_payload(self, floor_payload) -> SparseSlice:
        payload = SparseSlice()
        if floor_payload is not None:
            payload.values = dict(floor_payload.values)
            payload.ps_cells = set(floor_payload.ps_cells)
        return payload

    # -- durable snapshots ------------------------------------------------------
    #
    # Sparse state snapshots as coordinate lists: an (n, d-1) cell matrix
    # plus parallel value (and, for the cache, stamp) vectors.  Cells are
    # sorted so equal cubes produce byte-identical archives.

    def _pack_cells(self, cells) -> np.ndarray:
        width = len(self.kernel.slice_shape)
        matrix = np.asarray(sorted(cells), dtype=np.int64)
        return matrix.reshape(len(matrix), width) if len(matrix) else np.empty(
            (0, width), dtype=np.int64
        )

    def snapshot_slice(self, payload, index: int, arrays: dict) -> None:
        if payload.retired:
            arrays[f"slice_{index}_retired"] = np.array([1])
            return
        cells = self._pack_cells(payload.values)
        arrays[f"slice_{index}_cells"] = cells
        arrays[f"slice_{index}_cellvals"] = np.asarray(
            [payload.values[tuple(int(c) for c in cell)] for cell in cells],
            dtype=np.int64,
        )
        arrays[f"slice_{index}_ps"] = self._pack_cells(payload.ps_cells)

    def restore_slice(self, index: int, arrays) -> SparseSlice:
        payload = SparseSlice()
        if f"slice_{index}_retired" in arrays:
            payload.retire()
            return payload
        cells = np.asarray(arrays[f"slice_{index}_cells"], dtype=np.int64)
        values = np.asarray(arrays[f"slice_{index}_cellvals"], dtype=np.int64)
        payload.values = {
            tuple(int(c) for c in cell): int(value)
            for cell, value in zip(cells, values)
        }
        payload.ps_cells = {
            tuple(int(c) for c in cell)
            for cell in np.asarray(arrays[f"slice_{index}_ps"], dtype=np.int64)
        }
        return payload

    def snapshot_cache(self, arrays: dict) -> None:
        cells = self._pack_cells(self._cache)
        arrays["cache_cells"] = cells
        entries = [self._cache[tuple(int(c) for c in cell)] for cell in cells]
        arrays["cache_cellvals"] = np.asarray(
            [value for value, _ in entries], dtype=np.int64
        )
        arrays["cache_cellstamps"] = np.asarray(
            [stamp for _, stamp in entries], dtype=np.int64
        )

    def restore_cache(self, arrays, num_slices: int) -> None:
        if "cache_cells" not in arrays:
            return
        cells = np.asarray(arrays["cache_cells"], dtype=np.int64)
        values = np.asarray(arrays["cache_cellvals"], dtype=np.int64)
        stamps = np.asarray(arrays["cache_cellstamps"], dtype=np.int64)
        self._cache = {
            tuple(int(c) for c in cell): (int(value), int(stamp))
            for cell, value, stamp in zip(cells, values, stamps)
        }
        self._touch()

    # -- lazy copy-ahead -------------------------------------------------------

    def copy_ahead(self, spent: int) -> None:
        budget = self.kernel.copy_budget - spent
        last_index = self.last_index
        if budget <= 0 or last_index <= 0:
            return
        kernel = self.kernel
        used = 0
        # iterate stale cache entries directly: the sparse cube has no
        # roving pointer because untouched cells never owe copies
        for cell, (value, stamp) in list(self._cache.items()):
            if used >= budget:
                break
            if stamp >= last_index:
                continue
            self.counter.read_cells()
            used += 1
            _, payload = kernel.directory.at_index(stamp)
            if not payload.retired and cell not in payload.ps_cells:
                with self.counter.copying():
                    self.counter.write_cells()
                    payload.values[cell] = value
                used += 1
            self._cache[cell] = (value, stamp + 1)
        self._touch()

    # -- storage introspection -------------------------------------------------

    @property
    def materialized_cells(self) -> int:
        total = sum(
            len(payload.values)
            for _, payload in self.kernel.directory.items()
        )
        return total + len(self._cache)

    def payload_nbytes(self, payload) -> int:
        """Resident bytes of one slice payload (0 once retired).

        Dict storage is estimated per materialized entry: a cell key
        tuple of ``d-1`` coordinates plus the value, 8 bytes each, with
        PS membership charged per flagged cell -- proportional to update
        chains like the store itself, and consistent across demoted and
        undemoted cubes (which is what the footprint comparison needs).
        """
        if payload.retired:
            return 0
        width = 8 * (len(self.kernel.slice_shape) + 1)
        return len(payload.values) * width + 8 * len(payload.ps_cells)

    # -- fast-engine views (densified snapshots) -------------------------------

    def cache_views(self) -> tuple[np.ndarray, np.ndarray]:
        """Densified (values, stamps); untouched cells are zero/current."""
        if self._cache_views is None:
            shape = self.kernel.slice_shape
            values = np.zeros(shape, dtype=np.int64)
            stamps = np.full(shape, self.last_index, dtype=np.int64)
            for cell, (value, stamp) in self._cache.items():
                values[cell] = value
                stamps[cell] = stamp
            self._cache_views = (values, stamps)
        return self._cache_views

    def slice_views(self, payload) -> tuple[np.ndarray, np.ndarray]:
        shape = self.kernel.slice_shape
        values = np.zeros(shape, dtype=np.int64)
        flags = np.zeros(shape, dtype=bool)
        for cell, value in payload.values.items():
            values[cell] = value
        for cell in payload.ps_cells:
            flags[cell] = True
        return values, flags

    def freeze_cache(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Epoch-publication densified (values, stamps) copies; uncounted.

        An untouched cell freezes as value 0 with a *current* stamp, so
        snapshot routing sends it to the live slice dict (where it is
        implicitly zero too) -- consistent with the live read path.
        """
        if not self.kernel.directory:
            return None
        values, stamps = self.cache_views()
        return values.copy(), stamps.copy()

    def freeze_slice(self, payload) -> tuple[np.ndarray, np.ndarray]:
        """Uncounted densified (values, flags) copies for snapshot readers.

        Iterating the live dicts can raise ``RuntimeError`` if the writer
        resizes them mid-walk; readers bracket the call with
        :attr:`SparseSlice.mut_version` checks and retry.
        """
        if payload.retired:
            from repro.core.errors import AgedOutError

            raise AgedOutError(
                "slice detail was retired by data aging; its storage is "
                "no longer accessible"
            )
        shape = self.kernel.slice_shape
        values = np.zeros(shape, dtype=np.int64)
        flags = np.zeros(shape, dtype=bool)
        for cell, value in payload.values.items():
            values[cell] = value
        for cell in payload.ps_cells:
            flags[cell] = True
        return values, flags

    def finalize_commit(self, payload, ps: np.ndarray) -> None:
        # bulk conversion densifies the slice: every cell now holds a
        # (usually non-zero) PS value; materialized_cells records it
        cells = [tuple(int(c) for c in idx) for idx in np.ndindex(*ps.shape)]
        payload.mut_version += 1
        try:
            payload.values = {
                cell: int(value) for cell, value in zip(cells, ps.reshape(-1))
            }
            payload.ps_cells = set(cells)
        finally:
            payload.mut_version += 1

    # -- fast-mode batch update -----------------------------------------------

    def fast_group_apply(
        self, cells: np.ndarray, deltas: np.ndarray, fast: "FastSliceEngine"
    ) -> None:
        kernel = self.kernel
        counter = self.counter
        last_index = self.last_index
        shape = kernel.slice_shape
        all_flat, set_sizes = fast.ddc_tables.update_flat_sets(cells)
        all_deltas = np.repeat(deltas, set_sizes)
        affected = np.unique(all_flat)
        counter.read_cells(int(affected.size))
        affected_cells = [
            tuple(int(c) for c in np.unravel_index(int(flat), shape))
            for flat in affected
        ]
        stale = [
            (cell,) + self._cache[cell]
            for cell in affected_cells
            if cell in self._cache and self._cache[cell][1] < last_index
        ]
        if stale:
            first = max(
                min(stamp for _, _, stamp in stale), kernel._retired_below
            )
            with counter.copying():
                for index in range(first, last_index):
                    _, payload = kernel.directory.at_index(index)
                    if payload.retired:
                        continue
                    for cell, value, stamp in stale:
                        if stamp <= index and cell not in payload.ps_cells:
                            counter.write_cells()
                            payload.values[cell] = value
            for cell, value, _ in stale:
                self._cache[cell] = (value, last_index)
        sums = np.zeros(affected.size, dtype=np.int64)
        np.add.at(sums, np.searchsorted(affected, all_flat), all_deltas)
        for cell, total in zip(affected_cells, sums):
            value, _ = self._cache.get(cell, (0, last_index))
            self._cache[cell] = (int(value) + int(total), last_index)
        counter.write_cells(int(all_flat.size))
        self._touch()

    def sync_copies(self) -> int:
        last_index = self.last_index
        stale = [
            (cell, value, stamp)
            for cell, (value, stamp) in self._cache.items()
            if stamp < last_index
        ]
        if not stale:
            return 0
        kernel = self.kernel
        copied = 0
        first = max(min(stamp for _, _, stamp in stale), kernel._retired_below)
        with self.counter.copying():
            for index in range(first, last_index):
                _, payload = kernel.directory.at_index(index)
                if payload.retired:
                    continue
                for cell, value, stamp in stale:
                    if stamp <= index and cell not in payload.ps_cells:
                        self.counter.write_cells()
                        payload.values[cell] = value
                        copied += 1
        for cell, value, _ in stale:
            self._cache[cell] = (value, last_index)
        self._touch()
        return copied
