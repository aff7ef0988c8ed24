"""The slice-store protocol, its shared bases, and the dense store.

The paper's framework (Section 2) is storage-agnostic: the eCube
(Section 3), its external-memory variant (Section 3.5) and the sparse
follow-up (Section 7) are *one* algorithm over different slice
representations.  :class:`~repro.ecube.kernel.CubeKernel` implements that
algorithm once over the :class:`SliceStore` protocol; each store
mediates *where bytes live and what an access costs*, while the kernel
owns the directory, the read-through routing, lazy copying discipline,
conversion, out-of-order corrections and aging.

:class:`DenseStore` -- ndarray slices and the dense
:class:`~repro.ecube.cache.SliceCache` (Section 3.4), every slice touch
a counted cell access -- is the store the served system runs: the only
one a ``G_d`` buffer, a log, snapshot epochs, tiers or shards sit over
(:func:`repro.core.front.layers`), and the only one with the serving
hooks (checkpoint arrays, the cache freeze, publishing and adopting
rows: plain, or a narrow offset from an anchor row, :class:`OffsetRow`).  The
paper's other two configurations are cost models used as bare kernels:
``PagedStore`` (:mod:`repro.ecube.disk`) and ``SparseStore``
(:mod:`repro.ecube.sparse`).  The golden-cost suite pins the dense
counts and the equivalence suite (`tests/test_backend_equivalence.py`)
pins the cross-store agreement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.ecube import compiled
from repro.ecube.cache import SliceCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.ecube.fastpath import FastSliceEngine
    from repro.ecube.kernel import CubeKernel


def _adopt_array(raw, dtype) -> np.ndarray:
    """Restore-time array adoption: zero-copy for read-only sources.

    A read-only input (an mmap view over a checkpoint archive,
    :mod:`repro.storage.mmap_npz`) is adopted as-is -- the owning store
    promotes it to a heap copy on first write.  A writable input is
    copied, preserving the no-aliasing contract of dict-based
    ``state_arrays``/``restore_state`` round trips.  An input of another
    dtype (a row a process shard published narrow,
    :mod:`repro.sharding.shm`) is converted, in its one copy.
    """
    array = np.asarray(raw)
    if array.dtype != dtype:
        return array.astype(dtype)
    return array if not array.flags.writeable else array.copy()


#: The widths a published row may take, narrowest first.
_ROW_DTYPES = tuple(np.dtype(f"i{width}") for width in (1, 2, 4, 8))


def row_dtype(row: np.ndarray) -> np.dtype:
    """The narrowest signed integer dtype holding every value of ``row``."""
    low, high = (int(row.min()), int(row.max())) if row.size else (0, 0)
    for dtype in _ROW_DTYPES[:-1]:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    return _ROW_DTYPES[-1]


def heap_row(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """A new heap array holding ``values`` as ``dtype`` (the default
    :attr:`DenseStore.new_row`)."""
    return values.astype(dtype)


# -- published rows --------------------------------------------------------------


class OffsetRow:
    """A published row stored as a narrow offset from an anchor row.

    Its values are ``anchor + offset``, summed in int64: a ring, so the
    offset of a row whose prefix sums wrapped wraps too and the sum wraps
    back.  ``anchor`` is a plain published row, shared by the offset rows
    over it; ``offset`` is at the narrowest width holding it.  Two
    consecutive cumulative instances differ by a few slices of updates, so
    the offset is mostly far narrower than the row (:meth:`DenseStore.
    make_row` says when a row is stored so).  Both arrays are read-only.
    """

    __slots__ = ("anchor", "offset")

    def __init__(self, anchor: np.ndarray, offset: np.ndarray) -> None:
        self.anchor = anchor
        self.offset = offset

    def __repr__(self) -> str:
        return f"OffsetRow({self.anchor.dtype} anchor, {self.offset.dtype} offset)"


def anchor_of(row) -> np.ndarray:
    """The anchor a row published above ``row`` is an offset from: the
    row itself when plain, else its own anchor."""
    return row.anchor if isinstance(row, OffsetRow) else row


def row_values(row, cells=None) -> np.ndarray:
    """A published row's values: every cell, in the row's shape, or the
    cells at the flat indices ``cells``.

    With :func:`gather_rows` and :func:`row_difference`, the way a reader
    outside the stores and the publication layers reads a row.  A plain
    row reads at its own width (the caller widens, where it gathers); an
    offset row is the int64 sum of two reads, its anchor's and its
    offset's.
    """
    if not isinstance(row, OffsetRow):
        return row if cells is None else row.reshape(-1)[cells]
    anchor, offset = row.anchor, row.offset
    if cells is not None:
        anchor, offset = anchor.reshape(-1)[cells], offset.reshape(-1)[cells]
    return np.add(anchor, offset, dtype=np.int64)


def gather_rows(
    rows: list, cells: np.ndarray, bounds: np.ndarray, out: np.ndarray
) -> None:
    """``out[bounds[g]:bounds[g + 1]]`` = the values of published row
    ``rows[g]`` at the flat indices ``cells[bounds[g]:bounds[g + 1]]``, in
    int64, for every ``rows[g]`` that is not ``None``.

    One gather per row; a run of consecutive offset rows on one anchor
    reads the anchor once for the whole run, so an anchored history costs
    one more gather per anchor, not per row."""
    run = None  # (anchor, first job) of the run the last row continued

    def close(stop: int) -> None:
        anchor, start = run
        out[start:stop] += anchor.reshape(-1)[cells[start:stop]]

    for group, row in enumerate(rows):
        start, stop = int(bounds[group]), int(bounds[group + 1])
        if run is not None and not (
            isinstance(row, OffsetRow) and row.anchor is run[0]
        ):
            close(start)
            run = None
        if row is None:
            continue
        if isinstance(row, OffsetRow):
            if run is None:
                run = (row.anchor, start)
            row = row.offset
        out[start:stop] = row.reshape(-1)[cells[start:stop]]
    if run is not None:
        close(int(bounds[len(rows)]))


def row_difference(upper, lower, out: np.ndarray) -> np.ndarray:
    """``out`` = ``upper - lower`` of two published rows, in int64 (``None``
    reads as zeros).  Two offset rows over one anchor differ by their
    offsets alone: the anchor is never read."""
    if (
        isinstance(upper, OffsetRow)
        and isinstance(lower, OffsetRow)
        and upper.anchor is lower.anchor
    ):
        return np.subtract(upper.offset, lower.offset, out=out, dtype=np.int64)
    out[...] = 0
    for combine, row in ((np.add, upper), (np.subtract, lower)):
        if row is not None:
            combine(out, row_values(row), out=out)
    return out


# -- slice payloads ------------------------------------------------------------


class DenseSlice:
    """Reserved storage for one historic (or latest) time slice.

    After :meth:`retire` the arrays are released; any further access must
    go through :meth:`data`, which raises
    :class:`~repro.core.errors.AgedOutError` instead of surfacing a bare
    ``NoneType`` failure.
    """

    __slots__ = ("values", "ps_flags", "ps_count", "fast_hits")

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


# -- the store protocol --------------------------------------------------------


@runtime_checkable
class SliceStore(Protocol):
    """What the kernel requires of a slice-storage backend.

    A store owns the physical representation of the cache and the slice
    payloads and charges every access in its own cost currency (cell
    accesses for in-memory backends, distinct pages per operation for the
    external-memory one).  The kernel drives it exclusively through this
    interface; see :class:`BaseSliceStore` for the shared scaffolding and
    the three concrete backends for the semantics of each method.  What
    only the served system asks of a store (checkpoint arrays, the cache
    freeze, published rows) is :class:`DenseStore`'s alone.
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

    # -- array views for the fast engine --------------------------------------

    def cache_views(self) -> tuple[np.ndarray, np.ndarray]:
        """(cache values, cache stamps) as shaped arrays."""
        return self.cache.values, self.cache.stamps

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
        affected = compiled.sorted_unique(all_flat)
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
    #: ``(values, dtype) -> a new array holding them``: where published
    #: rows, offsets and anchors live -- on the heap, or in a
    #: shared-memory block while an :class:`~repro.sharding.shm.
    #: EpochExporter` is attached
    new_row = staticmethod(heap_row)

    def bind(self, kernel: "CubeKernel") -> None:
        super().bind(kernel)
        #: the flags of every adopted slice: one read-only all-``True`` array
        self._all_ps = np.ones(kernel.slice_shape, dtype=bool)
        self._all_ps.flags.writeable = False

    def new_slice(self) -> DenseSlice:
        return DenseSlice(self.kernel.slice_shape)

    # -- slice primitives ------------------------------------------------------

    def published(self, payload) -> bool:
        """Is the slice a published row (adopted read-only, fully PS)?"""
        values = payload.values
        return isinstance(values, OffsetRow) or (
            values is not None
            and not values.flags.writeable
            and payload.ps_flags is self._all_ps
        )

    def adopt_row(self, payload, row) -> None:
        """The published prefix-sum ``row`` becomes the slice, read-only:
        complete and fully PS from here on -- historic content is final, so
        no lazy copy or conversion finds a cell to write -- and off the heap.

        ``row`` is plain (at the width of its values) or an
        :class:`OffsetRow`: a slice is narrow or anchored only while it is
        read-only, and every path that makes it writable materializes it in
        int64 once (:meth:`_promote`, :meth:`restore_slice`)."""
        (row.offset if isinstance(row, OffsetRow) else row).flags.writeable = False
        payload.values, payload.ps_flags = row, self._all_ps
        payload.ps_count = self.kernel._num_slice_cells

    def make_row(self, values: np.ndarray, anchor, offset=None):
        """The row publishing ``values``, under the anchor rule.

        An :class:`OffsetRow` over ``anchor`` (the newest anchor below the
        row) when the offset ``values - anchor`` is narrower than the
        values themselves; else a plain row at the values' width, the
        newest anchor from here up.  ``offset``, when given, is an offset
        array already holding ``values - anchor``: it is reused, not
        re-created.  Every new array comes from :attr:`new_row`.
        """
        own = row_dtype(values)
        if anchor is not None:
            if offset is None:
                difference = np.subtract(values, anchor, dtype=np.int64)
                width = row_dtype(difference)
            else:
                width = offset.dtype
            if width.itemsize < own.itemsize:
                if offset is None:
                    offset = self.new_row(difference, width)
                return OffsetRow(anchor, offset)
        return self.new_row(values, own)

    def _promote(self, payload) -> None:
        """Copy-on-write for a slice held in read-only memory: one int64
        heap copy, whatever the width or layout of what it was copied
        from -- the copy is the one materialization.

        A restored slice reads off mmap views of the checkpoint archive, so
        the archive is never written through.  An adopted slice is a
        published row that epochs cite: a correction writes into the copy,
        which the next publication publishes anew; the flags of a fully PS
        slice are never written, so they stay the shared array.
        """
        values = payload.values
        if values is None or (
            not isinstance(values, OffsetRow) and values.flags.writeable
        ):
            return
        payload.values = np.array(row_values(values), dtype=np.int64)
        if payload.ps_flags is not self._all_ps:
            payload.ps_flags = payload.ps_flags.copy()

    def slice_peek(self, payload, cell) -> int:
        values = payload.values
        if isinstance(values, OffsetRow):
            flat = np.ravel_multi_index(cell, values.offset.shape)
            return int(row_values(values, [flat])[0])
        return int(values[cell])

    def copy_write(self, payload, cell, value: int) -> None:
        self.counter.write_cells()
        self._promote(payload)
        payload.values[cell] = value

    def mark_ps(self, payload, cell, ps_value: int) -> None:
        # Historic content is final: persist the conversion.
        self._promote(payload)
        payload.values[cell] = ps_value
        if not payload.ps_flags[cell]:
            payload.ps_count += 1
        payload.ps_flags[cell] = True

    def oob_slice_add(self, payload, cell, delta: int) -> None:
        self.counter.write_cells()
        self._promote(payload)
        # an array add: int64 wraps as a ring (the sum of a Python int
        # would not fit back once the prefix sums wrapped)
        np.add.at(payload.values, cell, delta)

    def dominating_ps_add(self, payload, cell, dominating, delta: int) -> None:
        mask = payload.ps_flags & dominating
        touched = int(mask.sum())
        if touched:
            self.counter.write_cells(touched)
            self._promote(payload)
            payload.values[mask] += delta

    def landing(self, below) -> "Landing":
        """The walk of one one-pass landing over fully PS slices, oldest
        first; ``below`` is the slice under the first one it reaches (or
        ``None``)."""
        return Landing(self, below)

    def clone_payload(self, floor_payload) -> DenseSlice:
        """A copy of ``floor_payload`` (a splice's new instance, whose
        content is its floor's).  A published floor row is shared as it
        stands, anchor and all, until a write promotes the clone; any other
        floor is copied, int64 and writable."""
        payload = self.new_slice()
        if floor_payload is not None:
            if self.published(floor_payload):
                self.adopt_row(payload, floor_payload.values)
                return payload
            floor_values, floor_flags = floor_payload.data()
            payload.values = floor_values.astype(np.int64)
            payload.ps_flags = floor_flags.copy()
            payload.ps_count = floor_payload.ps_count
        return payload

    # -- durable snapshots (checkpoint machinery) ------------------------------

    def snapshot_slice(self, payload, index: int, arrays: dict) -> None:
        """A slice's arrays in a checkpoint: an offset row materialized at
        the width of its values, as a plain row of the same values is
        stored, so an archive does not depend on the layout."""
        if payload.retired:
            arrays[f"slice_{index}_retired"] = np.array([1])
            return
        values = payload.values
        if isinstance(values, OffsetRow):
            values = row_values(values)
            values = values.astype(row_dtype(values), copy=False)
        arrays[f"slice_{index}_values"] = values
        arrays[f"slice_{index}_flags"] = payload.ps_flags

    def restore_slice(self, index: int, arrays) -> DenseSlice:
        """A checkpointed slice: int64 values, read-only archive views
        adopted as they are, a narrow published row widened in one copy."""
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
        values = payload.values
        if isinstance(values, OffsetRow):  # the anchor is its own slice's
            values = values.offset
        return values.nbytes + payload.ps_flags.nbytes

    # -- fast-engine views -----------------------------------------------------

    def slice_views(self, payload) -> tuple[np.ndarray, np.ndarray]:
        return payload.data()

    # -- epoch publication (snapshot readers, uncounted) ------------------------

    def freeze_cache(self) -> np.ndarray | None:
        """An epoch's copy of the cache values -- the latest instance's DDC
        array; uncounted, on the writer thread between operations."""
        if self.cache is None:
            return None
        return self.cache.values.copy()

    def finalize_commit(self, payload, ps: np.ndarray) -> None:
        self._promote(payload)
        values, flags = payload.data()
        values[...] = ps
        flags[...] = True
        payload.ps_count = self.kernel._num_slice_cells

    def _bulk_copy(self, payload, writable: np.ndarray, values: np.ndarray) -> None:
        self._promote(payload)
        payload.values.reshape(-1)[writable] = values
        self.counter.write_cells(int(writable.size))


class Landing:
    """One one-pass landing's walk over fully PS slices, oldest first.

    The kernel hands each slice the landing reaches the running prefix
    sums of the corrections at or below it (Colley's delta summation);
    :meth:`add` adds them.  A writable slice (a bare kernel's) takes them
    in place.  A published row gets its new values published under the
    anchor rule (:meth:`DenseStore.make_row`) against the newest anchor of
    the new layout below it, so the rows a landing leaves are the rows a
    publication of the same values would make.  An anchor takes
    ``anchor + sums``; an offset row over it whose running sums have not
    changed since the anchor's keeps its offset array, since ``(anchor +
    s) + offset`` is its new value -- only rows whose offsets change get
    a new array.
    """

    def __init__(self, store: DenseStore, below) -> None:
        self.store = store
        #: the newest anchor below the next row, in the new layout
        self.anchor = (
            anchor_of(below.values)
            if below is not None and store.published(below)
            else None
        )
        #: the old plain row ``anchor`` re-publishes, if it does
        self.replaced = None
        #: how many times the running sums changed, in all and by the anchor
        self.changes = self.anchor_changes = 0

    def add(self, payload, sums: np.ndarray, changed: bool) -> None:
        """Add ``sums`` to one slice; ``changed`` says whether they moved
        since the slice below."""
        store = self.store
        self.changes += changed
        if not store.published(payload):
            store._promote(payload)
            payload.values += sums  # int64 wraps as a ring, as cascades do
            return
        row = payload.values
        kept = None
        if (
            isinstance(row, OffsetRow)
            and row.anchor is self.replaced
            and self.changes == self.anchor_changes
        ):
            kept = row.offset
        values = sums + row_values(row)
        new = store.make_row(values, self.anchor, kept)
        store.adopt_row(payload, new)
        if not isinstance(new, OffsetRow):
            self.anchor, self.anchor_changes = new, self.changes
            self.replaced = None if isinstance(row, OffsetRow) else row
