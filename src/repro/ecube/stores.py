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
hooks (checkpoint arrays, epoch freezes, adopting a published row).  The
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
    only the served system asks of a store (checkpoint arrays, epoch
    freezes) is :class:`DenseStore`'s alone.
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
    #: set by whoever publishes the store's history (:class:`~repro.sharding.
    #: shm.EpochExporter`): ``values -> a writable copy where the next
    #: publication cites it``; ``None``: a promoted slice goes to the heap
    successor_row = None

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
        no lazy copy or conversion finds a cell to write -- and off the heap.

        ``row`` may be narrower than int64 (a row is published at the width
        of its values): a slice is narrow only while it is read-only, and
        every path that makes it writable widens it to int64 once
        (:meth:`_promote`, :meth:`clone_payload`, :meth:`restore_slice`)."""
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
        publication seals and cites (or re-publishes narrow); the flags of
        a fully PS slice are never written, so they stay the shared array.
        Either way the writable copy is int64, whatever the width of the
        row it was copied from: the copy is the one widening.
        """
        values = payload.values
        if values is None or values.flags.writeable:
            return
        if self.successor_row is not None and payload.ps_flags is self._all_ps:
            payload.values = self.successor_row(values)
        else:
            payload.values = values.astype(np.int64)
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
            # an array add: int64 wraps as a ring (the sum of a Python int
            # would not fit back once the prefix sums wrapped)
            np.add.at(payload.values, cell, delta)
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
        """A writable copy of ``floor_payload`` (a splice's new instance):
        int64, also when the floor is a narrow published row."""
        payload = self.new_slice()
        if floor_payload is not None:
            floor_values, floor_flags = floor_payload.data()
            payload.values = floor_values.astype(np.int64)
            payload.ps_flags = floor_flags.copy()
            payload.ps_count = floor_payload.ps_count
        return payload

    # -- durable snapshots (checkpoint machinery) ------------------------------

    def snapshot_slice(self, payload, index: int, arrays: dict) -> None:
        if payload.retired:
            arrays[f"slice_{index}_retired"] = np.array([1])
        else:
            arrays[f"slice_{index}_values"] = payload.values
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
        return payload.values.nbytes + payload.ps_flags.nbytes

    # -- fast-engine views -----------------------------------------------------

    def slice_views(self, payload) -> tuple[np.ndarray, np.ndarray]:
        return payload.data()

    # -- epoch publication (snapshot readers, uncounted) ------------------------

    def freeze_cache(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Epoch-publication copies of (cache values, stamps); uncounted.

        Runs on the writer thread between operations; the copies become
        the immutable read-through target of a published
        :class:`~repro.concurrent.snapshot.Epoch`.
        """
        if self.cache is None:
            return None
        return self.cache.freeze()

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
