"""A sparse Evolving Data Cube (the paper's Section 7 future work).

The conclusions announce: "We also intend to develop new data structures
that support disk-based aggregation on sparse data sets."  This module is
that follow-up, built from the paper's own ingredients:

* historic slices store only their *touched* cells (hash maps instead of
  dense arrays), so storage is proportional to update chains rather than
  the domain -- an untouched DDC cell is implicitly zero;
* the cache is sparse the same way; timestamps exist only for touched
  cells (an untouched cell never owes copies);
* the eCube conversion still works -- but a converted PS cell is usually
  *non-zero even where the raw data is empty*, so queries densify the
  slices they touch.  The cube tracks that growth
  (:attr:`SparseEvolvingDataCube.materialized_cells`), exposing the
  storage-vs-query-speed dial that dense arrays hide.

Semantics and costs match :class:`~repro.ecube.ecube.EvolvingDataCube`
exactly (same counted accesses for the same operations); only the storage
representation differs.  The dense cube remains the right choice above
the density thresholds of Section 3; this one extends the framework below
them.

The cube is the shared :class:`~repro.ecube.kernel.CubeKernel` over
:class:`SparseStore`, which also gives the sparse variant the batch entry
points (``query_many``/``update_many``), out-of-order corrections and
data aging.  It is a cost model, used as a bare kernel: no ``G_d``
buffer, log, snapshot, tier or shard sits over a sparse store
(:func:`repro.core.front.layers` refuses such a stack) -- conversion
densifies it, so a served sparse store would hold more than a dense one.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.ecube import compiled
from repro.ecube.kernel import CubeKernel
from repro.ecube.stores import BaseSliceStore
from repro.metrics import CostCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.ecube.fastpath import FastSliceEngine


class SparseSlice:
    """One slice: touched cells only.  value map + PS flag set."""

    __slots__ = ("values", "ps_cells", "fast_hits", "retired")

    def __init__(self) -> None:
        self.values: dict[tuple[int, ...], int] = {}
        self.ps_cells: set[tuple[int, ...]] = set()
        self.fast_hits = 0
        self.retired = False

    @property
    def ps_count(self) -> int:
        return len(self.ps_cells)

    def retire(self) -> None:
        self.values = {}
        self.ps_cells = set()
        self.retired = True


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
        payload.values[cell] = ps_value
        payload.ps_cells.add(cell)

    def oob_slice_add(self, payload, cell, delta: int) -> None:
        self.counter.write_cells()
        payload.values[cell] = payload.values.get(cell, 0) + delta

    def dominating_ps_add(self, payload, cell, dominating, delta: int) -> None:
        touched = [
            ps_cell
            for ps_cell in payload.ps_cells
            if all(pc >= c for pc, c in zip(ps_cell, cell))
        ]
        if touched:
            self.counter.write_cells(len(touched))
            for ps_cell in touched:
                payload.values[ps_cell] += delta

    def clone_payload(self, floor_payload) -> SparseSlice:
        payload = SparseSlice()
        if floor_payload is not None:
            payload.values = dict(floor_payload.values)
            payload.ps_cells = set(floor_payload.ps_cells)
        return payload

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

    def finalize_commit(self, payload, ps: np.ndarray) -> None:
        # bulk conversion densifies the slice: every cell now holds a
        # (usually non-zero) PS value; materialized_cells records it
        cells = [tuple(int(c) for c in idx) for idx in np.ndindex(*ps.shape)]
        payload.values = {
            cell: int(value) for cell, value in zip(cells, ps.reshape(-1))
        }
        payload.ps_cells = set(cells)

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
        affected = compiled.sorted_unique(all_flat)
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


class SparseEvolvingDataCube(CubeKernel):
    """Append-only aggregation for sparse data, slices stored sparsely."""

    def __init__(
        self,
        slice_shape: Sequence[int],
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
    ) -> None:
        super().__init__(
            slice_shape,
            SparseStore(),
            num_times=num_times,
            counter=counter,
        )
        if copy_budget is None:
            copy_budget = 2 * self.engine.worst_case_update_cells() + 64
        self.copy_budget = int(copy_budget)

    @property
    def materialized_cells(self) -> int:
        """Stored slice cells -- the sparse cube's storage footprint.

        Grows with update chains and, through conversion, with queried
        regions (PS values are dense where DDC values are not).
        """
        return self.store.materialized_cells

    def __repr__(self) -> str:
        return (
            f"SparseEvolvingDataCube(slice_shape={self.slice_shape}, "
            f"slices={self.num_slices}, cells={self.materialized_cells})"
        )
