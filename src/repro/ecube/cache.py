"""The cache array of Section 3.3: latest values plus per-cell timestamps.

The cache holds, for every (d-1)-dimensional cell, the *cumulative* DDC
value as of the latest update together with the occurring-time index of
that cell's last update.  The invariant maintained jointly with the slice
store is:

    for a cell with timestamp index ``ts`` every historic slice with index
    ``< ts`` already holds its final value, and every slice with index
    ``>= ts`` still has to receive the cache value (lazy copy).

Timestamps are kept as *indices into the occurring-time directory* (not raw
time values): copy targets, read-through decisions and the Table 4
incomplete-instance count all become integer index comparisons.

The cache also owns the bookkeeping the experiments need:

* a timestamp histogram with a monotone minimum pointer, yielding the
  number of incompletely copied historic instances in O(1) amortized;
* the roving copy-ahead pointer ``Z`` of Figure 8.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.metrics import CostCounter


class SliceCache:
    """Cumulative-value cache with per-cell occurring-time-index stamps."""

    def __init__(self, shape: Sequence[int], counter: CostCounter) -> None:
        self.shape = tuple(int(n) for n in shape)
        if any(n <= 0 for n in self.shape):
            raise DomainError(f"invalid cache shape {self.shape}")
        self.counter = counter
        self.values = np.zeros(self.shape, dtype=np.int64)
        self.stamps = np.zeros(self.shape, dtype=np.int64)
        self.num_cells = int(np.prod(self.shape))
        # histogram of stamps by occurring-time index
        self._counts: list[int] = [self.num_cells]
        self._min_idx = 0
        self._last_idx = 0
        # cells with stamp < last index (still owing copies somewhere)
        self.pending = 0
        self._rover = 0

    @classmethod
    def from_state(
        cls,
        shape: Sequence[int],
        counter: CostCounter,
        values: np.ndarray,
        stamps: np.ndarray,
        num_slices: int,
    ) -> "SliceCache":
        """Rebuild a cache from persisted (values, stamps) arrays.

        The stamp histogram, pending count and minimum pointer are
        reconstructed so lazy-copy progress resumes exactly where the
        snapshot left it (used by :mod:`repro.storage.serialize` and the
        durability checkpoints).
        """
        cache = cls(shape, counter)
        cache.values = np.asarray(values, dtype=np.int64).reshape(cache.shape)
        cache.stamps = np.asarray(stamps, dtype=np.int64).reshape(cache.shape)
        cache._last_idx = num_slices - 1
        counts = np.bincount(cache.stamps.reshape(-1), minlength=num_slices)
        cache._counts = [int(c) for c in counts]
        cache._min_idx = 0
        cache._recount_pending()
        return cache

    # -- directory growth -----------------------------------------------------

    @property
    def last_index(self) -> int:
        return self._last_idx

    def notice_new_time(self) -> None:
        """A new occurring time was appended; all non-current cells owe copies."""
        self._counts.append(0)
        self._last_idx += 1
        self.pending = self.num_cells - self._counts[self._last_idx]

    def notice_spliced_index(self, index: int) -> None:
        """A historic instance was spliced in at directory ``index``.

        Stamps are directory indices, so every stamp at or past the
        insertion point shifts up by one (it still refers to the same
        physical instance, now one position later); the histogram gains
        an empty bucket at ``index`` and the latest pointer advances.
        The pending count is unchanged: a cell current before the splice
        stays current (the spliced instance is materialized complete by
        the splicer), and a cell owing copies owes them to the same
        physical slices as before.
        """
        if not 0 <= index <= self._last_idx:
            raise DomainError(
                f"splice index {index} outside [0, {self._last_idx}]"
            )
        self.stamps[self.stamps >= index] += 1
        self._counts.insert(index, 0)
        self._last_idx += 1
        if self._min_idx >= index:
            self._min_idx += 1
        self._recount_pending()

    # -- counted cell access ----------------------------------------------------

    def read(self, cell: tuple[int, ...]) -> tuple[int, int]:
        """(value, stamp index) of a cell; one counted cell access."""
        self.counter.read_cells()
        return int(self.values[cell]), int(self.stamps[cell])

    def peek_stamp(self, cell: tuple[int, ...]) -> int:
        """Stamp without cost (used by read-through routing, which charges
        the access on whichever store ends up supplying the value)."""
        return int(self.stamps[cell])

    def peek_value(self, cell: tuple[int, ...]) -> int:
        return int(self.values[cell])

    def apply_delta(self, cell: tuple[int, ...], delta: int) -> None:
        """Add ``delta`` to a cell whose stamp is already current."""
        self.counter.write_cells()
        self.values[cell] += delta

    def restamp(self, cell: tuple[int, ...], new_index: int) -> None:
        """Advance a cell's stamp (after its copies have been performed)."""
        old = int(self.stamps[cell])
        if new_index < old:
            raise DomainError(f"stamp may only advance ({old} -> {new_index})")
        if new_index == old:
            return
        self.stamps[cell] = new_index
        self._counts[old] -= 1
        self._counts[new_index] += 1
        self._recount_pending()

    # -- vectorized (fast-mode) access -------------------------------------

    @property
    def flat_values(self) -> np.ndarray:
        """Flat view of the cumulative values (fast-mode scatter target)."""
        return self.values.reshape(-1)

    @property
    def flat_stamps(self) -> np.ndarray:
        return self.stamps.reshape(-1)

    def bulk_restamp(self, flat_cells: np.ndarray, new_index: int) -> None:
        """Advance the stamps of *unique* flat cell indices in one sweep.

        Histogram maintenance matches a sequence of :meth:`restamp` calls;
        cells already stamped at ``new_index`` are left alone.
        """
        if flat_cells.size == 0:
            return
        stamps = self.flat_stamps
        old = stamps[flat_cells]
        if int(old.max(initial=0)) > new_index:
            raise DomainError("stamp may only advance in bulk_restamp")
        move = old != new_index
        if not bool(move.any()):
            return
        moved_cells = flat_cells[move]
        histogram = np.bincount(old[move], minlength=new_index + 1)
        for index in np.nonzero(histogram)[0]:
            self._counts[int(index)] -= int(histogram[index])
        self._counts[new_index] += int(moved_cells.size)
        stamps[moved_cells] = new_index
        self._recount_pending()

    def _recount_pending(self) -> None:
        while self._min_idx < self._last_idx and self._counts[self._min_idx] == 0:
            self._min_idx += 1
        self.pending = self.num_cells - self._counts[self._last_idx]
        # pending counts cells below last; consistency with histogram:
        if self._last_idx == 0:
            self.pending = 0

    # -- Table 4: incomplete historic instances ---------------------------------

    def incomplete_instances(self) -> int:
        """Historic instances not completely copied yet.

        Slice index ``s < last`` is incomplete iff some cell's stamp is
        <= s, i.e. iff ``s >= min stamp``; the count is therefore
        ``last - min_stamp`` (0 when nothing is pending).
        """
        if self.pending == 0:
            return 0
        return self._last_idx - self._min_idx

    def min_stamp_index(self) -> int:
        self._recount_pending()
        return self._min_idx

    # -- the roving copy-ahead pointer Z (Figure 8, step 4) -----------------------

    def rover_cell(self) -> tuple[int, ...]:
        return tuple(
            int(c) for c in np.unravel_index(self._rover, self.shape)
        )

    def rover_advance(self) -> None:
        self._rover = (self._rover + 1) % self.num_cells

    def __repr__(self) -> str:
        return (
            f"SliceCache(shape={self.shape}, last={self._last_idx}, "
            f"pending={self.pending})"
        )
