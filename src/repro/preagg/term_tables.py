"""Precomputed per-dimension term tables for vectorized evaluation.

The metered execution path materializes term sets one cell at a time so
every access can be charged to the paper's cost model.  The fast execution
path instead precomputes, per dimension, the complete prefix and update
term sets of a technique in CSR layout (one flat ``indices``/``coeffs``
array plus an ``offsets`` array) and evaluates multi-dimensional term
cross products as NumPy gather + tensor-dot operations:

    result = sum over (i_1 .. i_m) of  c_1[i_1] * ... * c_m[i_m]
             * V[idx_1[i_1], .., idx_m[i_m]]

which is ``V[np.ix_(idx_1, .., idx_m)]`` contracted against the
per-dimension coefficient vectors -- one gather and ``m`` small dot
products instead of ``prod |T_j|`` interpreted cell reads.  The batched
delta-summation formulation of Colley (arXiv:2211.05896) and the practical
Fenwick evaluation notes of Andreica & Tapus (arXiv:1006.3968) both use
this "flatten the term set, then let the vector unit do the work" shape.

Tables are immutable and shared; building one is O(N log N) for DDC and
O(N) for PS, done once per cube dimension.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.preagg.base import Technique


class TermTable:
    """CSR-packed prefix/update term sets of one 1-D technique.

    ``prefix_slice(k)`` returns the (indices, coeffs) arrays evaluating the
    prefix sum ``P[k]`` against the technique's aggregated array; ``k`` may
    be -1 (empty selection, empty arrays).  ``update_slice(i)`` returns the
    terms receiving an update of raw cell ``A[i]``.  Range term sets are
    assembled on demand from :meth:`Technique.range_terms` (DDC's direct
    evaluation skips shared ancestors, so ranges are not enumerable from
    the prefix table alone) and memoized.
    """

    def __init__(self, technique: Technique) -> None:
        self.technique = technique
        self.size = technique.size
        pref_idx: list[int] = []
        pref_coeff: list[int] = []
        pref_off = [0]
        for k in range(-1, self.size):
            for idx, coeff in technique.prefix_terms(k):
                pref_idx.append(idx)
                pref_coeff.append(coeff)
            pref_off.append(len(pref_idx))
        self._prefix_indices = np.asarray(pref_idx, dtype=np.intp)
        self._prefix_coeffs = np.asarray(pref_coeff, dtype=np.int64)
        self._prefix_offsets = np.asarray(pref_off, dtype=np.intp)

        upd_idx: list[int] = []
        upd_coeff: list[int] = []
        upd_off = [0]
        for i in range(self.size):
            for idx, coeff in technique.update_terms(i):
                upd_idx.append(idx)
                upd_coeff.append(coeff)
            upd_off.append(len(upd_idx))
        self._update_indices = np.asarray(upd_idx, dtype=np.intp)
        self._update_coeffs = np.asarray(upd_coeff, dtype=np.int64)
        self._update_offsets = np.asarray(upd_off, dtype=np.intp)

        self._range_memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    # -- term-set views ------------------------------------------------------

    def prefix_slice(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not -1 <= k < self.size:
            raise DomainError(f"prefix bound {k} outside [-1, {self.size - 1}]")
        start, stop = self._prefix_offsets[k + 1], self._prefix_offsets[k + 2]
        return self._prefix_indices[start:stop], self._prefix_coeffs[start:stop]

    def update_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.size:
            raise DomainError(f"index {i} outside [0, {self.size - 1}]")
        start, stop = self._update_offsets[i], self._update_offsets[i + 1]
        return self._update_indices[start:stop], self._update_coeffs[start:stop]

    def range_slice(self, lower: int, upper: int) -> tuple[np.ndarray, np.ndarray]:
        key = (lower, upper)
        cached = self._range_memo.get(key)
        if cached is not None:
            return cached
        terms = self.technique.range_terms(lower, upper)
        arrays = (
            np.asarray([idx for idx, _ in terms], dtype=np.intp),
            np.asarray([coeff for _, coeff in terms], dtype=np.int64),
        )
        self._range_memo[key] = arrays
        return arrays


def gather_dot(
    values: np.ndarray,
    indices: Sequence[np.ndarray],
    coeffs: Sequence[np.ndarray],
) -> int:
    """Contract a term-set cross product against a dense array.

    ``indices[j]``/``coeffs[j]`` are the j-th dimension's term set; the
    result is the multi-linear combination the metered path would compute
    with ``combine_terms`` -- evaluated as one fancy-index gather followed
    by one tensor contraction per dimension.
    """
    if any(idx.size == 0 for idx in indices):
        return 0
    block = values[np.ix_(*indices)]
    for coeff in reversed(coeffs):
        block = block @ coeff
    return int(block)


def gathered_cell_count(indices: Sequence[np.ndarray]) -> int:
    """Cells a :func:`gather_dot` touches (the bulk charge for fast mode)."""
    count = 1
    for idx in indices:
        count *= int(idx.size)
    return count


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR; no numpy>=2 dependency)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(
        np.int64
    )


def fenwick_term_counts(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """``|DDCTechnique.range_terms(l, u)|`` for whole arrays at once.

    The direct range evaluation strips low bits from ``a = u + 1``
    (positive terms) and ``b = l`` (negative terms) until both reach
    their common value ``g`` -- the longest shared binary prefix of
    ``a`` and ``b`` above their highest differing bit.  Each strip emits
    one term, so the term count is exactly::

        popcount(a) + popcount(b) - 2 * popcount(g)

    This closed form lets the batched evaluator charge the *same*
    per-box cell tally as :func:`gathered_cell_count` over the memoized
    term arrays, without materializing any term set.
    """
    a = np.asarray(uppers, dtype=np.int64).astype(np.uint64) + np.uint64(1)
    b = np.asarray(lowers, dtype=np.int64).astype(np.uint64)
    x = a ^ b
    # smear the highest differing bit downward; ~x then masks the prefix
    for shift in (1, 2, 4, 8, 16, 32):
        x = x | (x >> np.uint64(shift))
    g = a & ~x
    return _popcount64(a) + _popcount64(b) - 2 * _popcount64(g)


def ddc_gather_counts(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """Per-box DDC gather charge: product of per-axis term counts.

    ``lowers``/``uppers`` are ``(n, d)`` clipped box corners; the result
    equals ``gathered_cell_count`` of the per-box DDC range arrays.
    """
    counts = fenwick_term_counts(lowers, uppers)
    return np.prod(counts.reshape(lowers.shape), axis=-1, dtype=np.int64)


def ps_gather_counts(lowers: np.ndarray) -> np.ndarray:
    """Per-box PS gather charge over ``(n, d)`` clipped lower corners.

    The PS range term set per axis is ``{upper: +1}`` plus
    ``{lower - 1: -1}`` when ``lower > 0``, so the per-axis count is
    ``1 + (lower > 0)`` and the charge is their product -- identical to
    ``gathered_cell_count`` of the PS range arrays.
    """
    return np.prod(
        1 + (np.asarray(lowers, dtype=np.int64) > 0), axis=-1, dtype=np.int64
    )


class TermTableSet:
    """One :class:`TermTable` per dimension of a multi-dimensional array."""

    def __init__(self, techniques: Sequence[Technique]) -> None:
        if not techniques:
            raise DomainError("need at least one dimension")
        self.tables = [TermTable(t) for t in techniques]
        self.shape = tuple(t.size for t in techniques)
        self.ndim = len(self.tables)

    def range_arrays(
        self, lower: Sequence[int], upper: Sequence[int]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        indices: list[np.ndarray] = []
        coeffs: list[np.ndarray] = []
        for table, low, up in zip(self.tables, lower, upper):
            idx, coeff = table.range_slice(int(low), int(up))
            indices.append(idx)
            coeffs.append(coeff)
        return indices, coeffs

    def prefix_arrays(
        self, corner: Sequence[int]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        indices: list[np.ndarray] = []
        coeffs: list[np.ndarray] = []
        for table, k in zip(self.tables, corner):
            idx, coeff = table.prefix_slice(int(k))
            indices.append(idx)
            coeffs.append(coeff)
        return indices, coeffs

    def update_arrays(self, cell: Sequence[int]) -> list[np.ndarray]:
        """Per-dimension update index sets (all DDC coefficients are +1)."""
        return [
            table.update_slice(int(c))[0] for table, c in zip(self.tables, cell)
        ]

    def update_flat_sets(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat (raveled) update sets of a batch of raw cells, concatenated.

        Returns ``(flat indices, set size per cell)``.  Cell ``i``'s run is
        the row-major cross product of its per-dimension update sets --
        element for element what :meth:`update_arrays` raveled would give
        -- expanded for the whole ``(n, ndim)`` batch straight from the CSR
        tables: every output element takes its position inside its cell's
        run apart into one mixed-radix digit per dimension.
        """
        starts = [t._update_offsets[cells[:, a]] for a, t in enumerate(self.tables)]
        widths = [
            t._update_offsets[cells[:, a] + 1] - starts[a]
            for a, t in enumerate(self.tables)
        ]
        counts = np.prod(widths, axis=0)
        owner = np.repeat(np.arange(len(cells)), counts)
        position = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.zeros(owner.size, dtype=np.int64)
        stride = 1
        for axis in reversed(range(self.ndim)):
            width = widths[axis][owner]
            term = starts[axis][owner] + position % width
            flat += self.tables[axis]._update_indices[term] * stride
            position //= width
            stride *= self.shape[axis]
        return flat, counts

    def range_eval(self, values: np.ndarray, lower, upper) -> int:
        indices, coeffs = self.range_arrays(lower, upper)
        return gather_dot(values, indices, coeffs)

    def prefix_eval(self, values: np.ndarray, corner) -> int:
        indices, coeffs = self.prefix_arrays(corner)
        return gather_dot(values, indices, coeffs)
