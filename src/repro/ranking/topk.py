"""Exact temporal top-k with threshold pruning over PS marginals.

The query is "the k cells with the largest SUM/COUNT over the TT
interval ``[t1, t2]``", ranked by value descending with lexicographic
cell order breaking ties -- the deterministic total order a brute-force
oracle reproduces bit for bit.

The engine only talks to its front through ``query_many`` (the
:class:`~repro.core.framework.BatchExecutor` protocol), so every front
in the repository -- bare kernels on any storage backend, ``G_d``
buffered fronts, :class:`~repro.retention.planner.TieredCube` and
sharded cubes -- ranks through the same code path, and the compiled
corner gather underneath materializes exactly the boxes the engine asks
for.

Pruning (Fagin-style threshold algorithm, after Jestes et al.,
arXiv:1208.0222):

1. One cheap batched pass computes the per-axis *marginals* of the
   interval: ``M_j[v]`` is the aggregate of the hyperplane ``x_j = v``
   over ``[t1, t2]``, obtained by differencing per-axis prefix boxes
   whose lower corners are all zero (the cheapest possible PS gathers).
2. For non-negative measures ``ub(c) = min_j M_j[c_j]`` upper-bounds
   every cell, and ``M_j[v] == 0`` proves an entire hyperplane is zero.
   Candidates therefore form the cross product of the positive marginal
   supports; everything outside it is *known* to be zero without
   touching a single cell.  When the two smallest positive supports are
   cheap enough, a *pairwise* marginal over those two axes tightens the
   bound further (``ub`` additionally capped by the aggregate of the
   ``x_a = v_a, x_b = v_b`` hyperline) at the cost of one extra batch of
   all-zero-lower prefix boxes.
3. Candidates are materialized in descending upper-bound order (ties in
   lexicographic cell order) through single-cell gathers, stopping as
   soon as the running k-th best value strictly exceeds the best
   remaining upper bound -- any unmaterialized cell is then provably
   outside the top-k, ties included.

The upper-bound argument needs cell values to be non-negative (COUNT
cubes, or SUM over a non-negative measure -- every workload of the
source paper).  The engine therefore prunes only when the caller
declares ``nonnegative=True``; otherwise it falls back to an exact
dense materialization of every cell through the same batch gather.  A
marginal with a negative entry *disproves* the declaration, and the
engine quietly falls back to the dense path for that query.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DomainError
from repro.core.front import layers

#: cap on the number of single-cell boxes per batched gather: bounds the
#: stacked-PS working set of the fast path, and is the granularity at
#: which the pruning loop re-checks its stopping rule
GATHER_CHUNK = 4096


@dataclass(frozen=True)
class TopKStats:
    """Per-query accounting of one :meth:`TopKEngine.topk_many` call."""

    strategy: str  #: ``"prune"`` or ``"dense"``
    cells: int  #: size of the cell domain
    marginal_boxes: int  #: prefix boxes spent on marginal upper bounds
    materialized: int  #: cells materialized through single-cell gathers

    @property
    def pruned_cells(self) -> int:
        """Cells whose exact value was never gathered."""
        return self.cells - self.materialized


def brute_topk(dense: np.ndarray, t1: int, t2: int, k: int):
    """Reference oracle: rank every cell of ``dense[t1:t2+1].sum(0)``.

    ``dense`` is the raw (time, *cells) delta array; ranking is value
    descending, ties by lexicographic (C-order) cell index ascending.
    """
    lo, hi = max(int(t1), 0), min(int(t2), dense.shape[0] - 1)
    if lo > hi:
        values = np.zeros(dense.shape[1:], dtype=np.int64)
    else:
        values = dense[lo : hi + 1].sum(axis=0)
    flat = values.reshape(-1)
    # ascending ~v is descending v without -v's wrap at -2**63; stable:
    # ties stay in lex order
    order = np.argsort(~flat, kind="stable")
    take = order[: max(0, min(int(k), flat.size))]
    shape = values.shape
    return [
        (tuple(int(c) for c in np.unravel_index(int(i), shape)), int(flat[i]))
        for i in take
    ]


class TopKEngine:
    """Temporal top-k over any ``BatchExecutor`` front.

    Parameters
    ----------
    front:
        Anything with ``query_many(boxes, mode)`` that takes an ``(n, 2,
        d)`` int64 corner array (:func:`~repro.core.types.box_array`),
        as every front here does -- the engine issues only box
        aggregates, never touches storage directly, and builds no
        :class:`~repro.core.types.Box` object.
    slice_shape:
        The cell-domain shape; defaults to the shape of the kernel at the
        bottom of the stack ``front`` declares
        (:func:`repro.core.front.layers`) -- a front that is no such
        stack (a sharded cube, a test double) passes it.
    nonnegative:
        Declare that every update delta is non-negative (COUNT cubes and
        the paper's SUM workloads).  Only then is marginal pruning sound;
        without the declaration every query runs the exact dense path.
    """

    def __init__(self, front, slice_shape=None, nonnegative: bool = False) -> None:
        self.front = front
        if slice_shape is None:
            slice_shape = next(reversed(layers(front).values())).slice_shape
        self.slice_shape = tuple(int(n) for n in slice_shape)
        if not self.slice_shape or any(n <= 0 for n in self.slice_shape):
            raise DomainError(f"invalid slice shape {self.slice_shape}")
        self.nonnegative = bool(nonnegative)
        #: per-query :class:`TopKStats` of the most recent ``topk_many``
        self.last_stats: list[TopKStats] = []

    # -- public API -------------------------------------------------------------

    def topk(self, t1: int, t2: int, k: int, mode: str = "fast"):
        return self.topk_many([(t1, t2, k)], mode=mode)[0]

    def topk_many(self, queries: Sequence, mode: str = "fast"):
        """Rank each ``(t1, t2, k)`` query; returns ``[(cell, value), ...]``
        per query, value descending, ties in lexicographic cell order.
        """
        results = []
        stats: list[TopKStats] = []
        for t1, t2, k in queries:
            t1, t2, k = int(t1), int(t2), int(k)
            result, stat = self._one_query(t1, t2, k, mode)
            results.append(result)
            stats.append(stat)
        self.last_stats = stats
        return results

    # -- shared machinery -------------------------------------------------------

    def _cells(self) -> int:
        return int(np.prod(self.slice_shape))

    def _boxes(self, t1: int, t2: int, lowers, uppers) -> np.ndarray:
        """The ``[t1, t2]`` boxes over ``(n, d-1)`` cell corners, as the
        ``(n, 2, d)`` corner array every front's ``query_many`` takes."""
        corners = np.empty((len(uppers), 2, 1 + len(self.slice_shape)), np.int64)
        corners[:, :, 0] = t1, t2
        corners[:, 0, 1:] = lowers
        corners[:, 1, 1:] = uppers
        return corners

    def _ask(self, corners: np.ndarray, mode: str) -> np.ndarray:
        return np.asarray(self.front.query_many(corners, mode=mode), dtype=np.int64)

    def _gather(self, t1: int, t2: int, flat_cells: np.ndarray, mode: str):
        """Exact interval values of the given flat cell indices."""
        cells = np.stack(np.unravel_index(flat_cells, self.slice_shape), axis=1)
        boxes = self._boxes(t1, t2, cells, cells)
        chunks = [
            self._ask(boxes[start : start + GATHER_CHUNK], mode)
            for start in range(0, len(boxes), GATHER_CHUNK)
        ]
        return np.concatenate(chunks) if chunks else np.empty(0, np.int64)

    def _prefix_uppers(self, axes, values) -> np.ndarray:
        """Upper corners of all-zero-lower prefix boxes: the full domain
        except ``values[:, j]`` on axis ``axes[j]``."""
        uppers = np.tile(np.asarray(self.slice_shape, np.int64) - 1, (len(values), 1))
        uppers[:, axes] = values
        return uppers

    def _marginals(self, t1: int, t2: int, mode: str) -> list[np.ndarray]:
        """Per-axis interval marginals via all-zero-lower prefix boxes."""
        uppers = np.concatenate(
            [
                self._prefix_uppers([axis], np.arange(size)[:, None])
                for axis, size in enumerate(self.slice_shape)
            ]
        )
        # differencing the cumulative prefixes recovers the marginal
        prefix = self._ask(self._boxes(t1, t2, 0, uppers), mode)
        marginals: list[np.ndarray] = []
        start = 0
        for size in self.slice_shape:
            marginals.append(np.diff(prefix[start : start + size], prepend=0))
            start += size
        return marginals

    def _pair_marginal(self, t1, t2, axis_a, axis_b, support_a, support_b, mode):
        """Pairwise marginal over two axes, restricted to their supports.

        Differencing across consecutive *support* values is exact: every
        skipped value has an all-zero single-axis marginal, so its
        hyperplane contributes nothing to the prefix gap.
        """
        pairs = np.stack(np.meshgrid(support_a, support_b, indexing="ij"), axis=-1)
        uppers = self._prefix_uppers([axis_a, axis_b], pairs.reshape(-1, 2))
        prefix = self._ask(self._boxes(t1, t2, 0, uppers), mode)
        grid = prefix.reshape(support_a.size, support_b.size)
        grid = np.diff(grid, axis=0, prepend=0)
        return np.diff(grid, axis=1, prepend=0)

    def _select(self, flat_cells: np.ndarray, values: np.ndarray, k: int):
        """Top-k of materialized ``(cell, value)`` plus implicit zeros.

        Every cell of the domain that is *not* in ``flat_cells`` is known
        to be exactly zero; ranking is value desc, flat index asc.
        """
        cells_total = self._cells()
        k = min(k, cells_total)
        if k <= 0:
            return []
        order = np.lexsort((flat_cells, ~values))  # value desc, no wrap
        chosen: list[tuple[int, int]] = []
        positives = 0
        for pos in order:
            if values[pos] <= 0:
                break
            chosen.append((int(flat_cells[pos]), int(values[pos])))
            positives += 1
            if positives == k:
                break
        if positives < k:
            # fill with zero-valued cells in lexicographic order; cells
            # with value < 0 can only exist on the dense path, and rank
            # below every zero cell
            nonzero = np.sort(flat_cells[values != 0])
            fill = k - positives
            cursor = 0
            flat = 0
            while fill and flat < cells_total:
                while cursor < nonzero.size and nonzero[cursor] < flat:
                    cursor += 1
                if cursor < nonzero.size and nonzero[cursor] == flat:
                    flat += 1
                    continue
                chosen.append((flat, 0))
                fill -= 1
                flat += 1
            if fill:
                # only negatives remain: append them value desc, lex asc
                negatives = [
                    (int(flat_cells[pos]), int(values[pos]))
                    for pos in order
                    if values[pos] < 0
                ]
                chosen.extend(negatives[:fill])
        shape = self.slice_shape
        return [
            (tuple(int(c) for c in np.unravel_index(flat, shape)), value)
            for flat, value in chosen
        ]

    # -- strategies -------------------------------------------------------------

    def _one_query(self, t1: int, t2: int, k: int, mode: str):
        cells_total = self._cells()
        if k <= 0:
            return [], TopKStats("dense", cells_total, 0, 0)
        if t2 < t1:  # degenerate interval: every cell aggregates to zero
            empty = np.empty(0, dtype=np.int64)
            return (
                self._select(empty, empty, k),
                TopKStats("dense", cells_total, 0, 0),
            )
        # marginals only pay off when they are cheaper than the domain
        if self.nonnegative and sum(self.slice_shape) < cells_total:
            return self._pruned_query(t1, t2, k, mode)
        return self._dense_query(t1, t2, k, mode)

    def _dense_query(self, t1, t2, k, mode, marginal_boxes: int = 0):
        flat = np.arange(self._cells(), dtype=np.int64)
        values = self._gather(t1, t2, flat, mode)
        stats = TopKStats("dense", self._cells(), marginal_boxes, self._cells())
        return self._select(flat, values, k), stats

    def _pruned_query(self, t1, t2, k, mode):
        marginals = self._marginals(t1, t2, mode)
        marginal_boxes = sum(self.slice_shape)
        if any(int(m.min()) < 0 for m in marginals if m.size):
            # a negative marginal disproves the non-negativity
            # declaration; the upper bounds would be unsound
            return self._dense_query(t1, t2, k, mode, marginal_boxes)
        supports = [np.flatnonzero(m > 0) for m in marginals]
        grid_n = int(np.prod([s.size for s in supports]))
        cells_total = self._cells()
        if grid_n == 0:
            empty = np.empty(0, dtype=np.int64)
            stats = TopKStats("prune", cells_total, marginal_boxes, 0)
            return self._select(empty, empty, k), stats
        # the candidate grid: cross product of positive supports, with
        # ub(c) = min_j M_j[c_j]; built in lexicographic order so a
        # stable sort keeps ties lex-ordered
        mesh = np.meshgrid(*supports, indexing="ij")
        grid_cells = np.ravel_multi_index(
            [m.reshape(-1) for m in mesh], self.slice_shape
        ).astype(np.int64)
        grid_shape = [s.size for s in supports]
        ub = np.minimum.reduce(
            [
                np.broadcast_to(
                    marginals[j][supports[j]].reshape(
                        [-1 if i == j else 1 for i in range(len(supports))]
                    ),
                    grid_shape,
                ).reshape(-1)
                for j in range(len(supports))
            ]
        )
        # tighten with a pairwise marginal over the two cheapest supports
        # whenever its prefix boxes cost less than half the candidates
        # they stand to prune
        if len(supports) >= 2:
            by_size = sorted(range(len(supports)), key=lambda j: supports[j].size)
            a, b = sorted(by_size[:2])
            pair_cost = supports[a].size * supports[b].size
            if 0 < pair_cost < grid_n // 2:
                pair = self._pair_marginal(
                    t1, t2, a, b, supports[a], supports[b], mode
                )
                marginal_boxes += pair_cost
                if int(pair.min()) < 0:
                    return self._dense_query(t1, t2, k, mode, marginal_boxes)
                view = [
                    supports[j].size if j in (a, b) else 1
                    for j in range(len(supports))
                ]
                ub = np.minimum(
                    ub,
                    np.broadcast_to(pair.reshape(view), grid_shape).reshape(-1),
                )
        order = np.argsort(-ub, kind="stable")
        zero_pool = cells_total - grid_n
        values = np.empty(grid_n, dtype=np.int64)
        done = 0
        k_eff = min(k, cells_total)
        # galloping chunks: with tight bounds the stop rule usually fires
        # within the first couple thousand candidates, so start small and
        # double towards the batch cap to amortize a loose worst case
        chunk_size = max(k_eff, 256)
        while done < grid_n:
            tau = self._threshold(values[:done], k_eff, zero_pool)
            if tau is not None and int(ub[order[done]]) < tau:
                break  # every remaining candidate is provably outside
            chunk = order[done : done + chunk_size]
            values[done : done + chunk.size] = self._gather(
                t1, t2, grid_cells[chunk], mode
            )
            done += chunk.size
            chunk_size = min(chunk_size * 2, GATHER_CHUNK)
        stats = TopKStats("prune", cells_total, marginal_boxes, done)
        materialized = order[:done]
        return (
            self._select(grid_cells[materialized], values[:done], k),
            stats,
        )

    @staticmethod
    def _threshold(values: np.ndarray, k: int, zero_pool: int):
        """The running k-th best value, or ``None`` while undefined.

        The implicit zero cells participate: once the materialized values
        plus the zero pool cover k entries, the threshold is at worst 0.
        """
        if values.size >= k:
            return int(np.partition(values, values.size - k)[values.size - k])
        if values.size + zero_pool >= k:
            return 0
        return None
