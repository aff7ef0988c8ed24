"""The general d-dimensional side structure ``G_d`` (Section 2.5).

Out-of-order updates -- late registrations or corrections of historic
values -- would cascade through every cumulative instance with a greater
time coordinate.  Instead they are buffered in a general d-dimensional
structure ``G_d``; queries add a ``G_d`` range aggregate to the framework
result, so cost degrades gracefully with the out-of-order fraction and
converges to the general (non-append-only) cost.

``G_d`` has one representation, a *columnar* store -- one ``(n, d)``
point matrix plus one ``(n,)`` delta vector, grown geometrically.
:meth:`OutOfOrderBuffer.range_sum_many` answers a whole query batch from
it with a single broadcast containment test contracted against the delta
vector (mask-and-dot): buffered-delta side structures are
batch-evaluable at scale exactly when the buffer itself is columnar
(Andreica & Tapus, arXiv:1006.3968; Colley's delta summation,
arXiv:2211.05896).

The paper's cost model wants an R-tree (one of its named ``G_d``
examples) whose every node touch is charged.  That *metered reference*
is built by the first metered read that asks for it
(``range_sum``, ``range_sum_many(mode="metered")``, ``node_accesses``),
by inserting the live columns in arrival order -- the tree ``n``
inserts would have built; while it exists ``add`` / ``add_many`` keep it
current.  A buffer only ever read in fast mode -- everything a served
cube does by default -- never builds it and never imports
:mod:`repro.trees`.

A background drain (:meth:`OutOfOrderBuffer.drain`) hands buffered updates
back to the owner for re-application into the instances, newest first --
"beginning with the latest instance to avoid that the process chases newly
created time slices".  ``drain`` and ``prune_below`` rewrite the columns
and drop the reference tree; its accumulated ``node_accesses`` are
carried, so cumulative cost reports stay monotone, and the next metered
read rebuilds it from what is left.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.core.types import Box, as_boxes, box_array

#: Upper bound on the (boxes x points) containment matrix evaluated per
#: chunk by :func:`columnar_range_sums` (element count).
_BATCH_ELEMENT_BUDGET = 4_000_000


def columnar_range_sums(
    points: np.ndarray, deltas: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> np.ndarray:
    """Per-box sums of ``deltas`` over the ``points`` each box contains.

    ``points`` is ``(m, d)``, ``lowers``/``uppers`` the ``(n, d)``
    inclusive box corners.  The containment of every point in every box
    is one broadcast comparison; the per-box sums are the boolean matrix
    contracted against the delta vector (mask-and-dot).  Large batches
    are chunked to bound the intermediate matrix.
    """
    out = np.empty(lowers.shape[0], dtype=np.int64)
    chunk = max(1, _BATCH_ELEMENT_BUDGET // max(1, points.size))
    for start in range(0, lowers.shape[0], chunk):
        low = lowers[start : start + chunk, None, :]
        up = uppers[start : start + chunk, None, :]
        inside = ((points[None, :, :] >= low) & (points[None, :, :] <= up)).all(
            axis=2
        )
        out[start : start + inside.shape[0]] = inside @ deltas
    return out


def _pairs(points: np.ndarray, deltas: np.ndarray) -> list[tuple[tuple[int, ...], int]]:
    """Rows of the columns as ``(point, delta)`` pairs of Python ints."""
    return list(zip(map(tuple, points.tolist()), deltas.tolist()))


class OutOfOrderBuffer:
    """Columnar buffer of (point, delta) out-of-order updates."""

    def __init__(self, ndim: int, leaf_capacity: int = 32, fanout: int = 16) -> None:
        self.ndim = ndim
        self._leaf_capacity = leaf_capacity
        self._fanout = fanout
        # the metered reference R-tree; None until a metered read builds it
        self._tree = None
        # metered cost accumulated by reference trees that were since dropped
        self._carried_node_accesses = 0
        # columnar store: point matrix + delta vector, geometric growth
        self._points = np.empty((0, ndim), dtype=np.int64)
        self._deltas = np.empty(0, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        """Number of buffered updates (the paper's degradation parameter)."""
        return self._size

    def min_time(self) -> int:
        """The oldest buffered TT-coordinate (the buffer must not be empty)."""
        return int(self._points[: self._size, 0].min())

    # -- columnar growth -------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        need = self._size + extra
        capacity = self._deltas.shape[0]
        if need <= capacity:
            return
        new_capacity = max(64, capacity)
        while new_capacity < need:
            new_capacity *= 2
        points = np.empty((new_capacity, self.ndim), dtype=np.int64)
        deltas = np.empty(new_capacity, dtype=np.int64)
        points[: self._size] = self._points[: self._size]
        deltas[: self._size] = self._deltas[: self._size]
        self._points = points
        self._deltas = deltas

    def _keep(self, keep: np.ndarray) -> None:
        """Rewrite the columns to the rows ``keep`` selects (reallocated,
        so capacity shrinks) and drop the reference tree, carrying its
        access count."""
        self._points = self._points[: self._size][keep]
        self._deltas = self._deltas[: self._size][keep]
        self._size = self._deltas.shape[0]
        if self._tree is not None:
            self._carried_node_accesses += self._tree.node_accesses
            self._tree = None

    # -- the metered reference ---------------------------------------------------

    def _reference(self):
        """The R-tree of the live columns, built in arrival order by the
        first metered read (imported here: fast-mode traffic never loads
        :mod:`repro.trees`)."""
        if self._tree is None:
            from repro.trees.rtree import RTree

            self._tree = RTree(self.ndim, self._leaf_capacity, self._fanout)
            for point, delta in self.entries():
                self._tree.insert(point, delta)
        return self._tree

    # -- updates ---------------------------------------------------------------

    def add(self, point: Sequence[int], delta: int) -> None:
        coords = tuple(int(c) for c in point)
        if len(coords) != self.ndim:
            raise DomainError(f"point arity {len(coords)} != {self.ndim}")
        self._reserve(1)
        self._points[self._size] = coords
        self._deltas[self._size] = int(delta)
        self._size += 1
        if self._tree is not None:
            self._tree.insert(coords, int(delta))

    def add_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
    ) -> None:
        """Bulk-append a batch of buffered updates in one copy (and, while
        the metered reference exists, one by one into it -- its cost model
        has no batched insert)."""
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise DomainError(f"points must be (n, {self.ndim}); got {points.shape}")
        if deltas.shape != (points.shape[0],):
            raise DomainError("need exactly one delta per point")
        if points.shape[0] == 0:
            return
        self._reserve(points.shape[0])
        self._points[self._size : self._size + points.shape[0]] = points
        self._deltas[self._size : self._size + points.shape[0]] = deltas
        self._size += points.shape[0]
        if self._tree is not None:
            for point, delta in _pairs(points, deltas):
                self._tree.insert(point, delta)

    # -- queries ---------------------------------------------------------------

    def range_sum(self, box: Box, mode: str = "metered") -> int:
        """The buffered contribution to a range query (post-processing).

        ``mode="metered"`` walks the reference R-tree and charges every
        node touch (the paper's cost model); ``mode="fast"`` evaluates
        the columns with one vectorized mask-and-dot.  Results are
        identical.
        """
        if self._size == 0:
            return 0
        if mode == "metered":
            return self._reference().range_sum(box)
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        return self.range_sum_many([box])[0]

    def range_sum_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """Buffered contributions for a whole query batch in one pass
        over the columnar store (:func:`columnar_range_sums`).  ``boxes``
        is a :class:`Box` sequence or an ``(n, 2, d)`` int64 corner array
        (:func:`~repro.core.types.box_array`)."""
        corners = box_array(boxes, self.ndim)
        if mode not in ("fast", "metered"):
            raise DomainError(f"unknown execution mode {mode!r}")
        if not corners.shape[0] or self._size == 0:
            return [0] * corners.shape[0]
        if mode == "metered":
            tree = self._reference()
            return [tree.range_sum(box) for box in as_boxes(corners)]
        out = columnar_range_sums(
            self._points[: self._size],
            self._deltas[: self._size],
            corners[:, 0],
            corners[:, 1],
        )
        return [int(v) for v in out]

    def snapshot_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the live (points, deltas) columns for epoch freezing.

        Taken on the writer thread between operations; the copies are
        immutable, so a pinned snapshot keeps answering with exactly the
        buffered contribution that existed at publication even while the
        live buffer grows or drains.
        """
        return (
            self._points[: self._size].copy(),
            self._deltas[: self._size].copy(),
        )

    def entries(self) -> list[tuple[tuple[int, ...], int]]:
        """All buffered (point, delta) pairs in arrival order."""
        return _pairs(self._points[: self._size], self._deltas[: self._size])

    # -- background drain -------------------------------------------------------

    def drain(self, limit: int | None = None) -> list[tuple[tuple[int, ...], int]]:
        """Remove up to ``limit`` buffered updates, newest time first.

        The caller (the framework's background process) re-applies the
        returned updates to the affected instances.
        """
        positions, points, deltas = self.newest(limit)
        self.remove(positions)
        return _pairs(points, deltas)

    def newest(
        self, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Up to ``limit`` buffered updates, newest time first (the ones
        :meth:`drain` removes), as ``(positions, points, deltas)``.  The
        buffer is unchanged; :meth:`remove` takes them out."""
        order = np.argsort(self._points[: self._size, 0], kind="stable")
        if limit is not None and limit < self._size:
            order = order[-limit:]
        positions = order[::-1]
        return positions, self._points[positions], self._deltas[positions]

    def remove(self, positions: np.ndarray) -> None:
        """Take the buffered updates at ``positions`` out."""
        if len(positions):
            keep = np.ones(self._size, dtype=bool)
            keep[positions] = False
            self._keep(keep)

    def prune_below(self, time: int) -> int:
        """Drop buffered updates with a TT-coordinate below ``time``.

        Used by data aging: once the owner has retired all detail below
        ``time``, a buffered correction aimed there can never be observed
        again -- no answerable query box reaches it and a drain would only
        hand it back (:class:`~repro.core.errors.AgedOutError`).  Without
        pruning those entries pin the columnar store forever.  Returns
        the number of entries removed.
        """
        keep = self._points[: self._size, 0] >= int(time)
        removed = self._size - int(keep.sum())
        if removed:
            self._keep(keep)
        return removed

    @property
    def node_accesses(self) -> int:
        """Cumulative metered cost, surviving drains and tree rebuilds.

        A metered read like the others: it builds the reference, so the
        inserts that built it are on the bill before the first query.
        """
        return self._carried_node_accesses + self._reference().node_accesses
