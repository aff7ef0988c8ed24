"""The general d-dimensional side structure ``G_d`` (Section 2.5).

Out-of-order updates -- late registrations or corrections of historic
values -- would cascade through every cumulative instance with a greater
time coordinate.  Instead they are buffered in a general d-dimensional
structure ``G_d``; queries add a ``G_d`` range aggregate to the framework
result, so cost degrades gracefully with the out-of-order fraction and
converges to the general (non-append-only) cost.

Dual representation, mirroring the cube's dual-mode execution engine:

* an R-tree (one of the paper's named ``G_d`` examples) remains the
  *metered* reference path -- :meth:`OutOfOrderBuffer.range_sum` walks it
  and every node touch is charged against the paper's cost model;
* a *columnar* store -- one ``(n, d)`` point matrix plus one ``(n,)``
  delta vector, grown geometrically -- is the fast path:
  :meth:`range_sum_many` answers a whole query batch with a single
  broadcast containment test contracted against the delta vector
  (mask-and-dot).  Buffered-delta side structures are batch-evaluable at
  scale exactly when the buffer itself is columnar (Andreica & Tapus,
  arXiv:1006.3968; Colley's delta summation, arXiv:2211.05896).

A background drain (:meth:`OutOfOrderBuffer.drain`) hands buffered updates
back to the owner for re-application into the instances, newest first --
"beginning with the latest instance to avoid that the process chases newly
created time slices".  The drain is *incremental*: drained entries are
spliced out of the R-tree by exact-match deletion (or, when almost
everything drains, the small remainder is re-bulk-loaded), and the
accumulated ``node_accesses`` cost is carried across either path so
cumulative cost reports stay truthful.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.core.types import Box
from repro.trees.rtree import RTree

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


class OutOfOrderBuffer:
    """Columnar + R-tree buffer of (point, delta) out-of-order updates."""

    def __init__(self, ndim: int, leaf_capacity: int = 32, fanout: int = 16) -> None:
        self.ndim = ndim
        self._leaf_capacity = leaf_capacity
        self._fanout = fanout
        self._tree = RTree(ndim, leaf_capacity, fanout)
        # metered cost accumulated by trees that were since rebuilt
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

    # -- updates ---------------------------------------------------------------

    def add(self, point: Sequence[int], delta: int) -> None:
        coords = tuple(int(c) for c in point)
        if len(coords) != self.ndim:
            raise DomainError(f"point arity {len(coords)} != {self.ndim}")
        self._tree.insert(coords, int(delta))
        self._reserve(1)
        self._points[self._size] = coords
        self._deltas[self._size] = int(delta)
        self._size += 1

    def add_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
    ) -> None:
        """Bulk-append a batch of buffered updates.

        The columnar store takes the whole batch in one copy; the R-tree
        (metered reference) receives the points one by one -- its cost
        model has no batched insert.
        """
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
        for point, delta in zip(points, deltas):
            self._tree.insert(tuple(int(c) for c in point), int(delta))

    # -- queries ---------------------------------------------------------------

    def range_sum(self, box: Box, mode: str = "metered") -> int:
        """The buffered contribution to a range query (post-processing).

        ``mode="metered"`` walks the R-tree and charges every node touch
        (the paper's cost model); ``mode="fast"`` evaluates the columnar
        store with one vectorized mask-and-dot.  Results are identical.
        """
        if self._size == 0:
            return 0
        if mode == "metered":
            return self._tree.range_sum(box)
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        return self.range_sum_many([box])[0]

    def range_sum_many(self, boxes: Sequence[Box], mode: str = "fast") -> list[int]:
        """Buffered contributions for a whole query batch in one pass
        over the columnar store (:func:`columnar_range_sums`)."""
        boxes = list(boxes)
        for box in boxes:
            if box.ndim != self.ndim:
                raise DomainError(f"box arity {box.ndim} != buffer arity {self.ndim}")
        if mode == "metered":
            return [self._tree.range_sum(box) if self._size else 0 for box in boxes]
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        if not boxes or self._size == 0:
            return [0] * len(boxes)
        out = columnar_range_sums(
            self._points[: self._size],
            self._deltas[: self._size],
            np.asarray([box.lower for box in boxes], dtype=np.int64),
            np.asarray([box.upper for box in boxes], dtype=np.int64),
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
        return [
            (tuple(int(c) for c in self._points[i]), int(self._deltas[i]))
            for i in range(self._size)
        ]

    # -- background drain -------------------------------------------------------

    def drain(self, limit: int | None = None) -> list[tuple[tuple[int, ...], int]]:
        """Remove up to ``limit`` buffered updates, newest time first.

        The caller (the framework's background process) re-applies the
        returned updates to the affected instances.  Drained entries are
        spliced out of the R-tree by exact-match deletion; when the
        remainder is smaller than the drained set the tree is re-packed
        from it instead (cheaper), with the accumulated access count
        carried forward either way.
        """
        if self._size == 0:
            return []
        points = self._points[: self._size]
        deltas = self._deltas[: self._size]
        order = np.argsort(points[:, 0], kind="stable")  # ascending time
        if limit is None or limit >= self._size:
            drained_idx = order[::-1]
        else:
            drained_idx = order[-limit:][::-1]
        drained = [
            (tuple(int(c) for c in points[i]), int(deltas[i])) for i in drained_idx
        ]
        keep = np.ones(self._size, dtype=bool)
        keep[drained_idx] = False
        kept_count = int(keep.sum())
        if kept_count == 0:
            self._carried_node_accesses += self._tree.node_accesses
            self._tree = RTree(self.ndim, self._leaf_capacity, self._fanout)
        elif len(drained) <= kept_count:
            # incremental: splice each drained entry out of the tree
            for point, delta in drained:
                self._tree.delete(point, delta)
        else:
            # the remainder is the smaller side: re-pack it instead
            self._carried_node_accesses += self._tree.node_accesses
            self._tree = RTree.bulk_load(
                [tuple(int(c) for c in p) for p in points[keep]],
                [int(v) for v in deltas[keep]],
                self._leaf_capacity,
                self._fanout,
            )
        self._points = points[keep]
        self._deltas = deltas[keep]
        self._size = kept_count
        return drained

    def prune_below(self, time: int) -> int:
        """Drop buffered updates with a TT-coordinate below ``time``.

        Used by data aging: once the owner has retired all detail below
        ``time``, a buffered correction aimed there can never be observed
        again -- no answerable query box reaches it and a drain would only
        hand it back (:class:`~repro.core.errors.AgedOutError`).  Without
        pruning those entries pin the columnar store and the R-tree
        forever.  Removal mirrors :meth:`drain`: exact-match deletion for
        a small pruned set, re-pack for a small remainder, and the
        columnar arrays are reallocated so capacity actually shrinks.
        Returns the number of entries removed.
        """
        if self._size == 0:
            return 0
        points = self._points[: self._size]
        deltas = self._deltas[: self._size]
        keep = points[:, 0] >= int(time)
        removed_idx = np.nonzero(~keep)[0]
        if removed_idx.size == 0:
            return 0
        kept_count = int(keep.sum())
        if kept_count == 0:
            self._carried_node_accesses += self._tree.node_accesses
            self._tree = RTree(self.ndim, self._leaf_capacity, self._fanout)
        elif removed_idx.size <= kept_count:
            for i in removed_idx:
                self._tree.delete(
                    tuple(int(c) for c in points[i]), int(deltas[i])
                )
        else:
            self._carried_node_accesses += self._tree.node_accesses
            self._tree = RTree.bulk_load(
                [tuple(int(c) for c in p) for p in points[keep]],
                [int(v) for v in deltas[keep]],
                self._leaf_capacity,
                self._fanout,
            )
        self._points = points[keep]
        self._deltas = deltas[keep]
        self._size = kept_count
        return int(removed_idx.size)

    @property
    def node_accesses(self) -> int:
        """Cumulative metered cost, surviving drains and tree rebuilds."""
        return self._carried_node_accesses + self._tree.node_accesses
