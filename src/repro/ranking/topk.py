"""Exact temporal top-k: two prefix slices and a difference.

The query is "the k cells with the largest SUM/COUNT over the TT
interval ``[t1, t2]``", ranked by value descending with lexicographic
cell order breaking ties -- the deterministic total order
:func:`brute_topk` reproduces bit for bit.

Section 2 answers any TT window with two (d-1)-dimensional prefix
lookups and the inverse operator; a ranking does it for the whole slice
at once.  Every cell's score over ``[t1, t2]`` is the inverse prefix
(``np.diff`` along each cell axis) of ``ps(t2) - ps(t1 - 1)``, plus the
window's ``G_d`` points: one pass over the slice, exact whatever the
signs of the deltas (after Jestes et al., arXiv:1208.0222, who rank by
differences of cumulative scores).  :func:`topk_from_slices` is the one
implementation.  Its inputs are where the slices come from:

* a slice source (:class:`~repro.ecube.fastpath.SliceSource`): a pinned
  :class:`~repro.concurrent.snapshot.SnapshotView`, or the live kernel's;
* the tiered layer, whose tiles and rollups hold the demoted prefixes;
* the ``G_d`` columns.

A shard worker calls it with its pinned epoch; :class:`TopKEngine` picks
the inputs from a front's declared stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DomainError
from repro.core.front import layers, require
from repro.ecube.fastpath import (
    PS,
    _box_on_unrecoverable_slice,
    _prefix_sum_rows,
    retired_instance_error,
)
from repro.ecube.kernel import _LiveSlices
from repro.ecube.stores import row_difference


@dataclass(frozen=True)
class TopKStats:
    """Per-query accounting of one :meth:`TopKEngine.topk_many` call.

    There is one strategy: every cell's score is computed from the two
    prefix slices, and no prefix box is spent on a bound.
    """

    strategy: str  #: always ``"slices"``
    cells: int  #: size of the cell domain
    marginal_boxes: int  #: always 0
    materialized: int  #: cells scored: always ``cells``


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


def topk_from_slices(
    source, queries: Sequence, tiered=None, gd_points=None, gd_deltas=None
) -> list:
    """Rank the cell domain of ``source`` for each ``(t1, t2, k)`` query:
    ``[(cell, value), ...]`` per query, value descending, then flat cell
    index ascending.

    ``tiered`` (a :class:`~repro.retention.planner.TieredCube`) answers a
    prefix that floors on a demoted instance; without it such a prefix
    raises what ``query_many`` raises.  ``gd_points`` / ``gd_deltas`` are
    the ``G_d`` columns to add.
    """
    ranked = []
    for t1, t2, k in queries:
        t1, t2, k = int(t1), int(t2), int(k)
        scores = np.zeros(source.slice_shape, dtype=np.int64)
        if t1 <= t2 and k > 0:
            upper = _prefix_slice(source, tiered, t2)
            row_difference(upper, _prefix_slice(source, tiered, t1 - 1), out=scores)
            for axis in range(scores.ndim):
                scores = np.diff(scores, axis=axis, prepend=0)
            if gd_points is not None and len(gd_points):
                times = gd_points[:, 0]
                window = (times >= t1) & (times <= t2)
                np.add.at(scores, tuple(gd_points[window, 1:].T), gd_deltas[window])
        flat = scores.reshape(-1)
        # ascending ~v is descending v, and ~ never wraps (-v does at -2**63)
        key = ~flat
        k = max(0, min(k, flat.size))
        candidates = np.arange(flat.size)
        if k < flat.size:
            candidates = np.flatnonzero(key <= np.partition(key, k - 1)[k - 1])
        chosen = candidates[np.argsort(key[candidates], kind="stable")[:k]]
        cells = np.stack(np.unravel_index(chosen, scores.shape), axis=1)
        ranked.append(list(zip(map(tuple, cells.tolist()), flat[chosen].tolist())))
    return ranked


def topk_pinned(snapshot, queries: Sequence, tiered=None) -> list:
    """:func:`topk_from_slices` over a pinned epoch of ``snapshot`` (a
    :class:`~repro.concurrent.snapshot.SnapshotCube`) and its ``G_d``."""
    with snapshot.pin() as view:
        epoch = view.epoch
        return topk_from_slices(view, queries, tiered, epoch.gd_points, epoch.gd_deltas)


def _prefix_slice(source, tiered, time: int):
    """The cumulative PS slice the prefix up to ``time`` floors on
    (``None`` before the first instance): a published row, a slice swept
    from DDC (the latest instance, or a live mixed one), a demoted
    instance's slice from the tiers, or -- for a live slice holding a
    converted cell whose DDC value is lost -- every cell's prefix walked
    as ``stacked_query_many`` walks a box there."""
    floor = int(np.searchsorted(source.times, time, side="right")) - 1
    if floor < 0:
        return None
    if floor < source.retired_below:
        occurring = int(source.times[floor])
        if tiered is None:
            raise retired_instance_error(occurring)
        return tiered._demoted_slice(occurring)
    state = kind, values, flags = source.fetch(floor)
    if kind == PS:
        return values
    (row,) = _prefix_sum_rows(source, np.array([floor]), [state])
    if row is not None:
        return row
    shape, origin = source.slice_shape, (0,) * len(source.slice_shape)
    walked = [
        _box_on_unrecoverable_slice(source, None, floor, values, flags, origin, cell)
        for cell in np.ndindex(*shape)
    ]
    return np.array(walked, dtype=np.int64).reshape(shape)


class TopKEngine:
    """Temporal top-k over a front's declared stack
    (:func:`repro.core.front.layers`), by :func:`topk_from_slices`.

    A stack with a snapshot layer ranks a pinned epoch; any other reads
    its live kernel, on any store (dense, paged or sparse), adding the
    buffered layer's ``G_d`` and the tiered layer's demoted prefixes.
    ``slice_shape``, when given, must be the front's; ``nonnegative`` is
    accepted and ignored, as the wire ignores it.
    """

    def __init__(self, front, slice_shape=None, nonnegative: bool = False) -> None:
        self.stack = layers(front)
        require(self.stack, "point", "topk")
        self.slice_shape = tuple(self.stack["kernel"].slice_shape)
        if slice_shape is not None and tuple(slice_shape) != self.slice_shape:
            raise DomainError(
                f"slice shape {tuple(slice_shape)} is not the front's {self.slice_shape}"
            )
        #: per-query :class:`TopKStats` of the most recent ``topk_many``
        self.last_stats: list[TopKStats] = []

    def topk(self, t1: int, t2: int, k: int):
        return self.topk_many([(t1, t2, k)])[0]

    def topk_many(self, queries: Sequence):
        """Rank each ``(t1, t2, k)`` query; returns ``[(cell, value), ...]``
        per query, value descending, ties in lexicographic cell order.
        """
        stack = self.stack
        tiered = stack.get("tiered")
        if "snapshot" in stack:
            ranked = topk_pinned(stack["snapshot"], queries, tiered)
        else:
            kernel, buffered = stack["kernel"], stack.get("buffered")
            gd = (None, None) if buffered is None else buffered.buffer.snapshot_columns()
            with kernel._op():
                ranked = topk_from_slices(_LiveSlices(kernel), queries, tiered, *gd)
        cells = int(np.prod(self.slice_shape))
        self.last_stats = [TopKStats("slices", cells, 0, cells) for _ in ranked]
        return ranked
