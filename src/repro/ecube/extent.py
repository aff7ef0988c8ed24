"""TT-extent objects on the eCube production path (Section 2.4).

Objects with *transaction-time extent* are valid during an interval
``[start, end]`` rather than at a single instant.  Section 2.4 reduces
their two aggregate flavours to plain point-object queries over two
derived families:

* family **B** holds (as of time ``t``) every interval that ended
  *strictly before* ``t``;
* family **C** holds every interval *containing* ``t``.

An interval insert lands ``+value`` in ``C`` at ``start``; when time
passes the interval's ``end``, a paired event moves it over: ``C``
receives ``-value`` and ``B`` receives ``+value``, both effective at
``end + 1`` (the interval contains its endpoint).  An *intersection*
aggregate over ``[t_low, t_up]`` then combines three point-prefix
queries::

    intersecting = b(t_up) + c(t_up) - b(t_low)

because ``b(t_up) + c(t_up)`` is every interval with ``start <= t_up``
and ``b(t_low)`` removes those that ended before the query began.
*Containment* (``start >= t_low and end <= t_up``) is dominance over the
``(end, start)`` pairs; here it is answered from a columnar index of
moved-over intervals plus the pending set.

:class:`ExtentCube` runs both families as full production eCubes -- two
:class:`~repro.ecube.buffered.BufferedEvolvingDataCube` fronts, each over
its own kernel and time directory -- so out-of-order segment arrivals (a
late ``start``, or an ``end`` correction for an interval whose window
already passed) flow through the ``G_d`` buffer exactly like late point
updates.  The families share no clock: the combination reads both at the
same *time*, and a floor lookup at ``t`` in a family where ``t`` never
occurred returns that family's state at ``t``, because nothing changed
there in between.

Pending ends and pure queries
-----------------------------
The move-over events for intervals whose ``end`` lies beyond the
logical clock are *pending* (a heap ordered by effective time).  The
clock advances only through mutations -- :meth:`ExtentCube.insert`,
:meth:`ExtentCube.insert_many` and the explicit
:meth:`ExtentCube.advance` -- never through queries.  Queries instead
fold the pending set in analytically:

* an unflushed interval contributes ``+value`` to ``b + c`` at ``t_up``
  iff ``start <= t_up``, but truly intersects ``[t_low, t_up]`` only if
  ``end >= t_low``; the difference is exactly the pending entries with
  ``start <= t_up`` and ``effective <= t_low``, which the query
  subtracts;
* containment adds the pending entries with ``start >= t_low`` and
  ``effective <= t_up + 1``.

Pure queries make the cube's durable state a function of its mutation
log alone, which is what lets
:class:`~repro.durability.recovery.DurableCube` recover an extent
directory to a bit-equivalent cube by replaying only mutation records.

One retirement boundary
-----------------------
:meth:`ExtentCube.retire_before` records one boundary for both families:
the newest time below the threshold that occurs in *either* of them.
Each family retires its own instances below it, and an intersection
prefix read below it raises :class:`~repro.core.errors.AgedOutError`,
whichever family it reads.  A correction still buffered at or below the
boundary is not dead: every prefix a read may still take includes it
whole, so its family's buffered front lands it in its kernel, at its own
time or folded into the family's boundary instance, instead of dropping
it -- the same rule as for a point-object front.

One read path
-------------
Both aggregates are written once, as :func:`intersection_aggregates` and
:func:`containment_aggregates`, against *where the state comes from*:
the callables that answer each family's ``query_many`` and the pending
and moved-over columns.  :class:`ExtentCube` binds them to its live
families; a pinned :class:`~repro.concurrent.extent.ExtentSnapshotView`
binds them to two pinned epochs and the columns frozen with them.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from functools import partial

import numpy as np

from repro.core.errors import AgedOutError, AppendOrderError, DomainError
from repro.core.types import Box, TimeInterval
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.metrics import CostCounter

_NONE = np.iinfo(np.int64).min  # sentinel for "no value yet" in meta arrays


def _as_interval(value) -> TimeInterval:
    if isinstance(value, TimeInterval):
        return value
    start, end = value
    return TimeInterval(int(start), int(end))


def _in_box(cells: np.ndarray, box: Box) -> np.ndarray:
    lower = np.asarray(box.lower, dtype=np.int64)
    upper = np.asarray(box.upper, dtype=np.int64)
    return np.logical_and(
        (cells >= lower).all(axis=1), (cells <= upper).all(axis=1)
    )


def _normalized(
    queries: Sequence,
    cell_boxes: Sequence[Box | None] | None,
    slice_shape: tuple[int, ...],
) -> tuple[list[TimeInterval], list[Box]]:
    """Intervals plus one cell box each (``None`` = the whole slice)."""
    queries = [_as_interval(q) for q in queries]
    if cell_boxes is None:
        cell_boxes = [None] * len(queries)
    boxes = []
    for box in cell_boxes:
        if box is None:
            box = Box((0,) * len(slice_shape), tuple(n - 1 for n in slice_shape))
        elif box.ndim != len(slice_shape):
            raise DomainError(
                f"cell box arity {box.ndim} != {len(slice_shape)}"
            )
        boxes.append(box)
    if len(boxes) != len(queries):
        raise DomainError("need exactly one cell box per query")
    return queries, boxes


def intersection_aggregates(
    queries: Sequence,
    cell_boxes: Sequence[Box | None] | None,
    ended: Callable[[list[Box]], list[int]],
    containing: Callable[[list[Box]], list[int]],
    pending: tuple[np.ndarray, ...],
    min_time: int | None,
    boundary: int | None,
    slice_shape: tuple[int, ...],
) -> list[int]:
    """Batch intersection aggregates: ``b(t_up) + c(t_up) - b(t_low)``.

    ``ended`` and ``containing`` answer a batch of point-prefix boxes on
    family ``B`` and ``C``.  The three sub-queries of every batch entry
    are gathered into one call per family, then the correction for the
    ``pending`` ``(starts, effectives, cells, values)`` columns is
    folded in columnar.  A prefix read below the retirement ``boundary``
    raises :class:`~repro.core.errors.AgedOutError` before either family
    is asked.
    """
    queries, boxes = _normalized(queries, cell_boxes, slice_shape)
    if min_time is None:
        return [0] * len(queries)
    results = np.zeros(len(queries), dtype=np.int64)

    def prefix_box(time: int, box: Box) -> Box | None:
        if time < min_time:
            return None
        if boundary is not None and time < boundary:
            raise AgedOutError(
                f"a prefix at time {time} reads history retired below the "
                f"boundary {boundary}"
            )
        return Box((min_time,) + box.lower, (time,) + box.upper)

    b_boxes: list[Box] = []
    b_slots: list[tuple[int, int]] = []  # (query index, sign)
    c_boxes: list[Box] = []
    c_slots: list[int] = []
    for i, (query, box) in enumerate(zip(queries, boxes)):
        upper = prefix_box(query.end, box)
        if upper is not None:
            b_boxes.append(upper)
            b_slots.append((i, 1))
            c_boxes.append(upper)
            c_slots.append(i)
        lower = prefix_box(query.start, box)
        if lower is not None:
            b_boxes.append(lower)
            b_slots.append((i, -1))
    if b_boxes:
        for (i, sign), value in zip(b_slots, ended(b_boxes)):
            results[i] += sign * value
    if c_boxes:
        for i, value in zip(c_slots, containing(c_boxes)):
            results[i] += value
    p_starts, p_effs, p_cells, p_values = pending
    if p_values.size:
        for i, (query, box) in enumerate(zip(queries, boxes)):
            mask = (p_starts <= query.end) & (p_effs <= query.start)
            if bool(mask.any()):
                mask &= _in_box(p_cells, box)
                results[i] -= int(p_values[mask].sum())
    return [int(v) for v in results]


def containment_aggregates(
    queries: Sequence,
    cell_boxes: Sequence[Box | None] | None,
    pending: tuple[np.ndarray, ...],
    moved: tuple[np.ndarray, ...],
    retired_below: int | None,
    slice_shape: tuple[int, ...],
) -> list[int]:
    """Batch containment aggregates (dominance over ``(end, start)``).

    Answered entirely from the ``moved`` ``(starts, ends, cells,
    values)`` index plus the ``pending`` columns -- a pending interval
    is contained in ``[t_low, t_up]`` iff ``start >= t_low`` and
    ``effective <= t_up + 1``.  A query starting below ``retired_below``
    (the cutoff :meth:`ExtentCube.prune_retired` installed) raises
    :class:`~repro.core.errors.AgedOutError`.
    """
    queries, boxes = _normalized(queries, cell_boxes, slice_shape)
    if retired_below is not None:
        for query in queries:
            if query.start < retired_below:
                raise AgedOutError(
                    f"containment query starting at {query.start} reaches "
                    f"into the pruned region below {retired_below}"
                )
    f_starts, f_ends, f_cells, f_values = moved
    p_starts, p_effs, p_cells, p_values = pending
    results = []
    for query, box in zip(queries, boxes):
        total = 0
        if f_values.size:
            mask = (f_starts >= query.start) & (f_ends <= query.end)
            if bool(mask.any()):
                mask &= _in_box(f_cells, box)
                total += int(f_values[mask].sum())
        if p_values.size:
            mask = (p_starts >= query.start) & (p_effs <= query.end + 1)
            if bool(mask.any()):
                mask &= _in_box(p_cells, box)
                total += int(p_values[mask].sum())
        results.append(total)
    return results


class ExtentCube:
    """Aggregation over objects with TT-extent (Section 2.4).

    Parameters mirror :class:`~repro.ecube.buffered.BufferedEvolvingDataCube`
    (both families are built with the same configuration); ``counter`` is
    shared by both families, so reported costs cover the whole structure.

    Parameters
    ----------
    slice_shape:
        Domain sizes of the non-time dimensions ``N_2 .. N_d``.
    drain_threshold:
        Degradation bound forwarded to both ``G_d`` fronts.
    """

    #: the bottom of a TT-extent stack (:mod:`repro.core.front`): it
    #: snapshots both families' kernels and buffers itself
    kind = "extent"
    inner = None
    kernels = property(lambda self: (self.ended.cube, self.containing.cube))

    def __init__(
        self,
        slice_shape: Sequence[int],
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        min_density: float = 0.005,
        drain_threshold: float | None = None,
    ) -> None:
        self.counter = counter if counter is not None else CostCounter()
        fronts = [
            BufferedEvolvingDataCube(
                slice_shape,
                num_times=num_times,
                counter=self.counter,
                copy_budget=copy_budget,
                min_density=min_density,
                drain_threshold=drain_threshold,
            )
            for _ in ("ended", "containing")
        ]
        #: family B -- intervals that ended strictly before the reading time
        self.ended = fronts[0]
        #: family C -- intervals containing the reading time
        self.containing = fronts[1]
        self.slice_shape = self.ended.cube.slice_shape
        #: logical clock: the largest time any mutation has reached
        self._clock: int | None = None
        #: smallest event time ever inserted (open-prefix lower bound)
        self._min_time: int | None = None
        #: pending move-over events: heap of (effective, seq, cell, value, start)
        self._pending: list[tuple[int, int, tuple[int, ...], int, int]] = []
        self._pending_cache: tuple[np.ndarray, ...] | None = None
        #: columnar index of moved-over intervals (containment dominance)
        self._cont_starts: list[int] = []
        self._cont_ends: list[int] = []
        self._cont_cells: list[tuple[int, ...]] = []
        self._cont_values: list[int] = []
        self._cont_cache: tuple[np.ndarray, ...] | None = None
        #: the retirement boundary time :meth:`retire_before` recorded
        self._boundary: int | None = None
        #: containment aged-out cutoff installed by :meth:`prune_retired`
        self._cont_retired_below: int | None = None
        self._seq = 0
        self.objects_inserted = 0

    # -- introspection ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        return 1 + len(self.slice_shape)

    @property
    def clock(self) -> int | None:
        return self._clock

    @property
    def pending_ends(self) -> int:
        """Move-over events not yet applied (their time has not passed)."""
        return len(self._pending)

    @property
    def buffered_updates(self) -> int:
        """Out-of-order corrections currently held in the two ``G_d`` buffers."""
        return self.ended.buffered_updates + self.containing.buffered_updates

    @property
    def auto_drains(self) -> int:
        return self.ended.auto_drains + self.containing.auto_drains

    def occurring_times(self) -> tuple[int, ...]:
        """Every time either family holds an instance for, sorted."""
        return tuple(
            sorted(
                set(self.ended.cube.occurring_times())
                | set(self.containing.cube.occurring_times())
            )
        )

    def _check_cell(self, cell: tuple[int, ...]) -> None:
        if len(cell) != len(self.slice_shape):
            raise DomainError(
                f"cell arity {len(cell)} != {len(self.slice_shape)}"
            )
        self.ended.cube._check_cell(cell)

    # -- mutations -------------------------------------------------------------

    def insert(self, interval, cell: Sequence[int], value: int = 1) -> None:
        """Insert an interval object: ``+value`` at ``cell`` over ``interval``.

        An in-order insert (``start`` at or beyond the clock) first
        advances the clock to ``start`` -- flushing every pending end due
        by then -- and lands the ``C`` event; its own move-over event is
        always pending (``end + 1 > start``).  A *late* insert (a segment
        arriving out of order) leaves the clock alone: the start event
        rides the ``G_d`` buffer of the containing family, and an end
        that already passed is applied immediately as a pair of late
        corrections.
        """
        interval = _as_interval(interval)
        cell = tuple(int(c) for c in cell)
        self._check_cell(cell)
        value = int(value)
        effective = interval.end + 1
        if self._clock is None or interval.start >= self._clock:
            self._flush_due(interval.start, batch=False)
            self._clock = interval.start
            self.containing.update((interval.start,) + cell, value)
            self._push_pending(effective, cell, value, interval.start)
        else:
            self.containing.update((interval.start,) + cell, value)
            if effective <= self._clock:
                self._apply_end(effective, cell, value, interval.start)
            else:
                self._push_pending(effective, cell, value, interval.start)
        self.objects_inserted += 1
        if self._min_time is None or interval.start < self._min_time:
            self._min_time = interval.start

    def insert_many(
        self,
        intervals: Sequence[Sequence[int]] | np.ndarray,
        cells: Sequence[Sequence[int]] | np.ndarray,
        values: Sequence[int] | np.ndarray | None = None,
        mode: str = "fast",
    ) -> None:
        """Insert a batch of interval objects.

        ``mode="metered"`` replays through :meth:`insert` (per-object
        counted costs).  ``mode="fast"`` advances the clock once to the
        batch's largest start (flushing due pending ends as one batched
        move-over), lands all ``C`` start events through the buffered
        front's vectorized classifier (late segments are bulk-buffered)
        and splits the batch's own ends into already-due (applied as one
        batch) and pending (heaped).  Queries afterwards answer
        identically to the metered replay.
        """
        intervals = np.asarray(intervals, dtype=np.int64)
        if intervals.ndim != 2 or intervals.shape[1] != 2:
            raise DomainError(
                f"intervals must be (n, 2) start/end pairs; got {intervals.shape}"
            )
        cells = np.asarray(cells, dtype=np.int64)
        count = intervals.shape[0]
        if cells.ndim != 2 or cells.shape != (count, len(self.slice_shape)):
            raise DomainError(
                f"cells must be ({count}, {len(self.slice_shape)}); "
                f"got {cells.shape}"
            )
        if values is None:
            values = np.ones(count, dtype=np.int64)
        else:
            values = np.asarray(values, dtype=np.int64)
        if values.shape != (count,):
            raise DomainError("need exactly one value per interval")
        if count == 0:
            return
        if bool(np.any(intervals[:, 0] > intervals[:, 1])):
            bad = int(np.nonzero(intervals[:, 0] > intervals[:, 1])[0][0])
            raise DomainError(
                f"inverted interval [{int(intervals[bad, 0])}, "
                f"{int(intervals[bad, 1])}]"
            )
        if mode == "metered":
            for i in range(count):
                self.insert(
                    (int(intervals[i, 0]), int(intervals[i, 1])),
                    tuple(int(c) for c in cells[i]),
                    int(values[i]),
                )
            return
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        starts = intervals[:, 0]
        effectives = intervals[:, 1] + 1
        max_start = int(starts.max())
        if self._clock is None or max_start >= self._clock:
            self._flush_due(max_start, batch=True)
            self._clock = max_start
        # all start events in one classified batch (late segments -> G_d)
        self.containing.update_many(
            np.hstack((starts[:, None], cells)), values, mode="fast"
        )
        # the batch's own ends: due ones move over now, the rest are pending
        due = effectives <= self._clock
        if bool(due.any()):
            self._apply_end_batch(
                effectives[due], cells[due], values[due], starts[due]
            )
        for i in np.nonzero(~due)[0]:
            self._push_pending(
                int(effectives[i]),
                tuple(int(c) for c in cells[i]),
                int(values[i]),
                int(starts[i]),
            )
        self.objects_inserted += count
        low = int(starts.min())
        if self._min_time is None or low < self._min_time:
            self._min_time = low

    def advance(self, time: int) -> int:
        """Move the logical clock to ``time``, flushing due pending ends.

        This is the only way time passes without an insert; it is a
        mutation (logged by the durable wrapper).  Returns the number of
        move-over events applied.  ``time`` must not precede the clock.
        """
        time = int(time)
        if self._clock is not None and time < self._clock:
            raise AppendOrderError(
                f"advance to {time} precedes the clock {self._clock}"
            )
        flushed = self._flush_due(time, batch=True)
        self._clock = time
        return flushed

    def _push_pending(
        self, effective: int, cell: tuple[int, ...], value: int, start: int
    ) -> None:
        heapq.heappush(
            self._pending, (effective, self._seq, cell, value, start)
        )
        self._seq += 1
        self._pending_cache = None

    def _flush_due(self, time: int, batch: bool) -> int:
        """Apply every pending move-over event with ``effective <= time``."""
        pending = self._pending
        due: list[tuple[int, int, tuple[int, ...], int, int]] = []
        while pending and pending[0][0] <= time:
            due.append(heapq.heappop(pending))
        if not due:
            return 0
        self._pending_cache = None
        if batch and len(due) > 1:
            effectives = np.asarray([e[0] for e in due], dtype=np.int64)
            cells = np.asarray([e[2] for e in due], dtype=np.int64).reshape(
                len(due), len(self.slice_shape)
            )
            values = np.asarray([e[3] for e in due], dtype=np.int64)
            starts = np.asarray([e[4] for e in due], dtype=np.int64)
            self._apply_end_batch(effectives, cells, values, starts)
        else:
            for effective, _, cell, value, start in due:
                self._apply_end(effective, cell, value, start)
        return len(due)

    def _apply_end(
        self, effective: int, cell: tuple[int, ...], value: int, start: int
    ) -> None:
        """One move-over event: ``C -value`` and ``B +value`` at ``effective``."""
        point = (effective,) + cell
        self.containing.update(point, -value)
        self.ended.update(point, value)
        self._record_moved(start, effective - 1, cell, value)

    def _apply_end_batch(
        self,
        effectives: np.ndarray,
        cells: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        order = np.argsort(effectives, kind="stable")
        points = np.hstack((effectives[order][:, None], cells[order]))
        self.containing.update_many(points, -values[order], mode="fast")
        self.ended.update_many(points, values[order], mode="fast")
        for i in order:
            self._record_moved(
                int(starts[i]),
                int(effectives[i]) - 1,
                tuple(int(c) for c in cells[i]),
                int(values[i]),
            )

    def _record_moved(
        self, start: int, end: int, cell: tuple[int, ...], value: int
    ) -> None:
        self._cont_starts.append(start)
        self._cont_ends.append(end)
        self._cont_cells.append(cell)
        self._cont_values.append(value)
        self._cont_cache = None

    # -- background maintenance (delegated to both families) -------------------

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Drain both families' ``G_d`` buffers; returns ``(applied, kept)``."""
        applied_b, kept_b = self.ended.drain(limit)
        applied_c, kept_c = self.containing.drain(limit)
        return applied_b + applied_c, kept_b + kept_c

    def retire_before(self, time: int) -> int:
        """Retire detail older than ``time`` in both families at one boundary.

        The boundary is the newest time below ``time`` that occurs in
        either family; nothing happens unless an older occurring time
        lies below it, or when it does not pass the boundary already
        recorded.  Each family retires through its own buffered front
        (:meth:`BufferedEvolvingDataCube.retire_before`), which lands or
        folds its buffered corrections at or below the boundary into its
        kernel.  Intersection reads below the boundary raise
        :class:`~repro.core.errors.AgedOutError` from then on; the
        containment index is an aggregate over moved-over intervals, not
        slice detail, so containment stays exact until
        :meth:`prune_retired`.  Returns the number of slices retired.
        """
        below = [t for t in self.occurring_times() if t < int(time)]
        if len(below) < 2 or (
            self._boundary is not None and below[-1] <= self._boundary
        ):
            return 0
        self._boundary = below[-1]
        return self.ended.retire_before(
            self._boundary + 1
        ) + self.containing.retire_before(self._boundary + 1)

    def prune_retired(self) -> int:
        """Shed extent state that the retirement boundary made dead.

        Both families fold the corrections their boundary instances froze
        (:meth:`BufferedEvolvingDataCube.prune_retired`), and the
        columnar containment index drops moved-over intervals whose
        ``end`` precedes the boundary: such an interval is only
        observable by a containment query with ``t_low`` inside the
        retired region, so those queries now raise
        :class:`~repro.core.errors.AgedOutError` instead of silently
        under-counting.  Without this the index keeps every interval that
        ever moved over, forever.  Returns the number of entries removed
        across all three stores.
        """
        horizon = self._boundary
        if horizon is None:
            return 0
        removed = self.ended.prune_retired() + self.containing.prune_retired()
        self._cont_retired_below = horizon
        if self._cont_ends and min(self._cont_ends) < horizon:
            kept = [
                i
                for i in range(len(self._cont_ends))
                if self._cont_ends[i] >= horizon
            ]
            removed += len(self._cont_ends) - len(kept)
            self._cont_starts = [self._cont_starts[i] for i in kept]
            self._cont_ends = [self._cont_ends[i] for i in kept]
            self._cont_cells = [self._cont_cells[i] for i in kept]
            self._cont_values = [self._cont_values[i] for i in kept]
            self._cont_cache = None
        return removed

    # -- queries ---------------------------------------------------------------

    def _pending_columns(self) -> tuple[np.ndarray, ...]:
        if self._pending_cache is None:
            pending = self._pending
            self._pending_cache = (
                np.asarray([e[4] for e in pending], dtype=np.int64),
                np.asarray([e[0] for e in pending], dtype=np.int64),
                np.asarray([e[2] for e in pending], dtype=np.int64).reshape(
                    len(pending), len(self.slice_shape)
                ),
                np.asarray([e[3] for e in pending], dtype=np.int64),
            )
        return self._pending_cache

    def _cont_columns(self) -> tuple[np.ndarray, ...]:
        if self._cont_cache is None:
            count = len(self._cont_starts)
            self._cont_cache = (
                np.asarray(self._cont_starts, dtype=np.int64),
                np.asarray(self._cont_ends, dtype=np.int64),
                np.asarray(self._cont_cells, dtype=np.int64).reshape(
                    count, len(self.slice_shape)
                ),
                np.asarray(self._cont_values, dtype=np.int64),
            )
        return self._cont_cache

    def intersecting(
        self, query, cell_box: Box | None = None, mode: str = "fast"
    ) -> int:
        """Aggregate of objects whose interval intersects ``query``."""
        return self.intersecting_many([query], [cell_box], mode=mode)[0]

    def intersecting_many(
        self,
        queries: Sequence,
        cell_boxes: Sequence[Box | None] | None = None,
        mode: str = "fast",
    ) -> list[int]:
        """Batch intersection aggregates (:func:`intersection_aggregates`).

        One ``query_many`` call per family in the given execution mode,
        so the batch shares the compiled kernels and ``mode="metered"``
        charges the per-query counted costs.
        """
        return intersection_aggregates(
            queries,
            cell_boxes,
            partial(self.ended.query_many, mode=mode),
            partial(self.containing.query_many, mode=mode),
            self._pending_columns(),
            self._min_time,
            self._boundary,
            self.slice_shape,
        )

    def alive_at(
        self, time: int, cell_box: Box | None = None, mode: str = "fast"
    ) -> int:
        """Aggregate of objects valid at instant ``time``."""
        return self.intersecting(
            TimeInterval(int(time), int(time)), cell_box, mode=mode
        )

    def containment(self, query, cell_box: Box | None = None) -> int:
        """Aggregate of objects whose interval lies inside ``query``."""
        return self.containment_many([query], [cell_box])[0]

    def containment_many(
        self,
        queries: Sequence,
        cell_boxes: Sequence[Box | None] | None = None,
    ) -> list[int]:
        """Batch containment aggregates (:func:`containment_aggregates`)."""
        return containment_aggregates(
            queries,
            cell_boxes,
            self._pending_columns(),
            self._cont_columns(),
            self._cont_retired_below,
            self.slice_shape,
        )

    # -- durability hooks (checkpoint snapshots and log replay) ----------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Snapshot the cube's durable state as named arrays.

        Per-family kernel and ``G_d`` state is namespaced ``bfam_`` /
        ``cfam_``, each family with its own occurring times; the extent
        layer contributes the pending heap, the containment index and its
        scalar bookkeeping, the retirement boundary among it.
        """
        arrays: dict[str, np.ndarray] = {}
        for prefix, front in (("bfam_", self.ended), ("cfam_", self.containing)):
            state = dict(front.cube.state_arrays())
            state.update(front.state_arrays())
            for key, value in state.items():
                arrays[prefix + key] = value
        # canonical (effective, seq) order: the internal heap arrangement
        # is not durable state, so snapshots of equivalent cubes compare
        # bit-equal
        pending = sorted(self._pending)
        p_starts = np.asarray([e[4] for e in pending], dtype=np.int64)
        p_effs = np.asarray([e[0] for e in pending], dtype=np.int64)
        seqs = np.asarray([e[1] for e in pending], dtype=np.int64)
        p_cells = np.asarray([e[2] for e in pending], dtype=np.int64).reshape(
            len(pending), len(self.slice_shape)
        )
        p_values = np.asarray([e[3] for e in pending], dtype=np.int64)
        f_starts, f_ends, f_cells, f_values = self._cont_columns()
        arrays.update(
            {
                "ext_pending_starts": p_starts,
                "ext_pending_effs": p_effs,
                "ext_pending_seqs": seqs,
                "ext_pending_cells": p_cells,
                "ext_pending_values": p_values,
                "ext_cont_starts": f_starts,
                "ext_cont_ends": f_ends,
                "ext_cont_cells": f_cells,
                "ext_cont_values": f_values,
                "ext_meta": np.array(
                    [
                        _NONE if self._clock is None else self._clock,
                        _NONE if self._min_time is None else self._min_time,
                        self.objects_inserted,
                        self._seq,
                        _NONE
                        if self._cont_retired_below is None
                        else self._cont_retired_below,
                        _NONE if self._boundary is None else self._boundary,
                    ],
                    dtype=np.int64,
                ),
            }
        )
        return arrays

    def restore_state(self, arrays) -> None:
        """Rebuild both families and the extent layer from :meth:`state_arrays`.

        The cube must be freshly constructed with the same shape.  Each
        family restores its own kernel and ``G_d``.  An archive written
        while both families shared one time axis restores as it is: the
        instances a family holds only to match the other's times are
        copies of their floors, so they answer what the floors answer.
        """
        if self.occurring_times() or self.objects_inserted:
            raise DomainError("restore_state requires an empty extent cube")
        keys = getattr(arrays, "files", None)
        if keys is None:
            keys = arrays.keys()
        keys = list(keys)
        for prefix, front in (("bfam_", self.ended), ("cfam_", self.containing)):
            state = {
                key[len(prefix):]: arrays[key]
                for key in keys
                if key.startswith(prefix)
            }
            front.cube.restore_state(state)
            front.restore_state(state)
        p_starts = np.asarray(arrays["ext_pending_starts"], dtype=np.int64)
        p_effs = np.asarray(arrays["ext_pending_effs"], dtype=np.int64)
        p_seqs = np.asarray(arrays["ext_pending_seqs"], dtype=np.int64)
        p_cells = np.asarray(arrays["ext_pending_cells"], dtype=np.int64)
        p_values = np.asarray(arrays["ext_pending_values"], dtype=np.int64)
        self._pending = [
            (
                int(p_effs[i]),
                int(p_seqs[i]),
                tuple(int(c) for c in p_cells[i]),
                int(p_values[i]),
                int(p_starts[i]),
            )
            for i in range(p_effs.shape[0])
        ]
        heapq.heapify(self._pending)
        self._pending_cache = None
        f_cells = np.asarray(arrays["ext_cont_cells"], dtype=np.int64)
        self._cont_starts = [
            int(v) for v in np.asarray(arrays["ext_cont_starts"])
        ]
        self._cont_ends = [int(v) for v in np.asarray(arrays["ext_cont_ends"])]
        self._cont_cells = [
            tuple(int(c) for c in f_cells[i]) for i in range(f_cells.shape[0])
        ]
        self._cont_values = [
            int(v) for v in np.asarray(arrays["ext_cont_values"])
        ]
        self._cont_cache = None
        meta = np.asarray(arrays["ext_meta"], dtype=np.int64)
        self._clock = None if int(meta[0]) == _NONE else int(meta[0])
        self._min_time = None if int(meta[1]) == _NONE else int(meta[1])
        self.objects_inserted = int(meta[2])
        self._seq = int(meta[3])
        self._cont_retired_below = (
            None
            if meta.shape[0] < 5 or int(meta[4]) == _NONE
            else int(meta[4])
        )
        if meta.shape[0] > 5:
            boundary = int(meta[5])
        else:  # one shared axis: its boundary instance is both families'
            kernel = self.ended.cube
            retired = kernel.retired_instances
            boundary = kernel.occurring_times()[retired] if retired else _NONE
        self._boundary = None if boundary == _NONE else int(boundary)

    def __repr__(self) -> str:
        return (
            f"ExtentCube(slice_shape={self.slice_shape}, "
            f"objects={self.objects_inserted}, pending={self.pending_ends}, "
            f"times={len(self.occurring_times())})"
        )
