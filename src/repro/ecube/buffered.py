"""The eCube with out-of-order buffering (Section 2.5, MOLAP instance).

Wraps an :class:`~repro.ecube.ecube.EvolvingDataCube` with the ``G_d``
buffer: appends flow straight into the cube, late arrivals are buffered,
queries post-process with a ``G_d`` range aggregate, and a background
:meth:`drain` lands the newest buffered corrections in the cube
through :meth:`CubeKernel.land_historic`: in one pass over the
instances where they are all fully PS, one cascade per correction
otherwise (an entry a shard's global verdict buffered at or after the
latest time is appended once the rest landed).

The wrapper speaks the full :class:`~repro.core.framework.BatchExecutor`
protocol: :meth:`query_many` answers the cube part with the vectorized
batch engine and adds the whole batch's ``G_d`` contribution in one
columnar mask-and-dot pass; :meth:`update_many` splits a mixed stream
into its append-ordered subsequence (delegated to the cube's fast group
scatters) and the late remainder (bulk-buffered).

Draining *converges*: corrections at never-occurring historic times are
spliced into the cube as new instances
(:meth:`EvolvingDataCube._splice_instance`), so ``drain(None)`` empties
the buffer unless a correction falls into the data-aging retired region
-- only those stay in ``G_d``, kept exact by query post-processing, until
a retirement folds them into its boundary instance.  Drain and fold land
an entry by one rule, :meth:`BufferedEvolvingDataCube._land`.

A drain-scheduling policy hooks the paper's degradation argument into
the update path: query cost grows with ``len(buffer) / total updates``
(Section 2.5's graceful-degradation parameter), so once that fraction
crosses ``drain_threshold`` the background drain is invoked inline and
the append-only cost profile is restored.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.core.out_of_order import OutOfOrderBuffer
from repro.core.types import Box, as_boxes, box_array, int64_sum
from repro.ecube.ecube import EvolvingDataCube
from repro.metrics import CostCounter


class BufferedEvolvingDataCube:
    """Append-only MOLAP cube that tolerates out-of-order updates.

    Parameters
    ----------
    drain_threshold:
        Optional degradation bound: when the buffered fraction
        ``len(buffer) / total updates`` reaches this value after an
        out-of-order update, :meth:`drain` runs to completion before the
        update returns.  ``None`` (default) leaves draining entirely to
        the caller, keeping single-operation costs at the paper's
        metered reference.
    """

    #: the ``G_d`` layer of a stack (:mod:`repro.core.front`), over the kernel
    kind = "buffered"
    inner = property(lambda self: self.cube)

    def __init__(
        self,
        slice_shape: Sequence[int],
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        min_density: float = 0.005,
        drain_threshold: float | None = None,
    ) -> None:
        self.cube = EvolvingDataCube(
            slice_shape,
            num_times=num_times,
            counter=counter,
            copy_budget=copy_budget,
            min_density=min_density,
        )
        self.buffer = OutOfOrderBuffer(self.cube.ndim)
        if drain_threshold is not None and not 0 < drain_threshold <= 1:
            raise DomainError(
                f"drain_threshold must be in (0, 1], got {drain_threshold}"
            )
        self.drain_threshold = drain_threshold
        #: updates accepted through any path (the policy's denominator)
        self.total_updates = 0
        #: drains triggered by the scheduling policy (introspection)
        self.auto_drains = 0

    # -- delegated introspection ------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.cube.ndim

    # -- data aging (delegated) -------------------------------------------------

    def retire_before(self, time: int) -> int:
        """Retire detail slices older than ``time`` on the wrapped cube.

        Buffered corrections below ``time`` land first (:meth:`_land`),
        while their times can still be spliced in, so the kernel's
        boundary is the newest time below ``time`` the stream has seen.
        What cannot land -- it lies in the region an earlier retirement
        froze -- is folded into the new boundary instance
        (:meth:`prune_retired`).

        Tiered fronts (:class:`~repro.retention.TieredCube`) deliberately
        bypass this wrapper when they retire -- for them, corrections
        below the demotion watermark are live tier-correction state.
        """
        time = int(time)
        points, deltas = self.buffer.snapshot_columns()
        below = np.flatnonzero(points[:, 0] < time)
        if below.size:
            below = below[np.argsort(points[below, 0], kind="stable")[::-1]]
            kept = self._land(points[below], deltas[below])
            self.buffer.remove(below[~kept])
        retired = self.cube.retire_before(time)
        self.prune_retired()
        return retired

    def prune_retired(self) -> int:
        """Fold the buffered corrections the retirement boundary froze.

        An entry at or below the boundary instance can no longer land at
        its own time, yet every prefix a read may still take counts it
        whole: such entries are summed per cell and land at the boundary
        instance.  An entry before the first occurring time stays in
        ``G_d``: the kernel reads a prefix before its first instance as
        zero, and only ``G_d`` keeps a box that ends there exact.
        Returns the number of entries folded.
        """
        retired = self.cube.retired_instances
        if retired == 0 or not len(self.buffer):
            return 0
        times = self.cube.occurring_times()
        first, boundary = int(times[0]), int(times[retired])
        points, deltas = self.buffer.snapshot_columns()
        due = (points[:, 0] >= first) & (points[:, 0] <= boundary)
        if not bool(due.any()):
            return 0
        shape, folded = self.cube.slice_shape, points[due, 1:]
        self.cube.check_cells(folded)
        sums = np.zeros(int(np.prod(shape)), dtype=np.int64)
        np.add.at(sums, np.ravel_multi_index(tuple(folded.T), shape), deltas[due])
        cells = np.flatnonzero(sums)
        self._land(
            np.column_stack(
                [np.full(cells.size, boundary), *np.unravel_index(cells, shape)]
            ),
            sums[cells],
        )
        self.buffer.prune_below(boundary + 1)
        early = points[:, 0] < first
        if bool(early.any()):
            self.buffer.add_many(points[early], deltas[early])
        return int(due.sum())

    def resident_slice_bytes(self) -> int:
        """Resident payload bytes of the wrapped cube's live slices."""
        return self.cube.resident_slice_bytes()

    @property
    def counter(self) -> CostCounter:
        return self.cube.counter

    @property
    def buffered_updates(self) -> int:
        return len(self.buffer)

    # -- updates -------------------------------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        """Append, or buffer when the TT-coordinate is historic."""
        point = tuple(int(c) for c in point)
        if len(point) != self.ndim:
            raise DomainError(f"point arity {len(point)} != {self.ndim}")
        latest = self.cube.latest_time
        late = latest is not None and point[0] < latest
        if late:
            self.cube.check_cells([point[1:]])
            self.buffer.add(point, int(delta))
        else:
            self.cube.update(point, delta)
        self.total_updates += 1
        if late:
            self._maybe_drain()

    def update_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
        mode: str = "fast",
    ) -> None:
        """Apply a batch of updates from a possibly out-of-order stream.

        ``mode="metered"`` replays the batch through :meth:`update`.
        ``mode="fast"`` classifies the whole batch in one vectorized
        running-maximum pass: an update is in-order iff its TT-coordinate
        is at least the largest time seen before it (stream order), which
        is exactly the arrival-order criterion of :meth:`update`.  The
        in-order subsequence -- non-decreasing by construction -- goes to
        the cube's batched group scatters; the remainder is bulk-buffered.
        ``mode="buffer"`` bulk-buffers the whole batch, whatever its
        times: a sharded router's verdict that the batch is globally
        late, which a shard cannot re-derive from its own timeline (a
        drain appends an entry at or after the kernel's latest time).
        """
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise DomainError(f"points must be (n, {self.ndim}); got {points.shape}")
        if deltas.shape != (points.shape[0],):
            raise DomainError("need exactly one delta per point")
        if points.shape[0] == 0:
            return
        if mode == "metered":
            for point, delta in zip(points, deltas):
                self.update(tuple(int(c) for c in point), int(delta))
            return
        if mode not in ("fast", "buffer"):
            raise DomainError(f"unknown execution mode {mode!r}")
        # a late point is buffered unchecked by the kernel: check them all first
        self.cube.check_cells(points[:, 1:])
        times = points[:, 0]
        latest = self.cube.latest_time
        floor = np.int64(latest) if latest is not None else np.iinfo(np.int64).min
        threshold = np.concatenate(
            ([floor], np.maximum(np.maximum.accumulate(times[:-1]), floor))
        )
        in_order = (times >= threshold) & (mode == "fast")
        if bool(in_order.any()):
            self.cube.update_many(points[in_order], deltas[in_order], mode="fast")
        if not bool(in_order.all()):
            self.buffer.add_many(points[~in_order], deltas[~in_order])
        self.total_updates += int(points.shape[0])
        self._maybe_drain()

    def _maybe_drain(self) -> None:
        if (
            self.drain_threshold is not None
            and self.total_updates > 0
            and len(self.buffer) / self.total_updates >= self.drain_threshold
        ):
            self.auto_drains += 1
            self.drain()

    # -- queries --------------------------------------------------------------------

    def query(self, box: Box) -> int:
        """Cube result plus the buffered ``G_d`` contribution (metered),
        added in int64 like the fast read's two parts."""
        result = self.cube.query(box)
        if len(self.buffer):
            result = int64_sum(result, self.buffer.range_sum(box))
        return result

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """Answer a batch of range aggregates over cube plus buffer.

        ``boxes`` is a :class:`Box` sequence or an ``(n, 2, d)`` int64
        corner array (:func:`~repro.core.types.box_array`).
        ``mode="metered"`` runs the per-query counted path (R-tree walk
        per box).  ``mode="fast"`` answers the cube part through the
        vectorized batch engine and folds in the entire batch's ``G_d``
        contribution with one columnar pass -- results are bit-identical.
        """
        corners = box_array(boxes, self.cube.ndim)
        if mode == "metered":
            return [self.query(box) for box in as_boxes(corners)]
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        results = self.cube.query_many(corners, mode="fast")
        if len(self.buffer):
            # in int64, a ring, as the kernel's and a pinned epoch's reads
            # add: a Python sum would leave int64 once the two parts wrap
            contributions = self.buffer.range_sum_many(corners)
            results = (
                np.asarray(results, dtype=np.int64)
                + np.asarray(contributions, dtype=np.int64)
            ).tolist()
        return results

    def total(self) -> int:
        full = Box(
            (0,) * len(self.cube.slice_shape),
            tuple(n - 1 for n in self.cube.slice_shape),
        )
        latest = self.cube.latest_time
        if latest is None:
            return 0
        box = Box((0,) + full.lower, (latest,) + full.upper)
        return self.query(box)

    # -- durable snapshots (checkpoint machinery) -------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """This layer's durable state -- the ``G_d`` buffer and its
        bookkeeping -- as named (``gd_``) arrays; the wrapped kernel
        snapshots its own (:meth:`CubeKernel.state_arrays`).
        """
        points, deltas = self.buffer.snapshot_columns()
        return {
            "gd_points": points,
            "gd_deltas": deltas,
            "gd_meta": np.array(
                [self.total_updates, self.auto_drains], dtype=np.int64
            ),
        }

    def restore_state(self, arrays) -> None:
        """Refill ``G_d`` and bookkeeping from :meth:`state_arrays`."""
        if len(self.buffer):
            raise DomainError("restore_state requires an empty buffer")
        points = np.asarray(arrays["gd_points"], dtype=np.int64)
        if points.shape[0]:
            self.buffer.add_many(
                points, np.asarray(arrays["gd_deltas"], dtype=np.int64)
            )
        meta = np.asarray(arrays["gd_meta"], dtype=np.int64)
        self.total_updates = int(meta[0])
        self.auto_drains = int(meta[1])

    # -- background drain ---------------------------------------------------------------

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Land the ``limit`` newest buffered corrections (all: ``None``).

        They go through the landing step (:meth:`_land`) before ``G_d``
        gives them up, so a batch it refuses leaves the buffer as it was.
        Repeated bounded drains strictly shrink the buffer until it is
        empty, but for corrections aimed into the data-aging retired
        region: those stay buffered (exact through query post-processing)
        until a retirement folds them (:meth:`prune_retired`).  Returns
        ``(applied, kept)``.
        """
        positions, points, deltas = self.buffer.newest(limit)
        kept = self._land(points, deltas)
        self.buffer.remove(positions[~kept])
        return int(positions.size - kept.sum()), int(kept.sum())

    def _land(self, points: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """The landing step of ``G_d`` entries, given newest time first.

        Every cell is checked before anything moves.  The entries before
        the kernel's latest time land first, in one call of
        :meth:`CubeKernel.land_historic`, which splices each
        never-occurring time in and keeps back the entries aimed into the
        retired region; no instance has become historic since the last
        publication, so over published rows they take the one pass.  The
        rest -- at or after the latest time; only a batch buffered by
        ``mode="buffer"`` holds one -- are then appended oldest first
        (:meth:`EvolvingDataCube.update`).  Returns the mask of the
        entries kept back: the caller leaves those in the buffer.
        """
        self.cube.check_cells(points[:, 1:])
        latest = self.cube.latest_time
        historic = np.zeros(deltas.shape, dtype=bool)
        if latest is not None:
            historic = points[:, 0] < latest
        kept = np.zeros(deltas.shape, dtype=bool)
        if bool(historic.any()):
            kept[historic] = self.cube.land_historic(
                points[historic], deltas[historic]
            )
        appends = np.flatnonzero(~historic)[::-1]  # oldest first
        for point, delta in zip(points[appends].tolist(), deltas[appends].tolist()):
            self.cube.update(point, delta)
        return kept
