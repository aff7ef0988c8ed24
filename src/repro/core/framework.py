"""The general append-only aggregation framework (Sections 2.2 and 2.3).

For every *occurring* time value ``t`` the framework keeps a cumulative
instance ``R_{d-1}(t)`` of a (d-1)-dimensional aggregate structure holding
all points with TT-coordinate <= t.  A d-dimensional range aggregate then
reduces to two (d-1)-dimensional queries:

    query_D(L, U) = query on R(t_u)  -  query on R(t_l)

where ``t_u`` is the greatest occurring time <= ``U[0]`` (the cumulative
instance covering the upper bound; cf. the worked example of Section 2.2)
and ``t_l`` the greatest occurring time < ``L[0]``.

The expensive part -- "copying" the latest instance whenever time advances
-- is delegated to the slice structure's ``snapshot()``; with a partially
persistent structure (:class:`repro.trees.persistent.PersistentAggregateTree`)
that is O(1), realizing the constant-time copy the analysis of Section 2.3
assumes.  A deep-copying adapter (:class:`CopySnapshotStructure`) is
provided as the naive comparator.

Out-of-order updates are routed to a ``G_d`` buffer (Section 2.5) whose
contribution is added to every query; :meth:`AppendOnlyAggregator.drain`
implements the background process that re-applies buffered updates to the
affected instances, newest first.
"""

from __future__ import annotations

import copy as _copy
from bisect import bisect_right
from collections.abc import Callable, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.directory import TimeDirectory
from repro.core.errors import AppendOrderError, DomainError
from repro.core.out_of_order import OutOfOrderBuffer
from repro.core.types import Box, as_boxes, box_array
from repro.trees.persistent import PersistentAggregateTree, TreeVersion


@runtime_checkable
class SliceSnapshot(Protocol):
    """A frozen (d-1)-dimensional instance ``R_{d-1}(t)`` (Table 1)."""

    def range_sum(self, lower, upper) -> int: ...


@runtime_checkable
class SliceStructure(Protocol):
    """The live (d-1)-dimensional structure receiving updates (Table 1)."""

    def update(self, cell, delta) -> None: ...

    def range_sum(self, lower, upper) -> int: ...

    def snapshot(self) -> SliceSnapshot: ...


@runtime_checkable
class BatchExecutor(Protocol):
    """The batch execution protocol shared by every cube front-end.

    ``query_many`` answers a batch of d-dimensional range aggregates and
    ``update_many`` applies a batch of append-ordered updates.  A query
    batch is a :class:`~repro.core.types.Box` sequence or an ``(n, 2,
    d)`` int64 corner array (row ``i`` is box ``i``'s lower and upper
    corner); both are validated by one helper,
    :func:`~repro.core.types.box_array`, with the same
    :class:`~repro.core.errors.DomainError` messages.  The vectorized
    fronts gather from the array directly, and the paths that walk boxes
    one at a time (metered mode, the sharding router) take its rows as
    :class:`~repro.core.types.Box` objects.  Batch
    entry points exist so implementations can amortize per-operation
    overhead -- directory lookups resolved once per batch, work sorted by
    slice, page touches shared -- while single-operation ``query`` /
    ``update`` remain the metered reference.  The optional ``mode``
    keyword selects between the vectorized batch engine (``"fast"``,
    the default) and a per-operation replay of the counted reference
    path (``"metered"``).  Implemented by
    :class:`AppendOnlyAggregator` and every
    :class:`~repro.ecube.kernel.CubeKernel` configuration --
    :class:`~repro.ecube.ecube.EvolvingDataCube`,
    :class:`~repro.ecube.disk.DiskEvolvingDataCube`,
    :class:`~repro.ecube.sparse.SparseEvolvingDataCube` -- plus
    :class:`~repro.ecube.buffered.BufferedEvolvingDataCube` (whose batch
    paths additionally fold in the columnar ``G_d`` contribution).
    """

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]: ...

    def update_many(self, points, deltas, mode: str = "fast") -> None: ...


class TreeSliceStructure:
    """1-D instance of ``R_{d-1}`` over a persistent aggregate tree.

    This is the Section 2.2 scenario ("a B-tree with location keys") with
    the Section 4 multiversion construction: snapshots are O(1).
    """

    def __init__(self) -> None:
        self._tree = PersistentAggregateTree()

    def update(self, cell, delta) -> None:
        self._tree.update(self._key(cell), delta)

    def range_sum(self, lower, upper) -> int:
        return self._tree.range_sum(self._key(lower), self._key(upper))

    def snapshot(self) -> "TreeSliceSnapshot":
        return TreeSliceSnapshot(self._tree.snapshot())

    @property
    def node_accesses(self) -> int:
        return self._tree.node_accesses

    @staticmethod
    def _key(cell) -> int:
        if isinstance(cell, (tuple, list)):
            if len(cell) != 1:
                raise DomainError(
                    "TreeSliceStructure keys one dimension; got "
                    f"{len(cell)} coordinates"
                )
            return int(cell[0])
        return int(cell)


class TreeSliceSnapshot:
    """Frozen version of a :class:`TreeSliceStructure`."""

    def __init__(self, version: TreeVersion) -> None:
        self._version = version

    def range_sum(self, lower, upper) -> int:
        return self._version.range_sum(
            TreeSliceStructure._key(lower), TreeSliceStructure._key(upper)
        )

    def with_update(self, cell, delta) -> "TreeSliceSnapshot":
        """A new snapshot with one more update (used by the drain cascade)."""
        owner = self._version._owner
        root = owner._insert(
            self._version._root, TreeSliceStructure._key(cell), int(delta)
        )
        return TreeSliceSnapshot(TreeVersion(root, owner))


class MVBTSliceStructure:
    """1-D slice structure over the multiversion B-tree (Section 4).

    A snapshot is just the current version number -- the MVBT keeps every
    version queryable, so the framework's "copy" is a single integer.
    Each snapshot advances the tree's version so later updates cannot
    bleed into frozen instances.
    """

    def __init__(self, capacity: int = 32) -> None:
        from repro.trees.mvbtree import MultiversionBTree

        self._tree = MultiversionBTree(capacity=capacity)

    def update(self, cell, delta) -> None:
        self._tree.update(TreeSliceStructure._key(cell), int(delta))

    def range_sum(self, lower, upper) -> int:
        return self._tree.range_sum(
            TreeSliceStructure._key(lower), TreeSliceStructure._key(upper)
        )

    def snapshot(self) -> "MVBTSliceSnapshot":
        frozen = self._tree.current_version
        self._tree.advance_version(frozen + 1)
        return MVBTSliceSnapshot(self._tree, frozen)

    @property
    def node_accesses(self) -> int:
        return self._tree.node_accesses


class MVBTSliceSnapshot:
    """A frozen MVBT version (an integer, per the Section 4 promise)."""

    def __init__(self, tree, version: int) -> None:
        self._tree = tree
        self._version = version

    def range_sum(self, lower, upper) -> int:
        return self._tree.range_sum(
            TreeSliceStructure._key(lower),
            TreeSliceStructure._key(upper),
            version=self._version,
        )


class CopySnapshotStructure:
    """Naive snapshotting by deep copy -- the comparator Section 2.2 warns
    about ("the copying can be quite expensive").

    Wraps any single-version structure with ``update``/``range_sum``.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def update(self, cell, delta) -> None:
        self._inner.update(cell, delta)

    def range_sum(self, lower, upper) -> int:
        return self._inner.range_sum(lower, upper)

    def snapshot(self):
        return _copy.deepcopy(self._inner)


class AppendOnlyAggregator:
    """d-dimensional append-only range aggregation (Table 2 operations).

    Parameters
    ----------
    slice_factory:
        Zero-argument callable producing the live (d-1)-dimensional
        structure.  Defaults to the 1-D persistent tree (d = 2 data sets,
        as in the paper's running example).
    ndim:
        Total dimensionality including the TT-dimension (>= 2).
    out_of_order:
        ``True`` buffers violations of the append order in a ``G_d``
        R-tree (Section 2.5); ``False`` raises
        :class:`~repro.core.errors.AppendOrderError` instead.
    """

    def __init__(
        self,
        slice_factory: Callable[[], SliceStructure] | None = None,
        ndim: int = 2,
        out_of_order: bool = False,
    ) -> None:
        if ndim < 2:
            raise DomainError("need at least the TT-dimension plus one")
        self.ndim = ndim
        factory = slice_factory if slice_factory is not None else TreeSliceStructure
        if slice_factory is None and ndim != 2:
            raise DomainError(
                "the default tree slice structure is one-dimensional; "
                "pass a slice_factory for higher-dimensional slices"
            )
        self._live: SliceStructure = factory()
        self._factory = factory
        # Finalized snapshots of R_{d-1}(t) for historic occurring times;
        # the latest occurring time is answered by the live structure.
        self.directory: TimeDirectory[SliceSnapshot | None] = TimeDirectory()
        self.buffer: OutOfOrderBuffer | None = (
            OutOfOrderBuffer(ndim) if out_of_order else None
        )
        self.updates_applied = 0

    # -- updates (Table 2: update_D) ------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        point = tuple(int(c) for c in point)
        if len(point) != self.ndim:
            raise DomainError(f"point arity {len(point)} != {self.ndim}")
        time, cell = point[0], point[1:]
        delta = int(delta)
        if not self.directory:
            self.directory.append(time, None)
        elif time > self.directory.latest_time:
            # Finalize the previous instance with an O(1) snapshot, then
            # open the new occurring time.
            self.directory.replace_latest(self._live.snapshot())
            self.directory.append(time, None)
        elif time < self.directory.latest_time:
            if self.buffer is None:
                raise AppendOrderError(
                    f"update at time {time} precedes latest occurring time "
                    f"{self.directory.latest_time} and no out-of-order "
                    "buffer is configured"
                )
            self.buffer.add(point, delta)
            self.updates_applied += 1
            return
        self._live.update(cell, delta)
        self.updates_applied += 1

    # -- queries (Table 2: query_D) ----------------------------------------------

    def query(self, box: Box) -> int:
        if box.ndim != self.ndim:
            raise DomainError(f"box arity {box.ndim} != {self.ndim}")
        result = self._prefix_time_query(box, box.upper[0]) - self._prefix_time_query(
            box, box.lower[0] - 1
        )
        if self.buffer is not None:
            result += self.buffer.range_sum(box)
        return result

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """Answer a batch of range aggregates with amortized lookups.

        ``mode="metered"`` replays the batch through :meth:`query`.
        With ``mode="fast"`` the directory's occurring-time array is
        fetched once; every box's two framework lookups are resolved
        against it with plain bisection, and the per-instance work is
        grouped so each snapshot is located a single time per batch.
        A corner array (:func:`~repro.core.types.box_array`) is walked as
        the :class:`Box` objects of its rows.
        """
        boxes = as_boxes(box_array(boxes, self.ndim))
        if mode == "metered":
            return [self.query(box) for box in boxes]
        if mode != "fast":
            raise DomainError(f"unknown execution mode {mode!r}")
        results = [0] * len(boxes)
        if self.directory:
            times = self.directory.times()
            latest_index = len(times) - 1
            per_instance: dict[int, list[tuple[int, int]]] = {}
            for i, box in enumerate(boxes):
                for bound, sign in ((box.upper[0], 1), (box.lower[0] - 1, -1)):
                    index = bisect_right(times, bound) - 1
                    if index >= 0:
                        per_instance.setdefault(index, []).append((i, sign))
            for index in sorted(per_instance):
                _, snapshot = self.directory.at_index(index)
                target = self._live if index == latest_index else snapshot
                for i, sign in per_instance[index]:
                    lower, upper = boxes[i].lower[1:], boxes[i].upper[1:]
                    results[i] += sign * target.range_sum(lower, upper)
        if self.buffer is not None:
            for i, box in enumerate(boxes):
                results[i] += self.buffer.range_sum(box)
        return results

    def update_many(self, points, deltas, mode: str = "fast") -> None:
        """Apply a batch of updates (validated once, then streamed).

        The framework's per-update work is already constant-time for the
        append path, so both modes stream through :meth:`update`;
        batching here exists for :class:`BatchExecutor` uniformity and
        to fail fast on malformed batches before any state changes.
        """
        if mode not in ("fast", "metered"):
            raise DomainError(f"unknown execution mode {mode!r}")
        points = [tuple(int(c) for c in point) for point in points]
        deltas = [int(delta) for delta in deltas]
        if len(points) != len(deltas):
            raise DomainError("need exactly one delta per point")
        for point in points:
            if len(point) != self.ndim:
                raise DomainError(
                    f"point arity {len(point)} != {self.ndim}"
                )
        for point, delta in zip(points, deltas):
            self.update(point, delta)

    def _prefix_time_query(self, box: Box, time: int) -> int:
        if not self.directory:
            return 0
        found = self.directory.floor(time)
        if found is None:
            return 0
        occurring, snapshot = found
        lower, upper = box.lower[1:], box.upper[1:]
        if occurring == self.directory.latest_time:
            return self._live.range_sum(lower, upper)
        assert snapshot is not None
        return snapshot.range_sum(lower, upper)

    # -- background drain of G_d (Section 2.5) --------------------------------------

    def drain(self, limit: int | None = None) -> int:
        """Apply up to ``limit`` buffered out-of-order updates.

        Each drained update at time ``u`` cascades through every instance
        with occurring time >= ``u`` (newest first), which requires the
        snapshots to support ``with_update``.  Returns the number applied.
        """
        if self.buffer is None or len(self.buffer) == 0:
            return 0
        drained = self.buffer.drain(limit)
        for point, delta in drained:
            time, cell = point[0], point[1:]
            if time > self.directory.latest_time:
                # Buffered 'future' cannot happen (buffer only takes the
                # past), but keep the invariant explicit.
                raise AppendOrderError("buffered update newer than directory")
            # The live structure covers the latest instance.
            self._live.update(cell, delta)
            times = self.directory.times()
            floor_index = self.directory.floor_index(time)
            if floor_index >= 0 and times[floor_index] == time:
                # Already occurring: the cascade starts at its own instance.
                first_affected = floor_index
            else:
                # The historic time value becomes occurring: materialize its
                # instance from the nearest earlier snapshot (or empty).
                if floor_index < 0:
                    base = self._factory().snapshot()
                else:
                    _, base = self.directory.at_index(floor_index)
                base = self._require_with_update(base)
                inserted = self.directory.insert_historic(
                    time, base.with_update(cell, delta)
                )
                first_affected = inserted + 1
            # Cascade through every later historic instance (the latest
            # index carries no snapshot; the live structure already has it).
            for index in range(len(self.directory) - 2, first_affected - 1, -1):
                _, snapshot = self.directory.at_index(index)
                if snapshot is None:
                    continue
                snapshot = self._require_with_update(snapshot)
                self.directory._payloads[index] = snapshot.with_update(cell, delta)
        return len(drained)

    @staticmethod
    def _require_with_update(snapshot):
        if not hasattr(snapshot, "with_update"):
            raise DomainError(
                "slice snapshots do not support with_update; cannot drain "
                "out-of-order updates"
            )
        return snapshot

    # -- introspection -----------------------------------------------------------------

    @property
    def num_instances(self) -> int:
        return len(self.directory)

    @property
    def buffered_updates(self) -> int:
        return len(self.buffer) if self.buffer is not None else 0

    def occurring_times(self) -> tuple[int, ...]:
        return self.directory.times()
