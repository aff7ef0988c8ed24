"""Snapshot-isolated serving of TT-extent objects.

:class:`SnapshotExtentCube` fronts an
:class:`~repro.ecube.extent.ExtentCube` (or a durable one,
``DurableCube(..., extent=True)``) with one
:class:`~repro.concurrent.snapshot.SnapshotCube` per family: after every
write it forwards, both families publish an epoch, inside the write lock,
and a *pinned extent view* combines

* a pinned epoch of the ``B`` (ended) family,
* a pinned epoch of the ``C`` (containing) family,
* the pending-end and containment columns, the retirement boundary and
  the containment aged-out cutoff, frozen at pin time.

Because the extent cube's queries are pure (the pending correction is
applied analytically, never by advancing the clock), a view answers
intersection, containment and alive-at aggregates *at any query time*
from immutable state -- readers never lock and never observe a
half-applied move-over pair, since pins are taken under the same writer
lock that brackets every extent mutation.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.concurrent.snapshot import SnapshotCube, SnapshotView
from repro.core.errors import DomainError
from repro.core.front import forward, layers, require
from repro.core.types import Box, TimeInterval
from repro.durability.wal import LOGGED
from repro.ecube.extent import containment_aggregates, intersection_aggregates


class ExtentSnapshotView:
    """An immutable, releasable view of one published extent state.

    Reads run the cube's own Section 2.4 read path
    (:func:`~repro.ecube.extent.intersection_aggregates`,
    :func:`~repro.ecube.extent.containment_aggregates`) over the two
    pinned epochs and the frozen columns, so a view answers -- and ages
    out -- exactly as the cube did when it was pinned.
    """

    def __init__(
        self,
        ended: SnapshotView,
        containing: SnapshotView,
        pending: tuple[np.ndarray, ...],
        moved: tuple[np.ndarray, ...],
        min_time: int | None,
        boundary: int | None,
        retired_below: int | None,
        slice_shape: tuple[int, ...],
    ) -> None:
        self._ended = ended
        self._containing = containing
        self._pending = pending
        self._moved = moved
        self._min_time = min_time
        self._boundary = boundary
        self._retired_below = retired_below
        self._slice_shape = slice_shape
        self._released = False

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._ended.release()
        self._containing.release()

    def __enter__(self) -> "ExtentSnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    @property
    def sequence(self) -> tuple[int, int]:
        """The pinned (ended, containing) epoch sequence pair."""
        return self._ended.sequence, self._containing.sequence

    def _check_released(self) -> None:
        if self._released:
            raise DomainError("view was released")

    # -- reads (lock-free, any thread) ---------------------------------------

    def intersecting(self, query, cell_box: Box | None = None) -> int:
        return self.intersecting_many([query], [cell_box])[0]

    def intersecting_many(
        self,
        queries: Sequence,
        cell_boxes: Sequence[Box | None] | None = None,
    ) -> list[int]:
        """``b(t_up) + c(t_up) - b(t_low)`` plus the frozen pending correction."""
        self._check_released()
        return intersection_aggregates(
            queries,
            cell_boxes,
            self._ended.query_many,
            self._containing.query_many,
            self._pending,
            self._min_time,
            self._boundary,
            self._slice_shape,
        )

    def alive_at(self, time: int, cell_box: Box | None = None) -> int:
        return self.intersecting(TimeInterval(int(time), int(time)), cell_box)

    def containment(self, query, cell_box: Box | None = None) -> int:
        return self.containment_many([query], [cell_box])[0]

    def containment_many(
        self,
        queries: Sequence,
        cell_boxes: Sequence[Box | None] | None = None,
    ) -> list[int]:
        self._check_released()
        return containment_aggregates(
            queries,
            cell_boxes,
            self._pending,
            self._moved,
            self._retired_below,
            self._slice_shape,
        )


class SnapshotExtentCube:
    """Single-writer / many-reader front over an extent cube.

    Route every mutation through this object (one writer thread); pin
    views from any thread for lock-free reads.  Accepts a bare
    :class:`~repro.ecube.extent.ExtentCube` or a durable one
    (``DurableCube(..., extent=True)``, whose mutations stay logged:
    the forwarded writes, ``wal.LOGGED``'s, go through the durable
    wrapper, each under the write lock).
    """

    #: the serving layer of a TT-extent stack (:mod:`repro.core.front`)
    kind = "snapshot"
    inner = property(lambda self: self.target)

    def __init__(self, target) -> None:
        self.target = target
        #: the layers under this one, as they declare themselves
        self.stack = layers(target)
        require(self.stack, "extent", "SnapshotExtentCube", "target")
        extent = self.extent = self.stack["extent"]
        self._b = SnapshotCube(extent.ended)
        self._c = SnapshotCube(extent.containing)
        self._write_lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Let both family kernels serve another front (pinned views stay
        readable)."""
        self._b.close()
        self._c.close()

    # -- publication and checkpoints (writer thread) --------------------------

    def publish(self) -> None:
        """Publish both families' current state, after every forwarded
        write, inside its write lock."""
        self._b.publish()
        self._c.publish()

    def checkpoint(self):
        """``target.checkpoint()`` (a durable stack) under the write lock:
        it pins both families' epochs while it writes; publishes nothing."""
        require(self.stack, "durable", "checkpoint")
        with self._write_lock:
            return self.target.checkpoint()

    def __enter__(self) -> "SnapshotExtentCube":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pinning -------------------------------------------------------------

    def pin(self) -> ExtentSnapshotView:
        """Pin the latest published state of both families as one view.

        Taken under the writer lock, so the two family epochs always
        correspond to the same completed extent operation (a move-over
        pair is never split across the ``B``/``C`` pins).
        """
        with self._write_lock:
            b_view = self._b.pin()
            try:
                c_view = self._c.pin()
            except BaseException:
                b_view.release()
                raise
            extent = self.extent
            return ExtentSnapshotView(
                b_view,
                c_view,
                extent._pending_columns(),
                extent._cont_columns(),
                extent._min_time,
                extent._boundary,
                extent._cont_retired_below,
                extent.slice_shape,
            )

    def snapshot(self) -> ExtentSnapshotView:
        """Alias for :meth:`pin`."""
        return self.pin()

    def current_sequence(self) -> tuple[int, int]:
        return self._b.current_sequence(), self._c.current_sequence()

    def pinned_epochs(self) -> int:
        return self._b.pinned_epochs() + self._c.pinned_epochs()

    # -- ephemeral reads -----------------------------------------------------

    def intersecting(self, query, cell_box: Box | None = None) -> int:
        with self.pin() as view:
            return view.intersecting(query, cell_box)

    def intersecting_many(self, queries, cell_boxes=None) -> list[int]:
        with self.pin() as view:
            return view.intersecting_many(queries, cell_boxes)

    def alive_at(self, time: int, cell_box: Box | None = None) -> int:
        with self.pin() as view:
            return view.alive_at(time, cell_box)

    def containment(self, query, cell_box: Box | None = None) -> int:
        with self.pin() as view:
            return view.containment(query, cell_box)

    def containment_many(self, queries, cell_boxes=None) -> list[int]:
        with self.pin() as view:
            return view.containment_many(queries, cell_boxes)

    def __repr__(self) -> str:
        return (
            f"SnapshotExtentCube(sequences={self.current_sequence()}, "
            f"pinned={self.pinned_epochs()})"
        )


# the same forwarded writes as the point front's, each under the write
# lock and followed by one publication of both families
forward(SnapshotExtentCube, LOGGED, "target", lock="_write_lock")
