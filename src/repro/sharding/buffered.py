"""A buffered cube front obeying a *global* append-order discipline.

Sharding splits one global update stream across shard-local cubes, so
"is this update historic?" must be answered against the global running
maximum (the router knows it), not against the shard's local latest
time: a globally historic point can look appendable to a shard that
simply never received the later times.  If the shard appended it, the
shard's occurring-time directory would diverge from the unsharded
oracle's -- and with it the data-aging boundary and the ``AgedOutError``
contract.

:class:`ShardBufferedCube` therefore lets the router force points into
``G_d`` (:meth:`buffer_historic_many`) and tolerates draining a
correction that is *newer* than the shard's local latest: with no later
local instances to cascade through, a plain append is exactly the splice
the oracle performs.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import AppendOrderError
from repro.ecube.buffered import BufferedEvolvingDataCube


class ShardBufferedCube(BufferedEvolvingDataCube):
    """Buffered cube whose append-order discipline is global, not local."""

    def update_many(self, points, deltas, mode: str = "fast") -> None:
        """``mode="buffer"`` force-buffers a globally-historic batch.

        Riding the ordinary ``update_many`` entry point lets
        :class:`~repro.durability.recovery.DurableCube` log the router's
        global classification in the WAL verbatim, so recovery replays
        it instead of (wrongly) re-deriving orderedness locally.
        """
        if mode == "buffer":
            self.buffer_historic_many(points, deltas)
            return
        super().update_many(points, deltas, mode=mode)

    def buffer_historic_many(self, points, deltas) -> None:
        """Force a batch into ``G_d`` regardless of local orderedness."""
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.shape[0] == 0:
            return
        self.buffer.add_many(points, deltas)
        self.cube.note_external_mutation()
        self.total_updates += int(points.shape[0])
        self._maybe_drain()

    def _apply_drained(self, point: tuple[int, ...], delta: int) -> None:
        """Oracle-equivalent drain tolerating locally-future corrections."""
        try:
            self.cube.apply_out_of_order(point, delta)
        except AppendOrderError:
            # newer than every local instance: appending is the
            # correction for this shard
            self.cube.update(point, delta)
