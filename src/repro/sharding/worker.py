"""Shard workers, and the reader state the router answers from.

A *shard worker* owns one shard's cube (dense, buffered or not, tiered
or not; never durable: the router logs every write once, for the whole
cube, before any shard sees it, and a recovered shard starts from its
checkpoint archive while the router replays the log into it), ingests
the writes routed to it past its snapshot front and, once after every
op that mutates, publishes an epoch and
hands back its descriptor together with the shard's time
state (first and last occurring time, demotion watermark).  The shard is
the only owner of that state; the router derives the global view from
what the shards last reported.  A worker process runs a tiny synchronous
request loop over a duplex pipe; the router keeps the protocol
single-outstanding per process, so no queueing discipline is needed.
:class:`ReaderState` is the router's side of the read path: it attaches
every shard's published epoch and answers query batches zero-copy with
the stacked batch evaluator.

Global versus local append order
--------------------------------

The TT discipline is *global*: the router classifies each update against
the globally largest time seen so far.  A globally historic update can
still be locally in-order for its shard (the shard simply never received
the later times), so the shard front-ends must not re-derive orderedness
locally:

* buffered shards force globally-historic points into ``G_d`` even when
  they look appendable locally (``update_many(mode="buffer")``), keeping
  the buffer contents bit-identical to an unsharded oracle's;
* draining a shard may pop a correction that is *newer* than the shard's
  local latest time -- the landing step appends it, which for a shard
  with no later instances is exactly the splice the oracle performs.
"""

from __future__ import annotations

import signal
from pathlib import Path

import numpy as np

from repro.core.errors import DomainError, ReproError
from repro.core.types import box_array
from repro.durability.checkpoint import write_archive
from repro.durability.recovery import build_front, restore_front
from repro.metrics import CostCounter

from repro.concurrent.snapshot import Epoch, SnapshotCube, SnapshotView, prepare_epoch
from repro.ranking.topk import topk_pinned
from repro.sharding.ops import OPS
from repro.sharding.partition import GridPartitioner
from repro.sharding.shm import (
    BlockCache,
    EpochExporter,
    descriptor_blocks,
    epoch_from_shared_memory,
)


def _build_shard_front(config: dict, counter: CostCounter):
    """The shard-local cube front for a worker config, restored from the
    config's ``checkpoint`` archive when it names one."""
    front = build_front(
        {**config, "buffered": bool(config.get("buffered", False))},
        counter,
        config.get("tile_dir"),
    )
    if config.get("checkpoint") is not None:
        restore_front(front, Path(config["checkpoint"]))
    return front


class ShardWorkerState:
    """One shard's cube, snapshot front and epoch publication."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.shard_id = int(config["shard_id"])
        self.counter = CostCounter()
        self.front = _build_shard_front(config, self.counter)
        self.snap = SnapshotCube(self.front)
        #: what the shard's stack is, as built and declared
        self.layers = self.snap.stack
        self.buffered, self.tiered = (
            kind in self.layers for kind in ("buffered", "tiered")
        )
        self.exporter = None
        if config.get("use_shm"):
            self.exporter = EpochExporter(self.snap, tag=f"s{self.shard_id}")

    # -- helpers ---------------------------------------------------------------

    @property
    def kernel(self):
        return self.snap.kernel

    def published(self) -> tuple:
        """``(descriptor, time state)``: the current epoch (picklable shm
        names, or the :class:`Epoch` itself in-process) and ``(first time,
        last time, demotion watermark)``, O(1) from the shard's own
        directory and tiered front."""
        if self.exporter is not None:
            descriptor = self.exporter.export()
        else:
            descriptor = self.snap._current
        directory = self.kernel.directory
        first = last = None
        if directory:
            first, last = int(directory.at_index(0)[0]), int(directory.latest_time)
        tiered = self.layers.get("tiered")
        watermark = None if tiered is None else tiered.demoted_through
        return descriptor, (first, last, watermark)

    # -- the shard ops (payload in, result out) ---------------------------------

    def _ingest(self, payload) -> None:
        # a section of the router's record: its in-order rows, then the
        # ``late`` rows the router classified as globally historic
        points, deltas, late = payload
        split = len(points) - late
        if split:
            self.front.update_many(points[:split], deltas[:split])
        if late:
            self.front.update_many(points[split:], deltas[split:], mode="buffer")

    def _out_of_order(self, payload):
        point, delta = payload
        latest = self.kernel.directory.latest_time if self.kernel.directory else None
        if latest is None or point[0] >= latest:
            # globally historic but locally in-order: append
            self.front.update_many([point], [delta])
        else:  # at the kernel, past any buffer
            self.kernel.apply_out_of_order(point, delta)

    def _retire(self, time):
        """``(retired, newest local occurring time below ``time``)``."""
        retired = self.front.retire_before(time)
        below = self.kernel.directory.strictly_before(time)
        return retired, None if below is None else int(below[0])

    def _demote(self, time) -> int:
        if not self.tiered:
            raise DomainError("demote requires a tiered shard (tiers=...)")
        return self.front.demote_before(time)

    def _approx(self, boxes):
        tiered = self.layers.get("tiered")
        if tiered is not None:
            return [tuple(e) for e in tiered.query_many_approx(boxes)]
        # no tiers on this shard: every answer is exact
        return [(float(v), int(v), int(v)) for v in self.front.query_many(boxes)]

    #: shard op -> (handler(state, payload) -> result, the name of the
    #: :data:`~repro.sharding.ops.OPS` row it serves, whose ``mutates``
    #: says whether it mutates the shard; ``None``: the row of no wire op)
    ops = {
        "ping": (lambda state, _: None, "ping"),
        "ingest": (_ingest, "update_many"),
        "oob": (_out_of_order, "apply_out_of_order"),
        # the router asks buffered fleets only
        "drain": (lambda state, limit: state.front.drain(limit), "drain"),
        "retire": (_retire, "retire"),
        "demote": (_demote, "demote"),
        # cross-tier answering happens in the worker (tiles and rollups live
        # here, not in the shared-memory epochs); the payload is the batch's
        # clip to this shard, a local corner array
        "query": (lambda state, boxes: state.front.query_many(boxes), "query_many"),
        # each shard ranks its own cells from its pinned epoch; the router
        # shifts them by the shard's origin and merges (the partition is
        # disjoint, so per-shard lists are exact)
        "topk": (
            lambda state, queries: topk_pinned(
                state.snap, queries, state.layers.get("tiered")
            ),
            "topk",
        ),
        "approx": (_approx, "query_approx"),
        "total": (lambda state, _: state.snap.total(), "total"),
        # the shard's archive of a checkpoint: ``(directory, checkpoint
        # id)`` in, the archive's file name out
        "checkpoint": (lambda state, at: write_archive(at[0], state.front, at[1]), None),
    }

    def close(self) -> None:
        if self.exporter is not None:
            self.exporter.close()
            self.exporter = None


def serve(state: ShardWorkerState, op: str, payload) -> tuple:
    """Run one op against a shard: the reply frame ``(status, result,
    published)``.

    A mutating op publishes one epoch and answers with what the shard now
    publishes (that epoch and its time state) even when it failed: it may
    have partially applied.  Every exception is carried in the frame;
    what to do with one that is no :class:`ReproError` is the caller's
    policy.
    """
    if op not in state.ops:
        return "error", DomainError(f"unknown shard op {op!r}"), None
    handler, served = state.ops[op]
    mutates = served is not None and OPS[served].mutates
    try:
        status, result = "ok", handler(state, payload)
    except Exception as exc:
        status, result = "error", exc
    if not mutates:
        return status, result, None
    state.snap.publish()
    return status, result, state.published()


def worker_main(conn, config: dict) -> None:
    """Entry point of a shard worker process: its request loop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    try:
        state = ShardWorkerState(config)
    except ReproError as exc:
        # the handshake says why this shard cannot start (a missing
        # checkpoint, a log record that cannot be replayed)
        conn.send(("error", exc, None))
        conn.close()
        return
    try:
        conn.send(("ok", None, state.published()))
        while True:
            if not conn.poll(0.1):
                if stop:
                    break
                continue
            try:
                op, payload, release_below = conn.recv()
            except EOFError:
                break
            if release_below is not None:
                state.exporter.release_below(release_below)
            if op == "close":
                conn.send(("ok", None, None))
                break
            reply = serve(state, op, payload)
            if reply[0] == "error" and not isinstance(reply[1], ReproError):
                raise reply[1]  # fail stop: the router sees a dead process
            conn.send(reply)
    finally:
        state.close()
        conn.close()


class ReaderState:
    """Query evaluation over attached shard epochs (zero-copy)."""

    def __init__(self, partitioner: GridPartitioner) -> None:
        self.partitioner = partitioner
        self.cache = BlockCache()
        #: shard id -> the evaluator's view of the epoch we currently hold
        self._views: dict[int, SnapshotView] = {}
        #: shard id -> the held shared-memory epoch's descriptor
        self._descriptors: dict[int, dict] = {}

    def _attach(self, shard_id: int, descriptor) -> SnapshotView:
        """Bind a shard's newly published epoch to the evaluator."""
        if isinstance(descriptor, Epoch):  # an inline shard's own
            epoch = descriptor
        else:
            epoch = epoch_from_shared_memory(descriptor, self.cache)
            self._descriptors[shard_id] = descriptor
        view = self._views[shard_id] = prepare_epoch(epoch)
        return view

    def query_many(self, descriptors: dict[int, object], boxes) -> list[int]:
        """Answer a batch (:func:`~repro.core.types.box_array`'s forms)
        from the shards' epochs: each shard's clip of it, summed."""
        corners = box_array(boxes, 1 + len(self.partitioner.slice_shape))
        results = np.zeros(len(corners), dtype=np.int64)
        attached = False
        for shard_id, descriptor in descriptors.items():
            positions, local = self.partitioner.local_boxes(
                corners, self.partitioner.extents[shard_id]
            )
            if not len(positions):
                continue
            sequence = (
                descriptor.sequence
                if isinstance(descriptor, Epoch)
                else descriptor["sequence"]
            )
            view = self._views.get(shard_id)
            if view is None or view.sequence != sequence:
                view = self._attach(shard_id, descriptor)
                attached = True
            results[positions] += view.query_many(local)
        if attached:
            # mappings for blocks no longer cited by any held epoch can close
            self.cache.prune(
                set().union(*map(descriptor_blocks, self._descriptors.values()))
            )
        return results.tolist()

    def close(self) -> None:
        self._views.clear()
        self._descriptors.clear()
        self.cache.close_all()
