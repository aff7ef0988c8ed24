"""Shard workers, and the reader state the router answers from.

A *shard worker* owns one shard's cube (dense, buffered or not,
optionally durable), ingests the writes routed to it and, after every
mutation, publishes an epoch descriptor together with the shard's time
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

import itertools
import signal

import numpy as np

from repro.core.errors import DomainError, ReproError
from repro.core.types import box_array
from repro.durability.recovery import DurableCube, build_front
from repro.metrics import CostCounter

from repro.concurrent.snapshot import Epoch, SnapshotCube, SnapshotView, prepare_epoch
from repro.ecube.fastpath import DDC, _prefix_sum_rows, retired_instance_error
from repro.ecube.stores import row_difference
from repro.sharding.partition import GridPartitioner
from repro.sharding.shm import (
    BlockCache,
    EpochExporter,
    descriptor_blocks,
    epoch_from_shared_memory,
)


def _build_shard_front(config: dict, counter: CostCounter):
    """The shard-local cube front for a worker config (a recovered one
    restored from its checkpoint, its log tail not yet replayed)."""
    durable_dir = config.get("durable_dir")
    buffered = bool(config.get("buffered", False))
    if durable_dir is not None:
        if config.get("recover"):
            return DurableCube.restore(durable_dir, counter=counter)
        return DurableCube(
            config["slice_shape"],
            durable_dir,
            buffered=buffered,
            num_times=config.get("num_times"),
            counter=counter,
            drain_threshold=config.get("drain_threshold"),
            fsync=config.get("fsync", "batch"),
            tiers=config.get("tiers"),
        )
    return build_front(
        {**config, "buffered": buffered}, counter, config.get("tile_dir")
    )


class ShardWorkerState:
    """One shard's cube, snapshot front and epoch publication."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.shard_id = int(config["shard_id"])
        self.counter = CostCounter()
        self.front = _build_shard_front(config, self.counter)
        self.snap = SnapshotCube(self.front)
        #: what the shard's stack is, as built and declared (on recovery
        #: the manifest decided, not this worker's config)
        self.layers = self.snap.stack
        self.durable, self.buffered, self.tiered = (
            kind in self.layers for kind in ("durable", "buffered", "tiered")
        )
        self.exporter = None
        try:
            if config.get("use_shm"):
                self.exporter = EpochExporter(self.snap, tag=f"s{self.shard_id}")
            if self.durable and config.get("recover"):
                self._replay_tail()
        except BaseException:
            self.close()  # no caller gets this state: unlink what it exported
            raise

    def _replay_tail(self) -> None:
        """Replay the log tail the way live writes arrive: the restored
        checkpoint is published first, then the historic slices each record
        made, and adopted, before the next record is applied; with no
        reader attached yet the epochs a record superseded are released at
        once.  So replayed history never piles up on the heap: beside the
        latest instance, only what the current record made historic is off
        shared memory."""
        for _ in itertools.chain([None], self.front.replay_tail()):
            if self.exporter is not None:
                self.exporter.release_below(self.exporter.export()["sequence"])

    # -- helpers ---------------------------------------------------------------

    @property
    def kernel(self):
        return self.snap.kernel

    def publish(self) -> tuple:
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

    def _durable(self, op: str) -> DurableCube:
        if not self.durable:
            raise DomainError(f"{op} requires a durable shard")
        return self.front

    # -- the shard ops (payload in, result out) ---------------------------------

    def _ingest(self, payload) -> None:
        # always through self.front, so that a durable wrapper WAL-logs the
        # router's global historic/in-order classification
        points, deltas, historic = payload
        if not self.buffered or not bool(historic.any()):
            self.front.update_many(points, deltas)
            return
        in_order = ~historic
        if bool(in_order.any()):
            self.front.update_many(points[in_order], deltas[in_order])
        self.front.update_many(points[historic], deltas[historic], mode="buffer")

    def _out_of_order(self, payload):
        point, delta = payload
        latest = self.kernel.directory.latest_time if self.kernel.directory else None
        if latest is None or point[0] >= latest:
            # globally historic but locally in-order: append
            self.front.update_many([point], [delta])
        else:
            # through the log when there is one (which refuses it over a
            # G_d buffer), else at the kernel, past any buffer
            target = self.front if self.durable else self.kernel
            target.apply_out_of_order(point, delta)

    def _retire(self, time):
        """``(retired, newest local occurring time below ``time``)``."""
        retired = self.front.retire_before(time)
        below = self.kernel.directory.strictly_before(time)
        return retired, None if below is None else int(below[0])

    def _demote(self, time) -> int:
        if not self.tiered:
            raise DomainError("demote requires a tiered shard (tiers=...)")
        return self.front.demote_before(time)

    def _topk(self, queries) -> list:
        """Rank the shard's local cell domain for each ``(t1, t2, k)``.

        Every cell's score over ``[t1, t2]`` is the inverse prefix
        (``np.diff`` along each cell axis) of ``ps(t2) - ps(t1 - 1)``
        (§2's two lookups, for the whole slice at once), plus the
        window's ``G_d`` points; ranked by value descending, then flat
        cell index ascending.  Exact whatever the signs of the deltas.
        The router globalizes the cells by the shard extent's origin and
        merges (the cell partition is disjoint, so per-shard lists are
        exact).
        """
        with self.snap.pin() as view:
            return [self._ranked(view, *query) for query in queries]

    def _ranked(self, view: SnapshotView, t1: int, t2: int, k: int) -> list:
        if k <= 0:
            return []
        scores = np.zeros(view.slice_shape, dtype=np.int64)
        if t1 <= t2:
            upper = self._prefix_slice(view, t2)
            row_difference(upper, self._prefix_slice(view, t1 - 1), out=scores)
            for axis in range(scores.ndim):
                scores = np.diff(scores, axis=axis, prepend=0)
            epoch = view.epoch
            if epoch.gd_points is not None and len(epoch.gd_points):
                times = epoch.gd_points[:, 0]
                window = (times >= t1) & (times <= t2)
                cells = tuple(epoch.gd_points[window, 1:].T)
                np.add.at(scores, cells, epoch.gd_deltas[window])
        flat = scores.reshape(-1)
        # ascending ~v is descending v, and ~ never wraps (-v does at -2**63)
        key = ~flat
        k = min(k, flat.size)
        candidates = np.arange(flat.size)
        if k < flat.size:
            candidates = np.flatnonzero(key <= np.partition(key, k - 1)[k - 1])
        chosen = candidates[np.argsort(key[candidates], kind="stable")[:k]]
        cells = np.stack(np.unravel_index(chosen, scores.shape), axis=1)
        return list(zip(map(tuple, cells.tolist()), flat[chosen].tolist()))

    def _prefix_slice(self, view: SnapshotView, time: int) -> np.ndarray | None:
        """The cumulative PS slice the prefix up to ``time`` floors on
        (``None`` before the first instance): the epoch's row, the latest
        instance's frontier swept once per epoch, or a demoted instance's
        slice from the tiers."""
        floor = int(np.searchsorted(view.times, time, side="right")) - 1
        if floor < 0:
            return None
        if floor < view.retired_below:
            occurring = int(view.times[floor])
            if not self.tiered:
                raise retired_instance_error(occurring)
            return self.layers["tiered"]._demoted_slice(occurring)
        kind, values, _ = view.fetch(floor)
        if kind == DDC:
            (values,) = _prefix_sum_rows(view, np.array([floor]), [(kind, values, None)])
        return values

    def _approx(self, boxes):
        tiered = self.layers.get("tiered")
        if tiered is not None:
            return [tuple(e) for e in tiered.query_many_approx(boxes)]
        # no tiers on this shard: every answer is exact
        return [(float(v), int(v), int(v)) for v in self.front.query_many(boxes)]

    #: shard op -> (handler(state, payload) -> result, does it mutate the shard)
    ops = {
        "ping": (lambda state, _: None, False),
        "ingest": (_ingest, True),
        "oob": (_out_of_order, True),
        # the router asks buffered fleets only
        "drain": (lambda state, limit: state.front.drain(limit), True),
        "retire": (_retire, True),
        "demote": (_demote, True),
        # cross-tier answering happens in the worker (tiles and rollups live
        # here, not in the shared-memory epochs); the payload is the batch's
        # clip to this shard, a local corner array
        "query": (lambda state, boxes: state.front.query_many(boxes), False),
        "topk": (_topk, False),
        "approx": (_approx, False),
        "total": (lambda state, _: state.snap.total(), False),
        "checkpoint": (lambda state, _: state._durable("checkpoint").checkpoint(), False),
        "log_info": (lambda state, _: state._durable("log_info").log_info(), False),
    }

    def close(self) -> None:
        if self.exporter is not None:
            self.exporter.close()
            self.exporter = None
        if self.durable:
            self.front.close()


MUTATING_OPS = frozenset(
    op for op, (_, mutates) in ShardWorkerState.ops.items() if mutates
)


def serve(state: ShardWorkerState, op: str, payload) -> tuple:
    """Run one op against a shard: the reply frame ``(status, result,
    published)``.

    A mutating op answers with what the shard now publishes (its fresh
    epoch and time state) even when it failed: it may have partially
    applied (the kernel publishes in its ``finally``).  Every exception
    is carried in the frame; what to do with one that is no
    :class:`ReproError` is the caller's policy.
    """
    if op not in state.ops:
        return "error", DomainError(f"unknown shard op {op!r}"), None
    handler, mutates = state.ops[op]
    try:
        status, result = "ok", handler(state, payload)
    except Exception as exc:
        status, result = "error", exc
    return status, result, (state.publish() if mutates else None)


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
        conn.send(("ok", None, state.publish()))
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
