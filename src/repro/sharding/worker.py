"""Shard worker and reader processes.

A *shard worker* owns one shard's cube (any backend, buffered or not,
optionally durable), ingests the writes routed to it and publishes an
epoch descriptor after every mutation.  A *reader* attaches every
shard's shared-memory epochs and answers query batches zero-copy with
the stacked batch evaluator.  Both run a tiny synchronous request loop
over a duplex pipe, speaking the same frames; the router keeps the
protocol single-outstanding per process, so no queueing discipline is
needed.

Global versus local append order
--------------------------------

The TT discipline is *global*: the router classifies each update against
the globally largest time seen so far.  A globally historic update can
still be locally in-order for its shard (the shard simply never received
the later times), so the shard front-ends must not re-derive orderedness
locally:

* buffered shards force globally-historic points into ``G_d`` even when
  they look appendable locally (:meth:`ShardBufferedCube.buffer_historic`),
  keeping the buffer contents bit-identical to an unsharded oracle's;
* draining a shard may pop a correction that is *newer* than the shard's
  local latest time -- it is applied as a plain append, which for a shard
  with no later instances is exactly the splice the oracle performs.
"""

from __future__ import annotations

import signal

import numpy as np

from repro.core.errors import DomainError, ReproError
from repro.durability.recovery import DurableCube, build_front
from repro.metrics import CostCounter

from repro.concurrent.snapshot import SnapshotCube, SnapshotView, prepare_epoch
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.sharding.partition import GridPartitioner
from repro.sharding.shm import (
    BlockCache,
    EpochExporter,
    descriptor_blocks,
    epoch_from_shared_memory,
)


def _build_shard_front(config: dict, counter: CostCounter):
    """The shard-local cube front for a worker config."""
    durable_dir = config.get("durable_dir")
    # a buffered shard obeys the router's global append order
    buffered = bool(config.get("buffered", False))
    if durable_dir is not None:
        if config.get("recover"):
            return DurableCube.recover(durable_dir, counter=counter)
        return DurableCube(
            config["slice_shape"],
            durable_dir,
            buffered=buffered,
            backend=config.get("backend", "dense"),
            num_times=config.get("num_times"),
            counter=counter,
            drain_threshold=config.get("drain_threshold"),
            page_size=config.get("page_size"),
            cell_size=config.get("cell_size"),
            fsync=config.get("fsync", "batch"),
            global_order_buffer=buffered,
            tiers=config.get("tiers"),
        )
    return build_front(
        {**config, "buffered": buffered, "global_order_buffer": buffered},
        counter,
        config.get("tile_dir"),
    )


class ShardWorkerState:
    """One shard's cube, snapshot front and epoch publication."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.shard_id = int(config["shard_id"])
        self.counter = CostCounter()
        self.front = _build_shard_front(config, self.counter)
        self.snap = SnapshotCube(self.front)
        self.exporter = None
        if config.get("use_shm"):
            self.exporter = EpochExporter(self.snap, tag=f"s{self.shard_id}")

    # -- helpers ---------------------------------------------------------------

    @property
    def kernel(self):
        return self.snap.kernel

    @property
    def _buffered_front(self):
        front = self.front
        if isinstance(front, DurableCube):
            front = front.front
        front = getattr(front, "front", front)  # unwrap a TieredCube
        return front if isinstance(front, BufferedEvolvingDataCube) else None

    @property
    def _tiered_front(self):
        front = self.front
        if isinstance(front, DurableCube):
            front = front.front
        return front if hasattr(front, "demote_before") else None

    def publish(self):
        """The current epoch, as a picklable shm descriptor or in-process."""
        if self.exporter is not None:
            return self.exporter.export()
        return ("inline", self.snap._current, self.snap)

    def _times_stats(self) -> tuple[int | None, int | None]:
        times = self.kernel.directory.times()
        if not times:
            return None, None
        return int(times[0]), int(times[-1])

    # -- request dispatch ------------------------------------------------------

    def apply(self, op: str, payload):
        """Returns ``(result, mutated)``."""
        if op == "ping":
            return None, False
        if op == "ingest":
            points, deltas, historic, mode = payload
            if self._buffered_front is not None:
                # route through self.front so a durable wrapper WAL-logs
                # the router's global historic/in-order classification
                in_order = ~historic
                if mode == "metered":
                    for point, delta, hist in zip(points, deltas, historic):
                        if hist:
                            self.front.update_many(
                                np.asarray([point]), [delta], mode="buffer"
                            )
                        else:
                            self.front.update(tuple(point), int(delta))
                else:
                    if bool(in_order.any()):
                        self.front.update_many(
                            points[in_order], deltas[in_order], mode=mode
                        )
                    if bool(historic.any()):
                        self.front.update_many(
                            points[historic], deltas[historic], mode="buffer"
                        )
            else:
                self.front.update_many(points, deltas, mode=mode)
            return None, True
        if op == "update":
            point, delta = payload
            self.front.update(point, delta)
            return None, True
        if op == "oob":
            point, delta = payload
            latest = self.kernel.directory.latest_time if self.kernel.directory else None
            if latest is None or point[0] >= latest:
                # globally historic but locally in-order: append
                self.front.update(point, delta)
            elif hasattr(self.front, "apply_out_of_order"):
                self.front.apply_out_of_order(point, delta)
            else:
                self.kernel.apply_out_of_order(point, delta)
            return self._times_stats(), True
        if op == "drain":
            if self._buffered_front is None:
                return (0, 0, *self._times_stats()), False
            applied, kept = self.front.drain(payload)
            return (applied, kept, *self._times_stats()), True
        if op == "retire":
            retired = self.front.retire_before(payload)
            return retired, True
        if op == "demote":
            if self._tiered_front is None:
                raise DomainError("demote requires a tiered shard (tiers=...)")
            demoted = self.front.demote_before(payload)
            return demoted, True
        if op == "query":
            # cross-tier answering happens in the worker (tiles and
            # rollups live here, not in the shared-memory epochs)
            boxes, mode = payload
            return self.front.query_many(boxes, mode=mode), False
        if op == "topk":
            # rank the shard's local cell domain; the router globalizes
            # the cells by the shard extent's origin and merges (the
            # cell partition is disjoint, so per-shard lists are exact)
            queries, mode, nonnegative = payload
            from repro.ranking import TopKEngine

            engine = TopKEngine(
                self.front,
                slice_shape=self.config["slice_shape"],
                nonnegative=nonnegative,
            )
            results = engine.topk_many(queries, mode=mode)
            stats = [
                (s.strategy, s.cells, s.marginal_boxes, s.materialized)
                for s in engine.last_stats
            ]
            return (results, stats), False
        if op == "approx":
            boxes, mode = payload
            tiered = self._tiered_front
            if tiered is not None:
                estimates = tiered.query_many_approx(boxes, mode=mode)
                return [tuple(e) for e in estimates], False
            # no tiers on this shard: every answer is exact
            return [
                (float(v), int(v), int(v))
                for v in self.front.query_many(boxes, mode=mode)
            ], False
        if op == "probe_retire":
            times = self.kernel.directory.times()
            below = [t for t in times if t < payload]
            return (int(below[-1]) if below else None), False
        if op == "probe_state":
            first, last = self._times_stats()
            retired_below = self.kernel.retired_instances
            boundary = None
            if retired_below > 0:
                boundary = int(self.kernel.directory.times()[retired_below])
            tiered = self._tiered_front
            return {
                "min_time": first,
                "max_time": last,
                "boundary_time": boundary,
                "num_slices": self.kernel.num_slices,
                "demoted_through": (
                    tiered.demoted_through if tiered is not None else None
                ),
            }, False
        if op == "total":
            view = SnapshotView(self.snap, self.snap._current, owns_pin=False)
            return view.total(), False
        if op == "checkpoint":
            if not isinstance(self.front, DurableCube):
                raise DomainError("checkpoint requires a durable shard")
            return self.front.checkpoint(), False
        if op == "log_info":
            if not isinstance(self.front, DurableCube):
                raise DomainError("log_info requires a durable shard")
            return self.front.log_info(), False
        raise DomainError(f"unknown shard op {op!r}")

    def close(self) -> None:
        if self.exporter is not None:
            self.exporter.close()
            self.exporter = None
        if isinstance(self.front, DurableCube):
            self.front.close()


MUTATING_OPS = frozenset({"ingest", "update", "oob", "drain", "retire", "demote"})


def worker_main(conn, config: dict) -> None:
    """Entry point of a shard worker process."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    state = ShardWorkerState(config)
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
            if release_below is not None and state.exporter is not None:
                state.exporter.release_below(release_below)
            if op == "close":
                conn.send(("ok", None, None))
                break
            try:
                result, mutated = state.apply(op, payload)
                descriptor = state.publish() if mutated else None
                conn.send(("ok", result, descriptor))
            except ReproError as exc:
                # a failed op may still have partially applied (the
                # kernel publishes in its finally); refresh the epoch
                descriptor = state.publish() if op in MUTATING_OPS else None
                conn.send(("error", exc, descriptor))
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
        if isinstance(descriptor, tuple):  # ("inline", epoch, snapshot cube)
            _, epoch, snap = descriptor
        else:
            epoch, snap = epoch_from_shared_memory(descriptor, self.cache), None
            held = self._views.get(shard_id)
            if held is not None:
                # a slice block never changes, so a row normalized under
                # the epoch we held serves every epoch citing that block
                rows = {
                    name: held.epoch.overlays[index]
                    for index, name, _ in self._descriptors[shard_id]["slices"]
                }
                for index, name, _ in descriptor["slices"]:
                    row = rows.get(name)
                    if row is not None and row[1] is None:
                        epoch.overlays[index] = row
            self._descriptors[shard_id] = descriptor
        view = self._views[shard_id] = prepare_epoch(epoch, snap)
        return view

    def query_many(self, descriptors: dict[int, object], boxes) -> list[int]:
        results = np.zeros(len(boxes), dtype=np.int64)
        attached = False
        for shard_id, descriptor in descriptors.items():
            extent = self.partitioner.extents[shard_id]
            ids: list[int] = []
            local = []
            for i, box in enumerate(boxes):
                sub = self.partitioner.local_box(box, extent)
                if sub is not None:
                    ids.append(i)
                    local.append(sub)
            if not local:
                continue
            sequence = (
                descriptor[1].sequence
                if isinstance(descriptor, tuple)
                else descriptor["sequence"]
            )
            view = self._views.get(shard_id)
            if view is None or view.sequence != sequence:
                view = self._attach(shard_id, descriptor)
                attached = True
            results[np.asarray(ids)] += view.query_many(local)
        if attached:
            # mappings for blocks no longer cited by any held epoch can close
            self.cache.prune(
                set().union(*map(descriptor_blocks, self._descriptors.values()))
            )
        return [int(v) for v in results]

    def close(self) -> None:
        self._views.clear()
        self._descriptors.clear()
        self.cache.close_all()


def reader_main(conn, config: dict) -> None:
    """Entry point of a reader process (the worker's frames, no epochs)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    state = ReaderState(GridPartitioner.from_config(config["partitioner"]))
    try:
        conn.send(("ok", None, None))
        while True:
            try:
                op, payload, _ = conn.recv()
            except EOFError:
                break
            if op == "close":
                conn.send(("ok", None, None))
                break
            try:
                if op == "query":
                    descriptors, boxes = payload
                    conn.send(("ok", state.query_many(descriptors, boxes), None))
                elif op == "ping":
                    conn.send(("ok", None, None))
                else:
                    raise DomainError(f"unknown reader op {op!r}")
            except ReproError as exc:
                conn.send(("error", exc, None))
    finally:
        state.close()
        conn.close()
