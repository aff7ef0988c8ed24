"""The traced run: one sample replayed through the staircase of public fronts.

Nothing under ``src/`` carries a timer, so layers are timed from outside:
the same request is sent to every *stair* -- each public front with one
more layer on top than the stair below -- and a layer's self time is the
median of its stair minus the median of the stair below.  Parts therefore
sum to the served stair by construction; the run record lists them
(``stairs``) next to the served median so the identity can be checked.

Write stairs::

    kernel    BufferedEvolvingDataCube              kernel.update_ms
    durable   DurableCube                           + durability.log_ms
    snapshot  SnapshotCube(DurableCube)             + snapshot.publish_ms
    inline    ShardedCube(processes=False)          + router.update_ms
    procs     ShardedCube(processes=True)           + shm.export_ms + pipe.update_ms
    served    python -m repro serve, over TCP       + wire.update_ms

Read stairs are ``kernel -> snapshot -> inline -> procs -> served``; on
``tiered_history`` history starts at ``TieredCube`` / ``TopKEngine``
instead of the kernel.  Two pieces of work that happen *inside* a stair
are metered exactly where they run, by wrapping the public functions the
sharding layer calls: ``prepare_epoch`` (a new epoch's preparation, paid
by the first read after every write) and ``epoch_from_shared_memory``
(attaching a new descriptor).  ``EpochExporter.export`` runs inside the
worker processes, so it is timed on a replica exporter attached to the
inline stair's busiest shard.

Stairs are replayed interleaved -- a short burst of requests on every
stair in turn, bottom up, then the next burst -- on a warm sample, and
every answer of every stair (exact, approximate and top-k) is checked
against the oracle with the untraced run's own ``workloads.check``, so
the traced run is also a differential test of the five fronts.  Spans
``{request, layer, start, end, parent}`` stay in memory and are written
to ``out/trace-<workload>.json`` at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import statistics
import time
from collections import OrderedDict

import numpy as np

import harness as hs
import loadgen
import serving
import workloads as wl

WRITE_STAIRS = ("kernel", "durable", "snapshot", "inline", "procs", "served")
#: the stair a span's layer would have been called from in the served path
PARENT = {
    "kernel": "durable", "tiered": "inline", "durable": "snapshot",
    "snapshot": "inline", "inline": "procs", "procs": "served", "served": None,
}  # fmt: skip
READ_KINDS = ("query", "query_many", "query_approx", "topk")
WRITE_BURST = 4  # preload frames per stair per turn
LIVE_BURST = 4  # live_ingest (write, read) pairs per stair per turn


class Meter:
    """Wraps a function; remembers how long each call took."""

    def __init__(self, function) -> None:
        self.function = function
        self.samples: list[float] = []

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.function(*args, **kwargs)
        finally:
            self.samples.append(time.perf_counter() - start)


@contextlib.contextmanager
def metered(module, name: str):
    """Replace ``module.name`` with a :class:`Meter` for the block."""
    original = getattr(module, name)
    meter = Meter(original)
    setattr(module, name, meter)
    try:
        yield meter
    finally:
        setattr(module, name, original)


def _quiet_resource_tracker(log_path) -> None:
    """Start this process's shm resource tracker with its stderr in a file.

    The forked workers of the ``procs`` stair share the tracker of the
    process that forked them, and the router side unregisters every
    block it attaches, so the tracker prints a ``KeyError`` traceback per
    block when the worker later unlinks it (the CLI server does the same
    into its own stderr).  The tracker inherits fd 2 as it is when it is
    first started: point that at a file for just that moment.
    """
    from multiprocessing import resource_tracker

    saved = os.dup(2)
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.dup2(log, 2)
        resource_tracker.ensure_running()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(log)


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class Staircase:
    """Every stair of one traced run, and what was measured on them."""

    def __init__(self, work: wl.Workload, harness: hs.Harness, meters: dict) -> None:
        self.work = work
        self.harness = harness
        self.fsync: Meter = meters["fsync"]
        self.prepare: Meter = meters["prepare"]
        self.attach: Meter = meters["attach"]
        self.tiered_run = bool(work.demote)
        self.demoted_through: int | None = None
        self.spans: list[tuple] = []
        #: (request kind, stair) -> seconds per call
        self.times: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.closers: list = []
        self.exports: list[tuple[float, int, int, int]] = []  # s, bytes, cited, reused
        self.block_bytes: dict[str, int] = {}
        self.last_blocks: set[str] = set()
        self.reply_bytes = self.reply_boxes = 0
        self.approx_widths: list[float] = []
        self.topk_stats: list = []
        self.gd_depths = [0]

    def _add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- construction ---------------------------------------------------------------

    def build(self) -> None:
        from repro.concurrent.snapshot import SnapshotCube
        from repro.durability import DurableCube
        from repro.ecube.buffered import BufferedEvolvingDataCube
        from repro.metrics import CostCounter
        from repro.sharding import EpochExporter, ShardedCube

        work, harness = self.work, self.harness
        self.counter = CostCounter()
        self.kernel = BufferedEvolvingDataCube(wl.SLICE_SHAPE, counter=self.counter)
        self.durable_dir = harness.directory("stair-durable")
        self.durable = DurableCube(wl.SLICE_SHAPE, self.durable_dir, buffered=True)
        self.closers.append(self.durable.close)
        self.snapshot_dir = harness.directory("stair-snapshot")
        self.snapshot_log = DurableCube(wl.SLICE_SHAPE, self.snapshot_dir, buffered=True)
        self.closers.append(self.snapshot_log.close)
        self.snapshot = SnapshotCube(self.snapshot_log)
        self.inline = ShardedCube(
            wl.SLICE_SHAPE, shards=wl.SHARDS, processes=False, tiers=work.tiers,
            durable_dir=harness.directory("stair-inline"),
        )  # fmt: skip
        self.closers.append(self.inline.close)
        self.procs = ShardedCube(
            wl.SLICE_SHAPE, shards=wl.SHARDS, processes=True, tiers=work.tiers,
            durable_dir=harness.directory("stair-procs"),
        )  # fmt: skip
        self.closers.append(self.procs.close)
        harness.adopt(h.process.pid for h in self.procs.router.handles)
        self.served_dir = harness.directory("stair-served")
        self.child, address = serving.serve_cli(harness, self.served_dir, work.tiers)
        self.wire = loadgen.Wire(address)
        self.closers.append(lambda: self.wire.close())
        self.tiered = None
        if self.tiered_run:
            from repro.retention import TieredCube

            self.tiered = TieredCube(
                self.kernel, work.tiers, harness.directory("stair-tiles")
            )
        # the replica exporter rides the inline stair's busiest shard (the
        # tenant's): the same work the hot worker does after every write
        self.exporter = EpochExporter(
            self.inline.router.handles[0].state.snap, tag=f"bench-{os.getpid()}"
        )
        self.closers.append(self.exporter.close)
        self.cubes = {
            "kernel": self.kernel, "durable": self.durable,
            "snapshot": self.snapshot, "inline": self.inline, "procs": self.procs,
        }  # fmt: skip
        self.read_stairs = (
            ("tiered", "inline", "procs", "served")
            if self.tiered_run
            else ("kernel", "snapshot", "inline", "procs", "served")
        )

    def close(self) -> None:
        for closer in reversed(self.closers):
            with contextlib.suppress(Exception):
                closer()
        self.closers.clear()

    # -- one request on every stair ----------------------------------------------------

    def _timed(self, request_id, stair, kind, function, *args):
        start = time.perf_counter()
        result = function(*args)
        end = time.perf_counter()
        self.spans.append((request_id, stair, start, end, PARENT[stair]))
        self.times.setdefault((kind, stair), []).append(end - start)
        return result

    def _served(self, request: wl.Request) -> dict:
        raw = self.wire.call(request.frame)
        self.attempted += 1
        if request.boxes:
            self.reply_bytes += len(raw)
            self.reply_boxes += request.boxes
        return wl.decode(raw)

    def burst(self, ops: list[tuple], sample: bool = True) -> None:
        """Replay a short run of requests on every stair in turn, bottom up.

        ``ops`` are ``("write", id, request)`` or ``("read", id, request,
        boxes, expect)`` in the order a client would send them.  A burst
        (not a single request) per stair keeps each stair as warm as a
        closed-loop client keeps the real server, so the served stair
        stays comparable with the untraced run.  ``sample`` marks the
        workload's own requests: only those feed medians and counts.
        """
        for _, _, request, *_ in ops:
            if request.points is not None:
                # no stair should pay for pulling the batch into cache
                request.points.sum(), request.deltas.sum()
        for stair in ("tiered",) + WRITE_STAIRS:
            for kind, request_id, request, *rest in ops:
                if kind == "write":
                    if stair != "tiered":
                        self._write(stair, request_id, request, sample)
                elif stair in self.read_stairs:
                    self._read(stair, request_id, request, *rest)

    def _write(self, stair: str, request_id: str, request: wl.Request, sample: bool):
        kind = request.kind if sample else "unsampled"
        if stair == "served":
            reply = self._timed(request_id, stair, kind, self._served, request)
            failure = wl.check(request, reply)
            if failure:
                self.failures.append(f"served write: {failure}")
            return
        cube = self.cubes[stair]
        if request.kind == "drain":
            apply = lambda: cube.drain(None)  # noqa: E731
        else:
            apply = lambda: cube.update_many(request.points, request.deltas)  # noqa: E731
        if stair == "kernel":
            before = self.counter.cell_writes, self.counter.copy_cell_writes
        elif stair == "durable":
            before = len(self.fsync.samples)
        elif stair == "snapshot":
            before = self.snapshot.current_sequence()
        result = self._timed(request_id, stair, kind, apply)
        if stair == "inline":
            self._export(sample)
        if not sample:
            return
        if stair == "kernel":
            self._add("kernel_updates", request.updates)
            self._add("kernel_cell_writes", self.counter.cell_writes - before[0])
            self._add("kernel_copy_writes", self.counter.copy_cell_writes - before[1])
            if request.kind == "drain":
                self._add("drains", 1)
                self._add("drained", result[0])
            self.gd_depths.append(self.kernel.buffered_updates)
        elif stair == "durable":
            self._add("fsyncs", len(self.fsync.samples) - before)
        elif stair == "snapshot":
            self._add("writes", 1)
            self._add("epochs", self.snapshot.current_sequence() - before)

    def _export(self, sample: bool) -> None:
        """What the busiest worker does after a write: publish into shm."""
        start = time.perf_counter()
        descriptor = self.exporter.export()
        seconds = time.perf_counter() - start
        names = {descriptor["frontier"][0]}
        names.update(name for _, name, _ in descriptor["slices"])
        fresh = names - self.last_blocks
        for name in fresh:
            self.block_bytes[name] = os.stat(hs.SHM_DIR / name).st_size
        if sample:
            self.exports.append(
                (
                    seconds,
                    sum(self.block_bytes[name] for name in fresh),
                    len(descriptor["slices"]),
                    len(names & self.last_blocks),
                )
            )
        self.last_blocks = names
        self.exporter.release_below(descriptor["sequence"])

    def _read(self, stair: str, request_id: str, request: wl.Request, boxes, expect):
        """Answer one read on one stair and check the answer."""
        kind = request.kind
        request.expect = expect
        if stair == "served":
            reply = self._timed(request_id, stair, kind, self._served, request)
        else:
            cube = self.tiered if stair == "tiered" else self.cubes[stair]
            marks = len(self.prepare.samples), len(self.attach.samples)
            answer = self._timed(
                request_id, stair, kind, self._ask, cube, request, boxes
            )
            if stair in ("inline", "procs"):
                # new-epoch work done inside this read, metered where it ran
                prepared = self.prepare.samples[marks[0] :]
                attached = self.attach.samples[marks[1] :]
                self.times.setdefault((kind, f"{stair}.prepare"), []).append(sum(prepared))
                self.times.setdefault((kind, f"{stair}.attach"), []).append(sum(attached))
                self.times.setdefault(("call", f"{stair}.prepare"), []).extend(prepared)
                self.times.setdefault(("call", f"{stair}.attach"), []).extend(attached)
            self.attempted += 1
            # the answer as the wire would carry it, for the one checker
            reply = {"ok": True, "result": json.loads(json.dumps(answer, default=int))}
        failure = wl.check(request, reply)
        if failure:
            self.failures.append(f"{stair} read: {failure}")
        elif stair == "served" and kind == "query_approx":
            self.approx_widths += [
                (high - low) / max(1, exact)
                for (_, low, high), exact in zip(reply["result"], expect)
            ]

    def _ask(self, cube, request: wl.Request, boxes):
        if request.kind == "query":
            return cube.query(boxes[0])
        if request.kind == "query_many":
            return cube.query_many(boxes)
        if request.kind == "query_approx":
            return cube.query_many_approx(boxes)
        queries = [tuple(query) for query in request.topk]
        if cube is self.tiered:
            ranked = self.topk_engine.topk_many(queries)
            self.topk_stats += self.topk_engine.last_stats
            return ranked
        return cube.topk_many(queries, nonnegative=True)

    @staticmethod
    def _boxes(request: wl.Request):
        from repro.core.types import Box

        if request.lower is None:
            return None
        return [
            Box(tuple(lo), tuple(up))
            for lo, up in zip(request.lower.tolist(), request.upper.tolist())
        ]

    # -- the phases ------------------------------------------------------------------------

    def preload(self) -> None:
        frames = self.work.preload
        checkpoint_at = max(WRITE_BURST, len(frames) * 3 // 4 // WRITE_BURST * WRITE_BURST)
        for first in range(0, len(frames), WRITE_BURST):
            ops = [
                ("write", f"preload-{i}", frames[i])
                for i in range(first, min(first + WRITE_BURST, len(frames)))
            ]
            self.burst(ops, sample=not self.work.writes)
            for _, _, request in ops:
                self.work.acknowledge(request)
            if first + WRITE_BURST == checkpoint_at:
                # checkpoint + last-quarter tail: what tail_replay_s reopens
                start = time.perf_counter()
                manifest = self.durable.checkpoint()
                self.counts["checkpoint_s"] = time.perf_counter() - start
                self.counts["checkpoint_bytes"] = os.stat(
                    self.durable_dir / manifest.checkpoint_file
                ).st_size

    def demote(self) -> None:
        """tiered_history: demote every stair; the CLI has to be reopened."""
        from repro.ranking import TopKEngine

        start = time.perf_counter()
        for horizon in self.work.demote:
            self.tiered.demote_before(horizon)
        self.counts["demote_s"] = time.perf_counter() - start
        for horizon in self.work.demote:
            self.inline.demote_before(horizon)
            self.procs.demote_before(horizon)
        self.wire.close()
        self.harness.stop(self.child)
        self.child, address, banner = serving.serve_reopened(
            self.harness, self.served_dir, self.work.demote
        )
        self.wire = loadgen.Wire(address)
        self.demoted_through = banner["demoted_through"]
        self.topk_engine = TopKEngine(
            self.tiered, slice_shape=wl.SLICE_SHAPE, nonnegative=True
        )

    def static_reads(self, budget_s: float) -> None:
        """Cycle the read script over every stair until the budget is spent."""
        work = self.work
        work.expect_static(self.demoted_through)
        sample = [
            ("read", f"{request.kind}-{i}", request, self._boxes(request), request.expect)
            for i, request in enumerate(work.reads)
        ]
        # whole cycles per burst: one where a cycle takes ~0.2 s (tiered_history),
        # four where it takes ~20 ms, so a stair stays as warm as a closed loop
        # keeps the real server
        size = 9 if self.tiered_run else 36
        bursts = [sample[i : i + size] for i in range(0, len(sample) - size + 1, size)]
        self.burst(bursts[0])  # prepares and attaches the epochs on every stair
        for key in [k for k in self.times if k[0] in READ_KINDS]:
            del self.times[key]
        self.spans = [span for span in self.spans if span[0].startswith("preload")]
        self.approx_widths.clear()
        self.topk_stats.clear()
        self.reply_bytes = self.reply_boxes = 0
        deadline = time.perf_counter() + budget_s
        done = 0
        while done < 2 or time.perf_counter() < deadline:
            self.burst(bursts[done % len(bursts)])
            done += 1

    def live_sample(self, budget_s: float) -> None:
        """live_ingest: a write, then a read that meets the new epoch, repeated."""
        work = self.work
        reads = [(request, self._boxes(request)) for request in work.reads]
        probe = [boxes for _, boxes in reads[:8]]
        deadline = time.perf_counter() + budget_s
        minimum = wl.DRAIN_EVERY  # at least one drain in the sample
        appended = 0
        ops: list[tuple] = []
        for i, request in enumerate(work.writes):
            if request.kind == "drain":
                # buffer.gd_query_ms: the same cube before and after drain(None)
                self.burst(ops)
                self._probe(probe, "with")
                self.burst([("write", f"write-{i}", request)])
                self._probe(probe, "without")
                ops = []
                if appended >= minimum and time.perf_counter() > deadline:
                    break
                continue
            work.acknowledge(request)
            read, boxes = reads[i % len(reads)]
            expect = [int(v) for v in work.oracle.brute(read.lower, read.upper)]
            ops.append(("write", f"write-{i}", request))
            ops.append(("read", f"read-{i}", read, boxes, expect))
            appended += 1
            if len(ops) >= 2 * LIVE_BURST:
                self.burst(ops)
                ops = []
        self.burst(ops)

    def _probe(self, probe, label: str) -> None:
        for boxes in probe:
            start = time.perf_counter()
            self.kernel.query_many(boxes)
            self.times.setdefault(("gd", label), []).append(time.perf_counter() - start)

    # -- counts, taken on an untimed pass ----------------------------------------------

    def count(self) -> None:
        work, counts = self.work, self.counts
        partitioner = self.procs.partitioner
        sample = work.reads[:36]
        boxes_total = pairs = worker_routed = 0
        for request in sample:
            if request.kind == "topk":
                worker_routed += 1
                continue
            needs_worker = request.kind == "query_approx"
            for box in self._boxes(request):
                boxes_total += 1
                pairs += sum(
                    partitioner.local_box(box, extent) is not None
                    for extent in partitioner.extents
                )
                if self.demoted_through is not None and any(
                    0 <= prefix < self.demoted_through
                    for prefix in (box.upper[0], box.lower[0] - 1)
                ):
                    needs_worker = True
            worker_routed += needs_worker
        counts["shard_boxes_per_box"] = pairs / max(1, boxes_total)
        counts["worker_routed_share"] = worker_routed / len(sample)
        writes = [w for w in (work.writes or work.preload) if w.points is not None]
        shards = np.concatenate(
            [partitioner.shard_of_cells(w.points[:, 1:]) for w in writes]
        )
        counts["hot_shard_share"] = float(np.bincount(shards).max() / shards.size)
        counts["late_share"] = sum(
            int((w.points[:, 0] < np.maximum.accumulate(w.points[:, 0])).sum())
            for w in writes
        ) / sum(w.updates for w in writes)

        # pipe traffic of the read sample, by instrumenting the worker handles
        trips = pickled = 0
        originals = [(h, h.send, h.recv) for h in self.procs.router.handles]
        for handle, plain_send, plain_recv in originals:

            def send(op, payload=None, _send=plain_send):
                nonlocal trips, pickled
                trips += 1
                pickled += len(pickle.dumps((op, payload, None)))
                return _send(op, payload)

            def recv(_recv=plain_recv):
                nonlocal pickled
                result = _recv()
                pickled += len(pickle.dumps(("ok", result, None)))
                return result

            handle.send, handle.recv = send, recv
        reads_before = self.counter.cell_reads
        kernel_boxes = 0
        try:
            for request in sample:
                boxes = self._boxes(request)
                self._ask(self.procs, request, boxes)
                if not self.tiered_run:
                    self.kernel.query_many(boxes)
                    kernel_boxes += len(boxes)
        finally:
            for handle, plain_send, plain_recv in originals:
                handle.send, handle.recv = plain_send, plain_recv
        counts["cell_reads_per_box"] = (
            self.counter.cell_reads - reads_before
        ) / max(1, kernel_boxes)
        counts["round_trips_per_request"] = trips / len(sample)
        counts["pickled_bytes_per_request"] = pickled / len(sample)
        counts["incomplete_instances"] = (
            self.kernel.cube.incomplete_historic_instances()
        )

    def pings(self) -> None:
        ping = wl.Request("ping", wl.frame({"op": "ping"}))
        handle = self.procs.router.handles[0]
        for i in range(200):
            self._timed(f"ping-{i}", "served", "ping", self._served, ping)
            self._timed(f"ping-{i}", "procs", "ping", handle.request, "ping")

    def retention(self) -> None:
        tiered, counts = self.tiered, self.counts
        counts["retention_resident_bytes"] = tiered.resident_slice_bytes()
        counts["tile_disk_bytes"] = tiered.tiles.disk_bytes()
        spans = tiered.tiles.spans()
        # the program's own cache holds 2 decoded tiles (TileStore default):
        # replay the script's demoted prefixes through an LRU of that size
        cache: OrderedDict[int, None] = OrderedDict()
        lookups = cold = 0
        for request in self.work.reads:
            if request.kind != "query_many":
                continue
            prefixes = np.concatenate([request.upper[:, 0], request.lower[:, 0] - 1])
            for prefix in prefixes.tolist():
                tile = int(np.searchsorted(spans[:, 1], prefix))
                if prefix < 0 or tile >= len(spans):
                    continue  # before all history, or still live
                lookups += 1
                if tile in cache:
                    cache.move_to_end(tile)
                    continue
                cold += 1
                cache[tile] = None
                if len(cache) > 2:
                    cache.popitem(last=False)
        counts["tile_cold_share"] = cold / max(1, lookups)
        for first, _ in spans.tolist():
            tiered.tiles.drop_cache()
            start = time.perf_counter()
            tiered.tiles.slice_at(first)
            self.times.setdefault(("tile", "decode"), []).append(
                time.perf_counter() - start
            )

    # -- durability: replay, and what a crash really loses --------------------------------

    def replay(self) -> None:
        from repro.durability import DurableCube

        self.counts["wal_bytes"] = hs.disk_bytes(self.snapshot_dir / "wal")
        self.counts["wal_updates"] = self.work.acked_updates
        self.snapshot.close()
        self.snapshot_log.close()
        start = time.perf_counter()
        reopened = DurableCube.recover(self.snapshot_dir)
        self.counts["replay_s"] = time.perf_counter() - start
        reopened.close()
        self.durable.close()
        start = time.perf_counter()
        reopened = DurableCube.recover(self.durable_dir)
        self.counts["tail_replay_s"] = time.perf_counter() - start
        reopened.close()

    def crash(self) -> None:
        """SIGKILL the served stair: how many acknowledged writes come back?"""
        work = self.work
        self.wire.close()
        self.harness.kill(self.child)
        start = time.perf_counter()
        self.child, address, _ = serving.serve_reopened(self.harness, self.served_dir)
        self.wire = loadgen.Wire(address)
        probe = work.probe(3)
        reply = wl.decode(self.wire.call(probe.frame))
        self.counts["recover_s"] = time.perf_counter() - start
        self.attempted += 1
        if not reply.get("ok"):
            self.failures.append(f"reopened server: {reply.get('error')}")
            return
        lost, failure = work.settle_after_crash(reply["result"][:2])
        failure = failure or wl.check(work.expect_probe(probe), reply)
        if failure:
            self.failures.append(f"after SIGKILL: {failure}")
        self.counts["acked_writes_lost"] = lost

    # -- the per-layer metrics ----------------------------------------------------------------

    def metrics(self) -> tuple[dict, dict]:
        work, counts = self.work, self.counts

        def t(kind: str, stair: str) -> float:
            return _median_ms(self.times.get((kind, stair), ()))

        kernel_w, durable_w, snapshot_w, inline_w, procs_w, served_w = (
            t("update_many", stair) for stair in WRITE_STAIRS
        )
        export_ms = _median_ms([e[0] for e in self.exports])
        write_parts = {
            "kernel.update_ms": kernel_w,
            "durability.log_ms": durable_w - kernel_w,
            "snapshot.publish_ms": snapshot_w - durable_w,
            "router.update_ms": inline_w - snapshot_w,
            "shm.export_ms": export_ms,
            "pipe.update_ms": procs_w - inline_w - export_ms,
            "wire.update_ms": served_w - procs_w,
        }
        m = dict(write_parts)

        # reads: the script's own mix of request kinds weights every stair
        kinds = [k for k in READ_KINDS if (k, "served") in self.times]
        weight = {
            k: sum(r.kind == k for r in work.reads) / len(work.reads) for k in kinds
        }

        def mix(stair: str) -> float:
            return sum(weight[k] * t(k, stair) for k in kinds)

        inline_r = mix("inline") - mix("inline.prepare")
        prepare_r, attach_r = mix("procs.prepare"), mix("procs.attach")
        procs_r = mix("procs") - prepare_r - attach_r
        served_r = mix("served")
        read_parts = {}
        for name in ("kernel.query_ms", "buffer.gd_query_ms", "snapshot.query_ms",
                     "retention.exact_ms", "retention.approx_ms", "ranking.topk_ms"):  # fmt: skip
            m[name] = 0.0
        if self.tiered_run:
            for name, kind in (("retention.exact_ms", "query_many"),
                               ("retention.approx_ms", "query_approx"),
                               ("ranking.topk_ms", "topk")):  # fmt: skip
                m[name] = t(kind, "tiered")
                read_parts[f"{name} x {weight[kind]:.3f}"] = weight[kind] * m[name]
            below = mix("tiered")
        else:
            m["buffer.gd_query_ms"] = max(0.0, t("gd", "with") - t("gd", "without"))
            m["kernel.query_ms"] = mix("kernel") - m["buffer.gd_query_ms"]
            m["snapshot.query_ms"] = mix("snapshot") - mix("kernel")
            for name in ("kernel.query_ms", "buffer.gd_query_ms", "snapshot.query_ms"):
                read_parts[name] = m[name]
            below = mix("snapshot")
        m["router.query_ms"] = inline_r - below
        m["pipe.query_ms"] = procs_r - inline_r
        m["wire.query_ms"] = served_r - mix("procs")
        read_parts["router.query_ms"] = m["router.query_ms"]
        read_parts["snapshot.prepare_ms per read"] = prepare_r
        read_parts["shm.attach_ms per read"] = attach_r
        read_parts["pipe.query_ms"] = m["pipe.query_ms"]
        read_parts["wire.query_ms"] = m["wire.query_ms"]
        m["snapshot.prepare_ms"] = t("call", "procs.prepare")
        m["shm.attach_ms"] = t("call", "procs.attach")
        m["wire.ping_ms"] = t("ping", "served")
        m["pipe.ping_ms"] = t("ping", "procs")

        reads = work.reads
        m["wire.request_bytes_per_box"] = sum(len(r.frame) for r in reads) / sum(
            r.boxes for r in reads
        )
        m["wire.reply_bytes_per_box"] = self.reply_bytes / max(1, self.reply_boxes)
        writes = [w for w in (work.writes or work.preload) if w.updates]
        m["wire.request_bytes_per_update"] = sum(len(w.frame) for w in writes) / sum(
            w.updates for w in writes
        )
        m["router.shard_boxes_per_box"] = counts["shard_boxes_per_box"]
        m["router.worker_routed_share"] = counts["worker_routed_share"]
        m["router.hot_shard_share"] = counts["hot_shard_share"]
        m["pipe.round_trips_per_request"] = counts["round_trips_per_request"]
        m["pipe.pickled_bytes_per_request"] = counts["pickled_bytes_per_request"]

        m["shm.exported_bytes_per_write"] = _mean(e[1] for e in self.exports)
        m["shm.blocks_reused_share"] = sum(e[3] for e in self.exports) / max(
            1, sum(e[2] for e in self.exports)
        )
        m["shm.resident_mb"] = (
            sum(self.block_bytes[name] for name in self.last_blocks) / 2**20
        )
        m["snapshot.epochs_per_write"] = counts["epochs"] / max(1, counts["writes"])

        updates = counts["wal_updates"]
        m["durability.wal_bytes_per_update"] = counts["wal_bytes"] / updates
        m["durability.fsyncs_per_1k_updates"] = (
            1e3 * counts.get("fsyncs", 0) / counts["kernel_updates"]
        )
        m["durability.checkpoint_s"] = counts["checkpoint_s"]
        m["durability.checkpoint_bytes"] = counts["checkpoint_bytes"]
        m["durability.replay_updates_per_s"] = updates / counts["replay_s"]
        m["durability.tail_replay_s"] = counts["tail_replay_s"]
        m["durability.acked_writes_lost_on_kill"] = counts.get("acked_writes_lost", 0)

        m["buffer.drain_ms"] = t("drain", "kernel")
        m["buffer.drained_per_call"] = counts.get("drained", 0) / max(
            1, counts.get("drains", 0)
        )
        m["buffer.gd_depth_max"] = max(self.gd_depths)
        m["buffer.gd_depth_end"] = self.gd_depths[-1]
        m["buffer.late_share"] = counts["late_share"]

        m["kernel.cell_reads_per_box"] = counts["cell_reads_per_box"]
        m["kernel.cell_writes_per_update"] = (
            counts["kernel_cell_writes"] / counts["kernel_updates"]
        )
        m["kernel.copy_writes_per_update"] = (
            counts["kernel_copy_writes"] / counts["kernel_updates"]
        )
        m["kernel.incomplete_instances"] = counts["incomplete_instances"]

        m["retention.tile_decode_ms"] = t("tile", "decode")
        m["retention.tile_cold_share"] = counts.get("tile_cold_share", 0.0)
        m["retention.resident_mb"] = counts.get("retention_resident_bytes", 0) / 2**20
        m["retention.tile_disk_mb"] = counts.get("tile_disk_bytes", 0) / 2**20
        m["retention.demote_s"] = counts.get("demote_s", 0.0)
        m["retention.approx_rel_width"] = _mean(self.approx_widths)
        stats = self.topk_stats
        m["ranking.materialized_share"] = _mean(s.materialized / s.cells for s in stats)
        m["ranking.marginal_boxes_per_query"] = _mean(s.marginal_boxes for s in stats)
        m["ranking.dense_fallback_share"] = _mean(s.strategy == "dense" for s in stats)

        # the top stair as the traced client saw it: the figures the untraced
        # run records for its window (README, "Why the timings carry no bound")
        served_reads = [
            (end - start) * 1e3
            for request_id, stair, start, end, _ in self.spans
            if stair == "served" and request_id.split("-")[0] in READ_KINDS + ("read",)
        ]
        served_writes = self.times.get(("update_many", "served"), ())
        m["served.read_p50_ms"], m["served.read_p95_ms"] = (
            float(v) for v in np.percentile(served_reads, [50, 95])
        )
        m["served.read_boxes_per_s"] = self.reply_boxes / (sum(served_reads) / 1e3)
        m["served.write_p50_ms"] = _median_ms(served_writes)
        m["served.write_updates_per_s"] = sum(w.updates for w in writes) / (
            len(writes) * statistics.fmean(served_writes)
        )
        m["served.recover_s"] = counts["recover_s"]
        stairs = {
            "read": {
                "parts_ms": read_parts,
                "sum_ms": sum(read_parts.values()),
                "served_ms": served_r,
                # comparable with the untraced read_p50_ms (same statistic)
                "served_p50_ms": statistics.median(served_reads),
            },
            "write": {
                "parts_ms": write_parts,
                "sum_ms": sum(write_parts.values()),
                "served_ms": served_w,
                "served_p50_ms": _median_ms(served_writes),
            },
            "medians_ms": {
                f"{kind}/{stair}": _median_ms(samples)
                for (kind, stair), samples in sorted(self.times.items())
            },
            "samples": {
                f"{kind}/{stair}": len(samples)
                for (kind, stair), samples in sorted(self.times.items())
            },
        }
        return m, stairs


def trace(work: wl.Workload, seconds: float, harness: hs.Harness) -> dict:
    """The ``--trace 1`` run record: per-layer metrics, stairs, spans on disk."""
    import repro.sharding.worker as worker_module

    calibration = [hs.calibrate()]
    with contextlib.ExitStack() as stack:
        meters = {
            "fsync": stack.enter_context(metered(os, "fsync")),
            "prepare": stack.enter_context(metered(worker_module, "prepare_epoch")),
            "attach": stack.enter_context(
                metered(worker_module, "epoch_from_shared_memory")
            ),
        }
        stairs = Staircase(work, harness, meters)
        stack.callback(stairs.close)
        _quiet_resource_tracker(harness.run_dir / "resource-tracker.log")
        stairs.build()
        stairs.preload()
        if stairs.tiered_run:
            stairs.demote()
        if work.writes:
            stairs.live_sample(seconds * 0.75)
        else:
            stairs.static_reads(seconds * 0.75)
        calibration.append(hs.calibrate())
        stairs.count()
        stairs.pings()
        if stairs.tiered_run:
            stairs.retention()
        stairs.replay()
        stairs.crash()
        metrics, identity = stairs.metrics()
    hs.OUT.mkdir(exist_ok=True)
    (hs.OUT / f"trace-{work.name}.json").write_text(
        json.dumps(
            {
                "workload": work.name,
                "seed": work.seed,
                "stairs": identity,
                "spans": [
                    {"request": r, "layer": s, "start": a, "end": b, "parent": p}
                    for r, s, a, b, p in stairs.spans
                ],
            }
        )
    )
    return {
        "workload": work.name,
        "seed": work.seed,
        "seconds": seconds,
        "trace": 1,
        "fingerprint": hs.fingerprint(),
        "calibration_s": calibration,
        "stairs": identity,
        "attempted": stairs.attempted,
        "failed": len(stairs.failures),
        "failures": stairs.failures[:20],
        "metrics": metrics,
    }
