"""Scatter-gather routing across shard workers.

The router owns the *global* view of the update stream that sharding
would otherwise lose:

* the transaction-time discipline -- "is this update historic?" -- is
  decided here against the globally newest occurring time, never by a
  shard against its local directory (see :mod:`repro.sharding.buffered`);
* the data-aging boundary after ``retire_before`` is the newest *global*
  occurring time below the threshold.  Individual shards retain locally
  deeper history (their own boundary can only be older), so the router
  enforces the oracle's :class:`AgedOutError` contract before any shard
  is consulted;
* queries decompose over the partition rectangles and the per-shard
  answers **sum**: the prefix-difference aggregate is additive over any
  disjoint partition of the cell domain.

The worker protocol is synchronous and single-outstanding per pipe:
``(op, payload, release_below)`` down, ``(status, result, descriptor)``
up.  Every reply to a mutating op carries the shard's freshly published
epoch descriptor; ``release_below`` piggybacks the garbage-collection
horizon for older shared-memory epochs on the next request, so the
steady state holds exactly one live epoch per shard.  Reader processes
speak the same frames with both slots ``None``.

A dead worker never hangs the router: requests poll the pipe with the
process's liveness and a deadline, surfacing
:class:`~repro.core.errors.ShardUnavailableError` instead.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import (
    AgedOutError,
    AppendOrderError,
    DomainError,
    ShardUnavailableError,
)
from repro.core.types import Box
from repro.durability.wal import check_drain_limit

from repro.sharding.partition import GridPartitioner
from repro.sharding.worker import ReaderState, ShardWorkerState, serve

_AGED_OUT_TEMPLATE = (
    "the prefix at time {time} needs detail that was retired by data "
    "aging; only queries at or after the retirement boundary (or open "
    "prefixes from the beginning of time) remain answerable"
)


class _Handle:
    """What the router does with any shard: send an op, take the reply."""

    #: the shard's newest published epoch (``None`` on a reader)
    descriptor = None

    def request(self, op: str, payload=None):
        self.send(op, payload)
        return self.recv()

    def _deliver(self, reply):
        status, result, descriptor = reply
        if descriptor is not None:
            self.descriptor = descriptor
        if status == "error":
            raise result
        return result


class InlineHandle(_Handle):
    """A shard worker living in this process (no pipe, no shm)."""

    def __init__(self, shard_id: int, config: dict) -> None:
        self.shard_id = shard_id
        self.state = ShardWorkerState(config)
        self.descriptor = self.state.publish()

    def is_alive(self) -> bool:
        return True

    def send(self, op: str, payload=None) -> None:
        self._pending = serve(self.state, op, payload)

    def recv(self):
        return self._deliver(self._pending)

    def close(self) -> None:
        self.state.close()


class WorkerHandle(_Handle):
    """A shard worker or reader process behind a duplex pipe."""

    def __init__(self, shard_id, process, conn, timeout: float = 60.0) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.timeout = timeout

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def _dead(self, why: str) -> ShardUnavailableError:
        return ShardUnavailableError(f"{self.process.name} is unavailable ({why})")

    def _frame(self, op: str, payload=None) -> tuple:
        # epochs older than the one we hold are released on the next request
        held = self.descriptor
        return op, payload, None if held is None else held["sequence"]

    def send(self, op: str, payload=None) -> None:
        if not self.is_alive():
            raise self._dead("process died")
        try:
            self.conn.send(self._frame(op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(f"pipe broken: {exc}") from exc

    def recv(self):
        import time

        deadline = time.monotonic() + self.timeout
        while not self.conn.poll(0.05):
            if not self.is_alive() and not self.conn.poll(0):
                raise self._dead("process died mid-request")
            if time.monotonic() > deadline:
                raise self._dead(f"no reply within {self.timeout}s")
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._dead(f"pipe closed: {exc}") from exc
        return self._deliver(reply)

    def close(self, timeout: float = 5.0) -> None:
        try:
            if self.is_alive():
                self.conn.send(self._frame("close"))
                self.process.join(timeout)
        except (BrokenPipeError, OSError):
            pass
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        self.conn.close()


class ShardRouter:
    """Decompose the cube API across shard workers and sum the answers."""

    def __init__(
        self,
        partitioner: GridPartitioner,
        handles: Sequence,
        readers: Sequence[WorkerHandle] = (),
        reader_state: ReaderState | None = None,
        buffered: bool = True,
    ) -> None:
        self.partitioner = partitioner
        self.handles = list(handles)
        self.readers = list(readers)
        self.reader_state = reader_state
        self.buffered = buffered
        #: newest occurring time across all shards (None = empty)
        self.latest_time: int | None = None
        #: oldest occurring time across all shards
        self.min_time: int | None = None
        #: global data-aging boundary (newest global time < threshold)
        self.boundary_time: int | None = None
        #: global demotion watermark: prefixes below it are *answerable*
        #: (from shard-local tiles/rollups), unlike plainly retired ones
        self.demote_boundary: int | None = None
        #: per-query accounting of the most recent :meth:`topk_many`
        self.last_topk_stats: list[dict] = []

    # -- state bootstrap (recovery) --------------------------------------------

    def probe_state(self) -> None:
        """Rebuild the global time state from the shards (after recovery)."""
        states = self._scatter_all("probe_state", None)
        lasts = [s["max_time"] for s in states if s["max_time"] is not None]
        firsts = [s["min_time"] for s in states if s["min_time"] is not None]
        bounds = [
            s["boundary_time"] for s in states if s["boundary_time"] is not None
        ]
        self.latest_time = max(lasts) if lasts else None
        self.min_time = min(firsts) if firsts else None
        self.boundary_time = max(bounds) if bounds else None
        demoted = [
            s.get("demoted_through")
            for s in states
            if s.get("demoted_through") is not None
        ]
        self.demote_boundary = max(demoted) if demoted else None

    # -- helpers ---------------------------------------------------------------

    def _scatter(self, targets: Sequence, op: str, payloads) -> list:
        """Send to every target, then gather every reply (in order).

        Every reply is drained even when one raises (the protocol is
        single-outstanding per pipe; leaving a reply queued would corrupt
        the next exchange) -- the first error is re-raised afterwards.
        """
        for handle, payload in zip(targets, payloads):
            handle.send(op, payload)
        results: list = []
        error: BaseException | None = None
        for handle in targets:
            try:
                results.append(handle.recv())
            except BaseException as exc:
                if error is None:
                    error = exc
                results.append(None)
        if error is not None:
            raise error
        return results

    def _scatter_all(self, op: str, payload) -> list:
        return self._scatter(self.handles, op, [payload] * len(self.handles))

    def _validate_points(self, points: np.ndarray) -> None:
        shape = self.partitioner.slice_shape
        if points.ndim != 2 or points.shape[1] != 1 + len(shape):
            raise DomainError(
                f"points have arity {points.shape[-1]}, cube has {1 + len(shape)}"
            )
        cells = points[:, 1:]
        if bool((cells < 0).any()) or bool(
            (cells >= np.asarray(shape, dtype=np.int64)).any()
        ):
            bad = int(
                np.argmax(
                    ((cells < 0) | (cells >= np.asarray(shape, dtype=np.int64))).any(
                        axis=1
                    )
                )
            )
            raise DomainError(
                f"point {tuple(int(c) for c in points[bad])} falls outside "
                f"the cell domain {tuple(shape)}"
            )

    def _localize(self, points: np.ndarray, shard_id: int) -> np.ndarray:
        origin = self.partitioner.extents[shard_id].origin
        local = points.copy()
        local[:, 1:] -= np.asarray(origin, dtype=np.int64)
        return local

    def _note_appends(self, times: np.ndarray) -> None:
        if times.size == 0:
            return
        newest = int(times.max())
        oldest = int(times.min())
        self.latest_time = (
            newest if self.latest_time is None else max(self.latest_time, newest)
        )
        self.min_time = (
            oldest if self.min_time is None else min(self.min_time, oldest)
        )

    def _note_first(self, first: int | None) -> None:
        if first is None:
            return
        self.min_time = (
            int(first) if self.min_time is None else min(self.min_time, int(first))
        )

    # -- writes ----------------------------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        point = np.asarray([tuple(int(c) for c in point)], dtype=np.int64)
        self._validate_points(point)
        time = int(point[0, 0])
        shard_id = int(self.partitioner.shard_of_cells(point[:, 1:])[0])
        local = self._localize(point, shard_id)
        historic = self.latest_time is not None and time < self.latest_time
        if not historic:
            self.handles[shard_id].request(
                "update", (tuple(int(c) for c in local[0]), int(delta))
            )
            self._note_appends(point[:, 0])
            return
        if not self.buffered:
            raise AppendOrderError(
                f"update at time {time} violates the append-only discipline "
                f"(latest occurring time is {self.latest_time}); use "
                "apply_out_of_order or a buffered sharded cube"
            )
        self.handles[shard_id].request(
            "ingest",
            (
                local,
                np.asarray([int(delta)], dtype=np.int64),
                np.asarray([True]),
                "metered",
            ),
        )

    def update_many(self, points, deltas, mode: str = "fast") -> None:
        if mode not in ("fast", "metered"):
            raise DomainError(f"unknown execution mode {mode!r}")
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        # validate the whole batch before any shard sees a point: a bad
        # batch must leave every shard unchanged, same as the oracle
        if deltas.shape != (points.shape[0],):
            raise DomainError("need exactly one delta per point")
        if points.shape[0] == 0:
            return
        self._validate_points(points)
        times = points[:, 0]
        # the oracle classifies each point against the running latest
        # occurring time *at that point in the stream* (buffered points
        # do not advance it); reproduce that with a prefix running max
        floor = (
            self.latest_time
            if self.latest_time is not None
            else np.iinfo(np.int64).min
        )
        if times.shape[0] > 1:
            running = np.concatenate(
                (
                    [floor],
                    np.maximum(np.maximum.accumulate(times[:-1]), floor),
                )
            )
        else:
            running = np.asarray([floor], dtype=np.int64)
        historic = times < running
        if bool(historic.any()) and not self.buffered:
            bad = int(np.argmax(historic))
            raise AppendOrderError(
                f"update at time {int(times[bad])} violates the append-only "
                "discipline; use a buffered sharded cube for out-of-order "
                "streams"
            )
        shard_ids = self.partitioner.shard_of_cells(points[:, 1:])
        targets = []
        payloads = []
        for shard_id in np.unique(shard_ids):
            mask = shard_ids == shard_id
            targets.append(self.handles[int(shard_id)])
            payloads.append(
                (
                    self._localize(points[mask], int(shard_id)),
                    deltas[mask],
                    historic[mask],
                    mode,
                )
            )
        self._scatter(targets, "ingest", payloads)
        self._note_appends(times[~historic])

    def apply_out_of_order(self, point: Sequence[int], delta: int) -> None:
        point = np.asarray([tuple(int(c) for c in point)], dtype=np.int64)
        self._validate_points(point)
        time = int(point[0, 0])
        if self.latest_time is None:
            raise AppendOrderError(
                "cannot apply an out-of-order correction to an empty cube"
            )
        if time >= self.latest_time:
            raise AppendOrderError(
                f"time {time} is not historic (latest occurring time is "
                f"{self.latest_time}); use update for in-order points"
            )
        if self.boundary_time is not None and time < self.boundary_time:
            raise AgedOutError(
                f"the correction at time {time} targets detail that was "
                "retired by data aging"
            )
        shard_id = int(self.partitioner.shard_of_cells(point[:, 1:])[0])
        local = self._localize(point, shard_id)
        first, _ = self.handles[shard_id].request(
            "oob", (tuple(int(c) for c in local[0]), int(delta))
        )
        self._note_first(first)

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Drain every shard's ``G_d`` buffer (``limit`` applies per shard)."""
        check_drain_limit(limit)
        applied = kept = 0
        if not self.buffered:
            return applied, kept
        for a, k, first, _ in self._scatter_all("drain", limit):
            applied += a
            kept += k
            self._note_first(first)
        return applied, kept

    def retire_before(self, time: int) -> int:
        """Retire detail below ``time``; boundary is the *global* newest
        occurring time under the threshold.

        The per-shard retired counts are shard-granular (a time occurring
        in several shards is counted once per shard), so the return value
        can exceed the unsharded count; answers are unaffected.
        """
        time = int(time)
        probes = self._scatter_all("probe_retire", time)
        candidates = [p for p in probes if p is not None]
        if candidates:
            boundary = max(candidates)
            self.boundary_time = (
                boundary
                if self.boundary_time is None
                else max(self.boundary_time, boundary)
            )
        return sum(self._scatter_all("retire", time))

    def demote_before(self, time: int) -> int:
        """Demote detail below ``time`` on every shard (tiered shards only).

        Every shard receives the *same* global horizon, so the tier
        ladders stay globally consistent: a shard's local boundary (its
        newest occurring time under the threshold) can only be older
        than the global one, and its tiles/rollups cover exactly its
        share of the demoted prefix range.  Demoted prefixes stay
        answerable -- :meth:`query_many` reroutes them to the workers --
        which is why this advances :attr:`demote_boundary`, not the
        hard aged-out :attr:`boundary_time`.
        """
        time = int(time)
        demoted = sum(self._scatter_all("demote", time))
        # the watermark must come from the shards *after* the demote: the
        # implied pre-demote drain can splice late instances below the
        # horizon, moving the kept boundary past any pre-demote probe
        # (recovery probes the same post-demote state, so both agree)
        states = self._scatter_all("probe_state", None)
        watermarks = [
            s.get("demoted_through")
            for s in states
            if s.get("demoted_through") is not None
        ]
        if watermarks:
            boundary = max(watermarks)
            self.demote_boundary = (
                boundary
                if self.demote_boundary is None
                else max(self.demote_boundary, boundary)
            )
        return demoted

    # -- reads -----------------------------------------------------------------

    def _check_boxes(self, boxes: list[Box]) -> None:
        shape = self.partitioner.slice_shape
        ndim = 1 + len(shape)
        for box in boxes:
            if box.ndim != ndim:
                raise DomainError(f"box arity {box.ndim} != cube arity {ndim}")
            for axis, size in enumerate(shape):
                if max(box.lower[1 + axis], 0) > min(box.upper[1 + axis], size - 1):
                    raise DomainError(
                        f"box {box} is empty after clipping to {tuple(shape)}"
                    )
            if self.boundary_time is None or self.min_time is None:
                continue
            for prefix in (box.upper[0], box.lower[0] - 1):
                if self.min_time <= prefix < self.boundary_time and (
                    self.demote_boundary is None
                    or prefix >= self.demote_boundary
                ):
                    # demoted prefixes stay answerable (worker reroute);
                    # plainly retired ones are genuinely gone
                    raise AgedOutError(_AGED_OUT_TEMPLATE.format(time=prefix))

    def _needs_tiered(self, box: Box) -> bool:
        """Does a prefix of ``box`` floor into the demoted region?"""
        if self.demote_boundary is None or self.min_time is None:
            return False
        return any(
            self.min_time <= prefix < self.demote_boundary
            for prefix in (box.upper[0], box.lower[0] - 1)
        )

    def _descriptors(self) -> dict[int, object]:
        descriptors: dict[int, object] = {}
        for shard_id, handle in enumerate(self.handles):
            if not handle.is_alive():
                raise ShardUnavailableError(
                    f"shard {shard_id} worker died; its data is unreachable"
                )
            descriptors[shard_id] = handle.descriptor
        return descriptors

    def query_many(self, boxes: Sequence[Box], mode: str = "fast") -> list[int]:
        """Batch range aggregates, bit-identical to the unsharded cube.

        ``mode`` is accepted for API compatibility; sharded serving
        runs the stacked batch read over epochs, except that boxes needing
        demoted prefixes go to the workers (tiles and rollup tiers live
        there, not in the shared-memory epochs).
        """
        boxes = list(boxes)
        if not boxes:
            return []
        self._check_boxes(boxes)
        tiered = [self._needs_tiered(box) for box in boxes]
        if any(tiered):
            results = [0] * len(boxes)
            live_ids = [i for i, t in enumerate(tiered) if not t]
            if live_ids:
                for i, value in zip(
                    live_ids, self._query_epochs([boxes[i] for i in live_ids])
                ):
                    results[i] = value
            tiered_ids = [i for i, t in enumerate(tiered) if t]
            for i, value in zip(
                tiered_ids,
                self._query_workers([boxes[i] for i in tiered_ids], mode),
            ):
                results[i] = value
            return results
        return self._query_epochs(boxes)

    def _scatter_boxes(self, op: str, boxes: list[Box], mode: str) -> list:
        """Send every shard its clip of ``boxes``; ``(positions, reply)``
        per shard that any box reaches."""
        targets = []
        payloads = []
        slots: list[list[int]] = []
        for handle, extent in zip(self.handles, self.partitioner.extents):
            ids, local = self.partitioner.local_boxes(boxes, extent)
            if local:
                targets.append(handle)
                payloads.append((local, mode))
                slots.append(ids)
        return list(zip(slots, self._scatter(targets, op, payloads)))

    def _query_workers(self, boxes: list[Box], mode: str) -> list[int]:
        """Answer boxes through the shard workers' tiered fronts (summed)."""
        results = [0] * len(boxes)
        for ids, reply in self._scatter_boxes("query", boxes, mode):
            for i, value in zip(ids, reply):
                results[i] += int(value)
        return results

    def topk_many(
        self,
        queries: Sequence,
        mode: str = "fast",
        nonnegative: bool = False,
    ):
        """Global temporal top-k, merged from per-shard candidate lists.

        Every worker ranks its own (disjoint) share of the cell domain
        with a shard-local :class:`~repro.ranking.topk.TopKEngine`; the
        router shifts the winning cells by each shard extent's origin
        and merge-sorts.  Because the partition is disjoint and origin
        shifts preserve lexicographic cell order, a cell in the global
        top-k is necessarily in its own shard's top-k -- the union of
        the per-shard lists is a complete candidate set and no second
        probing round is needed.
        """
        queries = [(int(t1), int(t2), int(k)) for t1, t2, k in queries]
        if not queries:
            self.last_topk_stats = []
            return []
        replies = self._scatter_all("topk", (queries, mode, nonnegative))
        merged = []
        stats: list[dict] = [
            {"strategy": "prune", "cells": 0, "marginal_boxes": 0,
             "materialized": 0}
            for _ in queries
        ]
        for qi, (_, _, k) in enumerate(queries):
            combined: list[tuple[tuple[int, ...], int]] = []
            for shard_id, (results, shard_stats) in enumerate(replies):
                origin = self.partitioner.extents[shard_id].origin
                combined.extend(
                    (
                        tuple(int(c) + int(o) for c, o in zip(cell, origin)),
                        int(value),
                    )
                    for cell, value in results[qi]
                )
                strategy, cells, marginal_boxes, materialized = shard_stats[qi]
                if strategy == "dense":
                    stats[qi]["strategy"] = "dense"
                stats[qi]["cells"] += cells
                stats[qi]["marginal_boxes"] += marginal_boxes
                stats[qi]["materialized"] += materialized
            combined.sort(key=lambda cv: (-cv[1], cv[0]))
            merged.append(combined[: max(0, k)])
        #: per-query accounting summed across shards (strategy is
        #: ``"dense"`` if any shard fell back)
        self.last_topk_stats = stats
        return merged

    def topk(self, t1: int, t2: int, k: int, mode: str = "fast",
             nonnegative: bool = False):
        return self.topk_many([(t1, t2, k)], mode=mode,
                              nonnegative=nonnegative)[0]

    def query_many_approx(self, boxes: Sequence[Box], mode: str = "fast"):
        """Batch approximate aggregates with guaranteed-sound bounds.

        Mirrors :meth:`query_many`'s worker path, but each tiered shard
        answers with an :class:`~repro.retention.estimate.Estimate`
        triple; disjoint-partition additivity sums the components, and
        summing sound per-shard intervals keeps the global interval
        sound.
        """
        from repro.retention.estimate import Estimate

        boxes = list(boxes)
        if not boxes:
            return []
        self._check_boxes(boxes)
        est = [0.0] * len(boxes)
        lo = [0] * len(boxes)
        hi = [0] * len(boxes)
        for ids, reply in self._scatter_boxes("approx", boxes, mode):
            for i, (e, x, y) in zip(ids, reply):
                est[i] += float(e)
                lo[i] += int(x)
                hi[i] += int(y)
        return [Estimate(e, x, y) for e, x, y in zip(est, lo, hi)]

    def query_approx(self, box: Box):
        return self.query_many_approx([box])[0]

    def _query_epochs(self, boxes: list[Box]) -> list[int]:
        descriptors = self._descriptors()
        live_readers = [r for r in self.readers if r.is_alive()]
        if not live_readers:
            if self.reader_state is None:
                raise ShardUnavailableError(
                    "every reader process died; restart the sharded cube"
                )
            return self.reader_state.query_many(descriptors, boxes)
        chunks = np.array_split(np.arange(len(boxes)), len(live_readers))
        targets = []
        payloads = []
        for reader, chunk in zip(live_readers, chunks):
            if chunk.size == 0:
                continue
            targets.append(reader)
            payloads.append((descriptors, [boxes[i] for i in chunk]))
        replies = self._scatter(targets, "query", payloads)
        results: list[int] = []
        for reply in replies:
            results.extend(reply)
        return results

    def query(self, box: Box) -> int:
        return self.query_many([box])[0]

    def total(self) -> int:
        return sum(self._scatter_all("total", None))

    def ping(self) -> str:
        """Liveness of the front itself; no shard is asked."""
        return "pong"

    # -- durability ------------------------------------------------------------

    def checkpoint(self) -> list:
        """Checkpoint every durable shard; returns the manifests."""
        return self._scatter_all("checkpoint", None)

    def log_info(self) -> list[dict]:
        return self._scatter_all("log_info", None)

    # -- shutdown --------------------------------------------------------------

    def close(self) -> None:
        for reader in self.readers:
            reader.close()
        for handle in self.handles:
            handle.close()
        if self.reader_state is not None:
            self.reader_state.close()
