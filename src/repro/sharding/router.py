"""Scatter-gather routing across shard workers.

The router answers the questions about the update stream that need the
*global* view sharding would otherwise lose:

* the transaction-time discipline -- "is this update historic?" -- is
  decided here against the globally newest occurring time, never by a
  shard against its local directory (see :mod:`repro.sharding.worker`);
* the data-aging boundary after ``retire_before`` is the newest *global*
  occurring time below the threshold.  Individual shards retain locally
  deeper history (their own boundary can only be older), so the router
  enforces the oracle's :class:`AgedOutError` contract before any shard
  is consulted;
* queries decompose over the partition rectangles and the per-shard
  answers **sum**: the prefix-difference aggregate is additive over any
  disjoint partition of the cell domain.

The time axis itself belongs to the shards: every reply to a mutating
op (and the handshake) carries the shard's time state beside its fresh
epoch descriptor, and ``latest_time``, ``min_time`` and
``demote_boundary`` are read-only max / min / max over what the handles
last heard.  ``boundary_time`` is the one value no shard can report, so
it is the router's own: the scatter of a retire sets it from the
replies, and a checkpoint records it.  The router is also the only
reader: it attaches the workers' epochs
(:class:`~repro.sharding.worker.ReaderState`) and evaluates the batch.

A mutation is checked on every shard's terms, appended to the cube's
one log as one record (:attr:`ShardRouter.log`; an ``update_many`` is a
:class:`~repro.durability.wal.ShardedBatchRecord`), then scattered.  A
scatter that fails after the append leaves the router refusing writes;
recovery replays the record whole, through the same scatter.

The worker protocol is synchronous and single-outstanding per pipe:
``(op, payload, release_below)`` down, ``(status, result, published)``
up, where ``published`` is ``(descriptor, time state)`` after a mutating
op and ``None`` otherwise; ``release_below`` piggybacks the
garbage-collection horizon for older shared-memory epochs on the next
request, so the steady state holds exactly one live epoch per shard.

A dead worker never hangs the router: requests poll the pipe with the
process's liveness and a deadline, surfacing
:class:`~repro.core.errors.ShardUnavailableError` instead.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.concurrent.snapshot import check_mode
from repro.core.errors import (
    AgedOutError,
    AppendOrderError,
    DomainError,
    RecoveryError,
    ReproError,
    ShardUnavailableError,
)
from repro.core.types import Box, box_array, clip_cells
from repro.durability.wal import (
    CheckpointMarkerRecord,
    DemoteRecord,
    DrainRecord,
    OutOfOrderRecord,
    RetireRecord,
    ShardedBatchRecord,
    check_drain_limit,
)

from repro.sharding.partition import GridPartitioner
from repro.sharding.worker import ReaderState, ShardWorkerState, serve

_AGED_OUT_TEMPLATE = (
    "the prefix at time {time} needs detail that was retired by data "
    "aging; only queries at or after the retirement boundary (or open "
    "prefixes from the beginning of time) remain answerable"
)


#: ``corners[:, ::-1, 0] - _PREFIX_SHIFT``: a box's two prefix times
_PREFIX_SHIFT = np.array([0, 1])


def _extreme(pick, values) -> int | None:
    """``pick`` (``min`` / ``max``) over the values that are not ``None``."""
    return pick((v for v in values if v is not None), default=None)


class _Handle:
    """What the router does with any shard: send an op, take the reply."""

    #: the shard's newest published epoch (``None`` before the handshake)
    descriptor = None
    #: ``(first time, last time, demoted_through)`` as the shard last
    #: reported it beside that epoch
    times = (None, None, None)

    def request(self, op: str, payload=None):
        self.send(op, payload)
        return self.recv()

    def _deliver(self, reply):
        status, result, published = reply
        if published is not None:
            self.descriptor, self.times = published
        if status == "error":
            raise result
        return result


class InlineHandle(_Handle):
    """A shard worker living in this process (no pipe, no shm)."""

    def __init__(self, shard_id: int, config: dict) -> None:
        self.shard_id = shard_id
        self.state = ShardWorkerState(config)
        self.descriptor, self.times = self.state.published()

    def is_alive(self) -> bool:
        return True

    def send(self, op: str, payload=None) -> None:
        self._pending = serve(self.state, op, payload)

    def recv(self):
        return self._deliver(self._pending)

    def close(self) -> None:
        self.state.close()


class WorkerHandle(_Handle):
    """A shard worker process behind a duplex pipe."""

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
        if not self.process.is_alive():  # its sentinel pipe closes now, not at gc
            self.process.close()


class ShardRouter:
    """Decompose the cube API across shard workers and sum the answers."""

    def __init__(
        self,
        partitioner: GridPartitioner,
        handles: Sequence,
        buffered: bool = True,
        tiered: bool = False,
        log=None,
    ) -> None:
        self.partitioner = partitioner
        self.handles = list(handles)
        self.buffered, self.tiered = buffered, tiered
        #: the cube's write-ahead log (``None``: not durable): one record
        #: per mutation, appended before any shard sees it
        self.log = log
        #: the error of a mutation that failed after it was logged; set,
        #: the router takes no more writes
        self.failed: BaseException | None = None
        #: the one read path over epochs: this process attaches and answers
        self.reader_state = ReaderState(partitioner)
        #: global data-aging boundary (newest global time < threshold)
        self.boundary_time: int | None = None
        #: TT capacity update times are validated against (``None``:
        #: unbounded); the cube that knows it sets it
        self.num_times: int | None = None
        self._origins = np.array(
            [extent.origin for extent in partitioner.extents], dtype=np.int64
        )

    # -- the time axis, as the shards last reported it ---------------------------

    @property
    def min_time(self) -> int | None:
        """Oldest occurring time across all shards (``None`` = empty)."""
        return _extreme(min, (handle.times[0] for handle in self.handles))

    @property
    def latest_time(self) -> int | None:
        """Newest occurring time across all shards."""
        return _extreme(max, (handle.times[1] for handle in self.handles))

    @property
    def demote_boundary(self) -> int | None:
        """Global demotion watermark: prefixes below it are *answerable*
        (from shard-local tiles/rollups), unlike plainly retired ones."""
        return _extreme(max, (handle.times[2] for handle in self.handles))

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
        bounds = np.asarray(shape, dtype=np.int64)
        outside = ((cells < 0) | (cells >= bounds)).any(axis=1)
        if bool(outside.any()):
            bad = int(np.argmax(outside))
            raise DomainError(
                f"point {tuple(int(c) for c in points[bad])} falls outside "
                f"the cell domain {tuple(shape)}"
            )
        times = points[:, 0]
        if self.num_times is not None and (
            int(times.min()) < 0 or int(times.max()) >= self.num_times
        ):
            raise DomainError(
                f"batch contains times outside [0, {self.num_times - 1}]"
            )

    def _writable(self, handles: Sequence) -> None:
        """Refuse a write the router cannot both log and scatter whole."""
        if self.failed is not None:
            raise ShardUnavailableError(
                f"a write failed after it was logged ({self.failed!r}); this "
                "cube takes no more writes: recover it from its directory"
            )
        for handle in handles:
            if not handle.is_alive():
                raise ShardUnavailableError(f"shard {handle.shard_id} worker died")

    def _commit(self, record, handles: Sequence):
        """Log ``record``, then apply it: the one way a write happens."""
        self._writable(handles)
        if self.log is not None:
            self.log.append(record)
        try:
            return self._APPLY[type(record)](self, record)
        except BaseException as exc:
            self.failed = exc
            raise

    def replay(self, record) -> bool:
        """Apply one logged record as :meth:`_commit` did; ``False`` when a
        shard refuses it again (the live call raised too)."""
        shards = getattr(record, "shards", ())
        if type(record) not in self._APPLY or max(shards, default=0) >= len(self.handles):
            raise RecoveryError(f"cannot replay {type(record).__name__} into this cube")
        try:
            self._APPLY[type(record)](self, record)
        except ShardUnavailableError:
            raise
        except ReproError:
            return False
        return True

    # -- writes ----------------------------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        self.update_many([point], [delta])

    def update_many(self, points, deltas, mode: str = "fast") -> None:
        """Route a batch to its shards, in fast mode: the one served."""
        if mode != "fast":
            raise DomainError(
                f"a sharded front writes in fast mode only, not {mode!r}"
            )
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
        floor = self.latest_time
        if floor is None:
            floor = np.iinfo(np.int64).min
        running = np.concatenate(
            ([floor], np.maximum(np.maximum.accumulate(times[:-1]), floor))
        )
        historic = times < running
        if bool(historic.any()) and not self.buffered:
            bad = int(np.argmax(historic))
            raise AppendOrderError(
                f"update at time {int(times[bad])} violates the append-only "
                "discipline; use a buffered sharded cube for out-of-order "
                "streams"
            )
        # one section per shard reached, in shard order: its in-order
        # rows, then its buffered ones, each run in stream order
        shard_ids = self.partitioner.shard_of_cells(points[:, 1:])
        order = np.lexsort((historic, shard_ids))
        runs = np.bincount(
            2 * shard_ids + historic, minlength=2 * len(self.handles)
        ).reshape(-1, 2)
        shards = np.flatnonzero(runs.any(axis=1))
        local = points[order]
        local[:, 1:] -= self._origins[shard_ids[order]]
        self._commit(
            ShardedBatchRecord(shards, runs[shards], local, deltas[order]),
            [self.handles[shard] for shard in shards.tolist()],
        )

    def _apply_batch(self, record) -> None:
        targets, payloads, at = [], [], 0
        for shard, (fast, late) in zip(record.shards.tolist(), record.runs.tolist()):
            rows = slice(at, at + fast + late)
            targets.append(self.handles[shard])
            payloads.append((record.points[rows], record.deltas[rows], late))
            at = rows.stop
        self._scatter(targets, "ingest", payloads)

    def apply_out_of_order(self, point: Sequence[int], delta: int) -> None:
        point = np.asarray([tuple(int(c) for c in point)], dtype=np.int64)
        self._validate_points(point)
        time = int(point[0, 0])
        latest = self.latest_time
        if latest is None:
            raise AppendOrderError(
                "cannot apply an out-of-order correction to an empty cube"
            )
        if time >= latest:
            raise AppendOrderError(
                f"time {time} is not historic (latest occurring time is "
                f"{latest}); use update for in-order points"
            )
        shard_id = int(self.partitioner.shard_of_cells(point[:, 1:])[0])
        # the shard's kernel refuses detail its demotion retired, too
        floor = _extreme(max, (self.boundary_time, self.handles[shard_id].times[2]))
        if floor is not None and time < floor:
            raise AgedOutError(
                f"the correction at time {time} targets detail that was "
                "retired by data aging"
            )
        self._commit(
            OutOfOrderRecord(tuple(point[0].tolist()), int(delta)),
            [self.handles[shard_id]],
        )

    def _apply_out_of_order(self, record) -> None:
        point = np.asarray(record.point, dtype=np.int64)
        shard_id = int(self.partitioner.shard_of_cells(point[None, 1:])[0])
        point[1:] -= self._origins[shard_id]
        self.handles[shard_id].request("oob", (tuple(point.tolist()), record.delta))

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Drain every shard's ``G_d`` buffer (``limit`` applies per shard)."""
        check_drain_limit(limit)
        if not self.buffered:
            return 0, 0
        return self._commit(DrainRecord(limit), self.handles)

    def _apply_drain(self, record) -> tuple[int, int]:
        replies = self._scatter_all("drain", record.limit)
        return sum(a for a, _ in replies), sum(k for _, k in replies)

    def retire_before(self, time: int) -> int:
        """Retire detail below ``time``; boundary is the *global* newest
        occurring time under the threshold.

        The per-shard retired counts are shard-granular (a time occurring
        in several shards is counted once per shard), so the return value
        can exceed the unsharded count; answers are unaffected.
        """
        return self._commit(RetireRecord(int(time)), self.handles)

    def _apply_retire(self, record) -> int:
        replies = self._scatter_all("retire", record.time)
        below = _extreme(max, (newest for _, newest in replies))
        # the newest time below ``time`` is a boundary only above an older one
        if below is not None and self.min_time < below:
            self.boundary_time = _extreme(max, (self.boundary_time, below))
        return sum(retired for retired, _ in replies)

    def demote_before(self, time: int) -> int:
        """Demote detail below ``time`` on every shard (tiered shards only).

        Every shard receives the *same* global horizon, so the tier
        ladders stay globally consistent: a shard's local boundary (its
        newest occurring time under the threshold) can only be older
        than the global one, and its tiles/rollups cover exactly its
        share of the demoted prefix range.  Demoted prefixes stay
        answerable -- :meth:`query_many` reroutes them to the workers --
        which is why this advances :attr:`demote_boundary` (each reply
        carries the shard's watermark *after* the demote and its implied
        drain), not the hard aged-out :attr:`boundary_time`.
        """
        if not self.tiered:
            raise DomainError("demote requires a tiered shard (tiers=...)")
        return self._commit(DemoteRecord(int(time)), self.handles)

    #: record type -> how the router applies it (live, then on replay)
    _APPLY = {
        ShardedBatchRecord: _apply_batch,
        OutOfOrderRecord: _apply_out_of_order,
        DrainRecord: _apply_drain,
        RetireRecord: _apply_retire,
        DemoteRecord: lambda self, record: sum(self._scatter_all("demote", record.time)),
        CheckpointMarkerRecord: lambda self, record: None,
    }

    # -- reads -----------------------------------------------------------------

    def _checked(self, boxes) -> tuple[np.ndarray, np.ndarray | None]:
        """A batch as one validated corner array, and the mask of its boxes
        a prefix of which floors into the demoted region (``None``: no box).

        Raises what the oracle raises for the first faulty box, before
        any shard is consulted: :func:`~repro.core.types.box_array`'s
        arity or inverted range, :func:`~repro.core.types.clip_cells`'
        empty box, or an :class:`AgedOutError` for a retired prefix.
        """
        shape = self.partitioner.slice_shape
        corners = box_array(boxes, 1 + len(shape))
        bad = len(corners)
        tiered = None
        first, boundary = self.min_time, self.boundary_time
        demoted = self.demote_boundary
        if first is not None and (demoted is not None or boundary is not None):
            # each box's + prefix (its upper time) and - prefix (before its
            # lower time), where they fall in the history the shards hold
            prefixes = corners[:, ::-1, 0] - _PREFIX_SHIFT
            held = prefixes >= first
            if demoted is not None:
                # demoted prefixes stay answerable (worker reroute); plainly
                # retired ones are genuinely gone
                mask = (held & (prefixes < demoted)).any(axis=1)
                tiered = mask if mask.any() else None
                held &= prefixes >= demoted
            if boundary is not None:
                gone = held & (prefixes < boundary)
                aged = gone.any(axis=1)
                bad = int(aged.argmax()) if aged.any() else bad
        # a box is checked for emptiness before its prefixes, as box by box
        clip_cells(corners[: bad + 1], shape)
        if bad < len(corners):
            prefix = int(prefixes[bad][gone[bad]][0])
            raise AgedOutError(_AGED_OUT_TEMPLATE.format(time=prefix))
        return corners, tiered

    def _descriptors(self) -> dict[int, object]:
        descriptors: dict[int, object] = {}
        for shard_id, handle in enumerate(self.handles):
            if not handle.is_alive():
                raise ShardUnavailableError(
                    f"shard {shard_id} worker died; its data is unreachable"
                )
            descriptors[shard_id] = handle.descriptor
        return descriptors

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """Batch range aggregates, bit-identical to the unsharded cube.

        ``boxes`` is an ``(n, 2, d)`` int64 corner array or a :class:`Box`
        sequence (:func:`~repro.core.types.box_array`).  ``mode`` is
        checked as :meth:`SnapshotCube.query_many` checks it and goes no
        further: every box runs the stacked batch read over epochs,
        except that boxes needing demoted prefixes go to the workers
        (tiles and rollup tiers live there, not in the shared-memory
        epochs).
        """
        check_mode(mode)
        corners, tiered = self._checked(boxes)
        if tiered is None:
            return self.reader_state.query_many(self._descriptors(), corners)
        results = np.zeros(len(corners), dtype=np.int64)
        if not tiered.all():
            results[~tiered] = self.reader_state.query_many(
                self._descriptors(), corners[~tiered]
            )
        rerouted = np.flatnonzero(tiered)
        for positions, reply in self._scatter_boxes("query", corners[tiered]):
            results[rerouted[positions]] += reply
        return results.tolist()

    def _scatter_boxes(self, op: str, corners: np.ndarray) -> list:
        """Send every shard its clip of ``corners``; ``(positions, reply)``
        per shard that any box reaches."""
        targets = []
        payloads = []
        slots = []
        for handle, extent in zip(self.handles, self.partitioner.extents):
            positions, local = self.partitioner.local_boxes(corners, extent)
            if len(positions):
                targets.append(handle)
                payloads.append(local)
                slots.append(positions)
        return list(zip(slots, self._scatter(targets, op, payloads)))

    def topk_many(
        self,
        queries: Sequence,
        mode: str = "fast",
        nonnegative: bool = False,
    ):
        """Global temporal top-k, merged from per-shard ranked lists.

        Every shard ranks its own (disjoint) share of the cell domain
        from two prefix slices, ``ps(t2) - ps(t1 - 1)``, and their
        inverse prefix (:func:`~repro.ranking.topk.topk_pinned`); the
        router shifts the winning cells by each shard extent's origin
        and merge-sorts.  Because the partition is disjoint and origin
        shifts preserve lexicographic cell order, a
        cell in the global top-k is necessarily in its own shard's top-k
        -- the union of the per-shard lists is a complete candidate set
        and no second round is needed.  Answers are exact for any sign
        of delta; ``nonnegative`` is accepted for the wire's sake and
        changes nothing.  ``mode`` is checked as :meth:`query_many`
        checks it.
        """
        check_mode(mode)
        queries = [(int(t1), int(t2), int(k)) for t1, t2, k in queries]
        if not queries:
            return []
        # a shard checks only its own retirement boundary, which is older
        # than the router's when another shard kept the boundary instance:
        # check every ranked window over the whole cell domain here
        ranked = [(t1, t2) for t1, t2, k in queries if t1 <= t2 and k > 0]
        if ranked:
            shape = self.partitioner.slice_shape
            windows = np.zeros((len(ranked), 2, 1 + len(shape)), dtype=np.int64)
            windows[:, :, 0] = ranked
            windows[:, 1, 1:] = np.subtract(shape, 1)
            self._checked(windows)
        replies = self._scatter_all("topk", queries)
        merged = []
        for qi, (_, _, k) in enumerate(queries):
            combined: list[tuple[tuple[int, ...], int]] = []
            for extent, results in zip(self.partitioner.extents, replies):
                combined.extend(
                    (tuple(c + o for c, o in zip(cell, extent.origin)), value)
                    for cell, value in results[qi]
                )
            combined.sort(key=lambda cv: (-cv[1], cv[0]))
            merged.append(combined[: max(0, k)])
        return merged

    def topk(self, t1: int, t2: int, k: int, mode: str = "fast",
             nonnegative: bool = False):
        return self.topk_many([(t1, t2, k)], mode=mode,
                              nonnegative=nonnegative)[0]

    def query_many_approx(self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"):
        """Batch approximate aggregates with guaranteed-sound bounds.

        Mirrors :meth:`query_many`'s worker path, but each tiered shard
        answers with an :class:`~repro.retention.estimate.Estimate`
        triple; disjoint-partition additivity sums the components, and
        summing sound per-shard intervals keeps the global interval
        sound.  ``mode`` is checked as :meth:`query_many` checks it.
        """
        from repro.retention.estimate import Estimate

        check_mode(mode)
        corners, _ = self._checked(boxes)
        estimates = np.zeros(len(corners))
        bounds = np.zeros((len(corners), 2), dtype=np.int64)
        for positions, reply in self._scatter_boxes("approx", corners):
            estimates[positions] += [e for e, _, _ in reply]
            bounds[positions] += [(lo, hi) for _, lo, hi in reply]
        # a float sum can round out of the exact integer interval (an exact
        # answer near 2^62 summed from two shards): clamp it back in
        estimates = np.clip(estimates, bounds[:, 0], bounds[:, 1])
        return list(map(Estimate, estimates.tolist(), *bounds.T.tolist()))

    def query_approx(self, box: Box):
        return self.query_many_approx([box])[0]

    def query(self, box: Box) -> int:
        return self.query_many([box])[0]

    def total(self) -> int:
        return sum(self._scatter_all("total", None))

    def ping(self) -> str:
        """Liveness of the front itself; no shard is asked."""
        return "pong"

    # -- shutdown --------------------------------------------------------------

    def close(self) -> None:
        for handle in self.handles:
            handle.close()
        self.reader_state.close()
        if self.log is not None:
            self.log.close()
