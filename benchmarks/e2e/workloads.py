"""Seeded inputs, the NumPy oracle and failure accounting.

Everything the server sees is generated here from ``--seed``; the server
receives only pre-encoded frames.  The oracle is a dense NumPy array of
every delta ever acknowledged, answered through a 4-d prefix sum (static
cubes) or brute slicing (concurrent reads, where the state moves between
requests), so a wrong number from any layer between the socket and the
store is a counted failure, never a timing.

Tenant skew (the session-replay ingest shape of SNIPPETS 2): 60% of all
updates fall in the 1/16 of the cell domain ``[0,8)^3`` that lies wholly
in shard 0, 20% elsewhere in shard 0, 20% in shard 1 -- as exact counts
per slice, so record sizes, WAL bytes and routing shares repeat exactly
across seeds.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

SLICE_SHAPE = (32, 32, 8)
SHARDS = 2
HOT = 8  # the heavy tenant owns cells [0, HOT)^3
_SPLIT = SLICE_SHAPE[0] // SHARDS  # shard 0 owns x < _SPLIT, shard 1 the rest
#: an upper time bound beyond every slice: "up to the newest instance"
OPEN_TIME = 1 << 30
#: two-rung ladder for ``tiered_history`` (granularities nest, see TierPolicy)
TIERS = [
    {"name": "hour", "granularity": 4, "horizon": 32},
    {"name": "day", "granularity": 16, "horizon": None},
]
WORKLOADS = ("steady_read", "live_ingest", "tiered_history")
FRAME_SLICES = 2  # whole slices per preload ``update_many`` frame
POINT_READS = 8  # steady_read: one-box ``query`` requests per cycle ...
BATCH_BOXES = 64  # ... followed by one ``query_many`` of this many boxes
APPENDS_PER_S = 7  # live_ingest: a fixed script of this x --seconds appends
APPEND_UPDATES = 64  # updates per live_ingest append
LATE_UPDATES = 6  # of which arrive out of order (10%) and go to ``G_d``
DRAIN_EVERY = 32  # live_ingest: one ``drain`` per this many appends
DEMOTE_STEPS = 8  # tiered_history: tiles per shard (the TileStore caches 2)
MIXED_BOXES = 8  # live_ingest / tiered_history: boxes per request
TOPK = 10
#: ``DurableCube``'s default: under ``fsync="batch"`` "at most ``group_commit``
#: trailing operations are lost on a crash, never corrupted"
GROUP_COMMIT = 256
_HEADER = struct.Struct(">I")
_DOMAIN = np.asarray(SLICE_SHAPE, dtype=np.int64)


@dataclass(frozen=True)
class Scale:
    """The sizes that differ between a full run and the smoke test."""

    slices: int = 128  # preloaded occurring times
    per_slice: int = 320  # updates per preloaded slice (multiple of 5)
    setups: int = 3  # full set-ups per run (``setup_s`` is their median)
    recovers: int = 3  # reopenings per run (``recover_s`` is their median)
    script: int = 252  # distinct read requests cycled through a window


FULL = Scale()
SMOKE = Scale(slices=32, per_slice=100, setups=1, recovers=1, script=36)


def frame(message: dict) -> bytes:
    """One length-prefixed JSON request, as ``ShardServer`` reads it."""
    data = json.dumps(message).encode("utf-8")
    return _HEADER.pack(len(data)) + data


@dataclass
class Request:
    """One pre-encoded request and what a correct reply must contain."""

    kind: str
    frame: bytes
    boxes: int = 0  # range aggregates a correct reply answers
    updates: int = 0  # updates a correct reply acknowledges
    expect: object = None  # oracle answer (static cubes)
    lower: np.ndarray | None = None  # (boxes, 4) inclusive corners
    upper: np.ndarray | None = None
    live: np.ndarray | None = None  # query_approx: boxes with no demoted prefix
    points: np.ndarray | None = None  # update_many payload, for the oracle
    deltas: np.ndarray | None = None
    topk: list | None = None  # topk: the ``[[t1, t2, k]]`` that was asked


# -- the oracle ------------------------------------------------------------------


class Oracle:
    """Dense array of every acknowledged delta, ``(time, x, y, z)``."""

    def __init__(self, num_times: int) -> None:
        self.dense = np.zeros((num_times, *SLICE_SHAPE), dtype=np.int64)
        self._prefix: np.ndarray | None = None

    def apply(self, points: np.ndarray, deltas: np.ndarray) -> None:
        np.add.at(self.dense, tuple(points.T), deltas)
        self._prefix = None

    def total(self) -> int:
        return int(self.dense.sum())

    def answers(self, lower: np.ndarray, upper: np.ndarray) -> list[int]:
        """Range sums by inclusion-exclusion over the 4-d prefix sum."""
        if self._prefix is None:
            prefix = self.dense
            for axis in range(prefix.ndim):
                prefix = np.cumsum(prefix, axis=axis)
            self._prefix = np.pad(prefix, [(1, 0)] * prefix.ndim)
        limit = np.asarray(self.dense.shape, dtype=np.int64)
        high = np.minimum(upper, limit - 1) + 1  # padded index of the corner
        low = np.clip(lower, 0, limit)  # padded index of "everything below"
        total = np.zeros(lower.shape[0], dtype=np.int64)
        for mask in range(1 << 4):
            index = tuple(
                low[:, axis] if (mask >> axis) & 1 else high[:, axis]
                for axis in range(4)
            )
            sign = -1 if bin(mask).count("1") & 1 else 1
            total += sign * self._prefix[index]
        return [int(v) for v in total]

    def brute(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The same sums straight off the raw array (state may be moving)."""
        out = np.empty(lower.shape[0], dtype=np.int64)
        for i, (lo, up) in enumerate(zip(lower, upper)):
            out[i] = self.dense[
                max(lo[0], 0) : up[0] + 1,
                lo[1] : up[1] + 1,
                lo[2] : up[2] + 1,
                lo[3] : up[3] + 1,
            ].sum()
        return out


# -- generated inputs ------------------------------------------------------------


def _slice_updates(rng, time: int, count: int):
    """``count`` updates at one occurring time under the tenant skew."""
    hot, cold = count * 3 // 5, count // 5
    other = count - hot - cold
    cells = np.concatenate(
        [
            rng.integers(0, HOT, (hot, 3)),
            np.column_stack(  # shard 0, outside the tenant's rows
                [
                    rng.integers(0, _SPLIT, cold),
                    rng.integers(HOT, 32, cold),
                    rng.integers(0, 8, cold),
                ]
            ),
            np.column_stack(  # shard 1 (x >= 16)
                [
                    rng.integers(_SPLIT, 32, other),
                    rng.integers(0, 32, other),
                    rng.integers(0, 8, other),
                ]
            ),
        ]
    )
    cells = cells[rng.permutation(count)]
    points = np.column_stack([np.full(count, time), cells]).astype(np.int64)
    return points, rng.integers(1, 10, count).astype(np.int64)


def _update_request(points: np.ndarray, deltas: np.ndarray) -> Request:
    return Request(
        "update_many",
        frame(
            {
                "op": "update_many",
                "points": points.tolist(),
                "deltas": deltas.tolist(),
            }
        ),
        updates=int(points.shape[0]),
        points=points,
        deltas=deltas,
    )


def _boxes(rng, count: int, t_low: int, t_high: int, open_end: bool = False):
    """``count`` boxes with times in ``[t_low, t_high]``; half on the tenant."""
    times = np.sort(rng.integers(t_low, t_high + 1, (count, 2)), axis=1)
    lower = np.empty((count, 4), dtype=np.int64)
    upper = np.empty((count, 4), dtype=np.int64)
    lower[:, 0] = times[:, 0]
    upper[:, 0] = OPEN_TIME if open_end else times[:, 1]
    tenant = rng.random(count) < 0.5
    for axis, size in enumerate(SLICE_SHAPE):
        span = np.where(tenant, HOT, size)
        a = rng.integers(0, span)
        b = rng.integers(0, span)
        lower[:, 1 + axis] = np.minimum(a, b)
        upper[:, 1 + axis] = np.maximum(a, b)
    return lower, upper


def _wire_boxes(lower: np.ndarray, upper: np.ndarray) -> list[dict]:
    return [
        {"lower": lo, "upper": up}
        for lo, up in zip(lower.tolist(), upper.tolist())
    ]


def _box_request(op: str, lower, upper, **fields) -> Request:
    if op == "query":
        message = {"op": op, "box": _wire_boxes(lower, upper)[0]}
    else:
        message = {"op": op, "boxes": _wire_boxes(lower, upper)}
    return Request(
        op, frame(message), boxes=int(lower.shape[0]), lower=lower, upper=upper,
        **fields,
    )


@dataclass
class Workload:
    """The generated inputs of one (workload, seed, scale, seconds) run."""

    name: str
    seed: int
    scale: Scale
    preload: list[Request] = field(default_factory=list)
    reads: list[Request] = field(default_factory=list)  # cycled in the window
    writes: list[Request] = field(default_factory=list)  # live_ingest, once
    demote: list[int] = field(default_factory=list)  # tiered_history horizons
    tiers: list[dict] | None = None
    oracle: Oracle | None = None
    acked: list[Request] = field(default_factory=list)  # in acknowledgement order

    def rng(self, salt: int):
        return np.random.default_rng([self.seed, salt])

    @property
    def acked_updates(self) -> int:
        return sum(request.updates for request in self.acked)

    # -- oracle bookkeeping ------------------------------------------------------

    def acknowledge(self, request: Request) -> None:
        """Fold an acknowledged write into the oracle."""
        if request.points is not None:
            self.oracle.apply(request.points, request.deltas)
            self.acked.append(request)

    def expect_static(self, demoted_through: int | None = None) -> None:
        """Fill the read script's expected answers (the cube no longer moves)."""
        from repro.ranking import brute_topk

        for request in self.reads:
            if request.kind == "topk":
                ((t1, t2, k),) = request.topk
                request.expect = [
                    [
                        [list(cell), value]
                        for cell, value in brute_topk(self.oracle.dense, t1, t2, k)
                    ]
                ]
                continue
            answers = self.oracle.answers(request.lower, request.upper)
            request.expect = answers[0] if request.kind == "query" else answers
            if request.kind == "query_approx":
                floor = -1 if demoted_through is None else demoted_through
                # a box none of whose two prefixes is demoted must be exact
                request.live = (request.lower[:, 0] - 1 >= floor) | (
                    request.lower[:, 0] <= 0
                )
                request.live &= request.upper[:, 0] >= floor

    def probe(self, salt: int) -> Request:
        """The "first verified answer": each shard's whole domain plus random boxes.

        Boxes 0 and 1 cover shard 0 (``x < 16``) and shard 1 over all of
        time; :meth:`settle_after_crash` reads what each shard recovered
        from them.  ``expect`` is filled by :meth:`expect_probe`.
        """
        rng = self.rng(salt)
        newest = self.oracle.dense.shape[0] - 1
        lower, upper = _boxes(rng, 8, 0, newest)
        upper[:4, 0] = OPEN_TIME  # up to the newest acknowledged instance
        lower[:2] = 0
        upper[:2, 1:] = _DOMAIN - 1
        upper[0, 1] = _SPLIT - 1
        lower[1, 1] = _SPLIT
        return _box_request("query_many", lower, upper)

    def expect_probe(self, probe: Request) -> Request:
        probe.expect = self.oracle.answers(probe.lower, probe.upper)
        return probe

    def settle_after_crash(self, shard_totals) -> tuple[int, str | None]:
        """Roll the oracle back to what a SIGKILL left; (writes lost, failure).

        The server runs its default ``fsync="batch"``, under which
        ``DurableCube`` promises that "at most ``group_commit`` trailing
        operations are lost on a crash, never corrupted".  So a recovered
        shard must hold a *prefix* of the records it acknowledged -- one
        record per write for its in-order points, one more for its late
        ones -- and ``shard_totals`` (the first two probe answers) say
        which: deltas are positive, so the running total identifies the
        prefix.  Anything else -- a total no prefix explains, more than
        ``GROUP_COMMIT`` writes gone -- is a failure.  The acknowledged
        writes that did not survive are taken out of the oracle again and
        counted; README, finding 2.
        """
        lost: set[int] = set()
        for shard, total in enumerate(shard_totals):
            records = []  # (write, mask) in the order the shard logged them
            for i, request in enumerate(self.acked):
                mine = (request.points[:, 1] >= _SPLIT) == bool(shard)
                late = request.points[:, 0] < request.points[0, 0]
                for mask in (mine & ~late, mine & late):
                    if mask.any():
                        records.append((i, mask))
            running = np.cumsum(
                [0] + [int(self.acked[i].deltas[mask].sum()) for i, mask in records]
            )
            kept = np.flatnonzero(running == total)
            if kept.size == 0:
                return len(lost), (
                    f"shard {shard} recovered a total of {total}, which no prefix "
                    "of its acknowledged records adds up to"
                )
            for i, mask in records[int(kept[-1]) :]:
                request = self.acked[i]
                self.oracle.apply(request.points[mask], -request.deltas[mask])
                lost.add(i)
        if len(lost) > GROUP_COMMIT:
            return len(lost), (
                f"{len(lost)} acknowledged writes lost, more than group_commit"
            )
        return len(lost), None


def build(name: str, seed: int, seconds: float, scale: Scale = FULL) -> Workload:
    """Generate every input of one run from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    work = Workload(name, seed, scale)
    rng = work.rng(0)
    appends = 0
    if name == "live_ingest":
        appends = max(DRAIN_EVERY + 1, int(APPENDS_PER_S * seconds))
    work.oracle = Oracle(scale.slices + appends)
    for first in range(0, scale.slices, FRAME_SLICES):
        parts = [
            _slice_updates(rng, time, scale.per_slice)
            for time in range(first, first + FRAME_SLICES)
        ]
        work.preload.append(
            _update_request(
                np.concatenate([p for p, _ in parts]),
                np.concatenate([d for _, d in parts]),
            )
        )
    rng = work.rng(1)
    if name == "steady_read":
        _steady_read(work, rng)
    elif name == "live_ingest":
        _live_ingest(work, rng, appends)
    else:
        _tiered_history(work, rng)
    return work


def _steady_read(work: Workload, rng) -> None:
    """Cycles of ``POINT_READS`` one-box reads and one ``BATCH_BOXES``-box read.

    Eight ninths of the requests are point reads, so ``read_p50_ms`` is a
    point read: per-request fixed cost.  The slowest ninth are the batch
    reads, so ``read_p95_ms`` is a batch read (its 55th percentile) and
    eight ninths of ``read_boxes_per_s`` are batch boxes: per-box cost.
    """
    newest = work.scale.slices - 1
    for _ in range(work.scale.script // (POINT_READS + 1)):
        for _ in range(POINT_READS):
            work.reads.append(_box_request("query", *_boxes(rng, 1, 0, newest)))
        work.reads.append(
            _box_request("query_many", *_boxes(rng, BATCH_BOXES, 0, newest))
        )


def _live_ingest(work: Workload, rng, appends: int) -> None:
    slices = work.scale.slices
    recent = min(32, slices // 2)
    for i in range(appends):
        time = slices + i
        points, deltas = _slice_updates(rng, time, APPEND_UPDATES)
        # the last updates of the batch arrive out of order: their
        # occurring time is behind the newest one, so the router sends
        # them to G_d (they stay after the in-order ones, as they arrived)
        points[-LATE_UPDATES:, 0] = time - rng.integers(1, 17, LATE_UPDATES)
        work.writes.append(_update_request(points, deltas))
        if (i + 1) % DRAIN_EVERY == 0:
            work.writes.append(Request("drain", frame({"op": "drain"})))
    for i in range(work.scale.script):
        if i % 2 == 0:  # over the newest slices, whatever they are by then
            lower, upper = _boxes(
                rng, MIXED_BOXES, slices - recent, slices - 1, open_end=True
            )
        else:  # deep history: only a late update can still move it
            lower, upper = _boxes(rng, MIXED_BOXES, 0, slices - recent - 1)
        work.reads.append(_box_request("query_many", lower, upper))


def _tiered_history(work: Workload, rng) -> None:
    slices = work.scale.slices
    work.tiers = TIERS
    span = slices * 3 // 4  # the oldest three quarters are demoted
    work.demote = [span * step // DEMOTE_STEPS for step in range(1, DEMOTE_STEPS + 1)]
    live = MIXED_BOXES // 4
    for _ in range(work.scale.script // 9):
        cycle = []
        for _ in range(5):
            # mostly demoted prefixes (tiles, rollups), a quarter live ones
            lower, upper = _boxes(rng, MIXED_BOXES - live, 0, span - 2)
            lo2, up2 = _boxes(rng, live, span, slices - 1)
            cycle.append((np.concatenate([lower, lo2]), np.concatenate([upper, up2])))
        work.reads += [_box_request("query_many", lo, up) for lo, up in cycle]
        # 5 exact + 3 approximate + 1 top-k: the median request is an exact
        # one (at 4 + 4 + 1 it would sit on the edge between the two kinds)
        work.reads += [_box_request("query_approx", lo, up) for lo, up in cycle[:3]]
        # half of all history from a random start: every top-k costs about
        # the same, so read_p95_ms (a top-k here) is the system's, not the draw's
        t1 = int(rng.integers(0, slices // 2))
        query = [[t1, t1 + slices // 2, TOPK]]
        work.reads.append(
            Request(
                "topk",
                frame({"op": "topk", "queries": query, "nonnegative": True}),
                boxes=1,
                topk=query,
            )
        )


# -- failure accounting ------------------------------------------------------------


def decode(raw: bytes):
    return json.loads(raw[_HEADER.size :])


def check(request: Request, reply: dict) -> str | None:
    """Why ``reply`` is wrong for ``request`` on a static cube, or ``None``."""
    if not reply.get("ok"):
        return f"error reply {reply.get('error')}: {reply.get('message')}"
    result = reply.get("result")
    if request.kind in ("update_many", "drain", "ping"):
        return None
    if request.kind == "query_approx":
        if len(result) != len(request.expect):
            return "short query_approx reply"
        for i, ((_, low, high), exact) in enumerate(zip(result, request.expect)):
            if not low <= exact <= high:
                return f"unsound bounds: {low} <= {exact} <= {high} does not hold"
            if request.live[i] and not low == exact == high:
                return f"undemoted box answered inexactly: [{low}, {high}] vs {exact}"
        return None
    if result != request.expect:
        return f"oracle mismatch on {request.kind}: {result!r} != {request.expect!r}"
    return None


def check_concurrent(work: Workload, read_log, write_log) -> list[str]:
    """The ``k``-window rule for reads that raced the writer.

    A read is correct iff it equals the oracle after ``k`` writes for
    some ``k`` between "acknowledged before the read was sent" and "sent
    before the reply arrived".  Walks the reads in send order, advancing
    the oracle to each read's lower bound, and folds the writes inside
    the window in one at a time.  Leaves the oracle holding every
    acknowledged write.
    """
    failures = []
    applied = 0

    def advance(upto: int) -> None:
        nonlocal applied
        while applied < upto:
            work.acknowledge(work.writes[write_log[applied].index])
            applied += 1

    for entry in sorted(read_log, key=lambda e: e.sent):
        request = work.reads[entry.index]
        reply = decode(entry.raw)
        if not reply.get("ok"):
            failures.append(f"error reply {reply.get('error')}")
            continue
        advance(entry.acked_at_send)
        got = np.asarray(reply["result"], dtype=np.int64)
        state = work.oracle.brute(request.lower, request.upper)
        matched = bool((state == got).all())
        for k in range(entry.acked_at_send, entry.sent_at_reply):
            if matched:
                break
            write = work.writes[write_log[k].index]
            if write.points is None:
                continue
            inside = (
                (write.points[None, :, :] >= request.lower[:, None, :])
                & (write.points[None, :, :] <= request.upper[:, None, :])
            ).all(axis=2)
            state = state + inside @ write.deltas
            matched = bool((state == got).all())
        if not matched:
            failures.append(
                f"read matches no oracle state in its window "
                f"[{entry.acked_at_send}, {entry.sent_at_reply}]"
            )
    advance(len(write_log))
    return failures
