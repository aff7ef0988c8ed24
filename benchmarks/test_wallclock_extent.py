"""TT-extent objects (Section 2.4): batched interval queries wall-clock.

A session-replay workload (interval segments arriving out of order,
sessions idling between bursts, capped at one hour) is loaded into two
identically built :class:`~repro.ecube.extent.ExtentCube` instances --
one through the one-record-at-a-time metered path, one through the
batched ``insert_many`` fast path -- and both answer the same
intersection query batch through the fast (shared compiled kernels, one
``query_many`` per family) and metered modes.  Answers are asserted
bit-identical across build paths, query modes *and* the tree-based
:class:`~repro.core.extent.IntervalAggregator` oracle before the
batch-vs-metered speedup floor is checked.  The metered read charges its
``G_d`` R-trees, which the first metered read of a buffer builds; they
are built before the timed call, so the row times the query alone.
Each intersection row is the median of ``REPEATS`` fresh cube pairs,
with its quartiles.  Rows land in ``BENCH_extent.json`` (schema 2).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from _record import BENCH_EXTENT_FILE, median_quartiles, record
from repro.core.extent import IntervalAggregator
from repro.core.types import Box, TimeInterval
from repro.ecube.extent import ExtentCube
from repro.metrics import CostCounter
from repro.workloads.streams import segment_arrays, session_replay

NUM_SESSIONS = 220
NUM_KEYS = 16
NUM_QUERIES = 120
QUERY_SPEEDUP_FLOOR = 3.0
REPEATS = 9


def _workload():
    segments = session_replay(
        NUM_SESSIONS, (NUM_KEYS,), seed=97, horizon=6 * 3600
    )
    rng = np.random.default_rng(101)
    horizon = max(s.interval.end for s in segments)
    queries, boxes, key_ranges = [], [], []
    for _ in range(NUM_QUERIES):
        low = int(rng.integers(0, horizon))
        queries.append(TimeInterval(low, low + int(rng.integers(0, horizon // 4))))
        k_lo = int(rng.integers(0, NUM_KEYS))
        k_up = int(rng.integers(k_lo, NUM_KEYS))
        boxes.append(Box((k_lo,), (k_up,)))
        key_ranges.append((k_lo, k_up))
    return segments, queries, boxes, key_ranges


def _build(segments, mode):
    cube = ExtentCube((NUM_KEYS,), counter=CostCounter())
    intervals, cells, values = segment_arrays(segments)
    cube.insert_many(intervals, cells, values, mode=mode)
    return cube


def _build_gd_trees(cube) -> int:
    """Build both families' metered ``G_d`` R-trees, which the first
    metered read would otherwise build inside its timed region; returns
    the node accesses the builds charged."""
    return sum(
        family.buffer.node_accesses for family in (cube.ended, cube.containing)
    )


def test_extent_batch_query_speedup():
    segments, queries, boxes, key_ranges = _workload()

    # the oracle needs non-decreasing starts; arrival order is shuffled
    oracle = IntervalAggregator()
    for segment in sorted(segments, key=lambda s: s.interval.start):
        oracle.insert(segment.interval, segment.cell[0], segment.value)
    expected = [
        oracle.intersecting(query, k_lo, k_up)
        for query, (k_lo, k_up) in zip(queries, key_ranges)
    ]

    metered_walls, fast_walls = [], []
    metered_cells = fast_cells = 0
    for _ in range(REPEATS):
        metered_cube = _build(segments, "metered")
        fast_cube = _build(segments, "fast")
        _build_gd_trees(metered_cube)
        gc.collect()
        gc.disable()
        try:
            before = metered_cube.counter.snapshot()
            start = time.perf_counter()
            metered_answers = metered_cube.intersecting_many(
                queries, boxes, mode="metered"
            )
            metered_walls.append(time.perf_counter() - start)
            metered_cells = (
                metered_cube.counter.snapshot() - before
            ).cell_accesses

            before = fast_cube.counter.snapshot()
            start = time.perf_counter()
            fast_answers = fast_cube.intersecting_many(queries, boxes)
            fast_walls.append(time.perf_counter() - start)
            fast_cells = (fast_cube.counter.snapshot() - before).cell_accesses
        finally:
            gc.enable()
        # bit-identical across build paths, query modes and the oracle
        assert fast_answers == metered_answers == expected

    metered = median_quartiles(metered_walls)
    fast = median_quartiles(fast_walls)
    speedup = metered["wall_s"] / max(fast["wall_s"], 1e-9)
    common = {
        "path": BENCH_EXTENT_FILE, "queries": NUM_QUERIES,
        "sessions": NUM_SESSIONS, "segments": len(segments),
    }
    record(
        "session_replay_intersection", "metered", metered.pop("wall_s"),
        metered_cells, **common, **metered,
    )
    record(
        "session_replay_intersection", "fast", fast.pop("wall_s"), fast_cells,
        **common, speedup_vs_metered=round(speedup, 2), **fast,
    )
    assert speedup >= QUERY_SPEEDUP_FLOOR, (
        f"batched interval queries only {speedup:.1f}x faster than metered"
    )


def test_containment_batch_matches_oracle():
    segments, queries, _, _ = _workload()
    cube = _build(segments, "fast")
    oracle = IntervalAggregator()
    for segment in sorted(segments, key=lambda s: s.interval.start):
        oracle.insert(segment.interval, segment.cell[0], segment.value)
    start = time.perf_counter()
    answers = cube.containment_many(queries)
    wall = time.perf_counter() - start
    assert answers == [oracle.containment(query) for query in queries]
    record(
        "session_replay_containment", "fast", wall, 0,
        path=BENCH_EXTENT_FILE, queries=NUM_QUERIES,
        sessions=NUM_SESSIONS, segments=len(segments),
    )
