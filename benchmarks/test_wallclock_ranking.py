"""Top-k ranking and tier-backed estimation wall-clock.

Three trails on the weather4 stream, recorded into ``BENCH_ranking.json``:

* ``weather4_topk``: a paper-style ranking mix (small ``k`` over full,
  recent and narrow TT windows) answered by the engine (two prefix
  slices and a difference) vs an exact full scan of the same front --
  ``query_many`` over every single-cell box, ranked in the oracle's
  order.  The differential is part of the benchmark -- the engine's
  answers must be bit-identical to the scan's before any row is
  recorded -- and the >=2x speedup floor is enforced here on the median
  of alternating repeats (CI's guard step re-checks the recorded
  ``slices`` row).
* ``weather4_tiered_topk``: the same ranking mix over a demoted
  :class:`~repro.retention.TieredCube` on the ``TIERS`` ladder, whose
  prefixes come from rollup slices and tiles; exact against the
  undemoted front before the row is recorded.
* ``weather4_cold_tier``: the same aged tiered ladder as the retention
  benchmark, queried at non-boundary demoted prefixes so the exact path
  must decode historic tiles while ``query_many_approx`` answers from
  resident rollup boundaries.  Soundness gates recording: every
  estimate interval must contain the exact answer; and the approximate
  batch must cost at most ``COLD_TIER_CEILING`` of the cold exact one --
  avoiding the decode is its reason to exist.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from _record import BENCH_RANKING_FILE, record
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ranking import TopKEngine, brute_topk
from repro.retention import TieredCube
from repro.workloads.datasets import weather4

TIERS = [
    {"name": "hour", "granularity": 4, "horizon": 8},
    {"name": "day", "granularity": 24, "horizon": None},
]
SPEEDUP_FLOOR = 2.0
COLD_TIER_CEILING = 0.5
REPEATS = 3
#: alternating repeats per side of a timed top-k comparison (medians)
TOPK_REPEATS = 7
NUM_APPROX_QUERIES = 120


def _ranking_mix(t_max):
    """Small-k queries over full, narrow and recent windows."""
    return [
        (0, t_max, 1),
        (0, t_max, 10),
        (t_max // 2, t_max // 2 + 2, 10),
        (t_max // 4, t_max // 4 + 5, 5),
        (0, t_max // 8, 10),
    ]


def _best_of(repeats, run):
    """Best wall-clock of ``repeats`` runs (first result returned)."""
    result = run()  # warm
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def _median_of(repeats, *runs):
    """Each run's median wall-clock over ``repeats`` alternating rounds
    (after one warm call each), and each run's last result."""
    results = [run() for run in runs]
    walls = [[] for _ in runs]
    for _ in range(repeats):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            results[i] = run()
            walls[i].append(time.perf_counter() - start)
    return results, [statistics.median(w) for w in walls]


def _full_scan(front, shape, queries):
    """Every single-cell box of each window through ``query_many``,
    ranked as :func:`~repro.ranking.brute_topk` ranks."""
    cells = np.stack(np.unravel_index(np.arange(np.prod(shape)), shape), axis=1)
    ranked = []
    for t1, t2, k in queries:
        boxes = np.empty((len(cells), 2, 1 + len(shape)), dtype=np.int64)
        boxes[:, :, 0] = t1, t2
        boxes[:, 0, 1:] = boxes[:, 1, 1:] = cells
        values = np.asarray(front.query_many(boxes), dtype=np.int64)
        ranked.append(brute_topk(values.reshape(1, *shape), 0, 0, k))
    return ranked


def test_topk_pruning_vs_full_scan():
    data = weather4(scale=0.2)
    t_max = int(data.coords[:, 0].max())
    front = BufferedEvolvingDataCube(data.slice_shape)
    front.update_many(data.coords, data.values)
    queries = _ranking_mix(t_max)

    engine = TopKEngine(front)
    (ranked, scanned), (engine_wall, scan_wall) = _median_of(
        TOPK_REPEATS,
        lambda: engine.topk_many(queries),
        lambda: _full_scan(front, data.slice_shape, queries),
    )

    # exactness gates the numbers: a fast-but-wrong row is worthless
    assert ranked == scanned
    speedup = scan_wall / engine_wall
    assert speedup >= SPEEDUP_FLOOR, (
        f"top-k speedup over the full scan {speedup:.2f}x (< {SPEEDUP_FLOOR}x "
        f"floor): engine {engine_wall:.4f}s vs scan {scan_wall:.4f}s"
    )

    cells = engine.last_stats[0].cells
    extra = {
        "dataset": "weather4(scale=0.2)",
        "num_queries": len(queries),
        "cells": cells,
        "repeats": TOPK_REPEATS,
        "statistic": "median",
    }
    record(
        "weather4_topk",
        "full_scan",
        scan_wall,
        0,
        path=BENCH_RANKING_FILE,
        **extra,
    )
    record(
        "weather4_topk",
        "slices",
        engine_wall,
        0,
        path=BENCH_RANKING_FILE,
        speedup=round(speedup, 3),
        **extra,
    )


def test_topk_over_demoted_tiers(tmp_path):
    data = weather4(scale=0.2)
    t_max = int(data.coords[:, 0].max())
    undemoted = BufferedEvolvingDataCube(data.slice_shape)
    undemoted.update_many(data.coords, data.values)
    tiered = TieredCube(
        BufferedEvolvingDataCube(data.slice_shape), TIERS, tmp_path / "tiles"
    )
    tiered.update_many(data.coords, data.values)
    assert tiered.demote_before(t_max - 2) >= 24
    queries = _ranking_mix(t_max)

    engine = TopKEngine(tiered)
    (ranked,), (wall,) = _median_of(TOPK_REPEATS, lambda: engine.topk_many(queries))

    # exact against the undemoted front before any row is recorded
    assert ranked == TopKEngine(undemoted).topk_many(queries)
    record(
        "weather4_tiered_topk",
        "slices",
        wall,
        0,
        path=BENCH_RANKING_FILE,
        dataset="weather4(scale=0.2)",
        num_queries=len(queries),
        cells=engine.last_stats[0].cells,
        repeats=TOPK_REPEATS,
        statistic="median",
        demoted_through=tiered.demoted_through,
        tiles=len(tiered.tiles),
    )


def _cold_tier_boxes(tiered, n):
    """Boxes whose TT prefixes floor on non-boundary demoted times."""
    retained = set()
    for tier in tiered.tiers:
        retained.update(tier.times)
    demoted_nonboundary = [
        t for t in range(1, tiered.demoted_through) if t not in retained
    ]
    assert demoted_nonboundary
    rng = np.random.default_rng(41)
    shape = tiered.cube.slice_shape
    boxes = []
    for _ in range(n):
        t2 = int(rng.choice(demoted_nonboundary))
        t1 = int(rng.integers(0, t2 + 1))
        lower, upper = [t1], [t2]
        for size in shape:
            a = int(rng.integers(0, size))
            b = int(rng.integers(a, size))
            lower.append(a)
            upper.append(b)
        boxes.append(Box(tuple(lower), tuple(upper)))
    return boxes


def test_approx_vs_exact_cold_tier(tmp_path):
    data = weather4(scale=0.2)
    t_max = int(data.coords[:, 0].max())
    horizon = t_max - 2  # aged: all but the newest instants demoted

    tiered = TieredCube(
        BufferedEvolvingDataCube(data.slice_shape), TIERS, tmp_path / "tiles"
    )
    tiered.update_many(data.coords, data.values)
    assert tiered.demote_before(horizon) >= 24
    boxes = _cold_tier_boxes(tiered, NUM_APPROX_QUERIES)

    # the exact path decodes historic tiles: drop the decode cache
    # before every timed run so the measurement stays cold-tier
    exact, exact_wall = tiered.query_many(boxes), float("inf")
    for _ in range(REPEATS):
        tiered.tiles.drop_cache()
        start = time.perf_counter()
        exact = tiered.query_many(boxes)
        exact_wall = min(exact_wall, time.perf_counter() - start)
    estimates, approx_wall = _best_of(
        REPEATS, lambda: tiered.query_many_approx(boxes)
    )

    # soundness gates the numbers: every interval must contain the exact
    # answer, and a mid-bucket prefix must be a true interval somewhere
    for value, estimate in zip(exact, estimates):
        assert estimate.lo <= value <= estimate.hi
    assert any(not estimate.exact for estimate in estimates)
    ratio = approx_wall / exact_wall
    assert ratio <= COLD_TIER_CEILING, (
        f"cold-tier approx costs {ratio:.3f}x the cold exact read "
        f"(> {COLD_TIER_CEILING}x ceiling): approx {approx_wall:.4f}s vs "
        f"exact {exact_wall:.4f}s"
    )

    extra = {
        "dataset": "weather4(scale=0.2)",
        "num_queries": NUM_APPROX_QUERIES,
        "demoted_through": tiered.demoted_through,
    }
    record(
        "weather4_cold_tier",
        "exact",
        exact_wall,
        0,
        path=BENCH_RANKING_FILE,
        **extra,
    )
    record(
        "weather4_cold_tier",
        "approx",
        approx_wall,
        0,
        path=BENCH_RANKING_FILE,
        exact_answers=sum(1 for e in estimates if e.exact),
        latency_vs_exact=round(ratio, 3),
        **extra,
    )
