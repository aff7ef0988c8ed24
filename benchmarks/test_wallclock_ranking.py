"""Top-k threshold pruning and tier-backed estimation wall-clock.

Two trails on the weather4 stream, recorded into ``BENCH_ranking.json``:

* ``weather4_topk``: a paper-style ranking mix (small ``k`` over full,
  recent and narrow TT windows) answered by the pruning engine vs the
  exact dense full scan over the same front.  The differential is part
  of the benchmark -- the pruned answers must be bit-identical to the
  dense ones before any row is recorded -- and the >=2x pruning-speedup
  floor from ISSUE 10 is enforced here (CI's guard step re-checks the
  recorded row).
* ``weather4_tiered_topk``: the same ranking mix over a demoted
  :class:`~repro.retention.TieredCube` on the ``TIERS`` ladder, whose
  gathers cross rollup slices and tiles; exact against the undemoted
  front before the row is recorded.
* ``weather4_cold_tier``: the same aged tiered ladder as the retention
  benchmark, queried at non-boundary demoted prefixes so the exact path
  must decode historic tiles while ``query_many_approx`` answers from
  resident rollup boundaries.  Soundness gates recording: every
  estimate interval must contain the exact answer; and the approximate
  batch must cost at most ``COLD_TIER_CEILING`` of the cold exact one --
  avoiding the decode is its reason to exist.
"""

from __future__ import annotations

import time

import numpy as np

from _record import BENCH_RANKING_FILE, record
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ranking import TopKEngine
from repro.retention import TieredCube
from repro.workloads.datasets import weather4

TIERS = [
    {"name": "hour", "granularity": 4, "horizon": 8},
    {"name": "day", "granularity": 24, "horizon": None},
]
SPEEDUP_FLOOR = 2.0
COLD_TIER_CEILING = 0.5
REPEATS = 3
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


def test_topk_pruning_vs_full_scan():
    data = weather4(scale=0.2)
    t_max = int(data.coords[:, 0].max())
    front = BufferedEvolvingDataCube(data.slice_shape)
    front.update_many(data.coords, data.values)
    queries = _ranking_mix(t_max)

    pruned_engine = TopKEngine(front, nonnegative=True)
    dense_engine = TopKEngine(front, nonnegative=False)
    pruned, pruned_wall = _best_of(
        REPEATS, lambda: pruned_engine.topk_many(queries)
    )
    dense, dense_wall = _best_of(
        REPEATS, lambda: dense_engine.topk_many(queries)
    )

    # exactness gates the numbers: a fast-but-wrong row is worthless
    assert pruned == dense
    assert all(s.strategy == "prune" for s in pruned_engine.last_stats)
    speedup = dense_wall / pruned_wall
    assert speedup >= SPEEDUP_FLOOR, (
        f"top-k pruning speedup {speedup:.2f}x (< {SPEEDUP_FLOOR}x floor): "
        f"prune {pruned_wall:.4f}s vs dense {dense_wall:.4f}s"
    )

    cells = pruned_engine.last_stats[0].cells
    extra = {
        "dataset": "weather4(scale=0.2)",
        "num_queries": len(queries),
        "cells": cells,
    }
    record(
        "weather4_topk",
        "dense",
        dense_wall,
        0,
        path=BENCH_RANKING_FILE,
        materialized=cells * len(queries),
        **extra,
    )
    record(
        "weather4_topk",
        "prune",
        pruned_wall,
        0,
        path=BENCH_RANKING_FILE,
        materialized=sum(s.materialized for s in pruned_engine.last_stats),
        marginal_boxes=sum(
            s.marginal_boxes for s in pruned_engine.last_stats
        ),
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

    engine = TopKEngine(tiered, nonnegative=True)
    ranked, wall = _best_of(REPEATS, lambda: engine.topk_many(queries))

    # exact against the undemoted front before any row is recorded
    assert ranked == TopKEngine(undemoted, nonnegative=True).topk_many(queries)
    record(
        "weather4_tiered_topk",
        "prune",
        wall,
        0,
        path=BENCH_RANKING_FILE,
        dataset="weather4(scale=0.2)",
        num_queries=len(queries),
        cells=engine.last_stats[0].cells,
        materialized=sum(s.materialized for s in engine.last_stats),
        marginal_boxes=sum(s.marginal_boxes for s in engine.last_stats),
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
