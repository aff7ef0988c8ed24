"""Concurrent snapshot serving vs the per-request metered baseline.

The serving story of the snapshot front is that readers answer from a
pinned epoch's frozen arrays -- no counter charges, no lazy-conversion
work, no per-request kernel re-entry -- with the same stacked batch
evaluator the live kernel runs.  This benchmark loads weather4 into a
dense kernel, then serves the same query batch three ways:

* ``baseline``  -- the pre-existing serving loop: one metered
  ``cube.query`` call per request (what a caller had before this
  subsystem existed);
* ``snapshot``  -- one pinned view, per-request ``view.query``;
* ``batch``     -- one pinned view, a single ``query_many``.

Every mode must agree bit-for-bit, and batch serving must beat the
metered baseline by >= 2.5x aggregate throughput.  Process scaling
lives in ``repro.sharding`` (see ``BENCH_shard.json``).  Rows accumulate
in ``BENCH_concurrent.json``.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from _record import BENCH_CONCURRENT_FILE, host_fingerprint, median_quartiles, record
from repro.concurrent import SnapshotCube
from repro.ecube import compiled
from repro.ecube.ecube import EvolvingDataCube
from repro.metrics import CostCounter
from repro.workloads.queries import uni_queries

NUM_QUERIES = 300
REPS = 5
REQUIRED_SPEEDUP = 2.5


def _timed(fn):
    """``(answers, the REPS wall times)``."""
    walls = []
    answers = None
    for _ in range(REPS):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            answers = fn()
            walls.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return answers, walls


def test_concurrent_serving_throughput(bench_weather4):
    dataset = bench_weather4
    stream = list(dataset.updates())
    points = np.array([p for p, _ in stream], dtype=np.int64)
    deltas = np.array([d for _, d in stream], dtype=np.int64)
    boxes = list(uni_queries(dataset.shape, NUM_QUERIES, seed=97))

    cube = EvolvingDataCube(
        dataset.slice_shape,
        num_times=dataset.shape[0],
        counter=CostCounter(),
        min_density=max(1e-6, dataset.density()),
    )
    cube.update_many(points, deltas, mode="fast")
    # serving setup: finalize historic instances to PS in bulk
    # (answer-neutral), so both the baseline and the snapshot readers
    # measure steady-state serving rather than lazy-conversion work
    for i in range(cube.num_slices - 1):
        cube.bulk_finalize_slice(i)
    snap = SnapshotCube(cube)

    # warm the metered path (term tables, directory) before timing
    for box in boxes:
        cube.query(box)

    timings = {}
    expected, timings["baseline"] = _timed(
        lambda: [cube.query(box) for box in boxes]
    )

    def _serve_per_request():
        with snap.pin() as view:
            return [view.query(box) for box in boxes]

    answers, timings["snapshot"] = _timed(_serve_per_request)
    assert answers == expected

    def _serve_batch():
        with snap.pin() as view:
            return view.query_many(boxes)

    answers, timings["batch"] = _timed(_serve_batch)
    assert answers == expected

    # recorded: the median of the runs, with its quartiles; gated, as
    # before: the best run of each mode
    medians = {mode: median_quartiles(walls) for mode, walls in timings.items()}
    host = host_fingerprint()
    for mode, timing in medians.items():
        wall = timing.pop("wall_s")
        record(
            "weather4_concurrent_serving", mode, wall, 0,
            path=BENCH_CONCURRENT_FILE, dataset=dataset.name,
            queries=NUM_QUERIES,
            queries_per_s=round(NUM_QUERIES / max(wall, 1e-9)),
            speedup_vs_baseline=round(
                statistics.median(timings["baseline"]) / max(wall, 1e-9), 2
            ),
            kernels=compiled.backend_name(), host=host, **timing,
        )

    rows = {mode: min(walls) for mode, walls in timings.items()}
    speedup = rows["baseline"] / max(rows["batch"], 1e-9)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch snapshot serving is only {speedup:.2f}x the metered "
        f"baseline (need >= {REQUIRED_SPEEDUP}x): {rows}"
    )
