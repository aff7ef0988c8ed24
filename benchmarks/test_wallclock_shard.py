"""Sharded serving vs the single-process snapshot tier.

One batch of ~2000 range queries over the weather4 stream is answered
two ways: by a single-process :class:`SnapshotCube` (the
``snapshot-1proc`` baseline) and by a 2-shard :class:`ShardedCube` whose
router attaches the workers' shared-memory epochs and answers the batch
itself (``procs-0``; the name predates the removal of reader processes
and is kept so the trajectory continues).  The sharded answer vector is
asserted bit-identical to the baseline -- the differential is part of
the benchmark, not a separate test -- and each mode's row in
``BENCH_shard.json`` is the median of ``REPEATS`` timed batches, with
the host's core count, so the trajectory records what hardware the
numbers mean.

No floor is asserted.  The ``procs-2/4/8`` rows still in the file are
the last measurements of the reader processes (``readers=N``): every
one lost to ``procs-0``, which is why they were deleted.  Since the
router routes one corner array (no ``Box`` per box and shard),
``procs-0`` reads about 1.4x ``snapshot-1proc`` on 2 cores (10x
before).  What remains to earn here is that fixed per-shard share: the
clip, the epoch checks and one stacked evaluation for every shard a
batch reaches.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from _record import BENCH_SHARD_FILE, record
from repro.concurrent import SnapshotCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.sharding import ShardedCube, leaked_segments
from repro.workloads.queries import uni_queries

NUM_QUERIES = 2000
SHARDS = 2
REPEATS = 5


@pytest.fixture(scope="module")
def workload(bench_weather4):
    boxes = list(uni_queries(bench_weather4.shape, NUM_QUERIES, seed=91))
    return bench_weather4, boxes


def _timed_query_many(cube, boxes) -> tuple[list[int], float]:
    """The answers and the median wall time of ``REPEATS`` batches."""
    cube.query_many(boxes[:50])  # warm the engines / block caches
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        answers = cube.query_many(boxes)
        walls.append(time.perf_counter() - start)
    return list(answers), statistics.median(walls)


def test_sharded_serving_throughput(workload):
    dataset, boxes = workload
    cores = os.cpu_count() or 1

    snap = SnapshotCube(BufferedEvolvingDataCube(dataset.slice_shape))
    snap.update_many(dataset.coords, dataset.values)
    baseline, baseline_wall = _timed_query_many(snap, boxes)
    snap.close()
    record(
        "weather4_sharded_serving", "snapshot-1proc", baseline_wall, 0,
        path=BENCH_SHARD_FILE, dataset=dataset.name, queries=NUM_QUERIES,
        cores=cores, repeats=REPEATS,
        queries_per_s=int(NUM_QUERIES / max(baseline_wall, 1e-9)),
    )

    cube = ShardedCube(
        dataset.slice_shape, shards=SHARDS, processes=True, timeout=300.0
    )
    try:
        cube.update_many(dataset.coords, dataset.values)
        answers, wall = _timed_query_many(cube, boxes)
    finally:
        cube.close()
    # the differential IS the benchmark contract: sharded serving
    # must be bit-identical to the single-process snapshot tier
    assert answers == baseline
    assert not leaked_segments()
    record(
        "weather4_sharded_serving", "procs-0", wall, 0,
        path=BENCH_SHARD_FILE, dataset=dataset.name, queries=NUM_QUERIES,
        cores=cores, shards=SHARDS, repeats=REPEATS,
        queries_per_s=int(NUM_QUERIES / max(wall, 1e-9)),
        speedup_vs_snapshot=round(baseline_wall / max(wall, 1e-9), 2),
    )
