"""Dual-mode execution engine: metered vs fast wall-clock.

The paper's evaluation counts cell accesses; this benchmark measures what
the vectorized batch engine buys in *wall-clock* on the weather4 workload
-- the ROADMAP's "as fast as the hardware allows" axis.  Both modes are
run on identically built cubes, their answers are asserted equal, and the
measured rows are appended to ``BENCH_engine.json`` so future PRs have a
perf trajectory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _record import record
from repro.ecube import compiled
from repro.ecube.ecube import EvolvingDataCube
from repro.metrics import CostCounter
from repro.workloads.queries import uni_queries

NUM_QUERIES = 100
#: keep in sync with the CI "Batch engine speedup guard" step, which
#: re-checks the recorded row
QUERY_SPEEDUP_FLOOR = 8.0
UPDATE_SPEEDUP_FLOOR = 3.0


def _fresh_cube(dataset) -> EvolvingDataCube:
    return EvolvingDataCube(
        dataset.slice_shape,
        num_times=dataset.shape[0],
        counter=CostCounter(),
        min_density=max(1e-6, dataset.density()),
    )


def _stream(dataset) -> EvolvingDataCube:
    cube = _fresh_cube(dataset)
    for point, delta in dataset.updates():
        cube.update(point, delta)
    return cube


@pytest.fixture(scope="module")
def query_setup(bench_weather4):
    boxes = list(uni_queries(bench_weather4.shape, NUM_QUERIES, seed=77))
    # identical metered builds: the two modes must start from the same
    # representation state (fresh DDC slices, no conversions)
    return _stream(bench_weather4), _stream(bench_weather4), boxes


def test_batch_query_speedup(query_setup, bench_weather4):
    metered_cube, fast_cube, boxes = query_setup

    before = metered_cube.counter.snapshot()
    start = time.perf_counter()
    metered_answers = [metered_cube.query(box) for box in boxes]
    metered_wall = time.perf_counter() - start
    metered_cells = (metered_cube.counter.snapshot() - before).cell_accesses

    before = fast_cube.counter.snapshot()
    start = time.perf_counter()
    fast_answers = fast_cube.query_many(boxes, mode="fast")
    fast_wall = time.perf_counter() - start
    fast_cells = (fast_cube.counter.snapshot() - before).cell_accesses

    assert fast_answers == metered_answers
    # the fast engine answers from frozen arrays, so its metered charge
    # must stay at or below the metered engine's; an inflation here means
    # fast queries are billing the counter for whole-slice freezes again
    assert 0 < fast_cells <= metered_cells, (fast_cells, metered_cells)
    speedup = metered_wall / max(fast_wall, 1e-9)
    record(
        "weather4_batch_query", "metered", metered_wall, metered_cells,
        queries=NUM_QUERIES, dataset=bench_weather4.name,
    )
    record(
        "weather4_batch_query", "fast", fast_wall, fast_cells,
        queries=NUM_QUERIES, dataset=bench_weather4.name,
        speedup_vs_metered=round(speedup, 2),
        kernels=compiled.backend_name(),
    )
    assert speedup >= QUERY_SPEEDUP_FLOOR, (
        f"fast batch queries only {speedup:.1f}x faster than metered"
    )


def test_batch_update_speedup(bench_weather4):
    dataset = bench_weather4

    metered_cube = _fresh_cube(dataset)
    before = metered_cube.counter.snapshot()
    start = time.perf_counter()
    for point, delta in dataset.updates():
        metered_cube.update(point, delta)
    metered_wall = time.perf_counter() - start
    metered_cells = (metered_cube.counter.snapshot() - before).cell_accesses

    fast_cube = _fresh_cube(dataset)
    before = fast_cube.counter.snapshot()
    start = time.perf_counter()
    fast_cube.update_many(dataset.coords, dataset.values, mode="fast")
    fast_wall = time.perf_counter() - start
    fast_cells = (fast_cube.counter.snapshot() - before).cell_accesses

    # both cubes must answer the full query matrix identically
    boxes = list(uni_queries(dataset.shape, 25, seed=78))
    assert [fast_cube.query(b) for b in boxes] == [
        metered_cube.query(b) for b in boxes
    ]
    assert fast_cube.total() == metered_cube.total()
    assert np.array_equal(fast_cube.cache.values, metered_cube.cache.values)

    speedup = metered_wall / max(fast_wall, 1e-9)
    record(
        "weather4_batch_update", "metered", metered_wall, metered_cells,
        updates=dataset.num_updates, dataset=dataset.name,
    )
    record(
        "weather4_batch_update", "fast", fast_wall, fast_cells,
        updates=dataset.num_updates, dataset=dataset.name,
        speedup_vs_metered=round(speedup, 2),
        kernels=compiled.backend_name(),
    )
    assert speedup >= UPDATE_SPEEDUP_FLOOR, (
        f"fast batch updates only {speedup:.1f}x faster than metered"
    )
