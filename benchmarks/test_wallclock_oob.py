"""Out-of-order (G_d) layer: metered vs fast wall-clock, and drain cost.

The weather4 workload is replayed with 10% of the updates arriving out
of order (Section 2.5's stream shape).  Two identically built buffered
cubes answer the same 100-query batch -- one through the per-query
metered path (cell walks plus an R-tree probe per box), one through the
vectorized batch engine with the columnar ``G_d`` mask-and-dot -- and
the answers are asserted bit-identical before the speedup floor is
checked.  A second benchmark measures the incremental drain: corrections
at never-occurring historic times are spliced into the cube and
``drain(None)`` must end with an empty buffer, with queries exact
before, during and after.  A third times what a late point costs a
buffer that is only ever read in fast mode -- ``G_d`` is the columns,
so ``add_many`` is one copy and ``drain`` one mask compaction, with no
reference R-tree to keep in step.  A fourth times a drain on the served
front: a snapshot front over a buffered cube, whose historic instances
are published rows, so the drained batch lands in one pass.  Rows land in
``BENCH_oob.json``, each the median of its repeats with its quartiles.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from _record import BENCH_OOB_FILE, median_quartiles, record
from repro.concurrent import SnapshotCube
from repro.core.out_of_order import OutOfOrderBuffer
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.metrics import CostCounter
from repro.workloads.queries import uni_queries
from repro.workloads.streams import interleave_out_of_order

NUM_QUERIES = 100
OOB_FRACTION = 0.10
QUERY_SPEEDUP_FLOOR = 10.0
#: the serving benchmark's late batch and drain limit, and a G_d ten deep
WRITE_BATCH = 192
WRITE_REPEATS = 7
ADD_MANY_CEILING_S = 1e-3
DRAIN_CEILING_S = 2e-3
#: every row but the fast-only buffer's is the median of this many repeats
REPEATS = 5
#: the served drain: 128 slices of 32 x 32, 320 updates each, then 1 000
#: late corrections drained at once
SERVED_SLICES = 128
SERVED_SHAPE = (32, 32)
SERVED_PER_SLICE = 320
SERVED_LATE = 1000
SERVED_REPEATS = 7
SERVED_DRAIN_CEILING_S = 0.05e-3  # per entry


def _stream(dataset):
    return list(
        interleave_out_of_order(dataset.updates(), OOB_FRACTION, seed=41)
    )


def _build(dataset, stream) -> BufferedEvolvingDataCube:
    cube = BufferedEvolvingDataCube(
        dataset.slice_shape,
        num_times=dataset.shape[0],
        counter=CostCounter(),
        min_density=max(1e-6, dataset.density()),
    )
    for point, delta in stream:
        cube.update(point, delta)
    # warm the lazily built fast engine: the metered engine's term sets
    # are built at cube construction, so this keeps the timed sections
    # comparing query execution, not one-time table setup
    cube.cube.fast
    return cube


def test_buffered_batch_query_speedup(bench_weather4):
    stream = _stream(bench_weather4)
    boxes = list(uni_queries(bench_weather4.shape, NUM_QUERIES, seed=79))
    # identically built fresh pairs: each repeat measures both modes
    # one-shot from the same cube state and the same (non-empty) G_d buffer
    metered_walls, fast_walls = [], []
    metered_cells = fast_cells = buffered = gd_accesses = 0
    for _ in range(REPEATS):
        metered_cube = _build(bench_weather4, stream)
        fast_cube = _build(bench_weather4, stream)
        assert metered_cube.buffered_updates > 0
        buffered = metered_cube.buffered_updates
        # a metered read of G_d alone builds its reference R-tree, so the
        # timed sections compare reads with reads, not one with the build
        metered_cube.buffer.node_accesses
        gc.collect()
        gc.disable()
        try:
            before = metered_cube.counter.snapshot()
            start = time.perf_counter()
            metered_answers = metered_cube.query_many(boxes, mode="metered")
            metered_walls.append(time.perf_counter() - start)
            metered_cells = (
                metered_cube.counter.snapshot() - before
            ).cell_accesses

            before = fast_cube.counter.snapshot()
            start = time.perf_counter()
            fast_answers = fast_cube.query_many(boxes, mode="fast")
            fast_walls.append(time.perf_counter() - start)
            fast_cells = (fast_cube.counter.snapshot() - before).cell_accesses
        finally:
            gc.enable()
        assert fast_answers == metered_answers
        gd_accesses = metered_cube.buffer.node_accesses

    metered = median_quartiles(metered_walls)
    fast = median_quartiles(fast_walls)
    speedup = metered["wall_s"] / max(fast["wall_s"], 1e-9)
    common = {
        "path": BENCH_OOB_FILE, "queries": NUM_QUERIES,
        "dataset": bench_weather4.name, "oob_fraction": OOB_FRACTION,
        "buffered": buffered,
    }
    record(
        "weather4_oob_batch_query", "metered", metered.pop("wall_s"),
        metered_cells, **common, gd_node_accesses=gd_accesses, **metered,
    )
    record(
        "weather4_oob_batch_query", "fast", fast.pop("wall_s"), fast_cells,
        **common, speedup_vs_metered=round(speedup, 2), **fast,
    )
    assert speedup >= QUERY_SPEEDUP_FLOOR, (
        f"fast buffered batch queries only {speedup:.1f}x faster than metered"
    )


def test_drain_to_empty_with_never_occurring_times(bench_weather4):
    dataset = bench_weather4
    # thin the stream so every 5th time value never occurs in the cube,
    # then buffer corrections at exactly those times: the drain must
    # splice new instances to converge
    stream = [(p, d) for p, d in _stream(dataset) if p[0] % 5 != 0]
    boxes = list(uni_queries(dataset.shape, 25, seed=80))
    walls = []
    for _ in range(REPEATS):
        cube = _build(dataset, stream)
        latest = cube.cube.latest_time
        occurring = set(cube.cube.occurring_times())
        injected = [t for t in range(0, latest, 5) if t not in occurring][:40]
        assert injected
        for t in injected:
            cube.update((t,) + (0,) * (cube.ndim - 1), 7)
        assert cube.buffered_updates >= len(injected)
        expected = cube.query_many(boxes, mode="fast")

        # bounded drains make strict progress, queries stay exact throughout
        for _ in range(2):
            before = cube.buffered_updates
            applied, kept = cube.drain(limit=8)
            assert kept == 0
            assert cube.buffered_updates == before - applied
            assert cube.query_many(boxes, mode="fast") == expected

        cells_before = cube.counter.snapshot().cell_accesses
        start = time.perf_counter()
        applied, kept = cube.drain(None)
        walls.append(time.perf_counter() - start)
        drain_cells = cube.counter.snapshot().cell_accesses - cells_before
        assert (kept, cube.buffered_updates) == (0, 0)
        assert applied > 0
        assert cube.query_many(boxes, mode="fast") == expected
        assert cube.query_many(boxes, mode="metered") == expected
        for t in injected:
            assert t in cube.cube.occurring_times()

    drain = median_quartiles(walls)
    record(
        "weather4_oob_drain_to_empty", "metered", drain.pop("wall_s"),
        drain_cells, path=BENCH_OOB_FILE, dataset=dataset.name,
        spliced=len(injected), applied_final=applied, **drain,
    )


def _served_cube(rng) -> SnapshotCube:
    snap = SnapshotCube(BufferedEvolvingDataCube(SERVED_SHAPE))
    for time_ in range(SERVED_SLICES):
        cells = rng.integers(0, SERVED_SHAPE[0], (SERVED_PER_SLICE, 2))
        points = np.column_stack([np.full(SERVED_PER_SLICE, time_), cells])
        snap.update_many(points, rng.integers(1, 9, SERVED_PER_SLICE))
    late = np.column_stack(
        [
            rng.integers(0, SERVED_SLICES - 1, SERVED_LATE),
            rng.integers(0, SERVED_SHAPE[0], (SERVED_LATE, 2)),
        ]
    )
    snap.update_many(late, rng.integers(1, 9, SERVED_LATE))
    assert snap.target.buffered_updates == SERVED_LATE
    return snap


def test_served_drain_lands_in_one_pass():
    """A drain on the served front: every historic instance is a
    published row, so the 1 000 corrections land in one pass over the
    instances and each row they reach is re-published once."""
    rng = np.random.default_rng(83)
    boxes = [
        Box((t, 0, 0), (SERVED_SLICES - 1, x, 31))
        for t, x in zip(range(0, SERVED_SLICES, 8), range(0, 32, 2))
    ]
    walls = []
    for _ in range(SERVED_REPEATS):
        snap = _served_cube(rng)
        expected = snap.query_many(boxes)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            applied, kept = snap.drain()
            walls.append(time.perf_counter() - start)
        finally:
            gc.enable()
        assert (applied, kept) == (SERVED_LATE, 0)
        assert snap.query_many(boxes) == expected
    drain = median_quartiles(walls)
    per_entry = drain["wall_s"] / SERVED_LATE
    record(
        "served_drain", "fast", drain.pop("wall_s"), 0, path=BENCH_OOB_FILE,
        slices=SERVED_SLICES, slice_shape=list(SERVED_SHAPE),
        updates_per_slice=SERVED_PER_SLICE, corrections=SERVED_LATE,
        ms_per_entry=round(per_entry * 1e3, 5), **drain,
    )
    assert per_entry <= SERVED_DRAIN_CEILING_S, (
        f"served drain: {per_entry * 1e3:.4f} ms per entry"
    )


def test_fast_only_buffer_writes_once():
    rng = np.random.default_rng(81)
    batches = [
        (rng.integers(0, 64, size=(WRITE_BATCH, 4)), rng.integers(1, 9, size=WRITE_BATCH))
        for _ in range(10)
    ]
    boxes = [Box((t, 0, 0, 0), (t + 31, 63, 63, 63)) for t in range(0, 32, 4)]
    add_walls, drain_walls = [], []
    for _ in range(WRITE_REPEATS):
        buffer = OutOfOrderBuffer(4)
        walls = []
        for points, deltas in batches:
            start = time.perf_counter()
            buffer.add_many(points, deltas)
            walls.append(time.perf_counter() - start)
        add_walls.append(statistics.median(walls))
        fast = buffer.range_sum_many(boxes)
        start = time.perf_counter()
        drained = buffer.drain(WRITE_BATCH)
        drain_walls.append(time.perf_counter() - start)
        assert (len(drained), len(buffer)) == (WRITE_BATCH, 9 * WRITE_BATCH)
        assert buffer._tree is None  # fast traffic built no reference
        rest = buffer.range_sum_many(boxes)
        assert [a - b for a, b in zip(fast, rest)] == [
            sum(d for p, d in drained if box.contains(p)) for box in boxes
        ]
        assert buffer.range_sum_many(boxes, mode="metered") == rest
    add_wall = statistics.median(add_walls)
    drain_wall = statistics.median(drain_walls)
    record(
        "gd_add_many", "fast", add_wall, 0, path=BENCH_OOB_FILE,
        points=WRITE_BATCH, depth=10 * WRITE_BATCH, repeats=WRITE_REPEATS,
    )
    record(
        "gd_drain", "fast", drain_wall, 0, path=BENCH_OOB_FILE,
        limit=WRITE_BATCH, depth=10 * WRITE_BATCH, repeats=WRITE_REPEATS,
    )
    assert add_wall <= ADD_MANY_CEILING_S, f"add_many({WRITE_BATCH}): {add_wall:.6f} s"
    assert drain_wall <= DRAIN_CEILING_S, f"drain({WRITE_BATCH}): {drain_wall:.6f} s"
