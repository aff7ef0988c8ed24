"""Benchmarks of the warehouse layer built on top of the paper's core.

OLAP roll-ups, materialized-view maintenance, the buffered (G_d) cube,
the sparse eCube and warehouse persistence -- quantifying the overheads
each convenience adds over the raw cube.
"""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest

from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.olap import CubeView, Dimension, uniform_hierarchy
from repro.olap.materialized import MaterializedRollups
from repro.storage.serialize import load_kernel, save_kernel


@pytest.fixture(scope="module")
def dense_sample():
    rng = np.random.default_rng(201)
    return rng.integers(0, 4, size=(48, 16, 16))


@pytest.fixture(scope="module")
def loaded_cube(dense_sample):
    return EvolvingDataCube.from_dense(dense_sample)


def test_bulk_load_from_dense(benchmark, dense_sample):
    benchmark(lambda: EvolvingDataCube.from_dense(dense_sample))


def test_olap_rollup_week_by_group(benchmark, loaded_cube):
    view = CubeView(
        loaded_cube,
        [
            Dimension("day", 48).with_level(uniform_hierarchy("week", 48, 7)),
            Dimension("store", 16).with_level(
                uniform_hierarchy("region", 16, 4)
            ),
            Dimension("product", 16),
        ],
    )
    benchmark(lambda: view.rollup({"day": "week", "store": "region"}))


def test_materialized_view_update_fanout(benchmark):
    day = Dimension("day", 64).with_level(uniform_hierarchy("week", 64, 8))
    store = Dimension("store", 16).with_level(uniform_hierarchy("region", 16, 4))
    rollups = MaterializedRollups([day, store])
    rollups.add_view("weekly", {"day": "week", "store": "region"})
    rng = np.random.default_rng(202)
    clock = {"t": 0}

    def one():
        clock["t"] = min(63, clock["t"] + int(rng.integers(0, 2)))
        rollups.update((clock["t"], int(rng.integers(0, 16))), 1)

    benchmark(one)


def test_buffered_cube_query_with_buffer(benchmark):
    cube = BufferedEvolvingDataCube((16, 16), num_times=64)
    rng = np.random.default_rng(203)
    for t in range(64):
        for _ in range(4):
            cube.update((t, int(rng.integers(0, 16)), int(rng.integers(0, 16))), 1)
    for _ in range(200):  # late arrivals stay buffered
        cube.update(
            (int(rng.integers(0, 60)), int(rng.integers(0, 16)),
             int(rng.integers(0, 16))), 1
        )
    boxes = itertools.cycle(
        [
            Box((int(a), 2, 2), (int(a) + 20, 13, 13))
            for a in rng.integers(0, 40, size=64)
        ]
    )
    benchmark(lambda: cube.query(next(boxes)))


def test_sparse_cube_update(benchmark):
    # unbounded TT-domain; time advances every 64th update so the slice
    # count stays proportional to the benchmark's iteration budget / 64
    cube = SparseEvolvingDataCube((256, 256))
    rng = np.random.default_rng(204)
    clock = {"t": 0, "n": 0}

    def one():
        clock["n"] += 1
        if clock["n"] % 64 == 0:
            clock["t"] += 1
        cube.update(
            (clock["t"], int(rng.integers(0, 256)), int(rng.integers(0, 256))),
            1,
        )

    benchmark(one)


def test_persistence_round_trip(benchmark, loaded_cube):
    def round_trip():
        archive = io.BytesIO()
        save_kernel(loaded_cube, archive)
        archive.seek(0)
        return load_kernel(archive), archive.getbuffer().nbytes

    restored, archive_bytes = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    benchmark.extra_info["archive_bytes"] = archive_bytes
    assert restored.num_slices == loaded_cube.num_slices
