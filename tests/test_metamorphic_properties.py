"""Cross-module metamorphic properties.

Properties that must hold for *any* correct implementation of the paper's
semantics, regardless of representation -- checked across the cube
variants with hypothesis-driven inputs:

* additivity: disjoint boxes sum;
* same-time commutativity: the arrival order of equal-time updates is
  irrelevant;
* linearity: scaling every delta scales every aggregate;
* persistence idempotence: save/load is a fixed point;
* retirement invariance: allowed queries are unchanged by data aging.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Box
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from tests.test_storage_serialize import dumps_kernel, loads_kernel

from tests.conftest import brute_box_sum, random_box
from tests.test_ecube_cube import random_append_stream

VARIANTS = {
    "dense": lambda shape: EvolvingDataCube(shape[1:], num_times=shape[0]),
    "disk": lambda shape: DiskEvolvingDataCube(
        shape[1:], num_times=shape[0], page_size=128
    ),
    "sparse": lambda shape: SparseEvolvingDataCube(
        shape[1:], num_times=shape[0]
    ),
}


def _split_time(box: Box, cut: int) -> tuple[Box, Box]:
    left = Box(box.lower, (cut,) + box.upper[1:])
    right = Box((cut + 1,) + box.lower[1:], box.upper)
    return left, right


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestAdditivity:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_disjoint_time_split_sums(self, variant, data):
        shape = (16, 6, 6)
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        cube = VARIANTS[variant](shape)
        for point, delta in random_append_stream(rng, shape, 80):
            cube.update(point, delta)
        box = random_box(rng, shape)
        if box.lower[0] == box.upper[0]:
            return
        cut = data.draw(st.integers(box.lower[0], box.upper[0] - 1))
        left, right = _split_time(box, cut)
        assert cube.query(box) == cube.query(left) + cube.query(right)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestSameTimeCommutativity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_equal_time_updates_commute(self, variant, seed):
        shape = (8, 5, 5)
        rng = np.random.default_rng(seed)
        updates = random_append_stream(rng, shape, 60)
        # shuffle within equal-time runs
        shuffled: list = []
        run: list = []
        for update in updates:
            if run and update[0][0] != run[-1][0][0]:
                rng.shuffle(run)
                shuffled.extend(run)
                run = []
            run.append(update)
        rng.shuffle(run)
        shuffled.extend(run)

        first = VARIANTS[variant](shape)
        second = VARIANTS[variant](shape)
        for point, delta in updates:
            first.update(point, delta)
        for point, delta in shuffled:
            second.update(point, delta)
        for _ in range(6):
            box = random_box(rng, shape)
            assert first.query(box) == second.query(box)


class TestLinearity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), factor=st.integers(2, 5))
    def test_scaled_deltas_scale_queries(self, seed, factor):
        shape = (12, 6, 6)
        rng = np.random.default_rng(seed)
        updates = random_append_stream(rng, shape, 70)
        base = EvolvingDataCube(shape[1:], num_times=shape[0])
        scaled = EvolvingDataCube(shape[1:], num_times=shape[0])
        for point, delta in updates:
            base.update(point, delta)
            scaled.update(point, delta * factor)
        for _ in range(8):
            box = random_box(rng, shape)
            assert scaled.query(box) == factor * base.query(box)


class TestPersistenceFixedPoint:
    def test_double_round_trip_stable(self):
        rng = np.random.default_rng(230)
        shape = (14, 6, 6)
        cube = EvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in random_append_stream(rng, shape, 90):
            cube.update(point, delta)
            dense[point] += delta
        boxes = [random_box(rng, shape) for _ in range(10)]
        for box in boxes:  # drive conversion so state is non-trivial
            cube.query(box)
        once = loads_kernel(dumps_kernel(cube))
        twice = loads_kernel(dumps_kernel(once))
        assert dumps_kernel(once) == dumps_kernel(twice)
        for box in boxes:
            assert twice.query(box) == brute_box_sum(dense, box)


class TestRetirementInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_allowed_queries_unchanged_by_aging(self, seed):
        shape = (20, 6, 6)
        rng = np.random.default_rng(seed)
        cube = EvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in random_append_stream(rng, shape, 100):
            cube.update(point, delta)
            dense[point] += delta
        boundary = 10
        allowed = []
        for _ in range(12):
            box = random_box(rng, shape)
            # answerable after retire_before(boundary): the upper instance
            # must be the kept boundary slice or newer, and the lower side
            # must be the open prefix or start at/after the boundary
            if box.upper[0] >= boundary - 1 and (
                box.lower[0] == 0 or box.lower[0] >= boundary
            ):
                allowed.append((box, cube.query(box)))
        cube.retire_before(boundary)
        for box, before in allowed:
            assert cube.query(box) == before == brute_box_sum(dense, box)
