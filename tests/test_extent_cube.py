"""TT-extent objects on the eCube (Section 2.4): the multi-family kernel.

Three contracts are pinned here:

* **Differential**: on random interval streams -- including shuffled,
  out-of-order arrival and batch inserts -- ``ExtentCube`` answers
  (COUNT and SUM; intersection, containment, alive-at) must be
  bit-identical to the tree-based :class:`repro.core.extent
  .IntervalAggregator` oracle.
* **Kernel-split neutrality**: injecting an explicit
  ``FamilyDirectory`` into a point-object cube must leave its metered
  golden costs and durable state byte-identical to the default path.
* **Shared-axis alignment**: both families always expose the same
  occurring times, through appends, splices, restores and retirement.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotExtentCube
from repro.core.errors import AppendOrderError, DomainError
from repro.core.extent import IntervalAggregator
from repro.core.types import Box, TimeInterval
from repro.ecube import (
    EvolvingDataCube,
    ExtentCube,
    FamilyDirectory,
    SharedTimeAxis,
)
from repro.metrics import CostCounter

#: the store both families serve (paged and sparse kernels are used bare)
BACKENDS = ("dense",)
KEYS = 6  # 1-d cell space so the oracle's scalar key range applies


@st.composite
def interval_streams(draw):
    """A random interval stream plus queries, with a shuffled arrival order."""
    n = draw(st.integers(1, 22))
    objects = [
        (
            start := draw(st.integers(0, 50)),
            start + draw(st.integers(0, 25)),
            draw(st.integers(0, KEYS - 1)),
            draw(st.integers(1, 6)),
        )
        for _ in range(n)
    ]
    order = draw(st.permutations(range(n)))
    queries = [
        (low := draw(st.integers(0, 60)), low + draw(st.integers(0, 30)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    key_ranges = [
        (lo := draw(st.integers(0, KEYS - 1)), draw(st.integers(lo, KEYS - 1)))
        for _ in queries
    ]
    return objects, order, queries, key_ranges


def _oracle(objects):
    oracle = IntervalAggregator()
    for start, end, key, value in sorted(objects):
        oracle.insert(TimeInterval(start, end), key, value)
    return oracle


class TestDifferential:
    @given(data=interval_streams())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_shuffled_arrival(self, data):
        objects, order, queries, key_ranges = data
        cube = ExtentCube((KEYS,))
        for i in order:  # out-of-order arrival incl. late end events
            start, end, key, value = objects[i]
            cube.insert(TimeInterval(start, end), (key,), value)
        oracle = _oracle(objects)
        for (low, up), (k_lo, k_up) in zip(queries, key_ranges):
            query = TimeInterval(low, up)
            box = Box((k_lo,), (k_up,))
            expected = oracle.intersecting(query, k_lo, k_up)
            assert cube.intersecting(query, box) == expected
            assert cube.intersecting(query, box, mode="metered") == expected
            assert cube.alive_at(low, box) == oracle.alive_at(low, k_lo, k_up)
        # containment: the oracle aggregates over the full key range
        for low, up in queries:
            assert cube.containment(TimeInterval(low, up)) == (
                _oracle(objects).containment(TimeInterval(low, up))
            )

    @given(data=interval_streams())
    @settings(max_examples=40, deadline=None)
    def test_batch_insert_matches_metered_replay(self, data):
        objects, order, queries, key_ranges = data
        intervals = np.array(
            [(objects[i][0], objects[i][1]) for i in order], dtype=np.int64
        )
        cells = np.array([[objects[i][2]] for i in order], dtype=np.int64)
        values = np.array([objects[i][3] for i in order], dtype=np.int64)
        fast = ExtentCube((KEYS,))
        fast.insert_many(intervals, cells, values, mode="fast")
        metered = ExtentCube((KEYS,))
        metered.insert_many(intervals, cells, values, mode="metered")
        tis = [TimeInterval(low, up) for low, up in queries]
        boxes = [Box((lo,), (up,)) for lo, up in key_ranges]
        assert fast.intersecting_many(tis, boxes) == metered.intersecting_many(
            tis, boxes
        )
        assert fast.containment_many(tis, boxes) == metered.containment_many(
            tis, boxes
        )
        oracle = _oracle(objects)
        assert fast.intersecting_many(tis, boxes) == [
            oracle.intersecting(q, lo, up)
            for q, (lo, up) in zip(tis, key_ranges)
        ]

    def test_count_semantics_default_value(self):
        cube = ExtentCube((4,))
        oracle = IntervalAggregator()
        for start, end, key in [(0, 4, 1), (2, 2, 3), (3, 9, 1)]:
            cube.insert(TimeInterval(start, end), (key,))
            oracle.insert(TimeInterval(start, end), key)
        assert cube.intersecting(TimeInterval(2, 3)) == oracle.intersecting(
            TimeInterval(2, 3), 0, 3
        )
        assert cube.alive_at(4) == oracle.alive_at(4, 0, 3)


class TestKernelSplitNeutrality:
    """The family-directory refactor must not move point-object costs."""

    def _run(self, directory):
        counter = CostCounter()
        cube = EvolvingDataCube(
            (8, 8), num_times=8, counter=counter, directory=directory
        )
        rng = np.random.default_rng(11)
        costs = []
        for t in range(8):
            for _ in range(12):
                cube.update(
                    (t, int(rng.integers(0, 8)), int(rng.integers(0, 8))),
                    int(rng.integers(1, 5)),
                )
        for box in (
            Box((0, 0, 0), (6, 7, 7)),
            Box((2, 1, 1), (5, 6, 6)),
            Box((0, 3, 3), (7, 4, 4)),
        ):
            counter.reset()
            value = cube.query(box)
            costs.append((value, counter.cell_reads, counter.cell_writes))
        snap = counter.snapshot()
        return cube, costs, snap

    def test_metered_costs_and_state_byte_identical(self):
        baseline_cube, baseline_costs, baseline_snap = self._run(None)
        injected_cube, injected_costs, injected_snap = self._run(
            FamilyDirectory(SharedTimeAxis())
        )
        assert injected_costs == baseline_costs
        assert injected_snap == baseline_snap
        base = baseline_cube.state_arrays()
        other = injected_cube.state_arrays()
        assert sorted(base) == sorted(other)
        for key in base:
            assert np.asarray(base[key]).tobytes() == np.asarray(
                other[key]
            ).tobytes(), key

    def test_shared_axis_rejects_second_kernel_on_bound_directory(self):
        directory = FamilyDirectory(SharedTimeAxis())
        EvolvingDataCube((4,), directory=directory)
        with pytest.raises(DomainError):
            EvolvingDataCube((4,), directory=directory)


class TestSharedAxisAlignment:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_families_stay_aligned(self, backend):
        cube = ExtentCube((5,))
        rng = np.random.default_rng(5)
        inserted = []
        t = 0
        for _ in range(40):
            t += int(rng.integers(0, 4))
            inserted.append((t, t + int(rng.integers(0, 10))))
            cube.insert(inserted[-1], (int(rng.integers(0, 5)),), 1)
        # late arrivals behind the clock
        for start in (1, 3, t // 2):
            cube.insert((start, start + 2), (0,), 1)
        cube.advance(t + 40)
        cube.drain()
        cube.axis.check_aligned()
        b_times = cube.ended.cube.occurring_times()
        c_times = cube.containing.cube.occurring_times()
        assert b_times == c_times == cube.occurring_times()
        assert cube.pending_ends == 0

    def test_alignment_survives_retirement(self):
        cube = ExtentCube((3,))
        for start in range(0, 30, 3):
            cube.insert((start, start + 5), (start % 3,), 2)
        cube.advance(64)
        before = cube.containment(TimeInterval(0, 64))
        cube.retire_before(15)
        cube.axis.check_aligned()
        # containment is answered from the moved-over index: exact across
        # the retirement boundary
        assert cube.containment(TimeInterval(0, 64)) == before

    def test_validation_errors(self):
        cube = ExtentCube((4,))
        cube.insert((5, 9), (1,), 1)
        with pytest.raises(AppendOrderError):
            cube.advance(2)
        with pytest.raises(DomainError):
            cube.insert((0, 3), (1, 2), 1)  # wrong cell arity
        with pytest.raises(DomainError):
            cube.insert_many(
                np.array([[7, 3]]), np.array([[1]])
            )  # inverted interval
        with pytest.raises(TypeError):  # one store: there is none to name
            ExtentCube((4,), backend="dense")


class TestStateRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_through_npz(self, backend):
        cube = ExtentCube((4, 4))
        rng = np.random.default_rng(9)
        t = 0
        for _ in range(30):
            t += int(rng.integers(0, 3))
            cube.insert(
                (t, t + int(rng.integers(0, 9))),
                (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                int(rng.integers(1, 4)),
            )
        cube.insert((2, 5), (0, 0), 1)  # late, keeps G_d busy
        cube.advance(t + 4)
        arrays = cube.state_arrays()
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        buffer.seek(0)
        twin = ExtentCube((4, 4))
        twin.restore_state(np.load(buffer))
        twin.axis.check_aligned()
        again = twin.state_arrays()
        assert sorted(arrays) == sorted(again)
        for key in arrays:
            assert arrays[key].tobytes() == again[key].tobytes(), key
        # the twin keeps evolving identically
        for target in (cube, twin):
            target.insert((t + 5, t + 9), (1, 1), 2)
        queries = [TimeInterval(0, t + 10), TimeInterval(3, 7)]
        assert cube.intersecting_many(queries) == twin.intersecting_many(queries)
        assert cube.containment_many(queries) == twin.containment_many(queries)

    def test_restore_requires_empty(self):
        cube = ExtentCube((2,))
        cube.insert((0, 1), (0,), 1)
        arrays = cube.state_arrays()
        occupied = ExtentCube((2,))
        occupied.insert((0, 1), (1,), 1)
        with pytest.raises(DomainError):
            occupied.restore_state(arrays)


class TestSnapshotServing:
    def test_pinned_view_is_frozen_and_exact(self):
        cube = ExtentCube((4, 4))
        serve = SnapshotExtentCube(cube)
        rng = np.random.default_rng(3)
        t = 0
        for _ in range(25):
            t += int(rng.integers(0, 3))
            serve.insert(
                (t, t + int(rng.integers(0, 8))),
                (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                2,
            )
        queries = [TimeInterval(0, t + 5), TimeInterval(t // 2, t)]
        boxes = [None, Box((1, 1), (3, 3))]
        with serve.pin() as view:
            expected_i = [
                cube.intersecting(q, b) for q, b in zip(queries, boxes)
            ]
            expected_c = [
                cube.containment(q, b) for q, b in zip(queries, boxes)
            ]
            assert view.intersecting_many(queries, boxes) == expected_i
            assert view.containment_many(queries, boxes) == expected_c
            assert view.alive_at(t) == cube.alive_at(t)
            # mutations after the pin must not leak into the view
            serve.insert((t + 1, t + 30), (0, 0), 50)
            serve.advance(t + 40)
            assert view.intersecting_many(queries, boxes) == expected_i
            assert view.containment_many(queries, boxes) == expected_c
        # ephemeral reads see the new state
        assert serve.intersecting(
            TimeInterval(t + 2, t + 2), Box((0, 0), (0, 0))
        ) >= 50
        serve.close()

    def test_rejects_non_extent_target(self):
        with pytest.raises(DomainError):
            SnapshotExtentCube(EvolvingDataCube((4,)))

    def test_view_release_then_use_raises(self):
        cube = ExtentCube((2,))
        cube.insert((0, 3), (0,), 1)
        serve = SnapshotExtentCube(cube)
        view = serve.pin()
        view.release()
        with pytest.raises(DomainError):
            view.intersecting(TimeInterval(0, 1))
        serve.close()
