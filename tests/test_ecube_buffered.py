"""Tests for out-of-order corrections into the eCube (Section 2.5 MOLAP)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AgedOutError, AppendOrderError
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube

from tests.conftest import brute_box_sum, random_box
from tests.test_ecube_cube import random_append_stream


class TestApplyOutOfOrder:
    def test_rejects_non_historic_times(self):
        cube = EvolvingDataCube((4,))
        cube.update((5, 0), 1)
        with pytest.raises(AppendOrderError):
            cube.apply_out_of_order((5, 0), 1)  # == latest: not historic
        with pytest.raises(AppendOrderError):
            cube.apply_out_of_order((9, 0), 1)

    def test_splices_non_occurring_times(self):
        cube = EvolvingDataCube((4,))
        cube.update((2, 0), 1)
        cube.update((8, 0), 1)
        cube.apply_out_of_order((5, 3), 7)
        assert cube.occurring_times() == (2, 5, 8)
        assert cube.query(Box((0, 0), (4, 3))) == 1  # before: unaffected
        assert cube.query(Box((5, 0), (5, 3))) == 7
        assert cube.query(Box((0, 0), (8, 3))) == 9
        # non-occurring times between splice and floor resolve cumulatively
        assert cube.query(Box((0, 0), (6, 3))) == 8

    def test_splice_before_first_occurring_time(self):
        cube = EvolvingDataCube((4,))
        cube.update((6, 1), 10)
        cube.update((9, 1), 10)
        cube.apply_out_of_order((2, 2), 3)
        assert cube.occurring_times() == (2, 6, 9)
        assert cube.query(Box((0, 0), (2, 3))) == 3
        assert cube.query(Box((3, 0), (5, 3))) == 0
        assert cube.query(Box((0, 0), (9, 3))) == 23

    def test_splice_rejects_retired_region(self):
        cube = EvolvingDataCube((4,))
        for t in range(0, 20, 2):
            cube.update((t, t % 4), 1)
        cube.retire_before(10)
        with pytest.raises(AgedOutError):
            cube.apply_out_of_order((7, 0), 1)  # non-occurring, retired
        cube.apply_out_of_order((13, 0), 5)  # non-occurring, live region
        assert 13 in cube.occurring_times()

    def test_apply_out_of_order_many_newest_first(self):
        cube = EvolvingDataCube((8,))
        for t in range(0, 12, 2):
            cube.update((t, t % 8), 10)
        dense = np.zeros((12, 8), dtype=np.int64)
        for t in range(0, 12, 2):
            dense[t, t % 8] += 10
        corrections = [((3, 1), 4), ((7, 2), -2), ((3, 5), 6), ((8, 0), 1)]
        applied = cube.apply_out_of_order_many(
            [(t,) + (c,) for (t, c), _ in corrections],
            [d for _, d in corrections],
        )
        assert applied == 4
        for (t, c), d in corrections:
            dense[t, c] += d
        rng = np.random.default_rng(42)
        for _ in range(40):
            box = random_box(rng, (12, 8))
            assert cube.query(box) == brute_box_sum(dense, box)

    def test_rejects_retired_region(self):
        cube = EvolvingDataCube((4,))
        for t in range(10):
            cube.update((t, t % 4), 1)
        cube.retire_before(6)
        with pytest.raises(AgedOutError):
            cube.apply_out_of_order((2, 0), 1)

    def test_correction_reaches_all_later_instances(self):
        cube = EvolvingDataCube((8,))
        for t in range(6):
            cube.update((t, t % 8), 10)
        cube.apply_out_of_order((2, 3), 7)
        assert cube.query(Box((0, 0), (1, 7))) == 20  # before: unaffected
        assert cube.query(Box((0, 0), (2, 7))) == 37
        assert cube.query(Box((0, 0), (5, 7))) == 67
        assert cube.query(Box((2, 3), (2, 3))) == 7

    def test_correction_after_conversions(self):
        """PS-converted cells must absorb the correction too."""
        rng = np.random.default_rng(110)
        shape = (12, 8, 8)
        cube = EvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in random_append_stream(rng, shape, 150):
            cube.update(point, delta)
            dense[point] += delta
        # convert broadly by querying a lot
        boxes = [random_box(rng, shape) for _ in range(40)]
        for box in boxes:
            assert cube.query(box) == brute_box_sum(dense, box)
        # now apply corrections at occurring historic times
        occurring = cube.occurring_times()
        for time in occurring[: len(occurring) - 1 : 2]:
            cell = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            cube.apply_out_of_order((int(time),) + cell, 5)
            dense[(int(time),) + cell] += 5
        for box in boxes:
            assert cube.query(box) == brute_box_sum(dense, box), box

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_interleaved_corrections_and_queries(self, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        shape = (10, 6, 6)
        cube = EvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in random_append_stream(rng, shape, 60):
            cube.update(point, delta)
            dense[point] += delta
        occurring = list(cube.occurring_times())
        for _ in range(data.draw(st.integers(1, 10))):
            if data.draw(st.booleans()) and len(occurring) > 1:
                time = occurring[
                    data.draw(st.integers(0, len(occurring) - 2))
                ]
                cell = tuple(
                    data.draw(st.integers(0, 5)) for _ in range(2)
                )
                delta = data.draw(st.integers(-4, 6))
                cube.apply_out_of_order((time,) + cell, delta)
                dense[(time,) + cell] += delta
            box = random_box(rng, shape)
            assert cube.query(box) == brute_box_sum(dense, box)


class TestBufferedCube:
    def test_routes_late_arrivals_to_buffer(self):
        cube = BufferedEvolvingDataCube((4, 4))
        cube.update((0, 1, 1), 5)
        cube.update((9, 2, 2), 3)
        cube.update((4, 1, 1), 7)  # late
        assert cube.buffered_updates == 1
        assert cube.query(Box((0, 0, 0), (9, 3, 3))) == 15
        assert cube.query(Box((3, 0, 0), (5, 3, 3))) == 7

    def test_drain_applies_occurring_and_splices_rest(self):
        cube = BufferedEvolvingDataCube((4,))
        for t in (0, 3, 6, 9):
            cube.update((t, 1), 10)
        cube.update((3, 2), 5)  # occurring historic time
        cube.update((4, 2), 7)  # non-occurring historic time
        total_before = cube.total()
        applied, kept = cube.drain()
        assert (applied, kept) == (2, 0)
        assert cube.buffered_updates == 0
        assert cube.total() == total_before
        assert cube.query(Box((3, 0), (3, 3))) == 15
        assert cube.query(Box((4, 0), (5, 3))) == 7  # spliced into the cube
        assert 4 in cube.cube.occurring_times()

    def test_bounded_drain_makes_progress_to_empty(self):
        """Regression: bounded drains used to re-buffer unsplicable
        entries and never converge; now every drained entry lands."""
        cube = BufferedEvolvingDataCube((4,))
        for t in (0, 10, 20):
            cube.update((t, 0), 1)
        for t in (1, 3, 5, 7, 9, 11, 13):  # all never-occurring
            cube.update((t, 1), 2)
        dense = np.zeros((21, 4), dtype=np.int64)
        for t in (0, 10, 20):
            dense[t, 0] += 1
        for t in (1, 3, 5, 7, 9, 11, 13):
            dense[t, 1] += 2
        rng = np.random.default_rng(17)
        boxes = [random_box(rng, (21, 4)) for _ in range(15)]
        rounds = 0
        while cube.buffered_updates:
            before = cube.buffered_updates
            applied, kept = cube.drain(limit=2)
            assert applied > 0  # strict progress per bounded call
            assert cube.buffered_updates < before
            for box in boxes:  # exact mid-drain
                assert cube.query(box) == brute_box_sum(dense, box)
            rounds += 1
            assert rounds <= 10
        assert cube.drain() == (0, 0)

    def test_drain_keeps_only_retired_region_corrections(self):
        cube = BufferedEvolvingDataCube((4,))
        for t in range(0, 30, 3):
            cube.update((t, 0), 1)
        cube.cube.retire_before(15)
        cube.update((4, 1), 5)  # splice target below the boundary: kept
        cube.update((16, 1), 5)  # splice target above the boundary
        applied, kept = cube.drain()
        assert (applied, kept) == (1, 1)
        assert cube.buffered_updates == 1
        assert 16 in cube.cube.occurring_times()
        # the kept correction stays exact through post-processing of the
        # still-answerable open prefix from the beginning of time
        assert cube.query(Box((0, 0), (29, 3))) == 20
        # draining again converges: nothing applies, nothing is lost
        assert cube.drain() == (0, 1)
        assert cube.buffered_updates == 1

    def test_matches_reference_with_heavy_out_of_order(self):
        from repro.workloads.streams import interleave_out_of_order

        rng = np.random.default_rng(112)
        shape = (20, 6, 6)
        cube = BufferedEvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        updates = random_append_stream(rng, shape, 200)
        for point, delta in interleave_out_of_order(updates, 0.3, seed=9):
            cube.update(point, delta)
            dense[point] += delta
        boxes = [random_box(rng, shape) for _ in range(20)]
        for box in boxes:
            assert cube.query(box) == brute_box_sum(dense, box)
        cube.drain()
        assert cube.buffered_updates == 0  # non-occurring times spliced
        for box in boxes:
            assert cube.query(box) == brute_box_sum(dense, box)
        assert cube.drain() == (0, 0)

    def test_arity_checked(self):
        cube = BufferedEvolvingDataCube((4,))
        with pytest.raises(Exception):
            cube.update((0, 1, 2), 1)

    def test_empty_total(self):
        assert BufferedEvolvingDataCube((4,)).total() == 0


class TestBufferedBatchExecution:
    """The BatchExecutor protocol on the buffered (G_d) cube."""

    @staticmethod
    def _mixed_stream(rng, shape, count, fraction):
        from repro.workloads.streams import interleave_out_of_order

        updates = random_append_stream(rng, shape, count)
        return list(interleave_out_of_order(updates, fraction, seed=31))

    def test_update_many_fast_matches_metered_replay(self):
        rng = np.random.default_rng(301)
        shape = (16, 6, 6)
        stream = self._mixed_stream(rng, shape, 150, 0.25)
        points = np.array([p for p, _ in stream], dtype=np.int64)
        deltas = np.array([d for _, d in stream], dtype=np.int64)

        metered = BufferedEvolvingDataCube(shape[1:], num_times=shape[0])
        metered.update_many(points, deltas, mode="metered")
        fast = BufferedEvolvingDataCube(shape[1:], num_times=shape[0])
        fast.update_many(points, deltas, mode="fast")

        assert fast.buffered_updates == metered.buffered_updates
        assert fast.total_updates == metered.total_updates == len(stream)
        for _ in range(30):
            box = random_box(rng, shape)
            assert fast.query(box) == metered.query(box)

    def test_query_many_fast_bit_identical_to_metered(self):
        rng = np.random.default_rng(302)
        shape = (16, 6, 6)
        cube = BufferedEvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in self._mixed_stream(rng, shape, 180, 0.2):
            cube.update(point, delta)
            dense[point] += delta
        assert cube.buffered_updates > 0  # G_d genuinely participates
        boxes = [random_box(rng, shape) for _ in range(40)]
        fast = cube.query_many(boxes, mode="fast")
        metered = cube.query_many(boxes, mode="metered")
        assert fast == metered
        assert fast == [brute_box_sum(dense, box) for box in boxes]

    def test_query_many_fast_after_drain(self):
        rng = np.random.default_rng(303)
        shape = (16, 6, 6)
        cube = BufferedEvolvingDataCube(shape[1:], num_times=shape[0])
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in self._mixed_stream(rng, shape, 120, 0.3):
            cube.update(point, delta)
            dense[point] += delta
        cube.drain()
        assert cube.buffered_updates == 0
        boxes = [random_box(rng, shape) for _ in range(25)]
        fast = cube.query_many(boxes, mode="fast")
        assert fast == cube.query_many(boxes, mode="metered")
        assert fast == [brute_box_sum(dense, box) for box in boxes]

    def test_metered_reads_wrap_like_fast_reads(self):
        # the kernel's part and G_d's part of the box to time 1 are 2^62
        # each: every read answers their int64 sum, -2^63
        cube = BufferedEvolvingDataCube((2, 2))
        for point, delta in (((1, 0, 0), 1 << 62), ((2, 0, 0), 1), ((3, 1, 1), 1)):
            cube.update(point, delta)
        cube.update((1, 1, 1), 1 << 62)  # late: buffered in G_d
        assert cube.buffered_updates == 1
        box, whole = Box((0, 0, 0), (1, 1, 1)), Box((0, 0, 0), (3, 1, 1))
        wrapped = -(1 << 63)
        assert cube.query(box) == wrapped
        assert cube.query_many([box], mode="metered") == [wrapped]
        assert cube.query_many([box], mode="fast") == [wrapped]
        assert cube.total() == cube.query_many([whole])[0] == wrapped + 2

    def test_a_metered_kernel_read_subtracts_in_int64(self):
        # the prefix to time 2 wraps to -2^63; the box of time 2 alone is 2^62
        cube = EvolvingDataCube((2,))
        for point in ((1, 0), (2, 0)):
            cube.update(point, 1 << 62)
        cube.update((3, 1), 1)
        box = Box((2, 0), (2, 1))
        assert cube.query(box) == cube.query_many([box])[0] == 1 << 62
        assert cube.query_many([box], mode="metered") == [1 << 62]

    def test_update_many_rejects_bad_shapes(self):
        cube = BufferedEvolvingDataCube((4,))
        with pytest.raises(Exception):
            cube.update_many([(0, 1, 2)], [1])
        with pytest.raises(Exception):
            cube.update_many([(0, 1)], [1, 2])
        with pytest.raises(Exception):
            cube.update_many([(0, 1)], [1], mode="warp")
        cube.update_many(np.empty((0, 2), dtype=np.int64), [])  # no-op


class TestDrainPolicy:
    def test_threshold_validated(self):
        with pytest.raises(Exception):
            BufferedEvolvingDataCube((4,), drain_threshold=0.0)
        with pytest.raises(Exception):
            BufferedEvolvingDataCube((4,), drain_threshold=1.5)

    def test_no_auto_drain_by_default(self):
        cube = BufferedEvolvingDataCube((4,))
        cube.update((9, 0), 1)
        for t in range(8):
            cube.update((t, 0), 1)
        assert cube.auto_drains == 0
        assert cube.buffered_updates == 8

    def test_auto_drain_fires_on_buffered_fraction(self):
        cube = BufferedEvolvingDataCube((4,), drain_threshold=0.5)
        for t in (0, 5, 10):
            cube.update((t, 0), 1)
        cube.update((2, 1), 1)  # 1/4 buffered: below threshold
        assert cube.auto_drains == 0
        cube.update((3, 1), 1)  # 2/5 < 0.5: still below
        assert cube.auto_drains == 0
        cube.update((4, 1), 1)  # 3/6 >= 0.5: drain fires
        assert cube.auto_drains == 1
        assert cube.buffered_updates == 0
        assert cube.query(Box((2, 0), (4, 3))) == 3

    def test_auto_drain_from_update_many(self):
        cube = BufferedEvolvingDataCube((4,), drain_threshold=0.4)
        points = np.array(
            [(0, 0), (10, 0), (3, 1), (5, 1), (7, 1)], dtype=np.int64
        )
        cube.update_many(points, np.ones(5, dtype=np.int64), mode="fast")
        assert cube.auto_drains == 1
        assert cube.buffered_updates == 0
        assert cube.total() == 5
