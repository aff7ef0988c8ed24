"""TT-extent objects on the eCube (Section 2.4): two point-object families.

* **Differential**: on random interval streams -- shuffled, out-of-order
  arrival and batch inserts, a clock advance, a drain, a retirement with
  its prune, inserts after it and a state round trip -- ``ExtentCube``
  answers (COUNT and SUM; intersection, containment, alive-at) must be
  bit-identical to the tree-based :class:`repro.core.extent
  .IntervalAggregator` oracle, and refuse with
  :class:`~repro.core.errors.AgedOutError` exactly where a read reaches
  below the one retirement boundary both families share.
* **State round trip** and **snapshot serving** keep answering like the
  cube they came from.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotExtentCube
from repro.core.errors import AgedOutError, AppendOrderError, DomainError
from repro.core.extent import IntervalAggregator
from repro.core.types import Box, TimeInterval
from repro.ecube import EvolvingDataCube, ExtentCube

#: the store both families serve (paged and sparse kernels are used bare)
BACKENDS = ("dense",)
KEYS = 6  # 1-d cell space so the oracle's scalar key range applies


@st.composite
def interval_streams(draw):
    """A random interval stream plus queries, with a shuffled arrival order,
    and the maintenance steps that run between the inserts and the reads:
    how many objects arrive before the retirement, how far the clock
    advances past them, the retirement threshold (``None``: no
    retirement), the drain limit, whether the drain runs before the
    retirement, and whether the reads go to a restored twin."""
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
    steps = {
        "before": draw(st.integers(1, n)),
        "advance": draw(st.integers(0, 30)),
        "retire": draw(st.none() | st.integers(0, 80)),
        "drain": draw(st.none() | st.integers(1, 4)),
        "drain_first": draw(st.booleans()),
        "round_trip": draw(st.booleans()),
    }
    return objects, order, queries, key_ranges, steps


def _oracle(objects):
    oracle = IntervalAggregator()
    for start, end, key, value in sorted(objects):
        oracle.insert(TimeInterval(start, end), key, value)
    return oracle


def _union_boundary(cube, threshold):
    """The boundary a first ``retire_before(threshold)`` records: the newest
    time below ``threshold`` that occurs in either family, if an older one
    lies below it."""
    times = set(cube.ended.cube.occurring_times())
    times |= set(cube.containing.cube.occurring_times())
    assert cube.occurring_times() == tuple(sorted(times))
    below = sorted(t for t in times if t < threshold)
    return below[-1] if len(below) > 1 else None


def _refuses(read, *args, **kwargs) -> bool:
    try:
        read(*args, **kwargs)
    except AgedOutError:
        return True
    return False


class TestDifferential:
    @given(data=interval_streams())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_shuffled_arrival(self, data):
        objects, order, queries, key_ranges, steps = data
        cube = ExtentCube((KEYS,))

        def arrive(indices):  # out-of-order arrival incl. late end events
            for i in indices:
                start, end, key, value = objects[i]
                cube.insert(TimeInterval(start, end), (key,), value)

        arrive(order[: steps["before"]])
        cube.advance(cube.clock + steps["advance"])
        if steps["drain_first"]:
            cube.drain(steps["drain"])
        boundary = None
        if steps["retire"] is not None:
            boundary = _union_boundary(cube, steps["retire"])
            cube.retire_before(steps["retire"])
            cube.prune_retired()
        arrive(order[steps["before"]:])
        if not steps["drain_first"]:
            cube.drain(steps["drain"])
        if steps["round_trip"]:
            twin = ExtentCube((KEYS,))
            twin.restore_state(cube.state_arrays())
            cube = twin
        oracle = _oracle(objects)
        first = min(start for start, _, _, _ in objects)

        def refused(*times):  # a prefix read below the boundary
            return boundary is not None and any(
                first <= t < boundary for t in times
            )

        for (low, up), (k_lo, k_up) in zip(queries, key_ranges):
            query = TimeInterval(low, up)
            box = Box((k_lo,), (k_up,))
            if refused(low, up):
                for mode in ("fast", "metered"):
                    assert _refuses(cube.intersecting, query, box, mode=mode)
            else:
                expected = oracle.intersecting(query, k_lo, k_up)
                assert cube.intersecting(query, box) == expected
                assert cube.intersecting(query, box, mode="metered") == expected
            if refused(low):
                assert _refuses(cube.alive_at, low, box)
            else:
                assert cube.alive_at(low, box) == oracle.alive_at(low, k_lo, k_up)
        # containment: the oracle aggregates over the full key range; the
        # prune forgets the intervals that ended below the boundary
        for low, up in queries:
            query = TimeInterval(low, up)
            if boundary is not None and low < boundary:
                assert _refuses(cube.containment, query)
            else:
                assert cube.containment(query) == oracle.containment(query)

    def test_the_boundary_is_a_time_only_one_family_saw(self):
        """C's own boundary (4) lies below the shared one (7, a time only B
        saw): a window between them is refused, though C alone would answer
        it from an instance it kept, without the corrections it folded."""
        cube = ExtentCube((KEYS,))
        for start, end in [(1, 20), (4, 30), (10, 40)]:
            cube.insert((start, end), (0,), 1)
        cube.insert((2, 6), (1,), 1)  # late: its end lands at 7, in B only
        cube.insert((3, 50), (2,), 1)  # late, its end still pending
        assert cube.ended.cube.occurring_times() == (7,)
        assert cube.containing.cube.occurring_times() == (1, 4, 10)
        serve = SnapshotExtentCube(cube)
        cube.retire_before(8)
        assert cube.buffered_updates == 0
        for front in (cube, serve):
            for window in [(5, 5), (4, 6), (5, 9)]:
                assert _refuses(front.intersecting, window)
            assert _refuses(front.alive_at, 6)
            assert front.alive_at(7) == 3
            assert front.intersecting((7, 9)) == 3
            # an open prefix: the folded corrections still count
            assert front.intersecting((0, 12)) == 5
            # containment keeps every interval until the prune
            assert front.containment((0, 12)) == 1
        cube.prune_retired()
        assert _refuses(cube.containment, (0, 12))
        assert cube.containment((7, 50)) == 1
        serve.close()

    @given(data=interval_streams())
    @settings(max_examples=40, deadline=None)
    def test_batch_insert_matches_metered_replay(self, data):
        objects, order, queries, key_ranges, _ = data
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


class TestValidation:
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
