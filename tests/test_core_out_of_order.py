"""Tests for the G_d out-of-order buffer."""

from __future__ import annotations

import inspect
import subprocess
import sys

import numpy as np

from repro.core.out_of_order import OutOfOrderBuffer
from repro.core.types import Box

from tests.conftest import random_box


class TestBuffer:
    def test_empty(self):
        buffer = OutOfOrderBuffer(2)
        assert len(buffer) == 0
        assert buffer.range_sum(Box((0, 0), (9, 9))) == 0
        assert buffer.drain() == []

    def test_add_and_query(self):
        buffer = OutOfOrderBuffer(2)
        buffer.add((3, 4), 5)
        buffer.add((3, 4), 2)  # duplicates accumulate
        buffer.add((7, 1), -3)
        assert len(buffer) == 3
        assert buffer.range_sum(Box((0, 0), (9, 9))) == 4
        assert buffer.range_sum(Box((3, 4), (3, 4))) == 7
        assert buffer.range_sum(Box((7, 0), (7, 9))) == -3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(70)
        buffer = OutOfOrderBuffer(3)
        points = []
        for _ in range(200):
            point = tuple(int(c) for c in rng.integers(0, 20, size=3))
            delta = int(rng.integers(-5, 6))
            buffer.add(point, delta)
            points.append((point, delta))
        for _ in range(20):
            box = random_box(rng, (20, 20, 20))
            expected = sum(d for p, d in points if box.contains(p))
            assert buffer.range_sum(box) == expected

    def test_drain_newest_first(self):
        buffer = OutOfOrderBuffer(2)
        buffer.add((5, 0), 1)
        buffer.add((2, 0), 2)
        buffer.add((9, 0), 3)
        drained = buffer.drain()
        assert [p[0] for p, _ in drained] == [9, 5, 2]
        assert len(buffer) == 0
        assert buffer.range_sum(Box((0, 0), (9, 9))) == 0

    def test_partial_drain_keeps_rest_queryable(self):
        buffer = OutOfOrderBuffer(2)
        for t in range(10):
            buffer.add((t, 0), 1)
        drained = buffer.drain(limit=4)
        assert len(drained) == 4
        assert {p[0] for p, _ in drained} == {6, 7, 8, 9}  # newest times
        assert len(buffer) == 6
        assert buffer.range_sum(Box((0, 0), (9, 9))) == 6
        # draining again returns the next-newest batch
        drained = buffer.drain(limit=100)
        assert len(drained) == 6


class TestColumnarPaths:
    def test_add_many_matches_add(self):
        rng = np.random.default_rng(71)
        one = OutOfOrderBuffer(3)
        many = OutOfOrderBuffer(3)
        points = rng.integers(0, 20, size=(150, 3))
        deltas = rng.integers(-5, 6, size=150)
        for point, delta in zip(points, deltas):
            one.add(tuple(int(c) for c in point), int(delta))
        many.add_many(points, deltas)
        assert len(many) == len(one) == 150
        assert sorted(many.entries()) == sorted(one.entries())
        for _ in range(15):
            box = random_box(rng, (20, 20, 20))
            assert many.range_sum(box) == one.range_sum(box)

    def test_range_sum_fast_equals_metered(self):
        rng = np.random.default_rng(72)
        buffer = OutOfOrderBuffer(3)
        buffer.add_many(
            rng.integers(0, 16, size=(300, 3)), rng.integers(-4, 5, size=300)
        )
        for _ in range(25):
            box = random_box(rng, (16, 16, 16))
            assert buffer.range_sum(box, mode="fast") == buffer.range_sum(
                box, mode="metered"
            )

    def test_range_sum_many_matches_singles(self):
        rng = np.random.default_rng(73)
        buffer = OutOfOrderBuffer(2)
        buffer.add_many(
            rng.integers(0, 32, size=(400, 2)), rng.integers(-6, 7, size=400)
        )
        boxes = [random_box(rng, (32, 32)) for _ in range(50)]
        batch = buffer.range_sum_many(boxes)
        assert list(batch) == [buffer.range_sum(box) for box in boxes]
        assert buffer.range_sum_many([]) == []

    def test_range_sum_many_chunks_large_batches(self):
        # force the element budget to chunk: many points x many boxes
        rng = np.random.default_rng(74)
        buffer = OutOfOrderBuffer(2)
        buffer.add_many(
            rng.integers(0, 50, size=(5000, 2)), rng.integers(-3, 4, size=5000)
        )
        boxes = [random_box(rng, (50, 50)) for _ in range(900)]
        batch = buffer.range_sum_many(boxes)
        spot = rng.integers(0, 900, size=30)
        for i in spot:
            assert batch[int(i)] == buffer.range_sum(boxes[int(i)])


class TestDrainAccounting:
    def test_node_accesses_carried_across_full_drain(self):
        rng = np.random.default_rng(75)
        buffer = OutOfOrderBuffer(2)
        buffer.add_many(
            rng.integers(0, 40, size=(200, 2)), np.ones(200, dtype=np.int64)
        )
        for _ in range(10):
            buffer.range_sum(random_box(rng, (40, 40)))
        accesses_before = buffer.node_accesses
        assert accesses_before > 0
        buffer.drain()
        assert len(buffer) == 0
        # the cost of building and probing the drained tree is not lost
        assert buffer.node_accesses >= accesses_before

    def test_node_accesses_monotone_across_bounded_drains(self):
        rng = np.random.default_rng(76)
        buffer = OutOfOrderBuffer(2)
        buffer.add_many(
            rng.integers(0, 30, size=(120, 2)), np.ones(120, dtype=np.int64)
        )
        seen = buffer.node_accesses
        while len(buffer):
            buffer.drain(limit=13)
            buffer.range_sum(Box((0, 0), (29, 29)))
            assert buffer.node_accesses >= seen
            seen = buffer.node_accesses

    def test_queries_exact_during_bounded_drains(self):
        rng = np.random.default_rng(77)
        buffer = OutOfOrderBuffer(2)
        live = {}
        points = rng.integers(0, 25, size=(90, 2))
        deltas = rng.integers(-5, 6, size=90)
        buffer.add_many(points, deltas)
        for point, delta in zip(points, deltas):
            key = tuple(int(c) for c in point)
            live[key] = live.get(key, 0) + int(delta)
        while len(buffer):
            for point, delta in buffer.drain(limit=7):
                live[point] -= delta
            for _ in range(5):
                box = random_box(rng, (25, 25))
                expected = sum(
                    d for p, d in live.items() if box.contains(p)
                )
                assert buffer.range_sum(box) == expected
                fast = buffer.range_sum_many([box])
                assert fast[0] == expected


def fast_traffic(buffer, seed=78, steps=60):
    """A seeded interleaving of every mutation with fast reads only,
    checked against a list model; returns the model.  Self-contained: a
    fresh interpreter runs this source verbatim."""
    import numpy as np

    from repro.core.types import Box

    rng = np.random.default_rng(seed)
    live: list[tuple[tuple[int, ...], int]] = []
    for _ in range(steps):
        op = int(rng.integers(0, 5))
        if op == 0:
            point = tuple(int(c) for c in rng.integers(0, 12, size=3))
            buffer.add(point, 2)
            live.append((point, 2))
        elif op == 1:
            points = rng.integers(0, 12, size=(9, 3))
            buffer.add_many(points, np.arange(9))
            live += [(tuple(p), d) for p, d in zip(points.tolist(), range(9))]
        elif op == 2:
            for entry in buffer.drain(limit=int(rng.integers(1, 6))):
                live.remove(entry)
        elif op == 3:
            floor = int(rng.integers(0, 4))
            buffer.prune_below(floor)
            live = [(p, d) for p, d in live if p[0] >= floor]
        lower = rng.integers(0, 6, size=3)
        boxes = [Box(tuple(lower), tuple(lower + 5)), Box((0, 0, 0), (11, 11, 11))]
        assert buffer.range_sum_many(boxes) == [
            sum(d for p, d in live if box.contains(p)) for box in boxes
        ]
        assert buffer._tree is None and len(buffer) == len(live)
    return live


class TestReferenceOnDemand:
    """``G_d`` is the columns; the metered R-tree exists once a metered
    read asked for it, and not before."""

    def test_fast_traffic_builds_no_tree_then_metered_agrees(self):
        rng = np.random.default_rng(79)
        buffer = OutOfOrderBuffer(3)
        assert fast_traffic(buffer)
        boxes = [random_box(rng, (12, 12, 12)) for _ in range(40)]
        fast = buffer.range_sum_many(boxes)
        assert buffer._tree is None
        assert buffer.range_sum_many(boxes, mode="metered") == fast
        assert [buffer.range_sum(box) for box in boxes] == fast
        assert len(buffer._tree) == len(buffer)

    def test_fast_traffic_never_imports_the_trees(self):
        code = (
            inspect.getsource(fast_traffic)
            + "import sys\n"
            + "from repro.core.out_of_order import OutOfOrderBuffer\n"
            + "assert fast_traffic(OutOfOrderBuffer(3))\n"
            + "print([m for m in sys.modules if m.startswith('repro.trees')])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_metered_loop_builds_the_tree_once(self):
        buffer = OutOfOrderBuffer(2)
        box = Box((0, 0), (63, 63))
        buffer.add((0, 0), 1)
        assert buffer.range_sum(box) == 1
        tree = buffer._tree
        for t in range(1, 64):
            buffer.add((t, t % 5), 1)
            assert buffer.range_sum(box) == t + 1
            assert buffer._tree is tree
        # kept current by insertion: it is the tree a late build makes
        late = OutOfOrderBuffer(2)
        late.add_many([(t, t % 5) for t in range(64)], [1] * 64)
        probe = Box((10, 1), (40, 3))
        costs = []
        for each in (buffer, late):
            before = each.node_accesses
            assert each.range_sum(probe) == 18
            costs.append(each.node_accesses - before)
        assert costs[0] == costs[1] > 0
        assert (late._tree.height, late._tree.leaf_count()) == (
            tree.height,
            tree.leaf_count(),
        )

    def test_drain_and_prune_drop_the_reference_and_carry_its_cost(self):
        buffer = OutOfOrderBuffer(2)
        buffer.add_many([(t, 0) for t in range(40)], [1] * 40)
        assert buffer.range_sum(Box((0, 0), (39, 0))) == 40
        seen = buffer.node_accesses
        assert seen > 0
        buffer.drain(limit=5)
        assert buffer._tree is None and buffer._carried_node_accesses == seen
        assert buffer.range_sum(Box((0, 0), (39, 0))) == 35  # rebuilt from the rest
        assert buffer.node_accesses > seen
        seen = buffer.node_accesses
        assert buffer.prune_below(10) == 10
        assert buffer._tree is None and buffer._carried_node_accesses == seen
        assert buffer.prune_below(10) == 0
