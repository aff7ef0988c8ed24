"""Tests for the R-tree (dynamic inserts and STR bulk loading)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DomainError
from repro.core.types import Box
from repro.trees.rtree import RTree

from tests.conftest import random_box


def brute_sum(points, values, box: Box) -> int:
    return sum(v for p, v in zip(points, values) if box.contains(p))


class TestDynamicInserts:
    def test_empty_tree(self):
        tree = RTree(2)
        assert len(tree) == 0
        assert tree.range_sum(Box((0, 0), (10, 10))) == 0

    def test_arity_checked(self):
        tree = RTree(2)
        with pytest.raises(DomainError):
            tree.insert((1, 2, 3), 1)
        with pytest.raises(DomainError):
            tree.range_sum(Box((0,), (1,)))

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            RTree(0)
        with pytest.raises(DomainError):
            RTree(2, leaf_capacity=1)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        ndim = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(1, 150))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        points = [tuple(int(c) for c in rng.integers(0, 50, size=ndim)) for _ in range(count)]
        values = [int(v) for v in rng.integers(-10, 10, size=count)]
        tree = RTree(ndim, leaf_capacity=4, fanout=4)
        for point, value in zip(points, values):
            tree.insert(point, value)
        assert len(tree) == count
        shape = tuple([50] * ndim)
        for _ in range(8):
            box = random_box(rng, shape)
            assert tree.range_sum(box) == brute_sum(points, values, box)

    def test_duplicate_points_accumulate(self):
        tree = RTree(2, leaf_capacity=4, fanout=4)
        for _ in range(20):
            tree.insert((3, 3), 2)
        assert tree.range_sum(Box((3, 3), (3, 3))) == 40

    def test_total(self):
        tree = RTree(2)
        tree.insert((0, 0), 5)
        tree.insert((9, 9), 7)
        assert tree.total() == 12


class TestBulkLoad:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            RTree.bulk_load([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            RTree.bulk_load([(1, 2)], [1, 2])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        ndim = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(1, 400))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        points = [tuple(int(c) for c in rng.integers(0, 60, size=ndim)) for _ in range(count)]
        values = [int(v) for v in rng.integers(0, 10, size=count)]
        tree = RTree.bulk_load(points, values, leaf_capacity=8, fanout=8)
        shape = tuple([60] * ndim)
        for _ in range(8):
            box = random_box(rng, shape)
            assert tree.range_sum(box) == brute_sum(points, values, box)

    def test_leaves_packed(self):
        rng = np.random.default_rng(1)
        points = [tuple(int(c) for c in rng.integers(0, 100, size=2)) for _ in range(1000)]
        tree = RTree.bulk_load(points, [1] * 1000, leaf_capacity=16, fanout=8)
        # fully packed: ceil(1000/16) = 63 leaves
        assert tree.leaf_count() == 63
        assert len(tree) == 1000

    def test_leaf_access_counting(self):
        rng = np.random.default_rng(2)
        points = [tuple(int(c) for c in rng.integers(0, 100, size=2)) for _ in range(500)]
        tree = RTree.bulk_load(points, [1] * 500, leaf_capacity=8, fanout=8)
        tree.reset_counters()
        tree.range_sum(Box((0, 0), (99, 99)))
        assert tree.leaf_accesses == tree.leaf_count()  # full-domain touches all
        tree.reset_counters()
        tree.range_sum(Box((0, 0), (5, 5)))
        assert tree.leaf_accesses < tree.leaf_count()  # selective touches fewer


class TestAggregateVariant:
    def test_contained_subtrees_short_circuit(self):
        rng = np.random.default_rng(3)
        points = [tuple(int(c) for c in rng.integers(0, 100, size=2)) for _ in range(800)]
        values = [int(v) for v in rng.integers(0, 5, size=800)]
        plain = RTree.bulk_load(points, values, leaf_capacity=8, fanout=8)
        annotated = RTree.bulk_load(
            points, values, leaf_capacity=8, fanout=8, with_aggregates=True
        )
        box = Box((0, 0), (99, 99))
        assert plain.range_sum(box) == annotated.range_sum(box)
        assert annotated.leaf_accesses < plain.leaf_accesses

    def test_results_identical_on_random_boxes(self):
        rng = np.random.default_rng(4)
        points = [tuple(int(c) for c in rng.integers(0, 64, size=3)) for _ in range(600)]
        values = [int(v) for v in rng.integers(-5, 6, size=600)]
        plain = RTree.bulk_load(points, values, leaf_capacity=8, fanout=8)
        annotated = RTree.bulk_load(
            points, values, leaf_capacity=8, fanout=8, with_aggregates=True
        )
        for _ in range(20):
            box = random_box(rng, (64, 64, 64))
            assert plain.range_sum(box) == annotated.range_sum(box)
