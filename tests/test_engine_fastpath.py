"""Tests for the vectorized batch execution engine (fast mode).

The metered path is the paper's counted reference; the fast path must be
*observationally identical* -- same answers, same append discipline, same
errors -- while evaluating term sets as flat gathers.  These tests pin
that equivalence plus the supporting pieces: precomputed term tables,
bulk DDC->PS finalization, batch cache restamping, and the batch APIs of
all three front-ends.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import AgedOutError, AppendOrderError, DomainError
from repro.core.framework import AppendOnlyAggregator, BatchExecutor
from repro.core.types import Box
from repro.ecube import compiled
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.cache import SliceCache
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.fastpath import FastSliceEngine
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.ecube.slices import ECubeSliceEngine
from repro.metrics import CostCounter
from repro.preagg.ddc import DDCTechnique
from repro.preagg.prefix_sum import PrefixSumTechnique
from repro.preagg.term_tables import (
    TermTable,
    TermTableSet,
    ddc_gather_counts,
    fenwick_term_counts,
    gathered_cell_count,
    ps_gather_counts,
)

from tests.conftest import brute_box_sum, random_box


def random_append_stream(rng, shape, count):
    times = np.sort(rng.integers(0, shape[0], size=count))
    updates = []
    for t in times:
        cell = tuple(int(rng.integers(0, n)) for n in shape[1:])
        updates.append(((int(t),) + cell, int(rng.integers(-5, 9))))
    return updates


def build_metered(shape, updates, kernel=EvolvingDataCube):
    cube = kernel(shape[1:], num_times=shape[0], counter=CostCounter())
    for point, delta in updates:
        cube.update(point, delta)
    return cube


# -- term tables -------------------------------------------------------------


class TestTermTables:
    @given(n=st.integers(1, 64), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_range_terms_equal_prefix_difference(self, n, data):
        """range_terms(l, u) == prefix_terms(u) - prefix_terms(l-1)

        as a *signed multiset*: DDC's direct range algorithm only skips
        cells shared by both prefix descents, it never changes the sum's
        term structure otherwise.
        """
        technique = DDCTechnique(n)
        upper = data.draw(st.integers(0, n - 1))
        lower = data.draw(st.integers(0, upper))
        signed = Counter()
        for index, coeff in technique.range_terms(lower, upper):
            signed[index] += coeff
        expected = Counter()
        for index, coeff in technique.prefix_terms(upper):
            expected[index] += coeff
        for index, coeff in technique.prefix_terms(lower - 1):
            expected[index] -= coeff
        assert {i: c for i, c in signed.items() if c} == {
            i: c for i, c in expected.items() if c
        }

    @given(n=st.integers(1, 40), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_csr_tables_match_technique(self, n, data):
        technique = DDCTechnique(n)
        table = TermTable(technique)
        k = data.draw(st.integers(-1, n - 1))
        indices, coeffs = table.prefix_slice(k)
        assert [(int(i), int(c)) for i, c in zip(indices, coeffs)] == (
            technique.prefix_terms(k)
        )
        i = data.draw(st.integers(0, n - 1))
        indices, coeffs = table.update_slice(i)
        assert [(int(j), int(c)) for j, c in zip(indices, coeffs)] == (
            technique.update_terms(i)
        )
        upper = data.draw(st.integers(0, n - 1))
        lower = data.draw(st.integers(0, upper))
        indices, coeffs = table.range_slice(lower, upper)
        assert [(int(j), int(c)) for j, c in zip(indices, coeffs)] == (
            technique.range_terms(lower, upper)
        )

    def test_range_eval_on_ddc_array(self, rng):
        shape = (9, 7, 5)
        dense = rng.integers(-4, 9, size=shape).astype(np.int64)
        ddc = dense
        techniques = [DDCTechnique(n) for n in shape]
        for axis, technique in enumerate(techniques):
            ddc = technique.aggregate(ddc, axis=axis)
        tables = TermTableSet(techniques)
        for _ in range(25):
            box = random_box(rng, shape)
            assert tables.range_eval(ddc, box.lower, box.upper) == (
                brute_box_sum(dense, box)
            )
            assert tables.prefix_eval(ddc, box.upper) == brute_box_sum(
                dense, Box((0,) * len(shape), box.upper)
            )


# -- fast/metered equivalence ------------------------------------------------


class TestFastMeteredEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_query_many_matches_metered(self, seed):
        rng = np.random.default_rng(seed)
        shape = (6, 5, 4)
        updates = random_append_stream(rng, shape, 60)
        metered = build_metered(shape, updates)
        fast = build_metered(shape, updates)
        boxes = [random_box(rng, shape) for _ in range(12)]
        # convert a few cells first so mixed DDC/PS slices are exercised
        metered.query(boxes[0])
        fast.query(boxes[0])
        expected = [metered.query(box) for box in boxes]
        assert fast.query_many(boxes, mode="fast") == expected
        assert fast.query_many(boxes, mode="metered") == expected
        # fast queries must not have perturbed subsequent metered answers
        assert [fast.query(box) for box in boxes] == expected

    def test_fast_queries_never_charge_more_than_metered(self, rng):
        shape = (8, 5, 5)
        updates = random_append_stream(rng, shape, 80)
        metered = build_metered(shape, updates)
        fast = build_metered(shape, updates)
        boxes = [random_box(rng, shape) for _ in range(30)]
        before = metered.counter.snapshot()
        expected = [metered.query(box) for box in boxes]
        metered_cells = (metered.counter.snapshot() - before).cell_accesses
        before = fast.counter.snapshot()
        assert fast.query_many(boxes, mode="fast") == expected
        fast_cells = (fast.counter.snapshot() - before).cell_accesses
        # the fast engine answers from frozen arrays; its metered charge
        # is the stamps it reads, never a whole-slice freeze
        assert 0 < fast_cells <= metered_cells, (fast_cells, metered_cells)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_update_many_matches_metered_stream(self, seed):
        self.check_update_many_matches_metered_stream(EvolvingDataCube, seed)

    @pytest.mark.parametrize("kernel", [DiskEvolvingDataCube, SparseEvolvingDataCube])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_update_many_matches_metered_stream_on_store(self, kernel, seed):
        self.check_update_many_matches_metered_stream(kernel, seed)

    @staticmethod
    def check_update_many_matches_metered_stream(kernel, seed):
        rng = np.random.default_rng(seed)
        shape = (6, 4, 4)
        updates = random_append_stream(rng, shape, 50)
        metered = build_metered(shape, updates, kernel)
        fast = kernel(shape[1:], num_times=shape[0], counter=CostCounter())
        points = np.array([point for point, _ in updates], dtype=np.int64)
        deltas = np.array([delta for _, delta in updates], dtype=np.int64)
        fast.update_many(points, deltas, mode="fast")
        # each same-time group inspects every cell of its DDC update sets
        # once: the dedupe (compiled.sorted_unique) counts each cell once
        techniques = [DDCTechnique(n) for n in shape[1:]]
        groups: dict[int, set] = {}
        for (time, *cell), _ in updates:
            terms = [t.update_terms(i) for t, i in zip(techniques, cell)]
            groups.setdefault(time, set()).update(itertools.product(*terms))
        distinct = sum(map(len, groups.values()))
        assert fast.counter.snapshot().cell_reads == distinct
        fast_cache, _ = fast.store.cache_views()
        assert np.array_equal(fast_cache, metered.store.cache_views()[0])
        boxes = [random_box(rng, shape) for _ in range(10)]
        assert [fast.query(b) for b in boxes] == [metered.query(b) for b in boxes]
        assert fast.total() == metered.total()

    def test_query_many_against_dense_truth(self, rng):
        shape = (8, 6, 5)
        updates = random_append_stream(rng, shape, 120)
        dense = np.zeros(shape, dtype=np.int64)
        for point, delta in updates:
            dense[point] += delta
        dense_ps = dense.cumsum(axis=0)
        cube = build_metered(shape, updates)
        boxes = [random_box(rng, shape) for _ in range(40)]
        expected = []
        for box in boxes:
            upper = brute_box_sum(
                dense_ps[box.upper[0]], box.drop_first()
            )
            lower = (
                brute_box_sum(dense_ps[box.lower[0] - 1], box.drop_first())
                if box.lower[0] > 0
                else 0
            )
            expected.append(upper - lower)
        assert cube.query_many(boxes, mode="fast") == expected

    def test_update_many_enforces_append_order_and_domain(self):
        cube = EvolvingDataCube((4, 4), num_times=10)
        with pytest.raises(AppendOrderError):
            cube.update_many([(3, 0, 0), (1, 0, 0)], [1, 1])
        with pytest.raises(DomainError):
            cube.update_many([(0, 0, 4)], [1])
        with pytest.raises(DomainError):
            cube.update_many([(0, 0)], [1])
        cube.update_many([(5, 1, 1)], [2])
        with pytest.raises(AppendOrderError):
            cube.update_many([(3, 0, 0)], [1])

    def test_query_many_validates_arity(self):
        cube = EvolvingDataCube((4, 4))
        cube.update((0, 1, 1), 3)
        with pytest.raises(DomainError):
            cube.query_many([Box((0, 0), (1, 1))])


# -- bulk finalization and copy sync ----------------------------------------


class TestBulkFinalize:
    def test_finalize_makes_slice_fully_ps(self, rng):
        shape = (5, 6, 6)
        updates = random_append_stream(rng, shape, 60)
        cube = build_metered(shape, updates)
        reference = build_metered(shape, updates)
        finalized = 0
        for index in range(cube.num_slices - 1):
            if cube.bulk_finalize_slice(index):
                finalized += 1
                _, payload = cube.directory.at_index(index)
                assert payload.ps_count == cube._num_slice_cells
                assert bool(payload.ps_flags.all())
        assert finalized > 0
        boxes = [random_box(rng, shape) for _ in range(30)]
        assert [cube.query(b) for b in boxes] == [
            reference.query(b) for b in boxes
        ]

    def test_finalize_refuses_latest_slice(self):
        cube = EvolvingDataCube((4,))
        cube.update((0, 1), 1)
        assert cube.bulk_finalize_slice(cube.num_slices - 1) is False

    def test_sync_copies_completes_history(self, rng):
        shape = (6, 5, 4)
        updates = random_append_stream(rng, shape, 40)
        cube = EvolvingDataCube(
            shape[1:], num_times=shape[0], counter=CostCounter()
        )
        points = np.array([p for p, _ in updates], dtype=np.int64)
        deltas = np.array([d for _, d in updates], dtype=np.int64)
        cube.update_many(points, deltas, mode="fast")
        cube.sync_copies()
        assert cube.incomplete_historic_instances() == 0
        reference = build_metered(shape, updates)
        boxes = [random_box(rng, shape) for _ in range(15)]
        assert [cube.query(b) for b in boxes] == [
            reference.query(b) for b in boxes
        ]


class TestBulkRestamp:
    def test_matches_per_cell_restamp(self, counter):
        shape = (4, 5)
        a = SliceCache(shape, counter)
        b = SliceCache(shape, CostCounter())
        for _ in range(3):
            a.notice_new_time()
            b.notice_new_time()
        cells = [(0, 0), (1, 3), (3, 4)]
        flat = np.array([np.ravel_multi_index(c, shape) for c in cells])
        a.bulk_restamp(flat, a.last_index)
        for cell in cells:
            b.restamp(cell, b.last_index)
        assert np.array_equal(a.stamps, b.stamps)
        assert a.pending == b.pending
        assert a.incomplete_instances() == b.incomplete_instances()

    def test_rejects_stamp_regression(self, counter):
        cache = SliceCache((4,), counter)
        cache.notice_new_time()
        cache.restamp((2,), 1)
        with pytest.raises(DomainError):
            cache.bulk_restamp(np.array([2]), 0)


# -- satellite regressions ---------------------------------------------------


class TestDegenerateRanges:
    def test_degenerate_boxes_return_zero_without_reads(self):
        engine = ECubeSliceEngine((6, 4))

        def read(cell):
            raise AssertionError(f"degenerate box read cell {cell}")

        # fully below and fully above the domain in one dimension (Box
        # construction itself forbids lower > upper, so degeneracy can
        # only arise from out-of-domain coordinates)
        for box in (
            Box((0, -5), (5, -1)),
            Box((6, 0), (9, 3)),
            Box((-9, -5), (-1, -2)),
        ):
            assert engine.range_query(box, read, None) == 0

    def test_nondegenerate_boxes_still_clip(self, rng):
        shape = (6, 4)
        dense = rng.integers(0, 9, size=shape).astype(np.int64)
        cube = EvolvingDataCube(shape)
        # a single occurring time; overhang must clip, not zero out
        for cell in np.ndindex(shape):
            if dense[cell]:
                cube.update((0,) + cell, int(dense[cell]))
        box = Box((0, 2, 1), (0, 99, 99))
        assert cube.query(box) == int(dense[2:, 1:].sum())

    def test_fast_entry_points_guard_degenerate_boxes(self, rng):
        """mixed_range (the one per-box term-table reader left) must mirror
        the metered engine's empty-range early return instead of tripping
        a term-table domain error on out-of-domain coordinates."""
        shape = (6, 4)
        engine = FastSliceEngine(shape)
        values = rng.integers(1, 9, size=shape).astype(np.int64)
        cache = rng.integers(1, 9, size=shape).astype(np.int64)
        flags = np.zeros(shape, dtype=bool)
        stamps = np.full(shape, 5, dtype=np.int64)
        for box in (
            Box((0, -5), (5, -1)),
            Box((6, 0), (9, 3)),
            Box((-9, -5), (-1, -2)),
        ):
            assert engine.mixed_range(box, values, flags, stamps, cache, 2) == (
                0,
                0,
            )

    def test_fast_query_many_matches_metered_on_overhang_boxes(self, rng):
        shape = (8, 6, 4)
        updates = random_append_stream(rng, shape, 60)
        metered = build_metered(shape, updates)
        fast = build_metered(shape, updates)
        # convert a few slices so all three fast strategies are exercised
        for _ in range(10):
            box = random_box(rng, shape)
            metered.query(box)
            fast.query(box)
        boxes = [
            Box((2, -2, 0), (5, 99, 99)),  # overhang both sides: clips
            Box((0, 0, 0), (99, 99, 99)),  # whole-domain overhang
            random_box(rng, shape),
        ]
        expected = [metered.query(box) for box in boxes]
        assert fast.query_many(boxes, mode="fast") == expected
        # cube-level empty boxes fail identically in both modes
        empty = Box((0, 0, -5), (7, 5, -1))
        with pytest.raises(DomainError):
            metered.query(empty)
        with pytest.raises(DomainError):
            fast.query_many([empty], mode="fast")


class TestRetirementGuard:
    def test_retired_slice_raises_aged_out(self):
        cube = EvolvingDataCube((4,))
        for t in range(3):
            cube.update((t, 1), 1)
        _, payload = cube.directory.at_index(0)
        payload.retire()
        with pytest.raises(AgedOutError):
            payload.data()
        assert payload.retired
        assert payload.values is None and payload.ps_flags is None

    def test_fast_query_into_retired_region_raises(self):
        cube = EvolvingDataCube((4,))
        for t in range(4):
            cube.update((t, 1), 1)
        cube.retire_before(2)
        # time 0's instance is retired (time 1's survives as the boundary)
        box = Box((0, 0), (0, 3))
        with pytest.raises(AgedOutError):
            cube.query_many([box], mode="fast")
        with pytest.raises(AgedOutError):
            cube.query(box)


# -- batch protocol across front-ends ----------------------------------------


class TestBatchExecutorProtocol:
    def test_all_front_ends_satisfy_protocol(self):
        assert isinstance(EvolvingDataCube((4,)), BatchExecutor)
        assert isinstance(DiskEvolvingDataCube((4,)), BatchExecutor)
        assert isinstance(SparseEvolvingDataCube((4,)), BatchExecutor)
        assert isinstance(BufferedEvolvingDataCube((4,)), BatchExecutor)
        assert isinstance(AppendOnlyAggregator(), BatchExecutor)

    def test_sparse_batch_matches_singles(self, rng):
        shape = (6, 8, 4)
        updates = random_append_stream(rng, shape, 40)
        single = SparseEvolvingDataCube(shape[1:], counter=CostCounter())
        batched = SparseEvolvingDataCube(shape[1:], counter=CostCounter())
        for point, delta in updates:
            single.update(point, delta)
        batched.update_many(
            [point for point, _ in updates], [d for _, d in updates]
        )
        boxes = [random_box(rng, shape) for _ in range(15)]
        expected = [single.query(box) for box in boxes]
        assert batched.query_many(boxes) == expected
        assert batched.query_many(boxes, mode="metered") == expected

    def test_aggregator_batch_matches_singles(self, rng):
        shape = (8, 16)
        updates = random_append_stream(rng, shape, 50)
        single = AppendOnlyAggregator()
        batched = AppendOnlyAggregator()
        for point, delta in updates:
            single.update(point, delta)
        batched.update_many(
            [point for point, _ in updates], [d for _, d in updates]
        )
        boxes = [random_box(rng, shape) for _ in range(20)]
        assert batched.query_many(boxes) == [single.query(b) for b in boxes]

    def test_disk_batch_matches_singles(self, rng):
        shape = (6, 8, 4)
        updates = random_append_stream(rng, shape, 40)
        single = DiskEvolvingDataCube(shape[1:], counter=CostCounter())
        batched = DiskEvolvingDataCube(shape[1:], counter=CostCounter())
        for point, delta in updates:
            single.update(point, delta)
        batched.update_many(
            [point for point, _ in updates], [d for _, d in updates]
        )
        boxes = [random_box(rng, shape) for _ in range(15)]
        singles_pages = 0
        expected = []
        for box in boxes:
            expected.append(single.query(box))
            singles_pages += single.last_op_page_accesses
        assert batched.query_many(boxes) == expected
        # the shared tracker charges each page once per batch
        assert 0 < batched.last_op_page_accesses <= singles_pages


# -- fast engine internals ---------------------------------------------------


class TestFastSliceEngine:
    def test_ddc_to_ps_roundtrip(self, rng):
        shape = (7, 5)
        dense = rng.integers(-3, 8, size=shape).astype(np.int64)
        engine = FastSliceEngine(shape)
        ddc = dense
        for axis, technique in enumerate(engine.ddc_techniques):
            ddc = technique.aggregate(ddc, axis=axis)
        ps = engine.ddc_to_ps(ddc)
        assert np.array_equal(ps, dense.cumsum(axis=0).cumsum(axis=1))

    def test_update_flat_indices_match_engine(self, rng):
        shape = (9, 6)
        fast = FastSliceEngine(shape)
        slice_engine = ECubeSliceEngine(shape)
        for _ in range(20):
            cell = tuple(int(rng.integers(0, n)) for n in shape)
            expected = sorted(
                np.ravel_multi_index(c, shape)
                for c in slice_engine.update_cells(cell)
            )
            assert sorted(fast.update_flat_indices(cell).tolist()) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batched_update_sets_are_the_concatenated_per_cell_sets(self, data):
        # size-1 and non-power-of-two axes included
        shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
        cell = st.tuples(*(st.integers(0, n - 1) for n in shape))
        cells = np.asarray(
            data.draw(st.lists(cell, min_size=1, max_size=12)), dtype=np.int64
        )
        fast = FastSliceEngine(shape)
        per_cell = [fast.update_flat_indices(c) for c in cells]
        flat, sizes = fast.ddc_tables.update_flat_sets(cells)
        assert sizes.tolist() == [run.size for run in per_cell]
        assert np.array_equal(flat, np.concatenate(per_cell))  # element-wise

    def test_fast_ops_counted(self):
        cube = EvolvingDataCube((4, 4))
        cube.update_many([(0, 1, 1), (1, 2, 2)], [1, 2], mode="fast")
        cube.query_many([Box((0, 0, 0), (1, 3, 3))], mode="fast")
        assert cube.counter.snapshot().fast_ops == 3


class TestCompiledLayer:
    """The NumPy kernels are the kernels: one implementation, no switch."""

    def test_backend_name_is_numpy(self):
        assert compiled.backend_name() == "numpy"

    def test_import_is_silent_under_W_error(self):
        # importing and exercising the engine must be silent: -W error
        # turns any warning fatal
        code = (
            "import repro\n"
            "from repro.core.types import Box\n"
            "from repro.ecube.ecube import EvolvingDataCube\n"
            "cube = EvolvingDataCube((4, 4))\n"
            "cube.update_many([(0, 1, 1), (1, 2, 2)], [1, 2], mode='fast')\n"
            "print(cube.query_many([Box((0, 0, 0), (1, 3, 3))], mode='fast')[0])\n"
        )
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "3"
        assert result.stderr == ""


class TestSortedUnique:
    """The write path's dedupe is ``np.unique``, by sort instead of hash."""

    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=64)
        | st.lists(st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]), max_size=64)
    )
    @example(values=[])
    @example(values=[7])
    @example(values=[3] * 9)
    @example(values=[2**63 - 1, -(2**63), 2**63 - 1, -(2**63), -(2**63) + 1])
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique_on_int64(self, values):
        array = np.array(values, dtype=np.int64)
        before = array.copy()
        out = compiled.sorted_unique(array)
        expected = np.unique(array)
        assert out.dtype == expected.dtype and np.array_equal(out, expected)
        assert np.array_equal(array, before)  # the input is not sorted in place
        ordered = np.sort(array)
        starts = compiled.run_starts(ordered)
        assert np.array_equal(ordered[starts], expected)
        assert np.array_equal(starts, np.searchsorted(ordered, expected))


class TestGatherCountParity:
    """Closed-form bulk charges equal the per-box term-table tallies."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 33, 64, 100])
    def test_fenwick_term_counts_closed_form(self, n):
        technique = DDCTechnique(n)
        pairs = [
            (low, up) for low in range(n) for up in range(low, n)
        ]
        lowers = np.array([p[0] for p in pairs], dtype=np.int64)
        uppers = np.array([p[1] for p in pairs], dtype=np.int64)
        counts = fenwick_term_counts(lowers, uppers)
        for (low, up), count in zip(pairs, counts.tolist()):
            assert count == len(technique.range_terms(low, up)), (low, up)

    def test_gather_counts_match_gathered_cell_count(self, rng):
        shape = (13, 7, 21)
        ddc_tables = TermTableSet([DDCTechnique(n) for n in shape])
        ps_tables = TermTableSet([PrefixSumTechnique(n) for n in shape])
        lowers = np.column_stack(
            [rng.integers(0, n, size=50) for n in shape]
        ).astype(np.int64)
        uppers = np.column_stack(
            [rng.integers(0, n, size=50) for n in shape]
        ).astype(np.int64)
        uppers = np.maximum(lowers, uppers)
        ddc_counts = ddc_gather_counts(lowers, uppers)
        ps_counts = ps_gather_counts(lowers)
        for i in range(lowers.shape[0]):
            low, up = lowers[i].tolist(), uppers[i].tolist()
            assert ddc_counts[i] == gathered_cell_count(
                ddc_tables.range_arrays(low, up)[0]
            )
            assert ps_counts[i] == gathered_cell_count(
                ps_tables.range_arrays(low, up)[0]
            )
