"""Differential suite for temporal top-k ranking.

``topk_many`` must be *bit-identical* to the brute-force NumPy oracle --
same cells, same values, same order -- on every front (bare kernels of
all three storage backends, ``G_d``-buffered, and the sharded cube), including
ties, ``k`` larger than the live cell count, degenerate intervals and
out-of-order updates arriving mid-stream.  A separate deterministic
suite pins the pruning economics: on skewed workloads the threshold
path must never charge more metered cell accesses than the dense gather
it replaces.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box
from repro.concurrent import SnapshotCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.metrics import CostCounter
from repro.ranking import TopKEngine, TopKStats, brute_topk
from repro.retention import TieredCube
from repro.sharding import ShardedCube

BACKENDS = ("dense", "paged", "sparse")


def _bare_cube(backend, shape, counter=None):
    if backend == "dense":
        return EvolvingDataCube(shape, counter=counter)
    if backend == "paged":
        return DiskEvolvingDataCube(shape, counter=counter)
    return SparseEvolvingDataCube(shape, counter=counter)


def _dense_oracle(shape, num_times, updates):
    dense = np.zeros((num_times, *shape), dtype=np.int64)
    for point, delta in updates:
        dense[tuple(point)] += delta
    return dense


@st.composite
def topk_workloads(draw, signed=False):
    """A small cube stream plus a batch of (t1, t2, k) queries.

    Update times are drawn freely, so the stream contains out-of-order
    points mid-stream; deltas are drawn from a narrow band to force
    value ties.  Queries include inverted (t2 < t1) intervals,
    single-instant intervals and k beyond the live cell count.
    """
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(2, 5)) for _ in range(ndim))
    num_times = draw(st.integers(1, 10))
    low_delta = -4 if signed else 1
    n_updates = draw(st.integers(0, 30))
    updates = []
    for _ in range(n_updates):
        point = (draw(st.integers(0, num_times - 1)),) + tuple(
            draw(st.integers(0, n - 1)) for n in shape
        )
        delta = draw(
            st.integers(low_delta, 4).filter(lambda d: d != 0)
        )
        updates.append((point, delta))
    cells = int(np.prod(shape))
    queries = draw(
        st.lists(
            st.tuples(
                st.integers(-2, num_times + 2),
                st.integers(-2, num_times + 2),
                st.integers(0, cells + 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return shape, num_times, updates, queries


class TestDifferentialOracle:
    @pytest.mark.parametrize("backend", ["dense"])  # the store G_d sits over
    @settings(max_examples=30)
    @given(workload=topk_workloads())
    def test_buffered_fronts_match_oracle(self, backend, workload):
        shape, num_times, updates, queries = workload
        front = BufferedEvolvingDataCube(shape)
        for point, delta in updates:  # out-of-order points go through G_d
            front.update(point, delta)
        dense = _dense_oracle(shape, num_times, updates)
        engine = TopKEngine(front, nonnegative=True)
        got = engine.topk_many(queries)
        want = [brute_topk(dense, t1, t2, k) for t1, t2, k in queries]
        assert got == want

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=20)
    @given(workload=topk_workloads())
    def test_bare_kernels_match_oracle(self, backend, workload):
        shape, num_times, updates, queries = workload
        front = _bare_cube(backend, shape)
        for point, delta in sorted(updates, key=lambda u: u[0][0]):
            front.update(point, delta)  # bare kernels are append-only
        dense = _dense_oracle(shape, num_times, updates)
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk_many(queries) == [
            brute_topk(dense, t1, t2, k) for t1, t2, k in queries
        ]

    @settings(max_examples=15)
    @given(workload=topk_workloads())
    def test_sharded_cube_matches_oracle(self, workload):
        shape, num_times, updates, queries = workload
        if len(shape) == 1 and shape[0] < 2:
            return
        cube = ShardedCube(shape, shards=2, processes=False, buffered=True)
        try:
            for point, delta in updates:
                cube.update(point, delta)
            dense = _dense_oracle(shape, num_times, updates)
            got = cube.topk_many(queries, nonnegative=True)
            assert got == [
                brute_topk(dense, t1, t2, k) for t1, t2, k in queries
            ]
        finally:
            cube.close()

    @settings(max_examples=20)
    @given(workload=topk_workloads(signed=True))
    def test_signed_workloads_run_exact_dense(self, workload):
        """Without the non-negativity declaration the engine must stay
        exact on signed deltas (negative cells rank below zeros)."""
        shape, num_times, updates, queries = workload
        front = BufferedEvolvingDataCube(shape)
        for point, delta in updates:
            front.update(point, delta)
        dense = _dense_oracle(shape, num_times, updates)
        engine = TopKEngine(front)  # nonnegative not declared
        assert engine.topk_many(queries) == [
            brute_topk(dense, t1, t2, k) for t1, t2, k in queries
        ]
        assert all(s.strategy == "dense" for s in engine.last_stats)


class TestEdgeSemantics:
    def test_exact_ties_break_lexicographically(self):
        front = BufferedEvolvingDataCube((3, 3))
        # four cells tie at 5; two more tie at 3
        for cell in [(0, 2), (1, 0), (2, 1), (2, 2)]:
            front.update((0, *cell), 5)
        for cell in [(0, 0), (1, 2)]:
            front.update((1, *cell), 3)
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk(0, 1, 5) == [
            ((0, 2), 5),
            ((1, 0), 5),
            ((2, 1), 5),
            ((2, 2), 5),
            ((0, 0), 3),
        ]

    def test_k_beyond_live_cells_zero_fills_in_lex_order(self):
        front = BufferedEvolvingDataCube((2, 2))
        front.update((0, 1, 0), 7)
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk(0, 0, 4) == [
            ((1, 0), 7),
            ((0, 0), 0),
            ((0, 1), 0),
            ((1, 1), 0),
        ]
        # k past the domain clamps to the cell count
        assert len(engine.topk(0, 0, 99)) == 4

    def test_degenerate_interval_is_all_zero(self):
        front = BufferedEvolvingDataCube((2, 2))
        front.update((3, 0, 0), 9)
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk(5, 2, 3) == [((0, 0), 0), ((0, 1), 0), ((1, 0), 0)]
        assert engine.topk(1, 1, 1) == [((0, 0), 0)]

    def test_k_zero_is_empty(self):
        front = BufferedEvolvingDataCube((2, 2))
        front.update((0, 0, 0), 1)
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk(0, 0, 0) == []

    def test_negative_marginal_falls_back_to_dense(self):
        """A caller wrongly declaring non-negativity still gets exact
        answers when a marginal disproves the declaration."""
        front = BufferedEvolvingDataCube((2, 2))
        front.update((0, 0, 0), 5)
        front.update((0, 0, 1), -9)  # makes marginal axis-0 row 0 negative
        front.drain(None)
        dense = _dense_oracle((2, 2), 1, [((0, 0, 0), 5), ((0, 0, 1), -9)])
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk(0, 0, 4) == brute_topk(dense, 0, 0, 4)
        assert engine.last_stats[0].strategy == "dense"

    def test_shape_inference_and_validation(self):
        front = BufferedEvolvingDataCube((2, 2))
        front.update((0, 1, 1), 3)

        class Wrapped:  # a front that declares no stack: query_many only
            def __init__(self, inner):
                self.query_many = inner.query_many

        # a declared stack says its own shape ...
        assert TopKEngine(front, nonnegative=True).slice_shape == (2, 2)
        # ... anything else passes it
        with pytest.raises(DomainError, match="declares no layer kind"):
            TopKEngine(Wrapped(front), nonnegative=True)
        engine = TopKEngine(Wrapped(front), slice_shape=(2, 2), nonnegative=True)
        assert engine.topk(0, 0, 1) == [((1, 1), 3)]
        with pytest.raises(DomainError):
            TopKEngine(front, slice_shape=())

    def test_pairwise_bound_is_exact_on_three_dim_domains(self):
        """ndim >= 3 engages the pairwise marginal tightening; results
        must stay bit-identical to the oracle."""
        rng = np.random.default_rng(7)
        shape = (6, 6, 3)
        num_times = 8
        updates = []
        for t in range(num_times):
            for _ in range(12):
                cell = (
                    int(rng.integers(0, 6)),
                    int(rng.integers(0, 6)),
                    int(rng.integers(0, 3)),
                )
                updates.append(((t, *cell), int(rng.integers(1, 9))))
        front = BufferedEvolvingDataCube(shape)
        for point, delta in updates:
            front.update(point, delta)
        dense = _dense_oracle(shape, num_times, updates)
        engine = TopKEngine(front, nonnegative=True)
        queries = [(0, num_times - 1, 3), (2, 5, 1)]
        assert engine.topk_many(queries) == [
            brute_topk(dense, *q) for q in queries
        ]
        for stats in engine.last_stats:
            assert stats.strategy == "prune"
            # more prefix boxes than the per-axis marginals alone: the
            # pairwise bound was engaged
            assert stats.marginal_boxes > sum(shape)

    def test_negative_pair_marginal_falls_back_to_dense(self):
        """A signed workload whose per-axis marginals are all
        non-negative can still be disproven by the pairwise marginal."""
        shape = (2, 2, 3)
        updates = [
            ((0, 0, 0, 0), -3),
            ((0, 0, 0, 1), 1),
            ((0, 0, 1, 0), 4),
            ((0, 1, 0, 0), 5),
            ((0, 1, 1, 2), 2),
        ]
        front = BufferedEvolvingDataCube(shape)
        for point, delta in updates:
            front.update(point, delta)
        front.drain(None)
        dense = _dense_oracle(shape, 1, updates)
        engine = TopKEngine(front, nonnegative=True)
        assert engine.topk(0, 0, 12) == brute_topk(dense, 0, 0, 12)
        (stats,) = engine.last_stats
        assert stats.strategy == "dense"
        assert stats.marginal_boxes > sum(shape)

    def test_stats_expose_pruning(self):
        front = BufferedEvolvingDataCube((6, 6))
        front.update((0, 2, 3), 100)
        front.update((0, 4, 1), 1)
        engine = TopKEngine(front, nonnegative=True)
        engine.topk(0, 0, 1)
        (stats,) = engine.last_stats
        assert isinstance(stats, TopKStats)
        assert stats.strategy == "prune"
        assert stats.materialized < stats.cells
        assert stats.pruned_cells == stats.cells - stats.materialized


class TestPruningCharges:
    """Threshold pruning must not cost more than the dense gather."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prune_charges_at_most_dense(self, seed, backend):
        rng = np.random.default_rng(seed)
        shape = (8, 8)
        num_times = 24
        hot = [
            tuple(int(c) for c in rng.integers(0, 8, size=2))
            for _ in range(4)
        ]
        updates = []
        for t in range(num_times):
            for _ in range(6):
                cell = hot[int(rng.integers(0, len(hot)))]
                updates.append(((t, *cell), int(rng.integers(1, 9))))

        def charges(nonnegative):
            counter = CostCounter()
            front = _bare_cube(backend, shape, counter)
            for point, delta in updates:  # in time order: a bare kernel takes them
                front.update(point, delta)
            engine = TopKEngine(front, nonnegative=nonnegative)
            before = counter.snapshot()
            results = engine.topk_many(
                [(0, num_times - 1, 3), (4, 12, 5)], mode="metered"
            )
            return results, (counter.snapshot() - before).cell_accesses

        pruned_results, pruned_cost = charges(nonnegative=True)
        dense_results, dense_cost = charges(nonnegative=False)
        assert pruned_results == dense_results
        assert pruned_cost <= dense_cost



#: a two-rung ladder: some demoted floors are rollup boundaries, the rest
#: come from tiles
TIERS = [
    {"name": "fine", "granularity": 4, "horizon": 8},
    {"name": "coarse", "granularity": 8, "horizon": None},
]

#: in order from time 3, then late: before the first instance (1), inside
#: the demoted history (6) and inside the live history (14); signed deltas
IN_ORDER = sorted(
    [((t, t % 8, 3 * t % 8), (-1) ** t * (t + 2)) for t in range(3, 20)]
    + [((t, 7 - t % 8, t % 5), 3) for t in range(3, 20, 2)]
)
LATE = [((1, 2, 2), 9), ((6, 5, 1), -4), ((14, 0, 0), 11), ((6, 3, 7), 2)]


class TestShardedTwoSliceRanking:
    """A shard ranks ``ps(t2) - ps(t1 - 1)`` and its inverse prefix: the
    same lists as the brute oracle and the unsharded front, on every
    stack the shards run, in both process layouts."""

    @staticmethod
    def _stream(front, buffered: bool, tiered: bool) -> None:
        for point, delta in IN_ORDER:
            front.update(point, delta)
        if tiered:
            front.demote_before(10)
        if buffered:  # G_d after the demotion, which drains it
            for point, delta in LATE:
                front.update(point, delta)
        else:
            # retires 3 and 4 of a live cube, a tiered one demoted them
            # already (a buffered retire would prune G_d below it:
            # TestShardedRetirement)
            front.retire_before(6)

    @staticmethod
    def _outcome(rank):
        try:
            return rank()
        except AgedOutError:
            return AgedOutError

    def _compare(self, tmp_path, buffered, tiered, processes, windows):
        shape = (8, 8)
        oracle = BufferedEvolvingDataCube(shape) if buffered else EvolvingDataCube(shape)
        if tiered:
            oracle = TieredCube(oracle, TIERS, tmp_path / "oracle")
        self._stream(oracle, buffered, tiered)
        updates = IN_ORDER + (LATE if buffered else [])
        dense = _dense_oracle(shape, 24, updates)
        engine = TopKEngine(oracle, nonnegative=False)
        with ShardedCube(
            shape, shards=2, processes=processes, buffered=buffered,
            tiers=TIERS if tiered else None, tile_root=tmp_path / "shards",
        ) as cube:  # fmt: skip
            self._stream(cube, buffered, tiered)
            if tiered:
                assert cube.router.demote_boundary is not None
            refused = answered = 0
            for t1, t2, k in windows:
                query = [(t1, t2, k)]
                want = self._outcome(lambda: engine.topk_many(query))
                got = self._outcome(lambda: cube.topk_many(query))
                assert got == want, (t1, t2, k)
                if want is AgedOutError:
                    refused += 1
                    continue
                answered += 1
                assert got == [brute_topk(dense, t1, t2, k)], (t1, t2, k)
            return refused, answered

    @pytest.mark.parametrize("buffered", [False, True], ids=["bare", "buffered"])
    @pytest.mark.parametrize("tiered", [False, True], ids=["live", "tiered"])
    def test_in_process_shards_rank_as_the_oracles(self, tmp_path, buffered, tiered):
        # k past the 64 cells, inverted windows, windows from before the
        # first instance and past the last
        windows = itertools.product(range(-1, 23, 2), range(-2, 24, 3), (0, 3, 70))
        refused, answered = self._compare(tmp_path, buffered, tiered, False, windows)
        assert answered and bool(refused) == (not tiered and not buffered)

    def test_worker_processes_rank_as_the_oracles(self, tmp_path):
        windows = itertools.product((-1, 2, 4, 5, 9, 12), (5, 10, 15, 22), (1, 70))
        refused, answered = self._compare(tmp_path, True, True, True, windows)
        assert answered and not refused

    def test_extreme_scores_rank_by_value_not_by_their_negation(self):
        """A cell scoring -2**63 ranks last: negating it would wrap, and
        the shard would hand it to the router in place of a real winner."""
        low = np.iinfo(np.int64).min
        # shard 0 holds cells 0-3, shard 1 cells 4-7
        updates = [((0, 0), low), ((0, 1), 3), ((0, 2), 2), ((0, 7), -1)]
        dense = _dense_oracle((8,), 1, updates)
        with ShardedCube((8,), shards=2, processes=False, buffered=False) as cube:
            cube.update_many([p for p, _ in updates], [d for _, d in updates])
            assert cube.topk(0, 0, 2) == brute_topk(dense, 0, 0, 2) == [
                ((1,), 3), ((2,), 2),
            ]
            ranked = cube.topk(0, 0, 8)
            assert ranked == brute_topk(dense, 0, 0, 8)
            assert ranked[-2:] == [((7,), -1), ((0,), low)]


class TestShardedRetirement:
    """A sharded top-k refuses what the unsharded oracle refuses.

    Cell (1, 1) gets times 0-4, 6 and 7 and cell (6, 6) time 5, so after
    ``retire_before(6)`` the instance at 5 is the cube's boundary: the
    shard without it keeps 4 as its own, older boundary and could still
    rank a window whose lower prefix needs 4.
    """

    @staticmethod
    def _load(cube) -> None:
        for time in range(8):
            cube.update_many([(time, 6, 6) if time == 5 else (time, 1, 1)], [1])
        cube.retire_before(6)

    @staticmethod
    def _outcome(rank):
        try:
            return rank()
        except AgedOutError:
            return AgedOutError

    @pytest.mark.parametrize("processes", [False, True], ids=["inline", "processes"])
    def test_a_window_before_the_boundary_is_refused_as_the_oracle_does(
        self, processes
    ):
        oracle = SnapshotCube(BufferedEvolvingDataCube((8, 8)))
        self._load(oracle)
        with ShardedCube((8, 8), shards=2, processes=processes) as cube:
            self._load(cube)
            with pytest.raises(AgedOutError):
                TopKEngine(oracle).topk_many([(5, 100, 2)])
            with pytest.raises(AgedOutError):
                cube.topk_many([(5, 100, 2)])
            differ = []
            for t1, t2, k, nonnegative in itertools.product(
                range(-2, 10), range(-2, 10), (-1, 0, 1, 3), (True, False)
            ):
                query = [(t1, t2, k)]
                engine = TopKEngine(oracle, nonnegative=nonnegative)
                expected = self._outcome(lambda: engine.topk_many(query))
                got = self._outcome(
                    lambda: cube.topk_many(query, nonnegative=nonnegative)
                )
                if got != expected:
                    differ.append((t1, t2, k, nonnegative))
            assert differ == []
