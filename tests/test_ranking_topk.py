"""Differential suite for temporal top-k ranking.

``topk_many`` must be *bit-identical* to the brute-force NumPy oracle --
same cells, same values, same order -- on every front (bare kernels of
all three storage backends, ``G_d``-buffered, tiered, durable and
snapshot stacks, and the sharded cube), including ties, signed deltas,
``k`` larger than the live cell count, degenerate intervals and
out-of-order updates arriving mid-stream; a window whose prefix lies in
retired detail is refused exactly as ``query_many`` refuses its box.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AgedOutError, DomainError, ReproError
from repro.core.types import Box
from repro.concurrent import SnapshotCube
from repro.durability import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.extent import ExtentCube
from repro.ecube.kernel import _LiveSlices
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.ranking import TopKEngine, TopKStats, brute_topk
from repro.retention import TieredCube
from repro.sharding import ShardedCube

BACKENDS = ("dense", "paged", "sparse")


def _bare_cube(backend, shape):
    if backend == "dense":
        return EvolvingDataCube(shape)
    if backend == "paged":
        return DiskEvolvingDataCube(shape)
    return SparseEvolvingDataCube(shape)


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
        """Signed deltas rank exactly (negative cells rank below zeros),
        with or without the ignored non-negativity declaration."""
        shape, num_times, updates, queries = workload
        front = BufferedEvolvingDataCube(shape)
        for point, delta in updates:
            front.update(point, delta)
        dense = _dense_oracle(shape, num_times, updates)
        want = [brute_topk(dense, t1, t2, k) for t1, t2, k in queries]
        assert TopKEngine(front).topk_many(queries) == want
        assert TopKEngine(front, nonnegative=True).topk_many(queries) == want


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

    def test_shape_inference_and_validation(self):
        front = BufferedEvolvingDataCube((2, 2))
        front.update((0, 1, 1), 3)

        class Wrapped:  # a front that declares no stack: query_many only
            def __init__(self, inner):
                self.query_many = inner.query_many

        # a declared stack says its own shape, and a passed one must agree
        engine = TopKEngine(front, slice_shape=(2, 2), nonnegative=True)
        assert engine.slice_shape == (2, 2)
        assert engine.topk(0, 0, 1) == [((1, 1), 3)]
        assert engine.last_stats == [TopKStats("slices", 4, 0, 4)]
        for shape in ((), (4,), (2, 3)):
            with pytest.raises(DomainError, match="is not the front's"):
                TopKEngine(front, slice_shape=shape)
        # the engine reads the stack: a bare query_many is not enough
        with pytest.raises(DomainError, match="declares no layer kind"):
            TopKEngine(Wrapped(front), slice_shape=(2, 2))
        with pytest.raises(DomainError, match="requires a point-object"):
            TopKEngine(ExtentCube((2, 2)))

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


def _refusal(run):
    """What ``run`` returns, or the type and message of what it raises."""
    try:
        return run()
    except ReproError as exc:
        return type(exc), str(exc)


class TestEveryFront:
    """One differential over every stack :class:`TopKEngine` reads: the
    bare kernels of the three stores, buffered (late points inside the
    windows), tiered (demoted), durable and snapshot stacks, on signed
    deltas.  A window is refused exactly when ``query_many`` refuses its
    full-domain box, with the same error; every other window ranks as the
    oracle.  Three cell axes: the inverse prefix runs along each."""

    SHAPE = (3, 4, 2)
    KINDS = (*BACKENDS, "buffered", "tiered", "durable", "snapshot")

    def _load(self, kind, tmp_path):
        if kind in BACKENDS:
            front = _bare_cube(kind, self.SHAPE)
        elif kind == "tiered":
            front = TieredCube(
                BufferedEvolvingDataCube(self.SHAPE), TIERS, tmp_path / "tiles"
            )
        elif kind == "durable":
            front = DurableCube(self.SHAPE, tmp_path / "durable")
        else:
            front = BufferedEvolvingDataCube(self.SHAPE)
            if kind == "snapshot":
                front = SnapshotCube(front)
        rng = np.random.default_rng(len(kind))
        updates = []

        def write(times):
            points = np.column_stack(
                [times] + [rng.integers(0, n, len(times)) for n in self.SHAPE]
            )
            deltas = rng.integers(-6, 7, len(times))
            front.update_many(points, deltas)
            updates.extend(zip(map(tuple, points.tolist()), deltas.tolist()))

        for time in range(2, 16):
            write(np.full(3, time))
        if kind == "tiered":
            front.demote_before(7)
        if kind not in BACKENDS:  # late points: G_d, inside most windows
            write(np.array([1, 3, 6, 9, 9, 12]))
        if kind != "tiered":
            front.retire_before(6)
        return front, _dense_oracle(self.SHAPE, 16, updates)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_front_ranks_as_the_oracle(self, tmp_path, kind):
        front, dense = self._load(kind, tmp_path)
        engine = TopKEngine(front, nonnegative=True)
        upper = [n - 1 for n in self.SHAPE]
        refused = answered = 0
        try:
            for t1, t2, k in itertools.product(
                range(-1, 18, 2), range(-1, 18, 3), (0, 1, 4, 25)
            ):
                got = _refusal(lambda: engine.topk_many([(t1, t2, k)]))
                if t1 <= t2 and k > 0:
                    box = np.array([[[t1, *[0] * len(upper)], [t2, *upper]]])
                    asked = _refusal(lambda: front.query_many(box))
                    if isinstance(asked, tuple):
                        assert got == asked, (t1, t2, k)
                        refused += 1
                        continue
                assert got == [brute_topk(dense, t1, t2, k)], (t1, t2, k)
                answered += 1
        finally:
            if kind == "durable":
                front.close()
        assert answered and bool(refused) == (kind != "tiered")

    def test_a_lost_ddc_value_is_walked(self, monkeypatch):
        """A live slice holding a converted cell whose DDC value is lost
        (a metered read converted it after its lazy copy landed) cannot be
        swept: its prefixes are walked, as ``query_many`` walks a box
        there, and the ranking stays exact."""
        shape = (6, 5)
        kernel = EvolvingDataCube(shape)
        rng = np.random.default_rng(5)
        updates = []
        for time in range(0, 24, 2):
            points = np.column_stack(
                [np.full(12, time)] + [rng.integers(0, n, 12) for n in shape]
            )
            deltas = rng.integers(-2, 9, 12)
            kernel.update_many(points, deltas)
            updates.extend(zip(map(tuple, points.tolist()), deltas.tolist()))
            if time == 20:
                kernel.query(Box((0, 1, 1), (6, 4, 3)))
        walked = []
        walk = _LiveSlices.walk

        def spying(source, index, *args):
            walked.append(index)
            return walk(source, index, *args)

        monkeypatch.setattr(_LiveSlices, "walk", spying)
        dense = _dense_oracle(shape, 24, updates)
        windows = [(7, 22, 30), (2, 6, 4), (0, 6, 30), (7, 9, 3)]
        assert TopKEngine(kernel).topk_many(windows) == [
            brute_topk(dense, *window) for window in windows
        ]
        assert set(walked) == {3}

