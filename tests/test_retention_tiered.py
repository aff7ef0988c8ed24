"""Differential suite for the tiered retention subsystem.

Everything here is pinned against an *undemoted oracle*: the same
stream fed to a plain front must produce bit-identical answers from a
:class:`~repro.retention.TieredCube` after arbitrary demotions, over the
dense store tiers serve, with and without the ``G_d`` buffer, in both
execution modes, and straight through a demote -> checkpoint -> crash ->
recover cycle.  The aged-``weather4`` footprint floor (>= 4x resident
reduction) guards the subsystem's reason to exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.concurrent import SnapshotCube
from repro.core.types import Box
from repro.durability import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.metrics import CostCounter, CostSnapshot
from repro.retention import TieredCube, TierPolicy
from repro.workloads import weather4

#: the store tiers serve (paged and sparse kernels are used bare)
BACKENDS = ("dense",)
SHAPE = (5, 4)
TIERS = [
    {"name": "hour", "granularity": 8, "horizon": 32},
    {"name": "day", "granularity": 32, "horizon": None},
]


def _stream(seed, n, shape=SHAPE, late=0.12):
    """A mixed append/late stream of (point, delta) rows."""
    rng = np.random.default_rng(seed)
    t = 0
    points, deltas = [], []
    for _ in range(n):
        if rng.random() < 0.3:
            t += int(rng.integers(1, 3))
        cell = tuple(int(rng.integers(0, k)) for k in shape)
        when = t
        if rng.random() < late and t > 5:
            when = max(0, t - int(rng.integers(1, 20)))
        points.append((when,) + cell)
        deltas.append(int(rng.integers(1, 9)))
    return np.asarray(points, dtype=np.int64), np.asarray(deltas, dtype=np.int64)


def _boxes(seed, t_max, shape=SHAPE):
    rng = np.random.default_rng(seed)
    spans = [
        (0, t_max), (0, 10), (5, 40), (30, 70), (60, t_max), (0, 69),
        (0, 31), (32, 63), (8, 8), (min(64, t_max), min(64, t_max)),
    ]
    boxes = []
    for lo_t, hi_t in spans:
        cl = tuple(int(rng.integers(0, n // 2 + 1)) for n in shape)
        cu = tuple(int(rng.integers(c, n)) for c, n in zip(cl, shape))
        boxes.append(Box((lo_t,) + cl, (min(hi_t, t_max),) + cu))
    return boxes


class TestDifferentialOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("buffered", [False, True])
    def test_bit_identical_to_undemoted_oracle(self, tmp_path, backend, buffered):
        late = 0.12 if buffered else 0.0  # bare kernels are append-only
        points, deltas = _stream(3, 260, late=late)
        t_max = int(points[:, 0].max())
        cube = BufferedEvolvingDataCube if buffered else EvolvingDataCube
        oracle, front = cube(SHAPE), cube(SHAPE)
        tiered = TieredCube(front, TIERS, tmp_path / "tiles")
        oracle.update_many(points, deltas)
        tiered.update_many(points, deltas)
        boxes = _boxes(11, t_max)
        for horizon in (t_max - 30, t_max - 5):
            demoted = tiered.demote_before(horizon)
            assert demoted >= 0
            for mode in ("fast", "metered"):
                assert tiered.query_many(boxes, mode=mode) == oracle.query_many(
                    boxes, mode=mode
                )
        assert tiered.demoted_through is not None
        assert len(tiered.tiles) >= 1

    def test_late_corrections_after_demotion_stay_exact(self, tmp_path):
        points, deltas = _stream(9, 200)
        t_max = int(points[:, 0].max())
        oracle = BufferedEvolvingDataCube(SHAPE)
        tiered = TieredCube(
            BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "tiles"
        )
        oracle.update_many(points, deltas)
        tiered.update_many(points, deltas)
        tiered.demote_before(t_max - 10)
        # a correction aimed below the demotion watermark: the oracle
        # cascades it, the tiered front must fold it in via G_d
        late_point = (5,) + (1,) * len(SHAPE)
        oracle.update(late_point, 7)
        tiered.update(late_point, 7)
        oracle.drain(None)
        tiered.drain(None)
        boxes = _boxes(13, t_max)
        for mode in ("fast", "metered"):
            assert tiered.query_many(boxes, mode=mode) == oracle.query_many(
                boxes, mode=mode
            )

    @pytest.mark.parametrize("sharded", [False, True])
    def test_late_data_from_before_all_history_leaves_both_prefixes(
        self, tmp_path, sharded
    ):
        """A prefix that floors below the first instance still has a
        ``G_d`` share: the late 7 at t=5 is inside the upper prefix of a
        box starting at 6, so the lower prefix has to take it out again
        -- in the exact plan and in the approximate one (one plan)."""
        from repro.sharding import ShardedCube

        oracle = BufferedEvolvingDataCube((4, 4))
        if sharded:
            tiered = ShardedCube(
                (4, 4), shards=2, processes=False, tiers=TIERS, tile_root=tmp_path
            )
        else:
            tiered = TieredCube(BufferedEvolvingDataCube((4, 4)), TIERS, tmp_path)
        for time in (10, 12, 14, 16):
            for cube in (oracle, tiered):
                cube.update_many([(time, 0, 0), (time, 3, 3)], [1, 1])
        tiered.demote_before(13)
        for cube in (oracle, tiered):
            cube.update_many([(5, 0, 0)], [7])
        boxes = [
            Box((6, 0, 0), (11, 3, 3)),  # lower prefix: G_d only; upper: demoted
            Box((6, 0, 0), (16, 3, 3)),  # ... upper: live
            Box((3, 0, 0), (11, 3, 3)),  # lower prefix before even the late data
            Box((5, 0, 0), (5, 3, 3)),   # both prefixes below the first instance
        ]
        expected = oracle.query_many(boxes)
        assert expected == [2, 8, 9, 7]
        for mode in ("fast", "metered"):
            assert tiered.query_many(boxes, mode=mode) == expected
            estimates = tiered.query_many_approx(boxes, mode=mode)
            assert all(e.lo <= exact <= e.hi for e, exact in zip(estimates, expected))
        if sharded:
            tiered.close()

    def test_demotion_shrinks_resident_footprint(self, tmp_path):
        points, deltas = _stream(5, 400, late=0.0)
        t_max = int(points[:, 0].max())
        plain = BufferedEvolvingDataCube(SHAPE)
        tiered = TieredCube(
            BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "tiles"
        )
        plain.update_many(points, deltas)
        tiered.update_many(points, deltas)
        tiered.demote_before(t_max - 3)
        assert tiered.resident_slice_bytes() < plain.resident_slice_bytes()


class TestMeteredCharges:
    """Metered tiered reads charge what a box-by-box plan charges.

    The numbers were recorded from that plan: a box with no demoted
    prefix goes to the front whole, any other is its two prefixes, and
    the front sees them box by box, ``+`` before ``-``.
    """

    #: (t1, t2) per kind; instants 10..18 are demoted, 19..30 live, and
    #: ``G_d`` holds late data at 5 (before all history), 14, 17 and 25
    SPANS = [
        (22, 28), (21, 30), (20, 20),  # whole boxes on live instants
        (12, 26), (15, 24), (4, 19),  # split: a live + prefix (4: none below)
        (6, 12), (5, 25),  # a - prefix seen only through G_d (5: none)
        (11, 17), (13, 18),  # both prefixes demoted
    ]  # fmt: skip

    @staticmethod
    def _fill(front) -> None:
        rng = np.random.default_rng(5)
        for time in range(10, 31):
            cells = np.column_stack([rng.integers(0, n, 4) for n in (6, 5)])
            points = [(time, *cell) for cell in cells.tolist()]
            front.update_many(points, [1, 2, 3, 4], mode="metered")

    def _boxes(self) -> list[Box]:
        rng = np.random.default_rng(8)
        boxes = []
        for t1, t2 in self.SPANS:
            for _ in range(4):
                lower = [int(rng.integers(0, n)) for n in (6, 5)]
                upper = [int(rng.integers(lo, n)) for lo, n in zip(lower, (6, 5))]
                boxes.append(Box((t1, *lower), (t2, *upper)))
        return boxes

    def test_a_mixed_batch_charges_the_recorded_costs(self, tmp_path):
        counter = CostCounter()
        front = BufferedEvolvingDataCube((6, 5), counter=counter)
        tiers = [{"name": "c", "granularity": 4, "horizon": None}]
        tiered = TieredCube(front, tiers, tmp_path)
        oracle = BufferedEvolvingDataCube((6, 5))
        late = [(5, 0, 0), (14, 1, 2), (25, 3, 3), (17, 2, 1), (28, 5, 4)]
        for cube in (tiered, oracle):
            self._fill(cube)
        tiered.demote_before(20)
        for cube in (tiered, oracle):
            cube.update_many(late, [7, 4, 2, 5, 1], mode="metered")
        boxes = self._boxes()
        node_accesses, before = front.buffer.node_accesses, counter.snapshot()
        answers = tiered.query_many(boxes, mode="metered")
        assert counter.snapshot() - before == CostSnapshot(cell_reads=271)
        assert front.buffer.node_accesses - node_accesses == 60
        assert answers == oracle.query_many(boxes) == tiered.query_many(boxes)


class TestTierPolicy:
    def test_config_round_trip(self):
        policy = TierPolicy.from_config(TIERS)
        assert policy.to_config() == TierPolicy.from_config(
            policy.to_config()
        ).to_config()
        assert [spec.name for spec in policy] == ["hour", "day"]

    def test_granularities_must_coarsen(self):
        from repro.core.errors import DomainError

        with pytest.raises(DomainError):
            TierPolicy.from_config(
                [
                    {"name": "a", "granularity": 16, "horizon": 32},
                    {"name": "b", "granularity": 8, "horizon": None},
                ]
            )

    def test_granularities_must_nest(self):
        from repro.core.errors import DomainError

        with pytest.raises(DomainError):
            TierPolicy.from_config(
                [
                    {"name": "a", "granularity": 8, "horizon": 32},
                    {"name": "b", "granularity": 12, "horizon": None},
                ]
            )


class TestDurableRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_demote_checkpoint_crash_recover_bit_identical(
        self, tmp_path, backend
    ):
        points, deltas = _stream(3, 200)
        t_max = int(points[:, 0].max())
        oracle = BufferedEvolvingDataCube(SHAPE)
        durable = DurableCube(SHAPE, tmp_path / "cube", tiers=TIERS)
        oracle.update_many(points, deltas)
        durable.update_many(points, deltas)
        durable.demote_before(t_max - 40)
        durable.checkpoint()
        tail_points, tail_deltas = _stream(5, 100)
        tail_points[:, 0] += t_max
        oracle.update_many(tail_points, tail_deltas)
        durable.update_many(tail_points, tail_deltas)
        durable.demote_before(t_max - 10)
        durable.flush()
        state_before = {
            key: np.array(value)
            for key, value in durable.front.state_arrays().items()
        }
        del durable  # crash: no close, no final checkpoint
        recovered = DurableCube.recover(tmp_path / "cube")
        try:
            state_after = recovered.front.state_arrays()
            assert sorted(state_after) == sorted(state_before)
            for key, value in state_before.items():
                np.testing.assert_array_equal(
                    state_after[key], value, err_msg=key
                )
            oracle.drain(None)
            recovered.drain(None)
            boxes = _boxes(7, t_max)
            for mode in ("fast", "metered"):
                got = recovered.query_many(boxes, mode=mode)
                assert got == oracle.query_many(boxes, mode=mode)
        finally:
            recovered.close()

    def test_untiered_durable_cube_rejects_demote(self, tmp_path):
        from repro.core.errors import DomainError

        durable = DurableCube(SHAPE, tmp_path / "cube")
        try:
            durable.update((0, 0, 0, 0, 0, 0)[: len(SHAPE) + 1], 1)
            with pytest.raises(DomainError):
                durable.demote_before(10)
        finally:
            durable.close()


class TestSnapshotReadersSurviveDemotion:
    def test_pinned_view_keeps_predemote_answers(self, tmp_path):
        points, deltas = _stream(3, 220, late=0.0)
        t_max = int(points[:, 0].max())
        tiered = TieredCube(
            BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "tiles"
        )
        snap = SnapshotCube(tiered)
        snap.update_many(points, deltas)
        live_boxes = [
            box
            for box in _boxes(17, t_max)
            if box.lower[0] >= t_max - 5
        ] + [Box((t_max - 4, 0, 0), (t_max, *[n - 1 for n in SHAPE]))]
        with snap.pin() as view:
            before = view.query_many(live_boxes)
            tiered.demote_before(t_max - 5)
            # the pinned epoch still routes through payloads the demote
            # finalized and retired: answers must not move
            assert view.query_many(live_boxes) == before
        # a fresh pin sees the demoted cube; live-region answers agree
        assert snap.query_many(live_boxes) == before


class TestAgedWeather4Footprint:
    def test_four_x_resident_reduction_with_identical_answers(self, tmp_path):
        data = weather4(scale=0.2)
        tiers = [
            {"name": "hour", "granularity": 4, "horizon": 8},
            {"name": "day", "granularity": 24, "horizon": None},
        ]
        plain = BufferedEvolvingDataCube(data.slice_shape)
        tiered = TieredCube(
            BufferedEvolvingDataCube(data.slice_shape),
            tiers,
            tmp_path / "tiles",
        )
        plain.update_many(data.coords, data.values)
        tiered.update_many(data.coords, data.values)
        t_max = int(data.coords[:, 0].max())
        horizon = t_max - 2  # aged: nearly all history behind the watermark
        tiered.demote_before(horizon)
        resident_plain = plain.resident_slice_bytes()
        resident_tiered = tiered.resident_slice_bytes()
        assert resident_plain >= 4 * resident_tiered, (
            f"footprint floor violated: {resident_plain} undemoted vs "
            f"{resident_tiered} demoted"
        )
        full_cell = tuple(n - 1 for n in data.slice_shape)
        origin = (0,) * len(data.slice_shape)
        boxes = [
            Box((0,) + origin, (t_max,) + full_cell),
            Box((0,) + origin, (horizon - 1,) + full_cell),
            Box((horizon,) + origin, (t_max,) + full_cell),
            Box((3,) + origin, (11,) + full_cell),
        ]
        assert tiered.query_many(boxes) == plain.query_many(boxes)


class TestShardedDemotion:
    def test_inline_sharded_matches_unsharded_tiered_oracle(self, tmp_path):
        from repro.sharding import ShardedCube

        shape = (6, 5)
        points, deltas = _stream(3, 300, shape=shape)
        t_max = int(points[:, 0].max())
        oracle = TieredCube(
            BufferedEvolvingDataCube(shape), TIERS, tmp_path / "oracle"
        )
        oracle.update_many(points, deltas)
        sharded = ShardedCube(
            shape,
            shards=2,
            processes=False,
            tiers=TIERS,
            tile_root=tmp_path / "tiles",
        )
        try:
            sharded.update_many(points, deltas)
            boxes = _boxes(11, t_max, shape=shape)
            assert sharded.query_many(boxes) == oracle.query_many(boxes)
            assert oracle.demote_before(t_max - 20) >= 1
            assert sharded.demote_before(t_max - 20) >= 1
            assert sharded.router.demote_boundary == oracle.demoted_through
            assert sharded.query_many(boxes) == oracle.query_many(boxes)
        finally:
            sharded.close()

    def test_durable_sharded_recovers_demote_boundary(self, tmp_path):
        from repro.sharding import ShardedCube

        shape = (6, 5)
        points, deltas = _stream(7, 250, shape=shape)
        t_max = int(points[:, 0].max())
        oracle = TieredCube(
            BufferedEvolvingDataCube(shape), TIERS, tmp_path / "oracle"
        )
        oracle.update_many(points, deltas)
        oracle.demote_before(t_max - 15)
        cube = ShardedCube(
            shape,
            shards=2,
            processes=False,
            durable_dir=tmp_path / "fleet",
            tiers=TIERS,
        )
        cube.update_many(points, deltas)
        cube.demote_before(t_max - 15)
        cube.checkpoint()
        boundary = cube.router.demote_boundary
        cube.close()
        recovered = ShardedCube.recover(tmp_path / "fleet", processes=False)
        try:
            assert recovered.router.demote_boundary == boundary
            boxes = _boxes(13, t_max, shape=shape)
            assert recovered.query_many(boxes) == oracle.query_many(boxes)
        finally:
            recovered.close()
