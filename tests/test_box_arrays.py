"""Box batches as ``(n, 2, d)`` int64 corner arrays.

Every front's ``query_many`` takes a :class:`~repro.core.types.Box`
sequence or a corner array, validated by one helper
(:func:`~repro.core.types.box_array`).  This suite pins:

* a Hypothesis differential over drawn tiered histories: a corner array,
  the same ``Box`` list, metered mode and an undemoted oracle answer
  alike, with ``G_d`` points pending below the demotion watermark, late
  data from before the first instance, both prefixes of a box on one
  demoted floor, rollup-boundary and tile-only floors, and boxes split
  across the watermark;
* typed errors for malformed arrays, with the messages of the ``Box``
  path, and an out-of-domain box refused whichever tier answers it;
* two structural guards, no timing: a top-k builds a bounded number of
  ``Box`` objects whatever it materializes, and an exact tiered batch
  decodes each tile at most once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.retention.tiles as tiles_module
from repro.concurrent import SnapshotCube
from repro.core.errors import DomainError
from repro.core.framework import AppendOnlyAggregator
from repro.core.types import Box, box_array
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ranking import TopKEngine, brute_topk
from repro.retention import TieredCube, ps_box_sum
from repro.sharding import ShardedCube

#: nesting ladder: the fine tier forgets its boundaries, the coarse one
#: keeps them, and every bucket holds tile-only instances
TIERS = [
    {"name": "fine", "granularity": 4, "horizon": 8},
    {"name": "coarse", "granularity": 8, "horizon": None},
]


def _corners(boxes) -> np.ndarray:
    return np.array([(box.lower, box.upper) for box in boxes], dtype=np.int64)


def _oracle(dense: np.ndarray, box: Box) -> int:
    index = tuple(
        slice(max(low, 0), max(min(up, size - 1) + 1, 0))
        for low, up, size in zip(box.lower, box.upper, dense.shape)
    )
    return int(dense[index].sum())


@st.composite
def tiered_histories(draw):
    """A stream with gaps, a demotion horizon, late data and query boxes."""
    shape = (draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    first = draw(st.integers(2, 4))
    # the first gap is 2, so some time between two instances occurs nowhere
    gaps = [2] + draw(st.lists(st.integers(1, 2), min_size=12, max_size=20))
    times = [first + int(t) for t in np.cumsum([0] + gaps)]
    cell = st.tuples(*(st.integers(0, n - 1) for n in shape))
    updates = [
        ((t,) + draw(cell), draw(st.integers(1, 5)))
        for t in times
        for _ in range(draw(st.integers(1, 3)))
    ]
    horizon = draw(st.integers(times[9], times[-2]))

    def late(low, high):
        return st.tuples(st.integers(low, high), cell, st.integers(1, 5)).map(
            lambda r: ((r[0],) + r[1], r[2])
        )

    # drained into existing instances by the demotion: no new instance
    # appears before the first one or in the gap after it
    before = draw(
        st.lists(
            st.tuples(st.sampled_from(times[:-1]), cell, st.integers(1, 5)).map(
                lambda r: ((r[0],) + r[1], r[2])
            ),
            max_size=3,
        )
    )
    # pending in G_d below the watermark, one from before the first instance
    after = [draw(late(0, first - 1))] + draw(
        st.lists(late(0, times[-1]), max_size=4)
    )
    t_top = times[-1] + 2
    drawn = []
    for _ in range(draw(st.integers(1, 10))):
        t1 = draw(st.integers(-2, t_top))
        lower, upper = [t1], [draw(st.integers(t1, t_top))]
        for n in shape:
            low = draw(st.integers(-1, n - 1))
            lower.append(low)
            upper.append(draw(st.integers(max(low, 0), n)))
        drawn.append(Box(tuple(lower), tuple(upper)))
    return shape, updates, horizon, before, after, drawn


class TestTieredDifferential:
    @settings(max_examples=40, deadline=None)
    @given(history=tiered_histories())
    def test_arrays_boxes_metered_and_oracle_agree(self, tmp_path_factory, history):
        shape, updates, horizon, before, after, drawn = history
        t_max = max(point[0] for point, _ in updates + before + after)
        dense = np.zeros((t_max + 1, *shape), dtype=np.int64)
        oracle = BufferedEvolvingDataCube(shape)
        tiered = TieredCube(
            BufferedEvolvingDataCube(shape), TIERS, tmp_path_factory.mktemp("t")
        )
        for batch in (updates + before, None, after):
            if batch is None:
                tiered.demote_before(horizon)
                continue
            for point, delta in batch:
                dense[point] += delta
                oracle.update(point, delta)
                tiered.update(point, delta)
        watermark = tiered.demoted_through
        directory = tiered.cube.directory
        demoted = [
            int(directory.at_index(i)[0]) for i in range(tiered.cube._retired_below)
        ]
        full_lower = (0,) * len(shape)
        full_upper = tuple(n - 1 for n in shape)
        boxes = list(drawn)
        for t in demoted:
            boxes.append(Box((t,) + full_lower, (t,) + full_upper))
            # both prefixes floor on t when t + 1 is no instance
            boxes.append(Box((t + 1,) + full_lower, (t + 1,) + (0,) * len(shape)))
            boxes.append(Box((t,) + full_lower, (t_max,) + full_upper))  # split
        # what the batch must exercise
        retained = {t for tier in tiered.tiers for t in tier.times}
        assert set(demoted) & retained and set(demoted) - retained
        assert any(
            t + 1 not in directory.times() and t + 1 < watermark for t in demoted
        )
        assert len(tiered.buffer) and tiered.buffer.min_time() < directory.times()[0]

        expected = [_oracle(dense, box) for box in boxes]
        assert oracle.query_many(boxes) == expected
        assert tiered.query_many(_corners(boxes)) == expected
        assert tiered.query_many(boxes) == expected
        assert tiered.query_many(boxes, mode="metered") == expected
        t1, t2 = drawn[0].time_range
        assert TopKEngine(tiered, nonnegative=True).topk(t1, t2, 3) == brute_topk(
            dense, t1, t2, 3
        )


def _fronts(tmp_path):
    """Non-empty fronts of a (4, 4) cube, the tiered one demoted."""
    points = [[t, t % 4, (3 * t) % 4] for t in range(12)]
    kernel = EvolvingDataCube((4, 4))
    buffered = BufferedEvolvingDataCube((4, 4))
    tiered = TieredCube(BufferedEvolvingDataCube((4, 4)), TIERS, tmp_path)
    for front in (kernel, buffered, tiered):
        front.update_many(points, [1] * len(points))
    tiered.demote_before(8)
    return {
        "kernel": kernel,
        "buffered": buffered,
        "tiered": tiered,
        "snapshot": SnapshotCube(buffered),
    }


MALFORMED = {
    "wrong shape": (np.zeros((2, 3, 3), np.int64), r"must be \(n, 2, d\)"),
    "flat": (np.zeros((2, 3), np.int64), r"must be \(n, 2, d\)"),
    "wrong dtype": (np.zeros((1, 2, 3), np.float64), "must be integer"),
    "wrong arity": (np.zeros((1, 2, 4), np.int64), "box arity 4 != cube arity 3"),
    "inverted": (np.array([[[0, 2, 0], [3, 1, 3]]]), r"inverted range \[2, 1\]"),
    "empty after clipping": (
        np.array([[[2, 5, 0], [5, 7, 3]]]),
        r"box Box\(lower=\(5, 0\), upper=\(7, 3\)\) is empty after clipping",
    ),
}


class TestTypedErrors:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("mode", ["fast", "metered"])
    def test_every_front_refuses_a_malformed_array(self, tmp_path, case, mode):
        corners, message = MALFORMED[case]
        for front in _fronts(tmp_path).values():
            with pytest.raises(DomainError, match=message):
                front.query_many(corners, mode=mode)

    def test_messages_match_the_box_path(self, tmp_path):
        kernel = _fronts(tmp_path)["kernel"]
        for corners, box_call in (
            (MALFORMED["inverted"][0], lambda: Box((0, 2, 0), (3, 1, 3))),
            (
                MALFORMED["wrong arity"][0],
                lambda: kernel.query_many([Box((0,) * 4, (0,) * 4)]),
            ),
            (
                MALFORMED["empty after clipping"][0],
                lambda: kernel.query(Box((2, 5, 0), (5, 7, 3))),
            ),
        ):
            with pytest.raises(DomainError) as from_boxes:
                box_call()
            with pytest.raises(DomainError) as from_array:
                kernel.query_many(corners)
            assert str(from_array.value) == str(from_boxes.value)

    def test_the_other_executors_take_arrays_through_the_helper(self, tmp_path):
        boxes = [Box((0, 0), (5, 3)), Box((2, 1), (9, 1))]
        aggregator = AppendOnlyAggregator()
        for t in range(8):
            aggregator.update((t, t % 4), t + 1)
        assert aggregator.query_many(_corners(boxes)) == aggregator.query_many(boxes)
        with pytest.raises(DomainError, match="box arity 3 != cube arity 2"):
            aggregator.query_many(np.zeros((1, 2, 3), np.int64))
        cube = ShardedCube((4, 4), shards=2, processes=False)
        try:
            cube.update_many([[t, t % 4, 3 - t % 4] for t in range(8)], [1] * 8)
            boxes = [Box((0, 0, 0), (7, 3, 3)), Box((2, 1, 0), (5, 3, 2))]
            assert cube.query_many(_corners(boxes)) == cube.query_many(boxes) == [8, 3]
            with pytest.raises(DomainError, match="inverted range"):
                cube.query_many(MALFORMED["inverted"][0])
        finally:
            cube.close()

    def test_an_int32_array_and_an_empty_batch(self, tmp_path):
        fronts = _fronts(tmp_path)
        corners = np.array([[[0, 0, 0], [11, 3, 3]]], dtype=np.int32)
        assert box_array(corners, 3).dtype == np.int64
        for front in fronts.values():
            assert front.query_many(corners) == [12]
            assert front.query_many(np.empty((0, 2, 3), np.int64)) == []


class TestOutOfDomainOnEveryTier:
    """A box empty after clipping used to answer 0 on a tiered front when
    both its prefixes floored in demoted history."""

    @pytest.mark.parametrize("buffered", [False, True])
    def test_refused_over_demoted_history_like_over_live(self, tmp_path, buffered):
        cube = BufferedEvolvingDataCube if buffered else EvolvingDataCube
        tiered = TieredCube(cube((4, 4)), TIERS, tmp_path)
        live = cube((4, 4))
        for front in (tiered, live):
            front.update_many([[t, t % 4, 0] for t in range(12)], [1] * 12)
        tiered.demote_before(8)
        assert tiered.demoted_through == 7
        box = Box((2, 5, 0), (5, 7, 3))
        with pytest.raises(DomainError) as over_live:
            live.query_many([box])
        for mode in ("fast", "metered"):
            with pytest.raises(DomainError) as over_tiers:
                tiered.query_many([box], mode=mode)
            assert str(over_tiers.value) == str(over_live.value)
            with pytest.raises(DomainError, match="empty after clipping"):
                tiered.query_many_approx([box], mode=mode)


class TestStructuralGuards:
    @pytest.fixture
    def boxes_built(self, monkeypatch):
        built = [0]
        post_init = Box.__post_init__

        def counting(box):
            built[0] += 1
            post_init(box)

        monkeypatch.setattr(Box, "__post_init__", counting)
        return built

    @staticmethod
    def _load(front, shape, rng):
        for t in range(24):
            n = 4 * shape[0]
            front.update_many(
                np.column_stack(
                    [
                        np.full(n, t),
                        rng.integers(0, shape[0], n),
                        rng.integers(0, shape[1], n),
                    ]
                ),
                rng.integers(1, 5, n),
            )

    def _rank(self, kind, shape, tile_root, boxes_built):
        """Boxes built by two top-k queries, and what else the kind pins:
        the cells the engine scored, or the tiered shards' lists (both
        rank the whole slice from two prefix slices, so there is no
        gather to count)."""
        queries = [(2, 20, 5), (0, 23, 3)]
        if kind == "dense kernel":
            front = EvolvingDataCube(shape)
            self._load(front, shape, np.random.default_rng(3))
            engine = TopKEngine(front, nonnegative=True)
            boxes_built[0] = 0
            engine.topk_many(queries)
            return boxes_built[0], sum(s.materialized for s in engine.last_stats)
        undemoted = EvolvingDataCube(shape)
        self._load(undemoted, shape, np.random.default_rng(3))
        expected = TopKEngine(undemoted, nonnegative=True).topk_many(queries)
        front = ShardedCube(
            shape, shards=2, processes=False, tiers=TIERS, tile_root=tile_root
        )
        try:
            self._load(front, shape, np.random.default_rng(3))
            front.demote_before(16)
            boxes_built[0] = 0
            assert front.topk_many(queries, nonnegative=True) == expected
            return boxes_built[0], None
        finally:
            front.close()

    @pytest.mark.parametrize("kind", ["tiered shard", "dense kernel"])
    def test_a_top_k_builds_no_box_per_cell(self, tmp_path, boxes_built, kind):
        (small, few), (large, many) = (
            self._rank(kind, shape, tmp_path / str(shape[0]), boxes_built)
            for shape in ((8, 8), (32, 64))
        )
        # two slices and a difference: no box at all
        assert small == large == 0
        if kind == "dense kernel":  # every cell scored, once per query
            assert (few, many) == (2 * 8 * 8, 2 * 32 * 64)

    def test_an_exact_tiered_batch_decodes_each_tile_once(self, tmp_path, monkeypatch):
        shape = (3, 3)
        tiered = TieredCube(EvolvingDataCube(shape), TIERS, tmp_path)
        tiered.update_many([[t, t % 3, t % 2] for t in range(40)], [1] * 40)
        for horizon in (8, 16, 24, 32):
            tiered.demote_before(horizon)
        assert len(tiered.tiles) > tiles_module.CACHE_TILES + 1
        retained = {t for tier in tiered.tiers for t in tier.times}
        tile_only = [t for t in range(31) if t not in retained]
        order = np.random.default_rng(5).permutation(tile_only)
        boxes = [Box((int(t) - 1, 0, 0), (int(t), 2, 2)) for t in order]
        decoded: list[int] = []
        inflate = tiles_module.inflate_tile

        def counting(data):
            tile = inflate(data)
            decoded.append(int(tile.times[0]))
            return tile

        monkeypatch.setattr(tiles_module, "inflate_tile", counting)
        tiered.tiles.drop_cache()
        assert tiered.query_many(boxes) == [2 if t else 1 for t in order.tolist()]
        assert len(decoded) == len(set(decoded)) == len(tiered.tiles)


def test_ps_box_sum_is_the_clamped_corner_gather():
    rng = np.random.default_rng(2)
    raw = rng.integers(-3, 9, (5, 4, 3))
    ps = raw.cumsum(0).cumsum(1).cumsum(2)
    for _ in range(200):
        lower = rng.integers(-2, 6, 3)
        upper = lower + rng.integers(-1, 5, 3)
        index = tuple(
            slice(max(int(lo), 0), max(int(up) + 1, 0))
            for lo, up in zip(lower, upper)
        )
        assert ps_box_sum(ps, lower, upper) == int(raw[index].sum())
