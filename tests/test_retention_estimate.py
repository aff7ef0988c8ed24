"""Property suite for tier-backed approximate answering.

The contract of :meth:`TieredCube.query_many_approx` is *soundness*: for
any randomly demoted cube and any box, the reported interval must
contain the exact answer (pinned against an undemoted oracle), and the
answer must be exact -- ``lo == hi`` -- whenever every demoted prefix
floors onto a retained rollup boundary.  A regression class pins the
resident-prefix fall-through (bit-identical to the exact path) and the
``log-info`` CLI on a tiered directory with zero demote records.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.retention import (
    Estimate,
    RollupTier,
    TierSpec,
    TieredCube,
    bracket_prefix,
    estimate_prefix,
)

SHAPE = (4, 3)
TIERS = [
    {"name": "hour", "granularity": 4, "horizon": 16},
    {"name": "day", "granularity": 16, "horizon": None},
]


def _paired_cubes(tmp_path, updates):
    oracle = BufferedEvolvingDataCube(SHAPE)
    tiered = TieredCube(BufferedEvolvingDataCube(SHAPE), TIERS, tmp_path / "t")
    for point, delta in updates:
        oracle.update(point, delta)
        tiered.update(point, delta)
    return oracle, tiered


@st.composite
def demoted_workloads(draw):
    num_times = draw(st.integers(8, 48))
    n_updates = draw(st.integers(5, 60))
    updates = []
    for _ in range(n_updates):
        point = (draw(st.integers(0, num_times - 1)),) + tuple(
            draw(st.integers(0, n - 1)) for n in SHAPE
        )
        updates.append((point, draw(st.integers(1, 9))))
    horizon = draw(st.integers(2, num_times))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        t1 = draw(st.integers(0, num_times - 1))
        t2 = draw(st.integers(t1, num_times - 1))
        lower, upper = [], []
        for n in SHAPE:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(a, n - 1))
            lower.append(a)
            upper.append(b)
        boxes.append(Box((t1, *lower), (t2, *upper)))
    return updates, horizon, boxes


class TestSoundBounds:
    @settings(max_examples=40)
    @given(workload=demoted_workloads())
    def test_bounds_always_contain_exact(self, workload):
        updates, horizon, boxes = workload
        # hypothesis examples outlive function-scoped fixtures: give
        # every generated cube its own tile directory
        with tempfile.TemporaryDirectory() as tmp:
            oracle, tiered = _paired_cubes(Path(tmp), updates)
            tiered.demote_before(horizon)
            exact = oracle.query_many(boxes)
            estimates = tiered.query_many_approx(boxes)
            for box, value, estimate in zip(boxes, exact, estimates):
                assert estimate.lo <= value <= estimate.hi, (
                    box, estimate, value,
                )
                if estimate.exact:
                    assert estimate.lo == value
                    assert estimate.estimate == float(value)
                else:
                    assert estimate.lo <= estimate.estimate <= estimate.hi

    @settings(max_examples=20)
    @given(workload=demoted_workloads())
    def test_metered_mode_matches_fast_mode(self, workload):
        updates, horizon, boxes = workload
        with tempfile.TemporaryDirectory() as tmp:
            _, tiered = _paired_cubes(Path(tmp), updates)
            tiered.demote_before(horizon)
            assert tiered.query_many_approx(
                boxes, mode="fast"
            ) == tiered.query_many_approx(boxes, mode="metered")

    @settings(max_examples=30)
    @given(workload=demoted_workloads())
    def test_batch_matches_the_one_prefix_rule(self, workload):
        """The batch pass against a box-by-box reference: each prefix
        estimated alone (:func:`estimate_prefix`) or read exactly from
        the oracle, combined by interval arithmetic.  Bounds are equal;
        the estimate may differ in the last bits (another sum order)."""
        updates, horizon, boxes = workload
        with tempfile.TemporaryDirectory() as tmp:
            oracle, tiered = _paired_cubes(Path(tmp), updates)
            tiered.demote_before(horizon)
            directory = tiered.cube.directory  # G_d drained by the demote
            watermark = tiered.demoted_through

            def term(prefix, lower, upper) -> Estimate:
                floor = directory.floor_index(prefix)
                if floor < 0:
                    return Estimate.of(0)
                time = int(directory.at_index(floor)[0])
                if watermark is None or time >= watermark:
                    box = Box((0, *lower), (prefix, *upper))
                    return Estimate.of(oracle.query_many([box])[0])
                brackets = bracket_prefix(
                    tiered.tiers, time, tiered._last_time, tiered._last_ps
                )
                return estimate_prefix(*brackets, time, lower, upper)

            for box, got in zip(boxes, tiered.query_many_approx(boxes)):
                lower, upper = box.lower[1:], box.upper[1:]
                plus = term(box.upper[0], lower, upper)
                minus = term(box.lower[0] - 1, lower, upper)
                assert (got.lo, got.hi) == (plus.lo - minus.hi, plus.hi - minus.lo)
                assert got.estimate == pytest.approx(
                    plus.estimate - minus.estimate, rel=1e-12, abs=1e-9
                )

    def test_exact_when_prefix_floors_on_retained_boundary(self, tmp_path):
        # one update at every instant: occurring times are dense, so a
        # bucket boundary (granularity 4 -> times 3, 7, 11, ...) is
        # always retained after the demote
        updates = [((t, 1, 1), t + 1) for t in range(32)]
        oracle, tiered = _paired_cubes(tmp_path, updates)
        tiered.demote_before(30)
        boundaries = [t for tier in tiered.tiers for t in tier.times]
        assert boundaries
        for t2 in boundaries:
            box = Box((0, 0, 0), (t2, 3, 2))
            estimate = tiered.query_approx(box)
            assert estimate.exact
            assert estimate.lo == oracle.query_many([box])[0]

    def test_non_boundary_demoted_prefix_is_a_true_interval(self, tmp_path):
        updates = [((t, 0, 0), 5) for t in range(32)]
        oracle, tiered = _paired_cubes(tmp_path, updates)
        tiered.demote_before(30)
        # evict the finest tier so mid-bucket floors need estimation
        retained = set()
        for tier in tiered.tiers:
            retained.update(tier.times)
        target = next(t for t in range(1, 29) if t not in retained)
        box = Box((0, 0, 0), (target, 3, 2))
        estimate = tiered.query_approx(box)
        assert not estimate.exact
        assert estimate.contains(oracle.query_many([box])[0])


class TestResidentFallThrough:
    def test_resident_prefix_is_bit_identical_to_exact_path(self, tmp_path):
        updates = [
            ((t, int(t % SHAPE[0]), int(t % SHAPE[1])), t + 1)
            for t in range(40)
        ]
        oracle, tiered = _paired_cubes(tmp_path, updates)
        tiered.demote_before(20)
        watermark = tiered.demoted_through
        live_boxes = [
            Box((watermark, 0, 0), (39, 3, 2)),
            Box((watermark + 3, 1, 0), (watermark + 9, 2, 2)),
            Box((39, 0, 0), (39, 3, 2)),
        ]
        estimates = tiered.query_many_approx(live_boxes)
        exact = tiered.query_many(live_boxes)
        assert exact == oracle.query_many(live_boxes)
        for estimate, value in zip(estimates, exact):
            assert estimate == Estimate.of(value)

    def test_undemoted_cube_is_all_exact(self, tmp_path):
        updates = [((t, 0, 0), 2) for t in range(10)]
        oracle, tiered = _paired_cubes(tmp_path, updates)
        box = Box((0, 0, 0), (9, 3, 2))
        assert tiered.query_approx(box) == Estimate.of(
            oracle.query_many([box])[0]
        )


class TestEstimatePrimitives:
    def test_bracket_prefix_picks_tightest_sides(self):
        fine = RollupTier(TierSpec("fine", 4))
        fine._times = [3, 7, 11]
        fine._slices = [np.full(SHAPE, v, dtype=np.int64) for v in (1, 2, 3)]
        coarse = RollupTier(TierSpec("coarse", 16))
        coarse._times = [15]
        coarse._slices = [np.full(SHAPE, 4, dtype=np.int64)]
        lo, hi = bracket_prefix([fine, coarse], 9)
        assert lo[0] == 7 and hi[0] == 11
        lo, hi = bracket_prefix([fine, coarse], 13)
        assert lo[0] == 11 and hi[0] == 15
        # the planner's carried newest slice can tighten either side
        lo, hi = bracket_prefix(
            [fine, coarse], 13, 14, np.full(SHAPE, 9, dtype=np.int64)
        )
        assert hi[0] == 14
        lo, hi = bracket_prefix([fine, coarse], 2)
        assert lo is None and hi[0] == 3

    def test_estimate_prefix_interpolates_within_bounds(self):
        ps_lo = np.full(SHAPE, 2, dtype=np.int64)
        ps_hi = np.full(SHAPE, 10, dtype=np.int64)
        est = estimate_prefix((4, ps_lo), (8, ps_hi), 6, (0, 0), (0, 0))
        assert (est.lo, est.hi) == (2, 10)
        assert est.estimate == pytest.approx(6.0)
        assert est.lo <= est.estimate <= est.hi

    def test_estimate_prefix_no_floor_uses_zero(self):
        ps_hi = np.full(SHAPE, 8, dtype=np.int64)
        est = estimate_prefix(None, (7, ps_hi), 3, (0, 0), (0, 0))
        assert (est.lo, est.hi) == (0, 8)

    def test_estimate_prefix_exact_floor(self):
        # the slices are *cumulative* PS; the corner gather of a
        # constant slice with all-zero lowers is just the top corner
        ps = np.full(SHAPE, 5, dtype=np.int64)
        est = estimate_prefix((6, ps), None, 6, (0, 0), (1, 1))
        assert est == Estimate.of(5)


class TestLogInfoRegression:
    def _durable_tiered(self, tmp_path, demote_to=None):
        from repro.durability import DurableCube

        directory = tmp_path / "cube"
        cube = DurableCube(SHAPE, directory, buffered=True, tiers=TIERS)
        try:
            for t in range(24):
                cube.update((t, 0, 0), 1)
            if demote_to is not None:
                cube.demote_before(demote_to)
            cube.checkpoint()
        finally:
            cube.close()
        return directory

    def test_log_info_with_zero_demote_records(self, tmp_path, capsys):
        """A tiered manifest without any demote must report
        ``demoted_through: null``, not raise."""
        from repro.__main__ import main

        directory = self._durable_tiered(tmp_path)
        assert main(["log-info", str(directory)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["tiers"] == TIERS
        assert info["demoted_through"] is None
        assert info["record_counts"].get("demote", 0) == 0

    def test_log_info_reports_checkpointed_watermark(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = self._durable_tiered(tmp_path, demote_to=12)
        assert main(["log-info", str(directory)]) == 0
        info = json.loads(capsys.readouterr().out)
        # the checkpoint compacted the WAL (no demote record survives in
        # the log); the watermark must still surface from the archive
        assert info["demoted_through"] == 11
