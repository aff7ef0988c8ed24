"""Snapshot-isolated concurrent reads: racing stress + unit semantics.

The racing half drives :func:`repro.concurrent.run_stress`: barrier-
started reader threads against one scripted writer, with each recorded answer validated post-join against an exact oracle
for its pinned epoch -- no torn reads, no reads of unpublished state,
pinned views stable while the writer advances.

The deterministic half checks the epoch machinery directly (publication
watermark, preservation across out-of-order cascades / splices /
retirement, durable serving).  The batch evaluator behind every read
is covered by ``test_batch_evaluator.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.concurrent import SnapshotCube, run_stress
from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box
from repro.durability.recovery import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube

from .conftest import brute_box_sum, random_box

#: the store snapshot epochs serve (paged and sparse kernels are used bare)
BACKENDS = ("dense",)


def _filled_cube(rng, shape=(6, 6), num_times=24, updates=120):
    cube = EvolvingDataCube(shape, num_times=num_times)
    times = np.sort(rng.integers(0, num_times, size=updates))
    points = np.column_stack(
        [times] + [rng.integers(0, n, size=updates) for n in shape]
    ).astype(np.int64)
    deltas = rng.integers(-3, 9, size=updates).astype(np.int64)
    cube.update_many(points, deltas)
    dense = np.zeros((num_times,) + shape, dtype=np.int64)
    np.add.at(dense, tuple(points.T), deltas)
    return cube, dense


class TestStressAllBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("buffered", [False, True])
    def test_racing_readers_match_oracle(self, backend, buffered):
        result = run_stress(
            buffered=buffered,
            readers=3,
            writes=60,
            seed=11,
        )
        assert result.reads > 0
        assert result.validated_answers > 0
        assert result.ok, "\n".join(result.errors)

    def test_repeated_runs_stay_clean(self):
        # different seeds shuffle the interleavings; a scheduling-
        # dependent bug shows up as a rare oracle mismatch
        for seed in range(5):
            result = run_stress(buffered=True, readers=4, writes=40, seed=seed)
            assert result.ok, f"seed {seed}:\n" + "\n".join(result.errors)


class TestEpochSemantics:
    def test_pinned_view_is_immutable_under_appends(self, rng):
        cube, dense = _filled_cube(rng)
        snap = SnapshotCube(cube)
        boxes = [random_box(rng, dense.shape) for _ in range(30)]
        with snap.pin() as view:
            before = view.query_many(boxes)
            assert before == [brute_box_sum(dense, box) for box in boxes]
            snap.update((23, 0, 0), 1000)
            snap.update_many(
                np.array([[23, 1, 1], [23, 2, 2]], dtype=np.int64),
                np.array([50, 60], dtype=np.int64),
            )
            assert view.query_many(boxes) == before
        # a fresh pin sees the new writes
        dense[23, 0, 0] += 1000
        dense[23, 1, 1] += 50
        dense[23, 2, 2] += 60
        assert snap.query_many(boxes) == [
            brute_box_sum(dense, box) for box in boxes
        ]

    def test_pinned_view_survives_out_of_order_cascade(self, rng):
        # even occurring times only, so every odd time is never-occurring
        cube = EvolvingDataCube((6, 6), num_times=24)
        times = 2 * np.sort(rng.integers(0, 12, size=120))
        points = np.column_stack(
            [times, rng.integers(0, 6, 120), rng.integers(0, 6, 120)]
        ).astype(np.int64)
        deltas = rng.integers(-3, 9, size=120).astype(np.int64)
        cube.update_many(points, deltas)
        dense = np.zeros((24, 6, 6), dtype=np.int64)
        np.add.at(dense, tuple(points.T), deltas)
        snap = SnapshotCube(cube)
        boxes = [random_box(rng, dense.shape) for _ in range(30)]
        view = snap.pin()
        before = view.query_many(boxes)
        # corrections at occurring and never-occurring historic times:
        # the cascade rewrites historic slices and the splice shifts
        # directory indices; the pinned epoch must not notice
        snap.apply_out_of_order((4, 2, 2), 17)
        never = 3  # odd => spliced in as a new instance
        snap.apply_out_of_order((never, 1, 3), -4)
        assert view.query_many(boxes) == before
        view.release()
        dense[4, 2, 2] += 17
        dense[never, 1, 3] += -4
        assert snap.query_many(boxes) == [
            brute_box_sum(dense, box) for box in boxes
        ]

    def test_pinned_view_survives_retirement(self, rng):
        cube, dense = _filled_cube(rng)
        snap = SnapshotCube(cube)
        view = snap.pin()
        old_box = Box((0, 0, 0), (5, 5, 5))
        before = view.query(old_box)
        boundary = int(cube.occurring_times()[3])
        snap.retire_before(boundary)
        # the pinned epoch was preserved before the slices were freed
        assert view.query(old_box) == before
        view.release()
        # a fresh epoch answers open prefixes but ages out the detail
        with snap.pin() as fresh:
            with pytest.raises(AgedOutError):
                fresh.query(Box((1, 0, 0), (2, 5, 5)))

    def test_buffered_retire_prunes_gd_in_the_epoch_it_publishes(self):
        front = BufferedEvolvingDataCube((4,))
        snap = SnapshotCube(front)
        for t in range(5):
            snap.update((t, 0), 10)
        snap.update((1, 1), 7)  # historic -> buffered
        box = Box((0, 0), (8, 3))
        assert snap.query_many([box]) == front.query_many([box]) == [57]
        sequence_before = snap.current_sequence()
        snap.retire_before(5)
        # the retire drops the dead correction from G_d: the snapshot
        # sees that in the same (single) epoch as the live front
        assert front.buffered_updates == 0
        assert snap.current_sequence() == sequence_before + 1
        assert snap.query_many([box]) == front.query_many([box])

    def test_buffer_only_publish_reuses_frozen_cache(self, rng):
        front = BufferedEvolvingDataCube((4, 4), num_times=16)
        snap = SnapshotCube(front)
        snap.update((5, 1, 1), 3)
        with snap.pin() as view_a:
            epoch_a = view_a.epoch
            # a historic update lands in G_d without touching the kernel:
            # the new epoch shares the frozen cache (copy-on-publish)
            snap.update((2, 0, 0), 7)
            with snap.pin() as view_b:
                epoch_b = view_b.epoch
                assert epoch_b.sequence > epoch_a.sequence
                assert epoch_b.cache_values is epoch_a.cache_values
                assert epoch_b.rows is epoch_a.rows
                # answers still differ through the frozen G_d columns
                box = Box((0, 0, 0), (15, 3, 3))
                assert view_b.query(box) == view_a.query(box) + 7
            # an in-order update advances the kernel: fresh freeze
            snap.update((6, 2, 2), 1)
            with snap.pin() as view_c:
                assert view_c.epoch.cache_values is not epoch_a.cache_values

    def test_drain_publishes_once_and_preserves_pins(self, rng):
        front = BufferedEvolvingDataCube((4, 4), num_times=16)
        snap = SnapshotCube(front)
        for t in (0, 3, 8):
            snap.update((t, 1, 2), 5)
        snap.update((1, 0, 0), 9)  # historic -> buffered
        snap.update((2, 3, 3), 4)  # historic -> buffered
        view = snap.pin()
        box = Box((0, 0, 0), (15, 3, 3))
        before = view.query(box)
        sequence_before = snap.current_sequence()
        snap.drain()
        assert front.buffered_updates == 0
        # one epoch for the whole drain, answers unchanged by it
        assert snap.current_sequence() == sequence_before + 1
        assert view.query(box) == before
        assert snap.query(box) == before
        view.release()

    def test_double_attach_rejected(self):
        cube = EvolvingDataCube((4, 4), num_times=8)
        snap = SnapshotCube(cube)
        with pytest.raises(DomainError, match="already has a snapshot front"):
            SnapshotCube(cube)
        snap.close()
        reattached = SnapshotCube(cube)  # close() releases the slot
        reattached.close()

    def test_unsupported_target_rejected(self):
        with pytest.raises(DomainError, match="declares no layer kind"):
            SnapshotCube(object())


class TestDurableServing:
    def test_logged_writes_checkpoints_and_recovery(self, tmp_path, rng):
        durable = DurableCube(
            (4, 4), tmp_path / "cube", buffered=True, fsync="off", num_times=16
        )
        snap = durable.serve()
        times = np.sort(rng.integers(0, 16, size=50))
        points = np.column_stack(
            [times, rng.integers(0, 4, 50), rng.integers(0, 4, 50)]
        ).astype(np.int64)
        deltas = rng.integers(-2, 6, size=50).astype(np.int64)
        snap.update_many(points, deltas)
        snap.update((0, 1, 1), 13)  # historic -> logged, buffered
        box = Box((0, 0, 0), (15, 3, 3))
        view = snap.pin()
        pinned_answer = view.query(box)
        manifest = snap.checkpoint()
        # the checkpoint records the epoch it covers
        assert manifest.covered_epoch == snap.current_sequence()
        snap.update((15, 2, 2), 21)
        assert view.query(box) == pinned_answer
        live_answer = snap.query(box)
        assert live_answer == pinned_answer + 21
        view.release()
        durable.close()
        snap.close()
        recovered = DurableCube.recover(tmp_path / "cube")
        try:
            assert recovered.query(box) == live_answer
            assert recovered._manifest.covered_epoch == manifest.covered_epoch
        finally:
            recovered.close()

    def test_readers_race_logged_writer(self, tmp_path):
        durable = DurableCube(
            (4, 4), tmp_path / "cube", buffered=True, fsync="off", num_times=32
        )
        snap = durable.serve()
        box = Box((0, 0, 0), (31, 3, 3))
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                with snap.pin() as view:
                    first = view.query(box)
                    if view.query(box) != first:
                        failures.append("torn read inside one view")
                        return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        rng = np.random.default_rng(5)
        total = 0
        for t in range(32):
            batch = np.column_stack(
                [
                    np.full(3, t),
                    rng.integers(0, 4, 3),
                    rng.integers(0, 4, 3),
                ]
            ).astype(np.int64)
            deltas = rng.integers(1, 5, size=3).astype(np.int64)
            snap.update_many(batch, deltas)
            total += int(deltas.sum())
            if t % 10 == 5:
                snap.checkpoint()
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        assert snap.query(box) == total
        durable.close()
        snap.close()
