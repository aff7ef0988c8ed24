"""Pruning of dead correction state behind the retirement horizon.

Before this subsystem, a correction aimed at fully-retired history was
kept *forever*: the ``G_d`` buffer re-buffered it on every drain and the
extent cube's columnar containment index never forgot a moved-over
interval.  These tests pin the fix: pruning actually shrinks the column
arrays (capacity, not just logical length), never changes an answerable
query, and installs an explicit aged-out discipline where silence would
have meant silently wrong answers.  The tolerant WAL scan satellite
rides along (unknown record types and ``demote`` counts in log-info).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.concurrent import SnapshotExtentCube
from repro.core.errors import AgedOutError
from repro.core.out_of_order import OutOfOrderBuffer
from repro.core.types import Box
from repro.durability.wal import (
    DemoteRecord,
    RetireRecord,
    UpdateRecord,
    WriteAheadLog,
    inspect_log,
)
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.extent import ExtentCube


class TestBufferPruneBelow:
    def _filled(self, n=40, ndim=3, seed=2):
        rng = np.random.default_rng(seed)
        buffer = OutOfOrderBuffer(ndim)
        points = np.column_stack(
            [rng.integers(0, 50, size=n)]
            + [rng.integers(0, 6, size=n) for _ in range(ndim - 1)]
        ).astype(np.int64)
        deltas = rng.integers(-4, 9, size=n).astype(np.int64)
        buffer.add_many(points, deltas)
        return buffer, points, deltas

    def test_prunes_exactly_the_entries_below(self):
        buffer, points, _ = self._filled()
        removed = buffer.prune_below(25)
        assert removed == int((points[:, 0] < 25).sum())
        assert len(buffer) == int((points[:, 0] >= 25).sum())
        assert buffer.prune_below(25) == 0  # idempotent

    def test_column_arrays_actually_shrink(self):
        buffer, _, _ = self._filled(n=200)
        capacity_before = buffer._deltas.shape[0]
        assert buffer.prune_below(60) == 200  # everything is below 60
        assert len(buffer) == 0
        assert buffer._deltas.shape[0] < capacity_before
        assert buffer._points.shape[0] < capacity_before

    def test_tree_and_columns_agree_after_partial_prune(self):
        buffer, points, deltas = self._filled(n=60, seed=7)
        buffer.prune_below(20)
        box = Box((20, 0, 0), (49, 5, 5))
        kept = (points[:, 0] >= 20) & (points[:, 0] <= 49)
        expected = int(deltas[kept].sum())
        assert buffer.range_sum(box, mode="metered") == expected
        assert buffer.range_sum(box, mode="fast") == expected
        # full survey over the kept range: both representations line up
        for lo in (20, 30, 45):
            probe = Box((lo, 0, 0), (60, 5, 5))
            assert buffer.range_sum(probe, mode="metered") == buffer.range_sum(
                probe, mode="fast"
            )

    def test_prune_majority_repacks_tree(self):
        # removed > kept exercises the bulk re-pack branch
        buffer, points, deltas = self._filled(n=50, seed=9)
        removed = buffer.prune_below(45)
        assert removed > len(buffer)
        box = Box((45, 0, 0), (49, 5, 5))
        kept = points[:, 0] >= 45
        assert buffer.range_sum(box, mode="metered") == int(deltas[kept].sum())
        assert buffer.range_sum(box, mode="fast") == int(deltas[kept].sum())


class TestBufferedCubePrune:
    def _cube_with_dead_corrections(self):
        cube = BufferedEvolvingDataCube((4, 4))
        for t in range(0, 40, 2):
            cube.update((t, t % 4, (t + 1) % 4), 3)
        # late corrections spread across history
        for t in (1, 3, 5, 21, 33):
            cube.update((t, 0, 0), 2)
        return cube

    def test_retire_prunes_dead_buffer_entries(self):
        cube = self._cube_with_dead_corrections()
        assert cube.buffered_updates == 5
        cube.retire_before(20)
        boundary = cube.cube.occurring_times()[cube.cube.retired_instances]
        # corrections at or below the kept boundary are unreachable: gone
        assert cube.buffered_updates == 2  # t=21 and t=33 survive
        assert all(
            point[0] > boundary for point, _ in cube.buffer.entries()
        )

    def test_answers_above_boundary_unchanged_by_pruning(self):
        pristine = self._cube_with_dead_corrections()
        pruned = self._cube_with_dead_corrections()
        pruned.retire_before(20)
        boxes = [
            Box((20, 0, 0), (39, 3, 3)),
            Box((21, 0, 0), (33, 3, 3)),
            Box((30, 1, 1), (39, 2, 2)),
        ]
        for mode in ("fast", "metered"):
            assert pruned.query_many(boxes, mode=mode) == pristine.query_many(
                boxes, mode=mode
            )

    def test_drain_no_longer_rebuffers_dead_entries(self):
        cube = self._cube_with_dead_corrections()
        cube.retire_before(20)
        applied, kept = cube.drain(None)
        assert kept == 0  # nothing bounces off the retired region anymore
        assert cube.buffered_updates == 0


class TestExtentPrune:
    def _aged_extent(self):
        cube = ExtentCube((4,))
        intervals, cells, values = [], [], []
        for i in range(30):
            start = i * 2
            intervals.append((start, start + 3))
            cells.append((i % 4,))
            values.append(1 + i % 3)
        cube.insert_many(
            np.asarray(intervals), np.asarray(cells), np.asarray(values)
        )
        cube.advance(70)  # everything moves over into the containment index
        return cube

    def test_containment_columns_shrink(self):
        cube = self._aged_extent()
        assert len(cube._cont_ends) == 30
        cube.retire_before(40)
        removed = cube.prune_retired()
        assert removed > 0
        assert len(cube._cont_ends) < 30
        horizon = cube._cont_retired_below
        assert horizon is not None
        assert min(cube._cont_ends) >= horizon

    def test_pruned_region_ages_out_instead_of_undercounting(self):
        cube = self._aged_extent()
        cube.retire_before(40)
        cube.prune_retired()
        with pytest.raises(AgedOutError):
            cube.containment((0, 70))
        with pytest.raises(AgedOutError):
            cube.containment((cube._cont_retired_below - 1, 70))

    def test_snapshot_views_age_out_like_the_cube_they_pinned(self):
        cube = ExtentCube((4,))
        for i in range(10):
            cube.insert((i, i), (i % 4,), 1)
        cube.advance(20)
        serve = SnapshotExtentCube(cube)
        cube.retire_before(6)
        assert cube.containment((0, 5)) == serve.containment((0, 5)) == 6
        before = serve.pin()
        assert cube.prune_retired() > 0
        with pytest.raises(AgedOutError):
            cube.containment((0, 5))
        # a view pinned after the prune carries the cutoff with its
        # (shrunken) columns instead of under-counting from them
        with pytest.raises(AgedOutError):
            serve.containment((0, 5))
        horizon = cube._cont_retired_below
        assert serve.containment((horizon, 9)) == cube.containment((horizon, 9))
        # one pinned before it keeps answering from the columns it froze
        assert before.containment((0, 5)) == 6
        before.release()
        serve.close()

    def test_containment_above_horizon_unchanged(self):
        pristine = self._aged_extent()
        pruned = self._aged_extent()
        pruned.retire_before(40)
        pruned.prune_retired()
        horizon = pruned._cont_retired_below
        queries = [(horizon, 70), (horizon + 2, 60), (50, 59)]
        assert pruned.containment_many(queries) == pristine.containment_many(
            queries
        )

    def test_family_buffers_prune_with_the_families(self):
        cube = ExtentCube((4,))
        cube.insert((10, 12), (0,), 1)
        cube.insert((40, 45), (1,), 1)
        cube.insert((2, 4), (2,), 1)  # late segment -> G_d of family C
        assert cube.buffered_updates > 0
        cube.retire_before(30)
        assert cube.buffered_updates == 0

    def test_prune_without_retirement_is_a_noop(self):
        cube = self._aged_extent()
        assert cube.prune_retired() == 0
        assert len(cube._cont_ends) == 30
        assert cube._cont_retired_below is None

    def test_prune_survives_snapshot_round_trip(self):
        cube = self._aged_extent()
        cube.retire_before(40)
        cube.prune_retired()
        arrays = cube.state_arrays()
        fresh = ExtentCube((4,))
        fresh.restore_state(arrays)
        assert fresh._cont_retired_below == cube._cont_retired_below
        assert fresh._cont_ends == cube._cont_ends
        with pytest.raises(AgedOutError):
            fresh.containment((0, 70))


class TestLogInfoRecordTypes:
    def test_demote_records_counted_by_name(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(UpdateRecord((0, 1), 2))
            wal.append(DemoteRecord(15))
            wal.append(DemoteRecord(30))
            wal.append(RetireRecord(5))
        info = inspect_log(tmp_path)
        assert info["record_counts"] == {"update": 1, "demote": 2, "retire": 1}
        assert info["torn_tail"] is False

    def test_unknown_record_type_reported_not_fatal(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(UpdateRecord((0, 1), 2))
            lsn = wal.next_lsn
            path = tmp_path / wal.segments()[-1]
        # append a validly-framed record of a type this build never wrote
        payload = struct.pack("<BQ", 250, lsn) + b"future-payload"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(path, "ab") as handle:
            handle.write(frame)
        info = inspect_log(tmp_path)
        assert info["records"] == 2
        assert info["record_counts"] == {"update": 1, "unknown_250": 1}
        assert info["torn_tail"] is False
