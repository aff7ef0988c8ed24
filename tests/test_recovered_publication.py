"""A recovered sharded cube publishes its log tail as it replays it.

The rule under test: every shard restores its checkpoint archive and
attaches its snapshot front (and, publishing into shared memory, its
exporter); only then does the router replay the cube's one log, each
record scattered to the shards it reaches exactly as a live write is,
and each shard publishing one epoch after it and releasing the epochs
that record superseded.  So replayed history lands in published rows as
it is rebuilt, exactly as live writes do, and never piles up on a
shard's heap.  The recovered fleet answers what a replica replayed in
process answers, and a fleet that cannot start says why and leaves no
worker and no block behind.
"""

from __future__ import annotations

import mmap
import multiprocessing
import shutil
import zlib

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.types import Box
from repro.durability.checkpoint import read_manifest
from repro.durability.recovery import WAL_SUBDIR
from repro.durability.wal import (
    _FRAME,
    _PREFIX,
    AdvanceRecord,
    RetireRecord,
    WriteAheadLog,
    encode_record,
)
from repro.sharding import EpochExporter, ShardedCube, leaked_segments
from repro.sharding import cube as cube_module

from .conftest import fleet_leaks, fleet_owners, random_box
from .test_row_widths import ShmInlineHandle
from .test_sharding import TIERS, _outcome

SHAPE = (6, 6)


def _in_shared_memory(array: np.ndarray) -> bool:
    """Is ``array`` a view of a mapped block (a row, a successor row, a
    checkpoint archive member) rather than memory of the heap?"""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def _heap_slices(kernel) -> int:
    """Non-retired slices that hold writable heap arrays."""
    count = 0
    for index in range(kernel.retired_instances, kernel.num_slices):
        payload = kernel.directory.at_index(index)[1]
        if kernel.store.published(payload):
            continue  # a row: its arrays are read-only, in shared memory
        if payload.values.flags.writeable and not _in_shared_memory(payload.values):
            count += 1
    return count


def _points(rng, times, shape=SHAPE) -> np.ndarray:
    times = np.asarray(times)
    return np.column_stack(
        [times] + [rng.integers(0, n, size=len(times)) for n in shape]
    ).astype(np.int64)


def _write_log(directory, rng, *, tiered: bool, checkpoint: bool) -> None:
    """A one-shard log of 100+ records: in-order batches, one new time
    each; late points into times that occurred (corrections, no splice)
    and drains of them; demotions when tiered; a checkpoint a third of
    the way in when asked."""
    cube = ShardedCube(
        SHAPE, shards=1, processes=False, durable_dir=directory, fsync="off",
        tiers=TIERS if tiered else None,
    )  # fmt: skip
    try:
        for time in range(96):
            batch = _points(rng, [time] * 4)
            cube.update_many(batch, [1 + time % 5] * 4)
            if time % 6 == 5:
                cube.update_many(_points(rng, [time - 3, time - 1]), [2, 3])
            if time % 12 == 11:
                cube.drain()
            if tiered and time % 24 == 23:
                cube.demote_before(time - 8)
            if checkpoint and time == 32:
                cube.checkpoint()
    finally:
        cube.close()


class TestReplayPublishesAsItGoes:
    @pytest.mark.parametrize("stack", ["buffered", "tiered", "checkpoint"])
    def test_no_more_than_two_slices_are_ever_on_the_heap(
        self, rng, tmp_path, monkeypatch, stack
    ):
        _write_log(
            tmp_path / "fleet", rng,
            tiered=stack == "tiered", checkpoint=stack == "checkpoint",
        )  # fmt: skip
        seen = []
        export = EpochExporter.export

        def counting_export(exporter):
            seen.append(_heap_slices(exporter.snap.kernel))
            return export(exporter)

        monkeypatch.setattr(EpochExporter, "export", counting_export)
        # shards in this process that publish into shared memory as a
        # worker process does
        monkeypatch.setattr(cube_module, "InlineHandle", ShmInlineHandle)
        cube = ShardedCube.recover(tmp_path / "fleet", processes=False)
        try:
            (handle,) = cube.router.handles
            state = handle.state
            replayed = cube.recovery_info["replayed_records"]
            assert replayed >= 64
            # the restored checkpoint's export, then one per record, each
            # after the record was applied: the latest instance and the
            # one it just made historic
            assert len(seen) == 1 + replayed
            assert max(seen) <= 2
            # published: every historic slice is a row in shared memory
            assert _heap_slices(state.kernel) <= 1
            descriptor = state.published()[0]
            assert len(descriptor["slices"]) == (
                state.kernel.num_slices - 1 - state.kernel.retired_instances
            )
        finally:
            cube.close()
        assert not fleet_leaks()


def _reads(rng, horizon: int):
    full = tuple(n - 1 for n in SHAPE)
    boxes = [random_box(rng, (horizon,) + SHAPE) for _ in range(30)]
    boxes += [Box((0, 0, 0), (t, *full)) for t in range(0, horizon, 5)]
    reads = [("query_many", [box]) for box in boxes]
    reads += [("query_approx", box) for box in boxes[:15]]
    reads += [("topk_many", [(0, horizon - 1, 4), (10, 30, 3)]), ("total",)]
    return reads


class TestARecoveredFleetAnswersLikeItsReplica:
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_tiers_pending_late_points_and_a_moved_boundary(
        self, rng, tmp_path, checkpoint
    ):
        """Tiers and ``demote_before``, ``G_d`` points still pending, a
        ``retire_before`` boundary the router persisted, and (with
        ``checkpoint``) a checkpoint followed by a tail."""
        fleet = tmp_path / "fleet"
        cube = ShardedCube(
            SHAPE, shards=2, processes=False, durable_dir=fleet, fsync="off",
            tiers=TIERS,
        )  # fmt: skip
        try:
            for time in range(0, 48, 2):  # even times: an odd one is a splice
                cube.update_many(_points(rng, [time] * 6), [1 + time % 4] * 6)
                if time % 10 == 8:
                    cube.update_many(_points(rng, [time - 5, time - 2]), [3, 4])
                if time == 24:
                    cube.drain()
                    if checkpoint:
                        cube.checkpoint()
            cube.demote_before(16)
            cube.retire_before(21)
            cube.update_many(_points(rng, [33, 40, 41]), [5, 6, 7])  # pending
        finally:
            cube.close()
        shutil.copytree(fleet, tmp_path / "replica")
        recovered = ShardedCube.recover(fleet, processes=True, timeout=120.0)
        replica = ShardedCube.recover(tmp_path / "replica", processes=False)
        owners = fleet_owners(recovered, replica)

        def agree(horizon):
            assert recovered.router.boundary_time == replica.router.boundary_time
            for method, *args in _reads(rng, horizon):
                answers = [
                    _outcome(lambda: getattr(cube, method)(*args))
                    for cube in (recovered, replica)
                ]
                assert answers[0] == answers[1], (method, args)

        try:
            agree(48)
            drained = [cube.drain() for cube in (recovered, replica)]
            assert drained[0] == drained[1]  # the pending points drain alike
            agree(48)
            late = _points(rng, [44, 46, 50])
            for cube in (recovered, replica):
                cube.update_many(late, [1, 2, 3])
            agree(51)
        finally:
            recovered.close()
            replica.close()
        assert not fleet_leaks(owners)


def _shard_workers() -> list:
    return [
        p for p in multiprocessing.active_children() if p.name.startswith("shard ")
    ]


class TestAFleetThatCannotStart:
    """Every started worker is closed, every block unlinked, and the
    error names the shard and the cause."""

    @staticmethod
    def _fleet(tmp_path, rng):
        """Two shards, a checkpoint, then a tail of records."""
        fleet = tmp_path / "fleet"
        cube = ShardedCube(
            SHAPE, shards=2, processes=False, durable_dir=fleet, fsync="off"
        )
        try:
            for time in range(12):
                cube.update_many(_points(rng, [time] * 6), [1] * 6)
            cube.checkpoint()
            for time in range(12, 20):
                cube.update_many(_points(rng, [time] * 6), [1] * 6)
        finally:
            cube.close()
        return fleet

    @staticmethod
    def _refused(fleet, *fragments) -> None:
        before = set(leaked_segments())
        with pytest.raises(StorageError) as caught:
            ShardedCube.recover(fleet, processes=True, timeout=120.0)
        message = str(caught.value)
        assert message.startswith("sharded cube failed to start")
        for fragment in fragments:
            assert fragment in message
        assert not _shard_workers()
        assert set(leaked_segments()) <= before

    def test_a_missing_checkpoint(self, rng, tmp_path):
        fleet = self._fleet(tmp_path, rng)
        (fleet / "shard-01" / read_manifest(fleet).checkpoint_file).unlink()
        self._refused(fleet, "shard 1:", "manifest names missing checkpoint")

    def test_a_committed_frame_this_build_cannot_decode(self, rng, tmp_path):
        fleet = self._fleet(tmp_path, rng)
        with WriteAheadLog(fleet / WAL_SUBDIR, fsync="off") as wal:
            lsn = wal.next_lsn
        segment = sorted((fleet / WAL_SUBDIR).iterdir())[-1]
        foreign = _PREFIX.pack(99, lsn) + b"\xab" * 4
        with open(segment, "ab") as handle:  # mid-log: a valid record follows
            handle.write(_FRAME.pack(len(foreign), zlib.crc32(foreign)) + foreign)
            handle.write(encode_record(RetireRecord(0), lsn + 1))
        size = segment.stat().st_size
        self._refused(fleet, f"LSN {lsn}", "cannot decode")
        assert segment.stat().st_size == size  # nothing truncated

    def test_a_record_that_cannot_be_replayed_after_rows_were_published(
        self, rng, tmp_path
    ):
        """The workers exported rows for the records before it: they are
        unlinked with them."""
        fleet = self._fleet(tmp_path, rng)
        with WriteAheadLog(fleet / WAL_SUBDIR, fsync="off") as wal:
            wal.append(AdvanceRecord(30))  # an extent record in a point log
        self._refused(fleet, "cannot replay AdvanceRecord")
