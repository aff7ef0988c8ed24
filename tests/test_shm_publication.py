"""What shared-memory publication exports, counted exactly.

The rule under test (:mod:`repro.sharding.shm`): a historic instance is
exported once, when it becomes historic, as a finished prefix-sum row.
Representation-only work (lazy copies landing, conversions, finalizes)
exports nothing; an out-of-order correction reaching instance ``i``
re-creates exactly the rows at and above ``i``; retirement only drops
rows.  The second half covers what replaced the resource tracker: no
tracker process exists, a killed worker's blocks stay readable until
``close`` sweeps them, and a missing block is a typed error.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.concurrent import SnapshotCube, prepare_epoch
from repro.core.errors import ShardUnavailableError, StorageError
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.retention import TieredCube
from repro.sharding import (
    BlockCache,
    EpochExporter,
    ShardClient,
    ShardedCube,
    leaked_segments,
)
from repro.sharding.shm import (
    BlockOwner,
    descriptor_blocks,
    epoch_from_shared_memory,
)

from .conftest import brute_box_sum, random_box
from .test_shard_server import _serve_cli, _stop_cli

SHAPE = (6, 5)
NUM_TIMES = 40
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]


class CountingOwner(BlockOwner):
    """A :class:`BlockOwner` that remembers the names it created."""

    def __init__(self, tag: str) -> None:
        super().__init__(tag)
        self.created: list[str] = []

    def create(self, arrays):
        block = super().create(arrays)
        self.created.append(block[0])
        return block


class Rig:
    """A cube, its exporter with a counting owner, and a dense oracle."""

    def __init__(self, tmp_path=None, buffered=True) -> None:
        front = BufferedEvolvingDataCube(SHAPE, num_times=NUM_TIMES)
        self.kernel = front.cube
        front = front if buffered else front.cube
        if tmp_path is not None:
            front = TieredCube(front, TIERS, tmp_path)
        self.snap = SnapshotCube(front)
        self.exporter = EpochExporter(self.snap, tag="pub")
        self.owner = self.exporter.owner = CountingOwner("pub")
        self.cache = BlockCache()
        self.dense = np.zeros((NUM_TIMES,) + SHAPE, dtype=np.int64)
        self.rng = np.random.default_rng(11)

    def write(self, times, apply=None) -> None:
        """Random updates at ``times`` through ``apply`` (default: the front)."""
        times = np.asarray(times)
        points = np.column_stack(
            [times] + [self.rng.integers(0, n, size=len(times)) for n in SHAPE]
        ).astype(np.int64)
        deltas = self.rng.integers(1, 9, size=len(times)).astype(np.int64)
        if apply is None:
            self.snap.update_many(points, deltas)
        else:
            for point, delta in zip(points, deltas):
                apply(tuple(int(c) for c in point), int(delta))
        np.add.at(self.dense, tuple(points.T), deltas)

    def export(self) -> tuple[dict, list[str]]:
        """``(descriptor, names created by this export)``; older epochs released."""
        before = len(self.owner.created)
        descriptor = self.exporter.export()
        self.exporter.release_below(descriptor["sequence"])
        return descriptor, self.owner.created[before:]

    def answers(self, descriptor, boxes, cache=None) -> list[int]:
        epoch = epoch_from_shared_memory(descriptor, cache or self.cache)
        return prepare_epoch(epoch).query_many(boxes)

    def expected(self, boxes) -> list[int]:
        return [brute_box_sum(self.dense, box) for box in boxes]

    def close(self) -> None:
        self.cache.close_all()
        self.exporter.close()
        self.snap.close()


@pytest.fixture
def rig_factory():
    rigs: list[Rig] = []

    def build(*args, **kwargs) -> Rig:
        rigs.append(Rig(*args, **kwargs))
        return rigs[-1]

    yield build
    for rig in rigs:
        rig.close()
    assert not leaked_segments()


def _rows(descriptor) -> dict[int, str]:
    return {index: name for index, name, _ in descriptor["slices"]}


def _boxes(rig, count=40) -> list[Box]:
    full = tuple(n - 1 for n in SHAPE)
    return [random_box(rig.rng, rig.dense.shape) for _ in range(count)] + [
        Box((0, 0, 0), (time,) + full) for time in range(NUM_TIMES)
    ]


class TestExportCounts:
    def test_k_new_times_create_k_rows_and_one_frontier(self, rig_factory):
        rig = rig_factory()
        rig.write([0] * 5)
        descriptor, created = rig.export()
        assert created == [descriptor["frontier"][0]]  # nothing is historic yet
        for k in (1, 3, 2):
            latest = int(rig.kernel.latest_time)
            rig.write(np.repeat(np.arange(latest + 1, latest + 1 + k), 4))
            descriptor, created = rig.export()
            # the old latest and all but the newest of the k became historic
            assert len(created) == k + 1
            assert created[-1] == descriptor["frontier"][0]
            assert created[:-1] == [name for _, name, _ in descriptor["slices"][-k:]]
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

    def test_representation_only_work_exports_nothing(self, rig_factory):
        rig = rig_factory()
        for time in range(8):
            rig.write([time] * 6)
        held, _ = rig.export()
        # a same-time write lands forced lazy copies in historic slices
        copies = rig.kernel.counter.copy_cell_writes
        rig.write([7] * 12)
        assert rig.kernel.counter.copy_cell_writes > copies
        descriptor, created = rig.export()
        assert created == [descriptor["frontier"][0]]
        assert _rows(descriptor) == _rows(held)
        # ... and none of these even publishes an epoch
        assert rig.kernel.sync_copies() > 0
        assert rig.kernel.bulk_finalize_slice(2)  # fast-path finalize_commit
        rig.kernel.query(Box((0, 1, 1), (4, 4, 3)))  # metered mark_ps
        assert rig.kernel.directory.at_index(4)[1].ps_count > 0
        again, created = rig.export()
        assert created == [] and again is descriptor
        # the next epoch still cites every old row, and answers right
        rig.write([8] * 3)
        descriptor, created = rig.export()
        assert len(created) == 2
        assert _rows(held).items() <= _rows(descriptor).items()
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

    @pytest.mark.parametrize("splice", [False, True])
    def test_out_of_order_recreates_exactly_the_rows_it_reaches(
        self, rig_factory, splice
    ):
        rig = rig_factory(buffered=False)
        times = range(0, 20, 2)
        for time in times:
            rig.write([time] * 5)
        before, _ = rig.export()
        # an occurring time corrects instance 4 in place; a never-occurring
        # one is spliced in as a new instance 4, shifting everything above
        rig.write([7 if splice else 8], apply=rig.snap.apply_out_of_order)
        after, created = rig.export()
        old, new = _rows(before), _rows(after)
        historic = len(times) - 1 + splice
        assert sorted(new) == list(range(historic))
        assert [new[i] for i in range(4)] == [old[i] for i in range(4)]
        assert created[:-1] == [new[i] for i in range(4, historic)]
        assert not set(created) & set(old.values())
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_a_drain_recreates_from_the_oldest_correction(self, rig_factory):
        rig = rig_factory()
        for time in range(0, 20, 2):
            rig.write([time] * 5)
        rig.export()
        rig.write([13, 6, 15])  # late: buffered in G_d
        before, created = rig.export()
        assert created == [before["frontier"][0]]  # a buffer-only epoch
        assert rig.snap.drain() == (3, 0)
        after, created = rig.export()
        old, new = _rows(before), _rows(after)
        # 6 occurs (instance 3); 13 and 15 are spliced in above it
        assert len(new) == len(old) + 2
        assert [new[i] for i in range(3)] == [old[i] for i in range(3)]
        assert created[:-1] == [new[i] for i in range(3, len(new))]
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    @pytest.mark.parametrize("demote", [False, True])
    def test_retirement_creates_nothing_and_unlinks_dropped_rows(
        self, rig_factory, tmp_path, demote
    ):
        rig = rig_factory(tmp_path if demote else None)
        for time in range(12):
            rig.write([time] * 5)
        before, _ = rig.export()
        dropped = (rig.snap.target.demote_before if demote else rig.snap.retire_before)(6)
        assert dropped == 5  # instance 5 stays as the cumulative boundary
        after, created = rig.export()
        assert created == [after["frontier"][0]]
        old, new = _rows(before), _rows(after)
        assert new == {i: old[i] for i in range(5, 11)}
        assert not {old[i] for i in range(5)} & set(leaked_segments())
        boxes = [box for box in _boxes(rig) if box.lower[0] == 0 and box.upper[0] >= 5]
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_a_held_descriptor_never_changes_under_the_writer(self, rig_factory):
        rig = rig_factory(buffered=False)
        for time in range(0, 20, 2):
            rig.write([time] * 5)
        boxes = _boxes(rig)
        held = rig.exporter.export()
        expected = rig.expected(boxes)
        early = BlockCache()  # attached before the rewrite
        try:
            assert rig.answers(held, boxes, early) == expected
            frozen = {
                name: views["ps"].copy()
                for name, (_, views) in early._blocks.items()
                if "ps" in views
            }
            rig.write([3, 9, 1], apply=rig.snap.apply_out_of_order)
            newer = rig.exporter.export()  # nothing released yet
            assert rig.answers(newer, boxes) == rig.expected(boxes) != expected
            # attached now, or attached before: byte for byte the old epoch
            assert rig.answers(held, boxes) == expected
            for name, row in frozen.items():
                assert np.array_equal(early._blocks[name][1]["ps"], row)
            rig.exporter.release_below(newer["sequence"])
            assert not (set(_rows(held).values()) - set(_rows(newer).values())) & set(
                leaked_segments()
            )
            # what is mapped keeps answering; a first attach is a typed error
            assert rig.answers(held, boxes, early) == expected
            with pytest.raises(StorageError, match="disappeared"):
                rig.answers(held, boxes, BlockCache())
        finally:
            early.close_all()

    def test_one_append_at_256_slices_exports_at_most_3_blocks(self, rig_factory):
        rig = rig_factory()
        rig.kernel.num_times = None
        for start in range(0, 256, 32):
            rig.snap.update_many(
                [[t, t % 6, t % 5] for t in range(start, start + 32)], [1] * 32
            )
            rig.export()
        before = set(leaked_segments())
        rig.snap.update_many([[256, 1, 1], [256, 2, 2]], [1, 1])
        descriptor, created = rig.export()
        assert len(descriptor["slices"]) == 256
        assert len(created) <= 3
        # superseded blocks are gone: the new row, and a frontier swapped
        assert len(set(leaked_segments())) == len(before) + 1

    def test_the_unrecoverable_instance_is_walked_once(self, rig_factory, monkeypatch):
        rig = rig_factory()
        for time in range(6):
            rig.write([time] * 10)
        # a metered read converts cells of instance 3; where the lazy copy
        # had landed, the conversion overwrote the cell's DDC value
        rig.kernel.query(Box((0, 1, 1), (3, 4, 3)))
        rig.write([6] * 25)
        assert not rig.kernel.bulk_finalize_slice(3)
        walked: list[int] = []
        walk = EpochExporter._walked_row

        def spying(exporter, index, values, flags):
            walked.append(index)
            return walk(exporter, index, values, flags)

        monkeypatch.setattr(EpochExporter, "_walked_row", spying)
        descriptor, _ = rig.export()
        assert walked == [3]
        _, name, metas = descriptor["slices"][3]
        assert np.array_equal(
            rig.cache.arrays(name, metas)["ps"],
            rig.dense[:4].sum(axis=0).cumsum(axis=0).cumsum(axis=1),
        )
        rig.write([7] * 5)
        descriptor, _ = rig.export()
        assert walked == [3]  # the row is cited, never rebuilt
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)


# -- no resource tracker: who cleans up, and what a reader sees -----------------

_NO_TRACKER = """
import sys
from repro.core.types import Box
from repro.sharding import ShardedCube
with ShardedCube((6, 6), shards=2, processes=True, timeout=120.0) as cube:
    cube.update_many([[t, t % 6, 5 - t % 6] for t in range(12)], [1] * 12)
    assert cube.query(Box((0, 0, 0), (11, 5, 5))) == 12
tracker = sys.modules.get("multiprocessing.resource_tracker")
assert tracker is None or tracker._resource_tracker._pid is None, "tracker ran"
"""


def _descendants(pid: int) -> dict[int, str]:
    """pid -> command line of every live descendant of ``pid``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                with open(f"/proc/{entry}/cmdline") as handle:
                    parents[int(entry)] = (int(fields[1]), fields[0], handle.read())
            except OSError:
                continue  # exited while we looked
    found: dict[int, str] = {}
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, (ppid, state, cmdline) in parents.items():
            if ppid == parent and state != "Z" and child not in found:
                found[child] = cmdline
                frontier.append(child)
    return found


class TestNoTracker:
    def test_a_process_fleet_starts_no_resource_tracker(self):
        result = subprocess.run(
            [sys.executable, "-c", _NO_TRACKER],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert not leaked_segments()

    def test_a_killed_workers_blocks_outlive_it_until_close(self, rng):
        shape = (10, 6, 6)
        cube = ShardedCube(shape[1:], shards=2, processes=True, timeout=120.0)
        try:
            dense = np.zeros(shape, dtype=np.int64)
            points = np.column_stack(
                [np.sort(rng.integers(0, 9, size=60))]
                + [rng.integers(0, 6, size=60) for _ in range(2)]
            ).astype(np.int64)
            cube.update_many(points, [1] * 60)
            np.add.at(dense, tuple(points.T), 1)
            boxes = [random_box(rng, shape) for _ in range(30)]
            expected = [brute_box_sum(dense, box) for box in boxes]
            assert cube.query_many(boxes) == expected
            victim = cube.router.handles[0]
            held = {i: h.descriptor for i, h in enumerate(cube.router.handles)}
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=30)
            assert not victim.is_alive()
            # nobody unlinked behind the router: the epoch it holds is whole,
            # on its mappings and for a first attach alike
            assert descriptor_blocks(held[0]) <= set(leaked_segments())
            reader = cube.router.reader_state
            assert reader.query_many(held, boxes) == expected
            assert type(reader)(cube.partitioner).query_many(held, boxes) == expected
            # ... while the fleet refuses what needs the dead shard
            with pytest.raises(ShardUnavailableError):
                cube.update_many([[9, 0, 0]], [1])
            with pytest.raises(ShardUnavailableError):
                cube.query_many(boxes)
            with pytest.raises(ShardUnavailableError):
                cube.total()
        finally:
            cube.close()
        assert not leaked_segments()

    def test_serve_is_three_processes_and_stops_clean(self, tmp_path):
        process, banner = _serve_cli(tmp_path, inline=False, shape="8,8")
        try:
            port = int(banner["listening"].rsplit(":", 1)[1])
            with ShardClient("127.0.0.1", port) as client:
                for time in range(10):
                    client.update_many([[time, 1, 1], [time, 6, 6]], [1, 1])
                assert client.query(Box((0, 0, 0), (9, 7, 7))) == 20
            family = _descendants(process.pid)
            assert len(family) == 2, family  # the router's two workers
            assert not any("resource_tracker" in cmd for cmd in family.values())
        finally:
            stderr = _stop_cli(process)
        assert "KeyError" not in stderr and "resource_tracker" not in stderr
        assert "Traceback" not in stderr
        assert not leaked_segments()
