"""Sharded serving: differential equivalence, shared memory, fault paths.

The contract under test is exact: a :class:`ShardedCube` over any grid
partition answers every query bit-identically to one unsharded
:class:`SnapshotCube` fed the same stream -- through appends,
out-of-order corrections, drains and retirement.  The inline-mode tests
prove the decomposition itself (no processes involved); the process
tests cover the pipes, the shared-memory epoch export and the crash /
leak discipline.  Process tests are deliberately small: this suite runs
under GNU timeout in CI and must stay cheap on a single core.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotCube, prepare_epoch
from repro.core.errors import AgedOutError, DomainError, ShardUnavailableError
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.sharding import (
    BlockCache,
    EpochExporter,
    GridPartitioner,
    ShardedCube,
    leaked_segments,
)
from repro.sharding.shm import descriptor_blocks, epoch_from_shared_memory

from .conftest import fleet_leaks, fleet_owners, random_box

#: the store a shard serves (paged and sparse kernels are used bare)
BACKENDS = ("dense",)


def _mixed_stream(rng, shape, updates, shuffle=0.1):
    """A time-sorted stream with a fraction swapped out of order."""
    num_times = shape[0]
    times = np.sort(rng.integers(0, num_times, size=updates))
    columns = [times]
    for size in shape[1:]:
        columns.append(rng.integers(0, size, size=updates))
    points = np.column_stack(columns).astype(np.int64)
    deltas = rng.integers(1, 6, size=updates).astype(np.int64)
    index = np.arange(updates)
    swap = rng.choice(updates, size=max(1, int(shuffle * updates)), replace=False)
    index[np.sort(swap)] = swap
    return points[index], deltas[index]


def _differential(oracle, cube, rng, shape, points, deltas, batches=4):
    """Drive both cubes through the same mixed workload, comparing answers."""
    for batch in np.array_split(np.arange(len(points)), batches):
        oracle.update_many(points[batch], deltas[batch])
        cube.update_many(points[batch], deltas[batch])
        boxes = [random_box(rng, shape) for _ in range(40)]
        assert cube.query_many(boxes) == oracle.query_many(boxes)
        assert cube.total() == oracle.total()
    applied_o, _ = oracle.drain()
    applied_c, _ = cube.drain()
    assert applied_c == applied_o
    boxes = [random_box(rng, shape) for _ in range(40)]
    assert cube.query_many(boxes) == oracle.query_many(boxes)
    oracle.retire_before(shape[0] // 2)
    cube.retire_before(shape[0] // 2)
    for box in [random_box(rng, shape) for _ in range(60)]:
        try:
            expected = oracle.query(box)
        except AgedOutError:
            expected = None
        try:
            got = cube.query(box)
        except AgedOutError:
            got = None
        assert got == expected, box


class TestInlineDifferential:
    """Decomposition correctness, no processes: fast and deterministic."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_workload_matches_snapshot_oracle(self, rng, backend):
        shape = (16, 6, 7)
        oracle = SnapshotCube(BufferedEvolvingDataCube(shape[1:]))
        cube = ShardedCube(shape[1:], shards=3, processes=False)
        points, deltas = _mixed_stream(rng, shape, updates=160)
        _differential(oracle, cube, rng, shape, points, deltas)
        cube.close()
        oracle.close()

    def test_single_update_and_out_of_order_routing(self, rng):
        shape = (10, 5, 5)
        oracle = SnapshotCube(BufferedEvolvingDataCube(shape[1:]))
        cube = ShardedCube(shape[1:], shards=4, processes=False)
        for t in (0, 1, 3, 3, 7):
            point = (t, int(rng.integers(5)), int(rng.integers(5)))
            oracle.update(point, 2)
            cube.update(point, 2)
        correction = (2, 4, 4)
        # an in-memory buffered fleet applies a forced correction at the
        # kernel, past G_d; a snapshot front over a buffered cube refuses
        # the call, so the oracle does the same thing by name
        oracle.kernel.apply_out_of_order(correction, 5)
        oracle.publish()  # written past the front, which publishes
        cube.apply_out_of_order(correction, 5)
        boxes = [random_box(rng, shape) for _ in range(30)]
        assert cube.query_many(boxes) == oracle.query_many(boxes)
        assert cube.total() == oracle.total()
        cube.close()
        oracle.close()

    def test_domain_errors_are_validated_at_the_router(self):
        cube = ShardedCube((4, 4), shards=2, processes=False)
        with pytest.raises(DomainError):
            cube.update((0, 9, 0), 1)  # cell outside the domain
        with pytest.raises(DomainError):
            cube.update((0, 1), 1)  # wrong arity
        with pytest.raises(DomainError):
            cube.query(Box((0, 5, 0), (0, 9, 0)))  # empty after clipping
        # boxes overhanging the domain clip exactly like the oracle
        cube.update((0, 1, 1), 3)
        assert cube.query(Box((0, 0, 0), (0, 7, 7))) == 3
        cube.close()

    def test_a_bad_batch_leaves_every_shard_unchanged(self):
        """Times are checked like cells: before any shard sees a point."""
        oracle = BufferedEvolvingDataCube((4, 4), num_times=10)
        with ShardedCube((4, 4), shards=2, processes=False, num_times=10) as cube:
            for bad in ([(3, 0, 0), (12, 3, 3)], [(-1, 0, 0), (3, 3, 3)]):
                with pytest.raises(DomainError, match=r"outside \[0, 9\]"):
                    cube.update_many(bad, [1, 1])
            with pytest.raises(DomainError, match=r"outside \[0, 9\]"):
                oracle.update_many([(3, 0, 0), (12, 3, 3)], [1, 1])
            with pytest.raises(DomainError, match=r"outside \[0, 9\]"):
                cube.update((10, 0, 0), 1)
            assert cube.total() == oracle.total() == 0
            assert cube.router.latest_time is None
            for handle in cube.router.handles:
                assert handle.state.kernel.directory.times() == ()

    def test_time_state_is_reported_by_the_shards_not_kept_by_the_router(self):
        from repro.sharding.ops import BY_METHOD
        from repro.sharding.worker import ShardWorkerState

        # no probe ops: a shard answers ten wire methods and its checkpoint
        answered = set(dir(ShardWorkerState)) & (set(BY_METHOD) | {"checkpoint"})
        assert len(answered) == 11
        with ShardedCube((4, 4), shards=2, processes=False) as cube:
            router = cube.router
            assert (router.min_time, router.latest_time) == (None, None)
            cube.update((4, 0, 0), 1)
            cube.update_many([(6, 3, 3), (2, 3, 3)], [1, 1])  # the 2 is late
            assert [handle.times for handle in router.handles] == [
                (4, 4, None), (6, 6, None),
            ]
            assert (router.min_time, router.latest_time) == (4, 6)
            cube.drain()  # splices the 2 in: the reply says so
            assert (router.min_time, router.latest_time) == (2, 6)
            for name in ("min_time", "latest_time", "demote_boundary"):
                with pytest.raises(AttributeError):
                    setattr(router, name, 0)

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_the_global_retire_boundary_survives_recover(self, tmp_path, checkpoint):
        """Shard 1 keeps time 5 as its own boundary instance and shard 0
        retires down to 3: that the *global* boundary is 5 is something
        only the router ever knew.  Recovery rebuilds it by replaying the
        retire record, or reads it from the checkpoint that covers the
        record; ``sharding.json`` never changes."""
        from repro.durability.checkpoint import read_manifest
        from repro.sharding.cube import MANIFEST_NAME

        manifest = tmp_path / "fleet" / MANIFEST_NAME
        refused = Box((0, 0, 0), (4, 3, 3))
        kept = [Box((0, 0, 0), (5, 3, 3)), Box((6, 0, 0), (8, 3, 3))]
        cube = ShardedCube(
            (4, 4), shards=2, processes=False, durable_dir=tmp_path / "fleet"
        )
        with cube:
            here, there = (extent.origin for extent in cube.partitioner.extents)
            for time, origin in [(1, here), (2, here), (3, here), (5, there),
                                 (7, here), (8, there)]:
                cube.update((time, *origin), 1)
            created = manifest.read_bytes()
            assert cube.retire_before(0) == 0  # nothing below: nothing moves
            assert cube.router.boundary_time is None
            cube.retire_before(6)
            assert cube.router.boundary_time == 5
            with pytest.raises(AgedOutError):
                cube.query(refused)
            expected = cube.query_many(kept)
            if checkpoint:
                cube.checkpoint()
                assert read_manifest(tmp_path / "fleet").config == {"boundary_time": 5}
        assert manifest.read_bytes() == created
        with ShardedCube.recover(tmp_path / "fleet", processes=False) as recovered:
            assert recovered.recovery_info["replayed_records"] == (0 if checkpoint else 8)
            assert recovered.router.boundary_time == 5
            with pytest.raises(AgedOutError):
                recovered.query(refused)
            with pytest.raises(AgedOutError):
                recovered.apply_out_of_order((4, 0, 0), 1)
            assert recovered.query_many(kept) == expected == [4, 2]

    def test_an_older_directorys_boundary_key_is_read_once(self, tmp_path):
        """A directory whose shards kept a WAL each kept the boundary in
        ``sharding.json``: its conversion reads the key into the checkpoint
        that rewrites the directory, where the next recovery finds it."""
        import json
        import shutil
        from pathlib import Path

        from repro.sharding.cube import MANIFEST_NAME

        fleet = tmp_path / "fleet"
        shutil.copytree(Path(__file__).parent / "data" / "sharded_converted", fleet)
        manifest = json.loads((fleet / MANIFEST_NAME).read_text())
        (fleet / MANIFEST_NAME).write_text(json.dumps({**manifest, "boundary_time": 3}))
        for _ in range(2):
            with ShardedCube.recover(fleet, processes=False) as recovered:
                assert recovered.router.boundary_time == 3
                with pytest.raises(AgedOutError):
                    recovered.query(Box((0, 0, 0), (2, 5, 5)))
                assert recovered.query(Box((0, 0, 0), (3, 5, 5))) > 0
        assert not (fleet / "shard-00" / "MANIFEST.json").exists()

    def test_a_crash_before_the_retire_scatter_only_refuses_more(self, tmp_path):
        """The retire is logged before any shard retires, so a crash in its
        scatter recovers it whole: the recovered router refuses exactly
        what the oracle refuses, and the live one takes no more writes."""
        oracle = BufferedEvolvingDataCube((4, 4))
        cube = ShardedCube(
            (4, 4), shards=2, processes=False, durable_dir=tmp_path / "fleet"
        )
        with cube:
            for time in (1, 2, 3, 7):
                for target in (oracle, cube):
                    target.update_many([(time, 0, 0), (time, 3, 3)], [1, 1])
            handle = cube.router.handles[1]

            def crash(op, payload=None):
                raise ShardUnavailableError("killed between the two writes")

            handle.send = crash
            with pytest.raises(ShardUnavailableError):
                cube.retire_before(6)
            del handle.send
            with pytest.raises(ShardUnavailableError, match="no more writes"):
                cube.update((8, 0, 0), 1)
        oracle.retire_before(6)
        with ShardedCube.recover(tmp_path / "fleet", processes=False) as recovered:
            assert recovered.router.boundary_time == 3
            for prefix in range(8):
                box = Box((0, 0, 0), (prefix, 3, 3))
                assert _outcome(lambda: recovered.query(box)) == _outcome(
                    lambda: oracle.query(box)
                ), prefix

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_any_grid_gives_identical_answers(self, data):
        """Partition invariance: the grid is not allowed to matter."""
        shape = (8, 6, 6)
        grid = (
            data.draw(st.integers(1, 3), label="grid0"),
            data.draw(st.integers(1, 3), label="grid1"),
        )
        seed = data.draw(st.integers(0, 2**20), label="seed")
        rng = np.random.default_rng(seed)
        points, deltas = _mixed_stream(rng, shape, updates=60)
        oracle = SnapshotCube(BufferedEvolvingDataCube(shape[1:]))
        cube = ShardedCube(
            shape[1:],
            partitioner=GridPartitioner(shape[1:], grid),
            processes=False,
        )
        oracle.update_many(points, deltas)
        cube.update_many(points, deltas)
        boxes = [random_box(rng, shape) for _ in range(25)]
        assert cube.query_many(boxes) == oracle.query_many(boxes)
        oracle.drain()
        cube.drain()
        assert cube.query_many(boxes) == oracle.query_many(boxes)
        assert cube.total() == oracle.total()
        cube.close()
        oracle.close()


class TestSharedMemoryEpochs:
    def test_epoch_roundtrip_through_shared_memory(self, rng):
        shape = (12, 5, 5)
        cube = BufferedEvolvingDataCube(shape[1:])
        snap = SnapshotCube(cube)
        exporter = EpochExporter(snap, tag="t0-")
        cache = BlockCache()
        try:
            points, deltas = _mixed_stream(rng, shape, updates=80)
            for batch in np.array_split(np.arange(len(points)), 3):
                snap.update_many(points[batch], deltas[batch])
                remote = epoch_from_shared_memory(exporter.export(), cache)
                boxes = [random_box(rng, shape) for _ in range(30)]
                with snap.pin() as view:
                    expected = view.query_many(boxes)
                assert prepare_epoch(remote).query_many(boxes) == expected
        finally:
            # drop the epoch's views before closing the mappings they alias
            del remote
            cache.close_all()
            exporter.close()
        assert not fleet_leaks()

    def test_only_the_current_epoch_exports(self, rng):
        cube = BufferedEvolvingDataCube((4, 4))
        snap = SnapshotCube(cube)
        exporter = EpochExporter(snap, tag="t1-")
        try:
            snap.update((0, 1, 1), 3)
            stale = snap._current
            snap.update((1, 2, 2), 4)
            # the exporter has no handle on older epochs: what it
            # describes is always the snapshot front's current one
            descriptor = exporter.export()
            assert descriptor["sequence"] == snap.current_sequence()
            assert descriptor["sequence"] > stale.sequence
            assert descriptor_blocks(descriptor)
        finally:
            exporter.close()
        assert not fleet_leaks()


class TestProcessMode:
    """Worker processes + shared-memory serving; kept intentionally small."""

    def test_differential_vs_oracle(self, rng):
        shape = (12, 6, 6)
        oracle = SnapshotCube(BufferedEvolvingDataCube(shape[1:]))
        cube = ShardedCube(shape[1:], shards=2, processes=True, timeout=120.0)
        owners = fleet_owners(cube)
        try:
            points, deltas = _mixed_stream(rng, shape, updates=120)
            _differential(oracle, cube, rng, shape, points, deltas, batches=3)
        finally:
            cube.close()
            oracle.close()
        assert not fleet_leaks(owners)

    def test_the_router_is_the_only_reader(self, capsys):
        """No reader processes, no option that asks for them."""
        from repro.__main__ import main

        with pytest.raises(TypeError):
            ShardedCube((4, 4), shards=2, processes=False, readers=1)
        with pytest.raises(TypeError):
            ShardedCube.recover("nowhere", readers=1)
        with pytest.raises(SystemExit) as stop:
            main(["serve", "--readers", "2"])
        assert stop.value.code == 2
        assert "--readers" in capsys.readouterr().err

    def test_serve_takes_no_backend(self, capsys):
        """A shard serves the dense store; there is no option to ask for another."""
        from repro.__main__ import main

        with pytest.raises(TypeError):
            ShardedCube((4, 4), shards=2, processes=False, backend="dense")
        with pytest.raises(SystemExit) as stop:
            main(["serve", "--backend", "dense"])
        assert stop.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_serve_takes_no_inline_flag(self, capsys):
        """A tiered cube's shards run in worker processes, any other's in
        the server's: there is no option to choose."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as stop:
            main(["serve", "--inline"])
        assert stop.value.code == 2
        assert "--inline" in capsys.readouterr().err

    def test_crashed_worker_raises_instead_of_hanging(self, rng):
        cube = ShardedCube((6, 6), shards=2, processes=True, timeout=120.0)
        owners = fleet_owners(cube)
        try:
            points, deltas = _mixed_stream(rng, (8, 6, 6), updates=40, shuffle=0)
            cube.update_many(points, deltas)
            victim = cube.router.handles[0]
            victim.process.terminate()
            victim.process.join(timeout=30)
            with pytest.raises(ShardUnavailableError):
                cube.update_many(points, deltas)
            with pytest.raises(ShardUnavailableError):
                cube.query_many(
                    [random_box(np.random.default_rng(0), (8, 6, 6))]
                )
        finally:
            cube.close()
        # the sweep reclaims segments orphaned by the killed worker
        assert not fleet_leaks(owners)

    def test_durable_shards_recover(self, rng, tmp_path):
        shape = (10, 6, 6)
        points, deltas = _mixed_stream(rng, shape, updates=80)
        boxes = [random_box(rng, shape) for _ in range(30)]
        cube = ShardedCube(
            shape[1:],
            shards=2,
            processes=True,
            durable_dir=tmp_path / "fleet",
            fsync="off",
            timeout=120.0,
        )
        owners = fleet_owners(cube)
        try:
            cube.update_many(points, deltas)
            expected = cube.query_many(boxes)
            expected_total = cube.total()
        finally:
            cube.close()
        recovered = ShardedCube.recover(
            tmp_path / "fleet", processes=True, timeout=120.0
        )
        owners |= fleet_owners(recovered)
        try:
            assert recovered.query_many(boxes) == expected
            assert recovered.total() == expected_total
            # the global order state survives: draining the buffered
            # corrections still matches a fresh oracle fed the stream
            oracle = SnapshotCube(BufferedEvolvingDataCube(shape[1:]))
            oracle.update_many(points, deltas)
            applied_o, _ = oracle.drain()
            applied_r, _ = recovered.drain()
            assert applied_r == applied_o
            assert recovered.query_many(boxes) == oracle.query_many(boxes)
            oracle.close()
        finally:
            recovered.close()
        assert not fleet_leaks(owners)


class TestServeStartupSweep:
    @staticmethod
    def _segment(owner_pid: int, tag: str = "s0"):
        """A block named by the rule, as ``owner_pid`` would have made it."""
        from repro.sharding.shm import SHM_PREFIX, _Segment

        segment = _Segment(f"{SHM_PREFIX}-{tag}-{owner_pid}-1", size=64)
        segment.close()
        return segment

    @staticmethod
    def _dead_pid() -> int:
        # a pid no process can have (an exited child's could be reused)
        from pathlib import Path

        return int(Path("/proc/sys/kernel/pid_max").read_text()) + 1

    def test_sweeps_segments_leaked_by_a_killed_server(self):
        """``repro serve`` startup unlinks orphaned segments of our prefix.

        A SIGKILLed server never drops its epoch refcounts; the next
        startup must reclaim /dev/shm rather than exhaust it.
        """
        from repro.__main__ import _sweep_leaked_shm

        orphan = self._segment(self._dead_pid())
        try:
            assert orphan.name in leaked_segments()
            swept = _sweep_leaked_shm()
            assert orphan.name in swept
            assert not fleet_leaks({self._dead_pid()})
            # idempotent: a clean start sweeps nothing
            assert _sweep_leaked_shm() == []
        finally:
            orphan.unlink()

    def test_spares_segments_of_a_live_owner(self):
        """A second server starting on the host must not unlink the
        blocks of a live one (or of an in-process ``ShardedCube``)."""
        import os

        from repro.__main__ import _sweep_leaked_shm

        live = self._segment(os.getpid())
        orphan = self._segment(self._dead_pid())
        try:
            assert _sweep_leaked_shm() == [orphan.name]
            assert fleet_leaks() == [live.name]
        finally:
            for segment in (live, orphan):
                segment.unlink()
        assert not fleet_leaks()

    def test_every_block_name_carries_its_owner_pid(self):
        import os

        from repro.sharding.shm import BlockOwner, _owner_pid

        for owner in (BlockOwner(), BlockOwner("s3")):
            try:
                # keep no view: the block cannot close while one aliases it
                name = owner.create({"a": np.zeros(2, dtype=np.int64)})[0]
                assert name.rsplit("-", 2)[1] == str(os.getpid())
                assert _owner_pid(name) == os.getpid()
            finally:
                owner.close_all()
        assert not fleet_leaks()
        # the earlier layout had the pid first; its hex is no owner
        assert _owner_pid("repro-ecube-4242-123456-7") is None
        assert _owner_pid("repro-ecube-4242-00ab12-7") is None


class TestLeakChecksScope:
    """A leak check counts the blocks of the fleet under test only: a
    ``serve`` another command started on the same host cannot fail it,
    and a block the fleet leaves behind still does."""

    def test_a_block_the_fleet_leaves_fails_the_check(self):
        import os

        cube = ShardedCube((4, 4), shards=2, processes=True, timeout=120.0)
        owners = fleet_owners(cube)
        worker = cube.router.handles[0].process.pid
        assert owners == {os.getpid(), worker, cube.router.handles[1].process.pid}
        # named as the worker would name it, outside the prefix close() sweeps
        leaked = TestServeStartupSweep._segment(worker, tag="stray")
        try:
            cube.update_many([[0, 1, 1], [0, 3, 3]], [1, 2])
            cube.close()
            assert fleet_leaks(owners) == [leaked.name]
        finally:
            cube.close()
            leaked.unlink()
        assert not fleet_leaks(owners)

    def test_a_live_block_of_a_foreign_pid_passes_the_check(self):
        import os

        with ShardedCube((4, 4), shards=2, processes=True, timeout=120.0) as cube:
            owners = fleet_owners(cube)
            # a live process this test did not start: another server's block
            foreign = TestServeStartupSweep._segment(os.getppid(), tag="foreign")
            cube.update_many([[0, 1, 1], [0, 3, 3]], [1, 2])
        try:
            assert foreign.name in leaked_segments()
            assert not fleet_leaks(owners)
        finally:
            foreign.unlink()


TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]


def _outcome(call):
    """What a read does: its answer, or the error class it raises."""
    try:
        return call()
    except (AgedOutError, DomainError) as exc:
        return type(exc)


def _shm_mappings(pid: int, owners=None) -> set[str]:
    """Names of the blocks of ``owners`` (default: its own) that process
    ``pid`` maps -- a forked worker also inherits whatever this process
    had mapped."""
    owners = [pid] if owners is None else owners
    with open(f"/proc/{pid}/maps") as maps:
        names = {
            line.split("/dev/shm/", 1)[1].split()[0]
            for line in maps
            if "/dev/shm/repro-ecube" in line
        }
    return {name for name in names if int(name.rsplit("-", 2)[1]) in owners}


def _fds(pid: int) -> int:
    import os

    return len(os.listdir(f"/proc/{pid}/fd"))


class TestHistoryLivesOnce:
    """A process shard's historic slices are the rows it published.

    The fleet serves worker-routed reads (tiered, top-k, approximate)
    from those rows in place, checkpoints them as they stand,
    re-adopts them after recovery and unmaps the ones retirement drops.
    """

    @pytest.mark.parametrize("tiered", [False, True])
    def test_a_process_fleet_answers_like_its_inline_twin(self, rng, tmp_path, tiered):
        shape = (30, 6, 6)
        full = tuple(n - 1 for n in shape[1:])

        def build(processes):
            return ShardedCube(
                shape[1:], shards=2, processes=processes, timeout=120.0,
                tiers=TIERS if tiered else None,
                tile_root=tmp_path / f"tiles-{processes}" if tiered else None,
            )  # fmt: skip

        fleet, twin = build(True), build(False)
        owners = fleet_owners(fleet, twin)
        boxes = [random_box(rng, shape) for _ in range(40)]
        boxes += [Box((0, 0, 0), (t, *full)) for t in range(0, shape[0], 3)]
        tops = [(0, 29, 4), (6, 17, 3), (12, 12, 50)]

        def both(method, *args):
            results = [getattr(cube, method)(*args) for cube in (fleet, twin)]
            assert results[0] == results[1]

        def agree():
            reads = [("query_many", [box]) for box in boxes]
            reads += [("query_approx", box) for box in boxes]
            reads += [("topk_many", [top]) for top in tops] + [("total",)]
            for method, *args in reads:
                answers = [
                    _outcome(lambda: getattr(cube, method)(*args))
                    for cube in (fleet, twin)
                ]
                assert answers[0] == answers[1], (method, args)

        def points(times):
            return np.column_stack(
                [times] + [rng.integers(0, n, size=len(times)) for n in shape[1:]]
            ).astype(np.int64)

        try:
            for start in (0, 8, 16):  # even times: an odd one is a splice
                batch = points(np.repeat(np.arange(start, start + 8, 2), 6))
                both("update_many", batch, [1 + i % 5 for i in range(len(batch))])
                agree()
            both("update_many", points(np.array([4, 9, 9, 15, 2])), [7, 3, 2, 5, 1])
            agree()  # late corrections, held in G_d
            both("apply_out_of_order", (11, 1, 4), 6)  # a splice, past G_d
            both("apply_out_of_order", (6, 4, 1), -2)
            agree()
            both("drain")
            agree()
            both("demote_before" if tiered else "retire_before", 10)
            agree()
            both("update_many", points(np.array([24, 24, 26, 13, 26])), [1, 2, 3, 4, 5])
            both("drain")
            if tiered:
                both("retire_before", 14)
            agree()
        finally:
            fleet.close()
            twin.close()
        assert not fleet_leaks(owners)

    def test_a_checkpoint_of_adopted_rows_recovers_and_is_adopted_again(
        self, rng, tmp_path
    ):
        import os
        import signal

        shape = (12, 6, 6)
        boxes = [random_box(rng, shape) for _ in range(40)]
        cube = ShardedCube(
            shape[1:], shards=2, processes=True, durable_dir=tmp_path / "fleet",
            fsync="off", timeout=120.0,
        )  # fmt: skip
        owners = fleet_owners(cube)
        try:
            for time in range(shape[0]):  # both shards, every time
                cube.update_many([(time, 1, time % 6), (time, 4, time % 5)], [2, 3])
            cube.update_many([(5, 0, 0), (3, 5, 5)], [4, 1])  # late: G_d
            cube.drain()
            expected, total = cube.query_many(boxes), cube.total()
            cube.checkpoint()  # the rows as they stand: finished, fully PS
            for handle in cube.router.handles:
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=30)
        finally:
            cube.close()
        assert not fleet_leaks(owners)
        with ShardedCube.recover(
            tmp_path / "fleet", processes=True, timeout=120.0
        ) as cube:
            owners = fleet_owners(cube)
            assert cube.query_many(boxes) == expected and cube.total() == total
            # the first export adopted every historic row; the latest slice
            # still reads off the archive until a newer time makes it one
            cube.update_many([(shape[0], 1, 1), (shape[0], 4, 4)], [1, 1])
            # a read attaches the new epochs; the request after it carries
            # the release of the ones they superseded
            assert cube.query(Box((0, 0, 0), (shape[0], 5, 5))) == cube.total()
            for handle in cube.router.handles:
                pid = handle.process.pid
                with open(f"/proc/{pid}/maps") as maps:  # its archive is unmapped
                    assert str(tmp_path) not in maps.read()
                cited = descriptor_blocks(handle.descriptor)
                assert len(cited) == shape[0] + 1  # every row, one frontier
                assert _shm_mappings(pid) == cited  # a worker maps what it owns

            # retirement drops rows: nobody maps one, and the descriptors go
            workers = [handle.process.pid for handle in cube.router.handles]
            old = [
                {name for _, name, _ in handle.descriptor["slices"]}
                for handle in cube.router.handles
            ]
            before = [_fds(os.getpid())] + [_fds(pid) for pid in workers]
            assert cube.retire_before(7) == 2 * 6  # times 0..5 of both shards
            cube.query_many([Box((0, 0, 0), (11, 5, 5))])  # re-attach
            cube.total()  # the release rides the next request
            for pid, names, handle in zip(workers, old, cube.router.handles):
                kept = {name for _, name, _ in handle.descriptor["slices"]}
                assert len(names - kept) == 6
                assert _shm_mappings(pid) == descriptor_blocks(handle.descriptor)
                assert not (names - kept) & _shm_mappings(os.getpid(), workers)
                assert not (names - kept) & set(leaked_segments())
            after = [_fds(os.getpid())] + [_fds(pid) for pid in workers]
            assert [b - a for b, a in zip(before, after)] == [12, 6, 6]
        assert not fleet_leaks(owners)


@pytest.mark.parametrize("front", ["snapshot", "inline", "process"])
def test_total_is_the_whole_history_open_prefix(front):
    """``total`` (the wire's ``total``) counts every update, at negative
    occurring times too (``num_times=None`` admits them) and in ``G_d``,
    and keeps counting retired history -- as ``CubeKernel.total`` does.
    Shard 0 of the two holds only negative times."""
    if front == "snapshot":
        cube = SnapshotCube(BufferedEvolvingDataCube((4, 4)))
    else:
        cube = ShardedCube((4, 4), shards=2, processes=front == "process", timeout=120.0)
    owners = fleet_owners(cube) if front != "snapshot" else ()
    try:
        cube.update_many([(-5, 1, 1), (2, 3, 3)], [7, 2])
        assert cube.total() == 9
        cube.update_many([(-7, 0, 0)], [4])  # late: into G_d
        assert cube.total() == 13
        cube.drain()
        cube.retire_before(2)
        assert cube.total() == 13
    finally:
        cube.close()
    assert not fleet_leaks(owners)
