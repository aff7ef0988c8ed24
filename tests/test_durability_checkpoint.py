"""Checkpoints: manifest publication, compaction, dense snapshots.

``TestDirectoriesWrittenByAnOlderCommit`` recovers the fixture
directories under ``tests/data/`` (see ``make_durable_fixtures.py``
there), so a format or replay change that strands existing directories
fails here: the pair whose log segments are WAL format version 1, the
pair in WAL format 2 (whose point directory holds tile format 1 tiles),
a point directory in WAL format 2 and the tile format this build writes,
the pair in WAL format 3 whose extent checkpoint keeps both families on
one shared time axis, the pair in the formats this build writes (WAL
format 3, each extent family on its own times), a version-1 directory
this build has appended to, and a tile directory recovery leaves
holding both tile formats.  An extent directory in the shared-axis
layout is compared with its replica by its extent columns and by every
answer over a grid of windows and cell boxes, since its families hold
more instances than a replica's.

Also covers the serialize-layer companions: ``save_kernel`` /
``load_kernel`` round-trip a dense kernel, archives written by a future
format version are refused with an upgrade hint, and what an older build
persisted for a paged or sparse cube -- a manifest, an archive, a
``sharding.json`` -- is refused with nothing written or truncated.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.errors import AgedOutError, DomainError, RecoveryError, StorageError
from repro.core.types import Box, TimeInterval
from repro.durability import DurableCube
from repro.durability.checkpoint import (
    MANIFEST_NAME,
    CheckpointManifest,
    publish_manifest,
    read_manifest,
    snapshot_arrays,
)
from repro.durability.recovery import TILES_SUBDIR, WAL_SUBDIR, build_front
from repro.durability.wal import WAL_FORMAT_VERSION, _scan_segment, inspect_log
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.retention.tiles import VERSION as TILE_VERSION
from repro.retention.tiles import decode_tile
from repro.sharding import ShardedCube
from repro.sharding.cube import MANIFEST_NAME as SHARDING_MANIFEST
from repro.storage.serialize import load_kernel, save_kernel

from tests.conftest import brute_box_sum, random_box
from tests.data import make_durable_fixtures as fixtures

#: the store a durable cube serves (paged and sparse kernels are used bare)
BACKENDS = ["dense"]
SHAPE = (24, 8, 8)


def _fill(target, rng, count=60, low=0, high=SHAPE[0]):
    """Apply a deterministic in-order stream to a cube-like front.

    ``low``/``high`` bound the drawn times so successive fills of an
    unbuffered (strictly append-only) cube can use disjoint windows.
    """
    dense = np.zeros(SHAPE, dtype=np.int64)
    times = np.sort(rng.integers(low, high, size=count))
    for t in times:
        point = (int(t), int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        delta = int(rng.integers(-3, 9))
        target.update(point, delta)
        dense[point] += delta
    return dense


class TestManifest:
    def test_absent_directory_reads_as_none(self, tmp_path):
        assert read_manifest(tmp_path) is None
        assert read_manifest(tmp_path / "nowhere") is None

    def test_round_trip(self, tmp_path):
        manifest = CheckpointManifest(
            checkpoint_id=3,
            covered_lsn=41,
            checkpoint_file="checkpoint-00000003.npz",
            live_segments=["wal-00000004.log"],
            config={"backend": "sparse", "buffered": True},
        )
        publish_manifest(tmp_path, manifest)
        assert read_manifest(tmp_path) == manifest
        # publication is by rename: no temp file survives
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]

    def test_damaged_manifest_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{ not json")
        with pytest.raises(RecoveryError):
            read_manifest(tmp_path)

    def test_future_manifest_version_refused(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps(
                {"checkpoint_id": 1, "covered_lsn": 0, "manifest_version": 99}
            )
        )
        with pytest.raises(RecoveryError, match="upgrade"):
            read_manifest(tmp_path)


class TestCheckpointCycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("buffered", [True, False])
    def test_checkpoint_then_tail_recovers(self, tmp_path, backend, buffered):
        rng = np.random.default_rng(7)
        cube = DurableCube(
            SHAPE[1:],
            tmp_path,
            buffered=buffered,
            num_times=SHAPE[0],
            fsync="off",
        )
        dense = _fill(cube, rng, count=50, high=12)
        manifest = cube.checkpoint()
        assert manifest.checkpoint_file is not None
        dense += _fill(cube, rng, count=25, low=12)
        cube.close()

        recovered = DurableCube.recover(tmp_path)
        assert recovered.recovery_info["checkpoint_id"] == 1
        assert recovered.recovery_info["replayed_records"] == 25
        assert recovered.total() == int(dense.sum())
        for _ in range(20):
            box = random_box(rng, SHAPE)
            assert recovered.query(box) == brute_box_sum(dense, box)
        recovered.close()

    def test_compaction_drops_covered_segments(self, tmp_path):
        rng = np.random.default_rng(8)
        cube = DurableCube(
            SHAPE[1:], tmp_path, num_times=SHAPE[0], fsync="off",
            segment_bytes=256,
        )
        _fill(cube, rng, count=40)
        segments_before = cube.wal.segments()
        assert len(segments_before) > 1
        manifest = cube.checkpoint()
        # everything up to the marker is covered: only the fresh segment
        # (rolled just after the marker) remains, and the manifest agrees
        assert cube.wal.segments() == manifest.live_segments
        assert len(manifest.live_segments) == 1
        assert not set(segments_before) & set(manifest.live_segments)
        cube.close()

    def test_second_checkpoint_removes_the_first_archive(self, tmp_path):
        rng = np.random.default_rng(9)
        with DurableCube(
            SHAPE[1:], tmp_path, num_times=SHAPE[0], fsync="off"
        ) as cube:
            _fill(cube, rng, count=20)
            first = cube.checkpoint()
            _fill(cube, rng, count=20)
            second = cube.checkpoint()
            archives = sorted(p.name for p in tmp_path.glob("checkpoint-*.npz"))
            assert archives == [second.checkpoint_file]
            assert first.checkpoint_file not in archives

    def test_crash_mid_checkpoint_keeps_old_manifest(self, tmp_path):
        rng = np.random.default_rng(10)
        cube = DurableCube(
            SHAPE[1:], tmp_path, num_times=SHAPE[0], fsync="off"
        )
        dense = _fill(cube, rng, count=30)
        cube.checkpoint()
        dense += _fill(cube, rng, count=15)
        cube.close()
        # a crash between archive write and manifest publication leaves a
        # temp archive behind; recovery must use the published manifest
        (tmp_path / "checkpoint-00000002.npz.tmp").write_bytes(b"partial")
        recovered = DurableCube.recover(tmp_path)
        assert recovered._manifest.checkpoint_id == 1
        assert recovered.total() == int(dense.sum())
        recovered.close()

    def test_recover_without_manifest_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="manifest"):
            DurableCube.recover(tmp_path / "empty")

    def test_missing_checkpoint_archive_raises(self, tmp_path):
        with DurableCube((4, 4), tmp_path, fsync="off") as cube:
            cube.update((0, 1, 2), 5)
            manifest = cube.checkpoint()
        (tmp_path / manifest.checkpoint_file).unlink()
        with pytest.raises(RecoveryError, match="missing checkpoint"):
            DurableCube.recover(tmp_path)

    def test_reinitializing_existing_directory_rejected(self, tmp_path):
        DurableCube((4, 4), tmp_path, fsync="off").close()
        with pytest.raises(StorageError, match="recover"):
            DurableCube((4, 4), tmp_path, fsync="off")


def _assert_same_tile(ours, theirs) -> int:
    """The tile file ``ours`` holds what ``theirs`` holds, byte for byte if
    ``theirs`` is in the tile format this build writes; returns the
    version of ``theirs``."""
    mine, old = ours.read_bytes(), theirs.read_bytes()
    for got, want in zip(decode_tile(mine), decode_tile(old)):
        np.testing.assert_array_equal(got, want, err_msg=str(theirs))
    if old[4] == TILE_VERSION:
        assert mine == old, theirs
    return old[4]


def _assert_same_state(front, replica):
    ours, theirs = snapshot_arrays(front), snapshot_arrays(replica)
    assert sorted(ours) == sorted(theirs)
    for key, value in theirs.items():
        assert ours[key].dtype == value.dtype, key
        np.testing.assert_array_equal(ours[key], value, err_msg=key)


def _refused(cube, window) -> bool:
    try:
        cube.intersecting(window)
    except AgedOutError:
        return True
    return False


def _assert_same_extent(front, replica):
    """An aligned archive's families hold an instance for every time either
    one saw, so their instance lists differ from a replica's: the same
    extent columns, and the same answer or refusal for every window of
    times up to past the clock, over every cell box."""
    ours, theirs = snapshot_arrays(front), snapshot_arrays(replica)
    extent_keys = sorted(key for key in theirs if key.startswith("ext_"))
    assert extent_keys == sorted(key for key in ours if key.startswith("ext_"))
    for key in extent_keys:
        assert ours[key].dtype == theirs[key].dtype, key
        np.testing.assert_array_equal(ours[key], theirs[key], err_msg=key)
    assert front.clock == replica.clock
    times = range(-1, replica.clock + 3)
    windows = []
    for t_low in times:
        for t_up in times:
            if t_low <= t_up:
                window = TimeInterval(t_low, t_up)
                refused = _refused(replica, window)
                assert _refused(front, window) == refused, window
                if not refused:
                    windows.append(window)
    spans = [(lo, up) for lo in range(4) for up in range(lo, 4)]
    cells = [Box((x0, y0), (x1, y1)) for x0, x1 in spans for y0, y1 in spans]
    queries = [window for window in windows for _ in cells]
    boxes = cells * len(windows)
    assert front.intersecting_many(queries, boxes) == (
        replica.intersecting_many(queries, boxes)
    )
    assert front.containment_many(queries, boxes) == (
        replica.containment_many(queries, boxes)
    )


def _assert_recovered(name, front, replica):
    """``front``, recovered from fixture ``name``, holds what ``replica``
    holds -- state for state where the fixture's checkpoint layout is the
    one this build writes."""
    if fixtures.FORMATS[name][2] == "aligned":
        _assert_same_extent(front, replica)
    else:
        _assert_same_state(front, replica)


#: per version-1 fixture: batches this build appends behind its log, one
#: record each (the last one is then cut mid-frame)
APPENDED = {
    "durable_point": [
        ("update_many", *fixtures._batch([24, 25, 21, 26]), "fast"),  # one late
        ("update_many", *fixtures._batch([27, 28]), "metered"),
        ("update_many", *fixtures._batch([29, 30, 30]), "fast"),
    ],
    "durable_extent": [
        (
            "insert_many",
            np.array([[23, 300], [24, 24], [20, 26]], dtype=np.int64),  # one late
            np.array([[0, 1], [3, 3], [2, 0]], dtype=np.int64),
            np.array([2, 70000, 1], dtype=np.int64),
            "fast",
        ),
        (
            "insert_many",
            np.array([[25, 25]], dtype=np.int64),
            np.array([[1, 1]], dtype=np.int64),
            np.array([-4], dtype=np.int64),
            "metered",
        ),
        (
            "insert_many",
            np.array([[26, 27], [26, 90]], dtype=np.int64),
            np.array([[0, 0], [2, 2]], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
            "fast",
        ),
    ],
}


@pytest.mark.parametrize("name", fixtures.FROZEN)
def test_a_version_1_directory_this_build_appends_to(tmp_path, capsys, name):
    """The older build's segment stays as it was written; ours follows it."""
    from repro.__main__ import main as repro_main

    directory = tmp_path / name
    shutil.copytree(fixtures.HERE / name, directory)
    (old_segment,) = sorted((directory / WAL_SUBDIR).iterdir())
    old_bytes = old_segment.read_bytes()
    with DurableCube.recover(directory) as cube:
        for op in APPENDED[name]:
            fixtures.apply_op(cube, op)
    _, tail = sorted((directory / WAL_SUBDIR).iterdir())
    with open(tail, "r+b") as handle:  # the last batch did not reach the disk whole
        handle.truncate(tail.stat().st_size - 5)
    recovered = DurableCube.recover(directory)
    ops = fixtures.FIXTURES[name][1]
    assert recovered.recovery_info["last_lsn"] == len(ops) + len(APPENDED[name]) - 1
    replica = build_front(recovered._config, None, tmp_path / "tiles")
    for op in [*ops, *APPENDED[name][:-1]]:
        if op != ("checkpoint",):
            fixtures.apply_op(replica, op)
    _assert_recovered(name, recovered.front, replica)
    recovered.close()
    assert old_segment.read_bytes() == old_bytes
    assert repro_main(["log-info", str(directory)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert [segment["format_version"] for segment in info["segments"]] == [
        1,
        WAL_FORMAT_VERSION,
    ]
    assert info["format_version"] == WAL_FORMAT_VERSION
    assert info["torn_tail"] is False
    assert info["segments"][1]["base_lsn"] == len(ops) + 1
    assert info["segments"][1]["records"] == len(APPENDED[name]) - 1
    before = inspect_log(fixtures.HERE / name / WAL_SUBDIR)
    assert info["updates"] == before["updates"] + sum(
        len(op[1]) for op in APPENDED[name][:-1]
    )
    assert info["bytes_per_update"] < before["bytes_per_update"]


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
class TestDirectoriesWrittenByAnOlderCommit:
    def test_this_commit_writes_the_same_bytes(self, tmp_path, name):
        fixtures.write(name, tmp_path / name)
        theirs, ours = fixtures.HERE / name, tmp_path / name
        files = sorted(p.relative_to(theirs) for p in theirs.rglob("*") if p.is_file())
        assert files == sorted(
            p.relative_to(ours) for p in ours.rglob("*") if p.is_file()
        )
        for file in files:
            if file.suffix == ".json":
                # same keys, same values (key order is not part of the format)
                assert json.loads((ours / file).read_text()) == json.loads(
                    (theirs / file).read_text()
                )
            elif file.suffix == ".npz":
                # same members, same dtypes, same values (the zip framing
                # around them belongs to numpy) where the archive is in
                # the layout we write
                if fixtures.FORMATS[name][2] not in fixtures.LAYOUTS:
                    continue
                with np.load(ours / file) as mine, np.load(theirs / file) as old:
                    assert sorted(mine.files) == sorted(old.files)
                    for key in old.files:
                        assert mine[key].dtype == old[key].dtype, key
                        np.testing.assert_array_equal(mine[key], old[key], key)
            elif file.parts[0] == WAL_SUBDIR:
                # the same records under the same LSNs in the same segments;
                # the same bytes where the segment is in the layout we write
                mine, old = _scan_segment(ours / file), _scan_segment(theirs / file)
                assert (mine.base_lsn, mine.records) == (old.base_lsn, old.records)
                assert not mine.torn and not old.torn
                assert old.version == fixtures.FORMATS[name][0]
                if old.version == WAL_FORMAT_VERSION:
                    assert (ours / file).read_bytes() == (theirs / file).read_bytes()
            else:
                # tiles: the same slices and times; the same bytes where the
                # committed tile is in the format we write
                old_version = _assert_same_tile(ours / file, theirs / file)
                assert old_version == fixtures.FORMATS[name][1]

    def test_recovers_bit_identical_to_a_replayed_replica(self, tmp_path, name):
        ops = fixtures.FIXTURES[name][1]
        directory = tmp_path / name
        shutil.copytree(fixtures.HERE / name, directory)
        recovered = DurableCube.recover(directory)
        tail = len(ops) - 1 - ops.index(("checkpoint",))
        assert recovered.recovery_info == {
            "checkpoint_id": 1,
            "covered_lsn": len(ops) - tail,
            "replayed_records": tail,
            "skipped_records": 0,
            "last_lsn": len(ops),
        }
        replica = build_front(recovered._config, None, tmp_path / "tiles")
        for op in ops:
            if op != ("checkpoint",):
                fixtures.apply_op(replica, op)
        _assert_recovered(name, recovered.front, replica)
        if recovered.extent:
            queries = [(4, 40), (6, 12), (13, 22), (20, 60), (31, 31)]
            cells = [None, Box((1, 0), (3, 2)), None, Box((0, 0), (0, 3)), None]
            for mode in ("fast", "metered"):
                assert recovered.intersecting_many(
                    queries, cells, mode=mode
                ) == replica.intersecting_many(queries, cells, mode=mode)
            queries.append((0, 100))
            assert recovered.containment_many(
                queries
            ) == replica.containment_many(queries)
            assert sum(recovered.containment_many(queries)) > 0
        else:
            # replaying the logged demote rewrote the tile the older
            # commit had already written: the same slices, and the same
            # bytes where that tile is in the format we write
            for tile in sorted((fixtures.HERE / name / TILES_SUBDIR).iterdir()):
                _assert_same_tile(directory / TILES_SUBDIR / tile.name, tile)
                _assert_same_tile(tmp_path / "tiles" / tile.name, tile)
            boxes = [
                Box((t_low, 0, c_low), (t_up, 3, 3))
                for t_low in (0, 5, 13, 17)
                for t_up in (17, 20, 23)
                for c_low in (0, 2)
            ]
            for mode in ("fast", "metered"):
                assert recovered.query_many(boxes, mode=mode) == (
                    replica.query_many(boxes, mode=mode)
                )
            assert recovered.total() == replica.total() != 0
        recovered.close()


def test_replay_rewrites_only_the_tile_it_demotes_again(tmp_path, capsys):
    """``durable_point_v2``'s ``demote 14`` follows its checkpoint, so
    recovery replays it and writes ``tile-6-12`` in the format this build
    writes; ``tile-0-5`` (demoted before the checkpoint) keeps the older
    build's bytes, and the mixed directory answers like a replayed replica."""
    from repro.__main__ import main as repro_main

    name = "durable_point_v2"
    committed = fixtures.HERE / name / TILES_SUBDIR
    directory = tmp_path / name
    shutil.copytree(fixtures.HERE / name, directory)
    recovered = DurableCube.recover(directory)
    tiles = directory / TILES_SUBDIR
    assert (committed / "tile-6-12.tile").read_bytes()[4] == 1
    assert (tiles / "tile-6-12.tile").read_bytes()[4] == TILE_VERSION == 2
    assert (tiles / "tile-0-5.tile").read_bytes() == (
        committed / "tile-0-5.tile"
    ).read_bytes()
    replica = build_front(recovered._config, None, tmp_path / "tiles")
    for op in fixtures.POINT_OPS:
        if op != ("checkpoint",):
            fixtures.apply_op(replica, op)
    boxes = [
        Box((t_low, c_low, 0), (t_up, 3, c_up))
        for t_low in (0, 3, 6, 9, 13)
        for t_up in (5, 12, 14, 23)
        if t_low <= t_up
        for c_low in (0, 1)
        for c_up in (2, 3)
    ]
    for mode in ("fast", "metered"):
        assert recovered.query_many(boxes, mode=mode) == replica.query_many(
            boxes, mode=mode
        )
    assert recovered.total() == replica.total() != 0
    _assert_same_state(recovered.front, replica)
    recovered.close()
    assert repro_main(["log-info", str(directory)]) == 0
    tile_info = json.loads(capsys.readouterr().out)["tiles"]
    assert tile_info["versions"] == {"1": 1, "2": 1}
    assert tile_info["count"] == 2


class TestKernelSerialize:
    def _build(self, rng):
        cube = EvolvingDataCube(SHAPE[1:], num_times=SHAPE[0])
        dense = _fill(cube, rng, count=60)
        return cube, dense

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_save_kernel_round_trip(self, tmp_path, backend):
        rng = np.random.default_rng(11)
        cube, dense = self._build(rng)
        # convert a few regions so lazy-copy progress is non-trivial
        for _ in range(8):
            cube.query(random_box(rng, SHAPE))
        path = tmp_path / "kernel.npz"
        save_kernel(cube, path)
        restored = load_kernel(path)
        assert restored.store.kind == backend
        assert restored.updates_applied == cube.updates_applied
        assert (
            restored.incomplete_historic_instances()
            == cube.incomplete_historic_instances()
        )
        for _ in range(20):
            box = random_box(rng, SHAPE)
            assert restored.query(box) == brute_box_sum(dense, box)

    def test_future_archive_version_refused(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez_compressed(path, format_version=np.array([999]))
        with pytest.raises(StorageError, match="upgrade"):
            load_kernel(path)

    def test_version_one_dense_archive_still_loads(self, tmp_path):
        # v1 archives carry no ``backend`` key; simulate one by rewriting
        rng = np.random.default_rng(14)
        cube, dense = self._build(rng)
        path = tmp_path / "v1.npz"
        save_kernel(cube, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        del arrays["backend"]
        arrays["format_version"] = np.array([1])
        np.savez_compressed(path, **arrays)
        restored = load_kernel(path)
        box = Box((0, 0, 0), (SHAPE[0] - 1, 7, 7))
        assert restored.query(box) == int(dense.sum())

    @pytest.mark.parametrize("kernel", [DiskEvolvingDataCube, SparseEvolvingDataCube])
    def test_a_paged_or_sparse_kernel_is_not_persisted(self, tmp_path, kernel):
        cube = kernel(SHAPE[1:], num_times=SHAPE[0])
        _fill(cube, np.random.default_rng(12), count=10)
        with pytest.raises(DomainError, match=rf"state_arrays\(\) serves dense kernels only; a {cube.store.kind} kernel"):
            save_kernel(cube, tmp_path / "kernel.npz")
        assert not (tmp_path / "kernel.npz").exists()


def _tree(directory) -> dict:
    """Every file under ``directory`` and its bytes."""
    return {
        p.relative_to(directory): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _rewrite_archive_backend(path, backend: str) -> None:
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["backend"] = np.array(backend)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


class TestAnOlderBuildsPagedOrSparseState:
    """Refused by name, with the last build that reads it, touching nothing."""

    REFUSAL = r"holds a '{}' cube: .*commit 7666b56 is the last build that reads it"

    def test_a_manifest_naming_paged(self, tmp_path):
        directory = tmp_path / "cube"
        shutil.copytree(fixtures.HERE / "durable_point_v2", directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["config"]["backend"] = "paged"
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
        before = _tree(directory)
        with pytest.raises(StorageError, match=self.REFUSAL.format("paged")):
            DurableCube.recover(directory)
        assert _tree(directory) == before

    def test_an_archive_naming_sparse(self, tmp_path):
        directory = tmp_path / "cube"
        shutil.copytree(fixtures.HERE / "durable_point_v2", directory)
        manifest = read_manifest(directory)
        _rewrite_archive_backend(directory / manifest.checkpoint_file, "sparse")
        before = _tree(directory)
        with pytest.raises(StorageError, match=self.REFUSAL.format("sparse")):
            DurableCube.recover(directory)
        assert _tree(directory) == before
        # ... and the same archive through the serialize layer
        with pytest.raises(StorageError, match=self.REFUSAL.format("sparse")):
            load_kernel(directory / manifest.checkpoint_file)

    def test_a_sharding_manifest_naming_sparse(self, tmp_path):
        directory = tmp_path / "fleet"
        with ShardedCube((4, 4), shards=2, processes=False, durable_dir=directory) as cube:
            cube.update_many([[0, 0, 0], [1, 3, 3]], [1, 2])
        path = directory / SHARDING_MANIFEST
        path.write_text(path.read_text().replace('"backend": "dense"', '"backend": "sparse"'))
        before = _tree(directory)
        with pytest.raises(StorageError, match=self.REFUSAL.format("sparse")):
            ShardedCube.recover(directory, processes=False)
        assert _tree(directory) == before
