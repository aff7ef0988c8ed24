"""Zero-copy (mmap) checkpoint loading: equivalence and write-through safety.

The checkpoint archive is now written uncompressed (``np.savez``) and
recovery serves slice arrays directly off an ``mmap`` of the file
(:mod:`repro.storage.mmap_npz`).  These tests pin the contract:

* recovery through the mmap reader is bit-equivalent to the copy-based
  ``np.load`` path, including crash-injected WAL tails;
* restored arrays are genuinely read-only views of the file, and the
  file's bytes never change no matter what is done to the recovered
  cube (promote-on-write copies to the heap at the first mutation);
* legacy compressed archives (``np.savez_compressed``) still recover
  through the transparent ``np.load`` fallback.
"""

from __future__ import annotations

import hashlib
import shutil

import numpy as np
import pytest

from repro.durability import DurableCube
from repro.storage.mmap_npz import MmapArchive, open_checkpoint
from repro.storage.serialize import kernel_state_arrays

from tests.conftest import brute_box_sum, random_box

#: the store a durable cube serves (paged and sparse kernels are used bare)
BACKENDS = ["dense"]
SHAPE = (24, 8, 8)


def _fill(target, rng, count=60, low=0, high=SHAPE[0]):
    dense = np.zeros(SHAPE, dtype=np.int64)
    times = np.sort(rng.integers(low, high, size=count))
    for t in times:
        point = (int(t), int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        delta = int(rng.integers(-3, 9))
        target.update(point, delta)
        dense[point] += delta
    return dense


def _make_durable(tmp_path, seed=11):
    """Checkpointed cube with a WAL tail; returns (directory, dense mirror)."""
    rng = np.random.default_rng(seed)
    cube = DurableCube(SHAPE[1:], tmp_path, num_times=SHAPE[0], fsync="off")
    dense = _fill(cube, rng, count=50, high=12)
    cube.checkpoint()
    dense += _fill(cube, rng, count=25, low=12)
    cube.close()
    return dense


def _archive_path(directory):
    archives = sorted(directory.glob("checkpoint-*.npz"))
    assert len(archives) == 1
    return archives[0]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestMmapArchive:
    def test_reads_uncompressed_npz_as_readonly_views(self, tmp_path):
        path = tmp_path / "plain.npz"
        values = np.arange(2 * 3 * 4, dtype=np.int64).reshape(2, 3, 4)
        flags = np.array([[True, False], [False, True]])
        scalar = np.array([7])
        with open(path, "wb") as handle:
            np.savez(handle, values=values, flags=flags, scalar=scalar)
        archive = open_checkpoint(path)
        assert isinstance(archive, MmapArchive)
        assert set(archive.keys()) == {"values", "flags", "scalar"}
        assert "values" in archive and "absent" not in archive
        np.testing.assert_array_equal(archive["values"], values)
        np.testing.assert_array_equal(archive["flags"], flags)
        assert int(archive["scalar"][0]) == 7
        for name in archive:
            assert not archive[name].flags.writeable
        with pytest.raises(ValueError):
            archive["values"][0, 0, 0] = 99
        with pytest.raises(KeyError):
            archive["absent"]

    def test_arrays_survive_close(self, tmp_path):
        path = tmp_path / "plain.npz"
        with open(path, "wb") as handle:
            np.savez(handle, big=np.arange(50_000, dtype=np.int64))
        with open_checkpoint(path) as archive:
            big = archive["big"]
        # the mapping is kept alive through the array's buffer
        assert int(big.sum()) == 50_000 * 49_999 // 2

    def test_compressed_archives_fall_back_to_np_load(self, tmp_path):
        path = tmp_path / "legacy.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, values=np.arange(10))
        archive = open_checkpoint(path)
        assert not isinstance(archive, MmapArchive)
        np.testing.assert_array_equal(archive["values"], np.arange(10))
        archive.close()


class TestMmapRecoveryEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_equivalent_to_copy_based_load(
        self, tmp_path, backend, monkeypatch
    ):
        dense = _make_durable(tmp_path / "origin")
        copy_dir = tmp_path / "copy"
        shutil.copytree(tmp_path / "origin", copy_dir)

        via_mmap = DurableCube.recover(tmp_path / "origin")
        monkeypatch.setattr(
            "repro.durability.recovery.open_checkpoint", np.load
        )
        via_load = DurableCube.recover(copy_dir)

        assert via_mmap.total() == via_load.total() == int(dense.sum())
        rng = np.random.default_rng(3)
        for _ in range(25):
            box = random_box(rng, SHAPE)
            expect = brute_box_sum(dense, box)
            assert via_mmap.query(box) == expect
            assert via_load.query(box) == expect
        state_a = kernel_state_arrays(via_mmap.cube)
        state_b = kernel_state_arrays(via_load.cube)
        assert set(state_a) == set(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])
        via_mmap.close()
        via_load.close()

    def test_legacy_compressed_checkpoint_recovers(self, tmp_path):
        dense = _make_durable(tmp_path)
        archive_path = _archive_path(tmp_path)
        with np.load(archive_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        with open(archive_path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

        recovered = DurableCube.recover(tmp_path)
        assert recovered.total() == int(dense.sum())
        rng = np.random.default_rng(4)
        for _ in range(10):
            box = random_box(rng, SHAPE)
            assert recovered.query(box) == brute_box_sum(dense, box)
        recovered.close()


class TestNeverWrittenThrough:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restored_arrays_are_readonly_views(self, tmp_path, backend):
        rng = np.random.default_rng(5)
        cube = DurableCube(SHAPE[1:], tmp_path, num_times=SHAPE[0], fsync="off")
        _fill(cube, rng, count=40)
        cube.checkpoint()
        cube.close()

        recovered = DurableCube.recover(tmp_path)
        assert recovered.recovery_info["replayed_records"] == 0
        readonly = 0
        for _, payload in recovered.cube.directory.items():
            if payload.retired:
                continue
            if not payload.values.flags.writeable:
                readonly += 1
                assert not payload.ps_flags.flags.writeable
        assert readonly > 0
        recovered.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mutations_never_touch_the_archive_file(self, tmp_path, backend):
        _make_durable(tmp_path)
        archive_path = _archive_path(tmp_path)
        before = _sha256(archive_path)

        recovered = DurableCube.recover(tmp_path)
        rng = np.random.default_rng(6)
        # a battery of everything that mutates slices: out-of-order
        # updates (forced copies, dominating-PS fixups, G_d drains),
        # fast batch queries (threshold conversions) and metered queries
        for _ in range(120):
            point = tuple(int(rng.integers(0, n)) for n in SHAPE)
            recovered.update(point, int(rng.integers(-3, 9)))
        boxes = [random_box(rng, SHAPE) for _ in range(30)]
        recovered.query_many(boxes, mode="fast")
        for box in boxes[:5]:
            recovered.query(box)
        recovered.close()

        assert _sha256(archive_path) == before
