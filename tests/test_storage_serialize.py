"""Tests for cube persistence (save/load round trips)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.errors import AgedOutError, StorageError
from repro.core.types import Box
from repro.ecube.ecube import EvolvingDataCube
from repro.metrics import CostCounter
from repro.storage.serialize import load_kernel, save_kernel

from tests.conftest import brute_box_sum, random_box
from tests.test_ecube_cube import random_append_stream


def dumps_kernel(cube) -> bytes:
    buffer = io.BytesIO()
    save_kernel(cube, buffer)
    return buffer.getvalue()


def loads_kernel(blob: bytes):
    return load_kernel(io.BytesIO(blob))


def build_sample(seed=150, count=200, shape=(20, 8, 8)):
    rng = np.random.default_rng(seed)
    cube = EvolvingDataCube(shape[1:], num_times=shape[0])
    dense = np.zeros(shape, dtype=np.int64)
    for point, delta in random_append_stream(rng, shape, count):
        cube.update(point, delta)
        dense[point] += delta
    return cube, dense, rng, shape


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        cube, dense, rng, shape = build_sample()
        path = tmp_path / "cube.npz"
        save_kernel(cube, path)
        restored = load_kernel(path)
        for _ in range(25):
            box = random_box(rng, shape)
            assert restored.query(box) == brute_box_sum(dense, box)
        assert restored.occurring_times() == cube.occurring_times()
        assert restored.updates_applied == cube.updates_applied

    def test_bytes_round_trip(self):
        cube, dense, rng, shape = build_sample(seed=151)
        blob = dumps_kernel(cube)
        restored = loads_kernel(blob)
        for _ in range(15):
            box = random_box(rng, shape)
            assert restored.query(box) == brute_box_sum(dense, box)

    def test_conversion_state_survives(self):
        cube, dense, rng, shape = build_sample(seed=152)
        # convert some regions, then snapshot
        boxes = [random_box(rng, shape) for _ in range(20)]
        for box in boxes:
            cube.query(box)
        restored = loads_kernel(dumps_kernel(cube))
        counter = CostCounter()
        restored.counter = counter
        # restored flags make repeated queries cheap immediately
        for box in boxes:
            assert restored.query(box) == brute_box_sum(dense, box)

    def test_updates_resume_after_restore(self):
        cube, dense, rng, shape = build_sample(seed=153)
        restored = loads_kernel(dumps_kernel(cube))
        latest = restored.latest_time
        for t in range(latest, shape[0]):
            cell = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            restored.update((t,) + cell, 3)
            dense[(t,) + cell] += 3
        for _ in range(20):
            box = random_box(rng, shape)
            assert restored.query(box) == brute_box_sum(dense, box)

    def test_retirement_survives(self, tmp_path):
        cube, dense, _rng, shape = build_sample(seed=154)
        boundary_time = int(cube.occurring_times()[len(cube.occurring_times()) // 2])
        cube.retire_before(boundary_time)
        path = tmp_path / "aged.npz"
        save_kernel(cube, path)
        restored = load_kernel(path)
        assert restored.retired_instances == cube.retired_instances
        full = Box((0, 0, 0), (shape[0] - 1, 7, 7))
        assert restored.query(full) == dense.sum()
        with pytest.raises(AgedOutError):
            restored.query(
                Box((max(1, boundary_time - 2), 0, 0), (shape[0] - 1, 7, 7))
            )

    def test_empty_cube_round_trip(self, tmp_path):
        cube = EvolvingDataCube((4, 4))
        path = tmp_path / "empty.npz"
        save_kernel(cube, path)
        restored = load_kernel(path)
        assert restored.query(Box((0, 0, 0), (5, 3, 3))) == 0

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, format_version=np.array([99]))
        with pytest.raises(StorageError):
            load_kernel(path)

    def test_incomplete_copy_state_survives(self):
        # a cube with pending lazy copies must restore them faithfully
        cube = EvolvingDataCube((16, 16), num_times=64, copy_budget=0)
        rng = np.random.default_rng(155)
        dense = np.zeros((64, 16, 16), dtype=np.int64)
        for t in range(40):
            cell = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            cube.update((t,) + cell, 2)
            dense[(t,) + cell] += 2
        assert cube.incomplete_historic_instances() > 0
        restored = loads_kernel(dumps_kernel(cube))
        assert (
            restored.incomplete_historic_instances()
            == cube.incomplete_historic_instances()
        )
        for _ in range(20):
            box = random_box(rng, (64, 16, 16))
            assert restored.query(box) == brute_box_sum(dense, box)
