"""CLI smoke tests and assorted coverage of small surfaces."""

from __future__ import annotations

import json

import pytest

import repro
from repro.__main__ import main as repro_main
from repro.core import errors


class TestPackage:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__

    def test_module_docstring_quickstart_is_valid(self):
        # the package docstring shows a runnable snippet; keep it honest
        from repro import Box, EvolvingDataCube

        cube = EvolvingDataCube(slice_shape=(8, 8), num_times=16)
        cube.update((0, 2, 3), +5)
        cube.update((1, 2, 3), +7)
        assert cube.query(Box((0, 0, 0), (1, 7, 7))) == 12


class TestCLI:
    def test_info(self, capsys):
        assert repro_main([]) == 0
        out = capsys.readouterr().out
        assert "SIGMOD 2002" in out
        assert "EvolvingDataCube" in out

    def test_demo(self, capsys):
        assert repro_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "range aggregate" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            repro_main(["frobnicate"])

    def test_durable_commands_on_a_sharded_directory(self, tmp_path, capsys):
        """What ``serve --durable-dir`` writes: ``sharding.json`` beside the
        cube's one log, one record per client op."""
        from repro.sharding import ShardedCube

        with ShardedCube(
            (4, 4), shards=2, processes=False, durable_dir=tmp_path, fsync="off"
        ) as cube:
            cube.update_many([[0, 0, 0], [1, 3, 3], [2, 3, 0]], [1, 2, 3])
            cube.retire_before(1)
            cube.checkpoint()
            cube.update_many([[3, 0, 0], [1, 3, 3]], [1, 1])
        assert repro_main(["log-info", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert "per_shard" not in info and info["shards"] == 2
        # the checkpoint's marker rolled the segment that held both ops
        assert info["record_counts"] == {"sharded_batch": 1}
        assert info["records"] == 1 and info["torn_tail"] is False
        assert info["updates"] == 2 and info["covered_lsn"] == 3
        assert info["bytes_per_update"] == round(
            sum(s["bytes"] for s in info["segments"]) / 2, 3
        )
        for command in (["recover"], ["checkpoint"], ["demote", "--before", "1"]):
            with pytest.raises(SystemExit) as refusal:
                repro_main([*command, str(tmp_path)])
            assert refusal.value.code == 2
            message = capsys.readouterr().err
            assert "sharded cube" in message and "missing manifest" not in message

    def test_log_info_on_a_log_per_shard_directory_says_how_to_convert_it(
        self, tmp_path, capsys
    ):
        import shutil
        from pathlib import Path

        data = Path(__file__).resolve().parent / "data" / "sharded_converted"
        shutil.copytree(data, tmp_path / "fleet")
        assert repro_main(["log-info", str(tmp_path / "fleet")]) == 2
        assert "serve --durable-dir" in capsys.readouterr().err

    def test_log_info_reports_a_malformed_record_instead_of_a_traceback(
        self, tmp_path, capsys
    ):
        import struct
        import zlib

        from repro.durability import DurableCube
        from repro.durability.recovery import WAL_SUBDIR

        with DurableCube((4, 4), tmp_path, fsync="off") as cube:
            cube.update((0, 1, 1), 2)
        # a CRC-valid update_batch whose header promises n=1000, k=3
        payload = struct.pack("<BQ", 2, 2) + struct.pack("<BIH", 0, 1000, 3)
        (segment,) = (tmp_path / WAL_SUBDIR).iterdir()
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
        assert repro_main(["log-info", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["record_counts"] == {"update": 1, "malformed_update_batch": 1}


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in (
            "AppendOrderError",
            "DomainError",
            "EmptyStructureError",
            "OperatorError",
            "StorageError",
            "AgedOutError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)
            assert issubclass(cls, Exception)

    def test_catchable_as_base(self):
        from repro.core.types import Box

        with pytest.raises(errors.ReproError):
            Box((2,), (1,))
