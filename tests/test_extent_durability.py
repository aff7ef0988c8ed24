"""Durability of TT-extent objects: WAL records, crashes, checkpoints, CLI.

The extent cube's queries are pure, so its durable state is a function
of the mutation sequence alone.  The crash tests run the one crash
matrix of ``tests/test_durability_crash.py`` with the ``"extent"`` kind:
the log is truncated at arbitrary byte offsets and recovery must reach a
state *bit-identical* (``state_arrays``) to a live replica that applied
the surviving operation prefix -- with and without an intervening
checkpoint.  Also here: codec coverage for the three interval record
types and the ``python -m repro`` operational commands on extent
directories; which ops a durable cube of either kind takes (and which
records it replays) is ``tests/test_durability_records.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main as repro_main
from repro.core.errors import DomainError, StorageError
from repro.core.types import TimeInterval
from repro.durability import DurableCube
from repro.durability.wal import (
    _FRAME,
    AdvanceRecord,
    IntervalBatchRecord,
    IntervalInsertRecord,
    WriteAheadLog,
    decode_payload,
    encode_record,
    inspect_log,
)

from tests.test_durability_crash import (
    BACKENDS,
    check_checkpoint_then_tail,
    check_crash_offsets,
)

SHAPE = (4, 4)


class TestCodec:
    def test_interval_record_round_trip_exact_layout(self):
        record = IntervalInsertRecord(-3, 9, (2, 0, 5), -7)
        frame = encode_record(record, 42)
        lsn, got = decode_payload(frame[_FRAME.size :])
        assert (lsn, got) == (42, record)

    def test_interval_batch_metered_mode_round_trip(self):
        record = IntervalBatchRecord(
            np.array([[0, 4], [2, 2]], dtype=np.int64),
            np.array([[1], [3]], dtype=np.int64),
            np.array([5, -1], dtype=np.int64),
            mode="metered",
        )
        frame = encode_record(record, 7)
        _, got = decode_payload(frame[_FRAME.size :])
        assert got == record
        assert got.mode == "metered"

    def test_advance_round_trip_through_log(self, tmp_path):
        records = [
            IntervalInsertRecord(0, 3, (1,), 2),
            AdvanceRecord(17),
            IntervalBatchRecord(
                np.array([[1, 1]], dtype=np.int64),
                np.array([[0]], dtype=np.int64),
                np.array([1], dtype=np.int64),
            ),
        ]
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for record in records:
                wal.append(record)
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert [r for _, r in wal.replay()] == records
        counts = inspect_log(tmp_path)["record_counts"]
        assert counts == {
            "interval_insert": 1,
            "advance": 1,
            "interval_batch": 1,
        }


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_at_random_offsets_recovers_surviving_prefix(tmp_path, backend):
    check_crash_offsets(tmp_path, "extent")


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_then_tail_replay_is_bit_identical(tmp_path, backend):
    check_checkpoint_then_tail(tmp_path, "extent")


class TestDispatch:
    def test_recover_opens_both_kinds(self, tmp_path):
        with DurableCube(SHAPE, tmp_path / "extent", extent=True, fsync="off") as cube:
            cube.insert((0, 3), (1, 1), 2)
        with DurableCube(SHAPE, tmp_path / "point", fsync="off") as cube:
            cube.update((0, 1, 1), 2)
        with DurableCube.recover(tmp_path / "extent") as recovered:
            assert recovered.extent
            assert recovered.intersecting(TimeInterval(0, 9)) == 2
        with DurableCube.recover(tmp_path / "point") as recovered:
            assert not recovered.extent
            assert recovered.total() == 2

    def test_reopening_as_new_cube_is_refused(self, tmp_path):
        DurableCube(SHAPE, tmp_path, extent=True, fsync="off").close()
        for extent in (True, False):
            with pytest.raises(StorageError):
                DurableCube(SHAPE, tmp_path, extent=extent, fsync="off")

    def test_extent_takes_neither_tiers_nor_an_unbuffered_front(self, tmp_path):
        tiers = [{"name": "hour", "granularity": 4, "horizon": None}]
        for options in ({"tiers": tiers}, {"buffered": False}):
            with pytest.raises(DomainError, match="extent cube"):
                DurableCube(SHAPE, tmp_path, extent=True, **options)
        assert not (tmp_path / "MANIFEST.json").exists()


class TestCli:
    def _populate(self, directory):
        cube = DurableCube(SHAPE, directory, extent=True, fsync="off")
        cube.insert((0, 9), (1, 1), 2)
        cube.insert_many(
            np.array([[2, 5], [4, 30]], dtype=np.int64),
            np.array([[0, 0], [3, 3]], dtype=np.int64),
            np.array([1, 4], dtype=np.int64),
        )
        cube.advance(12)
        cube.close()

    def test_log_info_renders_interval_records(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert repro_main(["log-info", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["extent"] is True
        assert info["record_counts"] == {
            "interval_insert": 1,
            "interval_batch": 1,
            "advance": 1,
        }

    def test_recover_reports_extent_state(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert repro_main(["recover", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["extent"] is True
        assert info["objects_inserted"] == 3
        assert info["clock"] == 12

    def test_checkpoint_command_dispatches_to_extent(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert repro_main(["checkpoint", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["checkpoint_id"] == 1
        # and the compacted directory still recovers
        recovered = DurableCube.recover(tmp_path)
        assert recovered.intersecting(TimeInterval(0, 40)) == 7
        recovered.close()
