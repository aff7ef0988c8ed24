"""One log per sharded cube: a client write is one record, whole or not at all.

The router checks an op on every shard's terms, appends its one record
to the cube's log, then scatters it.  So a scatter that fails anywhere
after the append -- before any shard saw the op, or after some did --
leaves the live router refusing writes, and recovery replays the op
whole; a record the crash left torn is dropped, and the op is not
applied at all.  Never in part.  Replay decodes each record's bit
streams once: opening the log only checks that they decode.

The log keeps an op's in-order points as a sorted set and its buffered
points in arrival order; the live cube applies the record it logged, so a
recovered cube holds what the live one held, ``G_d`` order included, and
a log in the previous format (``tests/data/sharded_v3``) recovers too.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.core.errors import (
    AgedOutError,
    DomainError,
    ReproError,
    ShardUnavailableError,
)
from repro.core.types import Box
from repro.durability import DurableCube, bit_columns
from repro.durability.recovery import WAL_SUBDIR
from repro.durability.wal import WriteAheadLog
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.sharding import ShardedCube
from tests.data import make_durable_fixtures as fixtures

SHAPE = (4, 4)  # shard 0 holds x < 2, shard 1 x >= 2
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]

#: the op in flight, as the cube and as the unsharded oracle apply it
IN_FLIGHT = {
    # in-order and late points on both shards
    "update_many": (
        lambda c: c.update_many([(17, 0, 1), (9, 1, 2), (17, 3, 3), (7, 2, 0)],
                                [10, 20, 30, 40]),
        lambda o: o.update_many([(17, 0, 1), (9, 1, 2), (17, 3, 3), (7, 2, 0)],
                                [10, 20, 30, 40]),
    ),
    # a never-occurring time: a splice, past G_d
    "apply_out_of_order": (
        lambda c: c.apply_out_of_order((9, 3, 1), 7),
        lambda o: o.cube.apply_out_of_order((9, 3, 1), 7),
    ),
    "drain": (lambda c: c.drain(), lambda o: o.drain()),
    "retire_before": (lambda c: c.retire_before(7), lambda o: o.retire_before(7)),
    # demoted prefixes stay exact: the oracle keeps them live
    "demote_before": (lambda c: c.demote_before(7), lambda o: None),
}  # fmt: skip


def _history(target) -> None:
    for time in range(0, 16, 2):
        target.update_many([(time, 0, time % 4), (time, 3, (time + 1) % 4)], [time + 1, 2])
    target.update_many([(16, 1, 1), (5, 2, 2), (16, 2, 3), (3, 0, 0)], [1, 2, 3, 4])


def _cube(directory, op: str) -> ShardedCube:
    tiers = TIERS if op == "demote_before" else None
    return ShardedCube(
        SHAPE, shards=2, processes=False, durable_dir=directory, fsync="off", tiers=tiers
    )


def _outcome(call):
    try:
        return call()
    except (AgedOutError, DomainError) as exc:
        return type(exc)


def _answers(target) -> list:
    boxes = [
        Box((t1, x1, 0), (t2, x2, 3))
        for t1 in range(0, 18, 3)
        for t2 in range(t1, 18, 4)
        for x1, x2 in ((0, 3), (0, 1), (2, 3), (1, 2))
    ]
    return [_outcome(lambda: target.query(box)) for box in boxes]


def _crash(op, payload=None):
    raise ShardUnavailableError("killed mid-scatter")


@pytest.mark.parametrize("torn", [False, True], ids=["logged", "torn"])
@pytest.mark.parametrize("at", ["before any shard", "shard 0", "shard 1"])
@pytest.mark.parametrize("op", sorted(IN_FLIGHT))
def test_a_write_that_fails_after_its_record_recovers_whole_or_not_at_all(
    tmp_path, op, at, torn
):
    apply, oracle_apply = IN_FLIGHT[op]
    oracle = BufferedEvolvingDataCube(SHAPE)
    _history(oracle)
    acknowledged = _answers(oracle)
    oracle_apply(oracle)
    whole = _answers(oracle)
    cube = _cube(tmp_path / "fleet", op)
    with cube:
        _history(cube)
        assert _answers(cube) == acknowledged
        handles = cube.router.handles
        crashing = handles if at == "before any shard" else [handles[int(at[-1])]]
        (segment,) = (tmp_path / "fleet" / WAL_SUBDIR).iterdir()
        before = segment.stat().st_size
        for handle in crashing:
            handle.send = _crash
        try:
            apply(cube)
            crashed = False  # the op never reached a crashing shard
        except ShardUnavailableError:
            crashed = True
        for handle in crashing:
            del handle.send
        after = segment.stat().st_size
        assert after > before  # logged, crash or not
        if crashed:
            with pytest.raises(ShardUnavailableError, match="no more writes"):
                cube.update((18, 0, 0), 1)
            with pytest.raises(ShardUnavailableError, match="no more writes"):
                cube.checkpoint()
        # what the crash left on disk
        shutil.copytree(tmp_path / "fleet", tmp_path / "left")
    if torn:
        with open(tmp_path / "left" / WAL_SUBDIR / segment.name, "r+b") as handle:
            handle.truncate(before + (after - before) // 2)
    with ShardedCube.recover(tmp_path / "left") as recovered:
        assert _answers(recovered) == (acknowledged if torn else whole)
        recovered.update((18, 0, 0), 1)  # and it takes writes


def test_the_half_applied_write_of_the_roadmap_baseline_recovers_22(tmp_path):
    """Two held; +10 on each shard fails at shard 1.  The live cube reads
    12 and refuses writes; the recovered one reads 22, never 12."""
    cube = ShardedCube(SHAPE, shards=2, processes=False, durable_dir=tmp_path / "f")
    with cube:
        cube.update_many([(0, 0, 0), (0, 3, 3)], [1, 1])
        cube.router.handles[1].send = _crash
        with pytest.raises(ShardUnavailableError):
            cube.update_many([(1, 0, 0), (1, 3, 3)], [10, 10])
        del cube.router.handles[1].send
        assert cube.total() == 12
        with pytest.raises(ShardUnavailableError, match="no more writes"):
            cube.update_many([(1, 0, 0), (1, 3, 3)], [10, 10])
    with ShardedCube.recover(tmp_path / "f") as recovered:
        assert recovered.total() == 22


def test_a_refused_write_logs_nothing(tmp_path):
    """Checked on every shard's terms before the log: a point outside the
    domain, a bad delta count, a demote of an untiered cube."""
    with _cube(tmp_path / "f", "update_many") as cube:
        _history(cube)
        logged = cube.log_info()["records"]
        for refused in (
            lambda: cube.update_many([(20, 0, 0), (20, 4, 0)], [1, 1]),
            lambda: cube.update_many([(20, 0, 0)], [1, 1]),
            lambda: cube.demote_before(4),
            lambda: cube.apply_out_of_order((20, 0, 0), 1),
        ):
            with pytest.raises(ReproError):
                refused()
        assert cube.log_info()["records"] == logged
        cube.update((20, 0, 0), 1)  # and the cube still takes writes


def test_a_correction_into_a_shards_demoted_detail_logs_nothing(tmp_path):
    """A tiered shard's kernel refuses a correction below its demotion
    watermark, so the router refuses it first, on that shard's
    watermark; a logged write the shard then refused would stop the
    cube's writes."""
    with _cube(tmp_path / "f", "demote_before") as cube:
        _history(cube)
        cube.demote_before(9)
        logged = cube.log_info()["records"]
        with pytest.raises(AgedOutError):
            cube.apply_out_of_order((5, 3, 1), 1)
        assert cube.log_info()["records"] == logged
        cube.apply_out_of_order((13, 3, 1), 1)  # above the watermark
        cube.update((20, 0, 0), 1)  # and the cube still takes writes


def _counting_decodes(monkeypatch) -> list:
    calls = []
    decode = bit_columns._decode

    def counting(*args):
        calls.append(args[3])  # n, the rows of the run
        return decode(*args)

    monkeypatch.setattr(bit_columns, "_decode", counting)
    return calls


def test_recovery_decodes_each_record_once(tmp_path, monkeypatch):
    """A durable cube's batch record is one run of bit columns; a sharded
    one's is a run per shard and kind it reaches.  Opening the log checks
    every committed frame without decoding it; replay decodes each run
    once."""
    calls = _counting_decodes(monkeypatch)
    with DurableCube(SHAPE, tmp_path / "one", fsync="off") as cube:
        _history(cube)
    with ShardedCube(SHAPE, shards=2, durable_dir=tmp_path / "two", fsync="off") as cube:
        _history(cube)
        runs = cube.log_info()  # (log-info decodes every record itself)
    calls.clear()
    WriteAheadLog(tmp_path / "one" / WAL_SUBDIR, fsync="off").close()
    WriteAheadLog(tmp_path / "two" / WAL_SUBDIR, fsync="off").close()
    assert calls == []
    DurableCube.recover(tmp_path / "one").close()
    # nine update_many batches, one run each
    assert len(calls) == 9
    calls.clear()
    with ShardedCube.recover(tmp_path / "two") as recovered:
        assert recovered.recovery_info["replayed_records"] == runs["records"] == 9
    # eight batches reach both shards in order; the last one both shards
    # in order and late: 8 * 2 + 4 runs
    assert len(calls) == 20


def test_opening_a_log_of_sorted_runs_decodes_no_remainder(tmp_path, monkeypatch):
    """Served-shape in-order runs, 100 points a shard and time, whose
    keys fill their widths: opening checks their quotients and decodes
    none of their remainders; replay decodes each run once."""
    rng = np.random.default_rng(5)
    with ShardedCube(
        SHAPE, shards=2, processes=False, durable_dir=tmp_path, fsync="off"
    ) as cube:
        for time in range(0, 16, 4):
            times = np.repeat([time, time + 1], 100)
            cells = rng.integers(0, 4, (200, 2))
            cube.update_many(np.column_stack([times, cells]), rng.integers(1, 10, 200))
        answers = _answers(cube)
    calls = _counting_decodes(monkeypatch)
    WriteAheadLog(tmp_path / WAL_SUBDIR, fsync="off").close()
    assert calls == []
    with ShardedCube.recover(tmp_path) as recovered:
        assert _answers(recovered) == answers
    assert len(calls) == 8  # four batches, each in order on both shards


def _buffers(cube) -> list:
    """Every shard's ``G_d``: its points and deltas, in buffer order."""
    return [
        [column.tolist() for column in layers["buffered"].buffer.snapshot_columns()]
        for layers in (handle.state.layers for handle in cube.router.handles)
    ]


def _oracle(ops) -> BufferedEvolvingDataCube:
    oracle = BufferedEvolvingDataCube(fixtures.SHARDED_SHAPE)
    for op in ops:
        fixtures.apply_op(oracle, op)
    return oracle


def test_a_recovered_cube_holds_what_the_live_one_held(tmp_path):
    """In-order runs sorted, buffered runs in arrival order: answers and
    every shard's ``G_d``, in buffer order, are the live cube's, and the
    answers the unsharded oracle's."""
    with ShardedCube(
        fixtures.SHARDED_SHAPE, shards=2, durable_dir=tmp_path / "live", fsync="off"
    ) as live:
        for op in fixtures.SHARDED_OPS:
            fixtures.apply_op(live, op)
        answers, buffers = _answers(live), _buffers(live)
    assert answers == _answers(_oracle(fixtures.SHARDED_OPS))
    assert any(points for points, _ in buffers)  # the last op's late points
    with ShardedCube.recover(tmp_path / "live") as recovered:
        assert _answers(recovered) == answers
        assert _buffers(recovered) == buffers
        assert [s["format_version"] for s in recovered.log_info()["segments"]] == [4]


@pytest.mark.parametrize("shape", [(9,), (6, 5), (4, 3, 5)])
def test_a_batch_is_logged_in_the_order_of_a_sort_over_every_coordinate(
    shape, rng, monkeypatch
):
    """The router sorts a batch on four keys -- shard, lateness, time, and
    the cell ravelled in the slice shape -- which orders it as a sort over
    every coordinate did: the late rows keep their arrival order."""
    with ShardedCube(shape, shards=2) as cube:
        logged = []
        commit = cube.router._commit

        def spy(record, handles):
            logged.append(record)
            return commit(record, handles)

        monkeypatch.setattr(cube.router, "_commit", spy)
        for _ in range(40):
            latest = cube.router.latest_time or 0
            times = latest + rng.integers(0, 3, 30)
            late = rng.random(30) < 0.1
            times[late] = rng.integers(0, latest + 1, late.sum())
            points = np.column_stack([times, rng.integers(0, shape, (30, len(shape)))])
            cube.update_many(points, np.arange(1, 31))  # a delta names its row
            record = logged[-1]
            order = record.deltas - 1
            # the rows each section's late run holds, by shard
            historic = np.zeros(30, dtype=bool)
            ends = np.cumsum(record.runs.sum(axis=1))
            for end, (_, buffered) in zip(ends, record.runs):
                historic[order[end - buffered : end]] = True
            shard_ids = cube.partitioner.shard_of_cells(points[:, 1:])
            keys = np.where(historic[:, None], 0, points)
            expected = np.lexsort((*keys.T[::-1], historic, shard_ids))
            assert order.tolist() == expected.tolist()
        assert any(buffered for record in logged for _, buffered in record.runs)


def test_a_version_3_log_recovers_and_rolls_to_version_4(tmp_path):
    """``sharded_v3/`` is the op list as the build before version 4
    logged it, in-order runs in arrival order and no checkpoint: it
    recovers to the oracle's answers, and the next write lands in a
    version-4 segment the segment after it recovers from."""
    shutil.copytree(fixtures.HERE / "sharded_v3", tmp_path / "fleet")
    (old,) = (tmp_path / "fleet" / WAL_SUBDIR).iterdir()
    written = old.read_bytes()
    late = ("update_many", *fixtures._rows([(17, 3, 2, 4), (10, 1, 1, 5)]), "fast")
    oracle = _oracle(fixtures.SHARDED_OPS)
    with ShardedCube.recover(tmp_path / "fleet") as recovered:
        assert recovered.recovery_info["replayed_records"] == len(fixtures.SHARDED_OPS)
        assert _answers(recovered) == _answers(oracle)
        fixtures.apply_op(recovered, late)
        info = recovered.log_info()
        buffers = _buffers(recovered)
    fixtures.apply_op(oracle, late)
    assert old.read_bytes() == written
    assert [(s["format_version"], s["records"]) for s in info["segments"]] == [
        (3, len(fixtures.SHARDED_OPS)),
        (4, 1),
    ]
    with ShardedCube.recover(tmp_path / "fleet") as again:
        assert _answers(again) == _answers(oracle)
        assert _buffers(again) == buffers


@pytest.mark.parametrize("fsync", ["batch", "always"])
def test_the_crash_window_is_at_most_group_commit_minus_one_ops(
    tmp_path, monkeypatch, fsync
):
    """Each ``os.fsync`` recorded with the LSN it covers (the log's last):
    once a client op is acknowledged, under ``"batch"`` at most
    ``group_commit - 1`` acknowledged ops are unsynced, under ``"always"``
    none.  A machine crash loses at most that window."""
    with ShardedCube(SHAPE, shards=2, durable_dir=tmp_path / "f", fsync=fsync) as cube:
        log, synced = cube.router.log, [0]
        log.group_commit = 5
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(log.next_lsn - 1))
        unsynced = []
        for time in range(24):
            late = max(time - 3, 0)
            cube.update_many([(time, 0, time % 4), (time, 3, 1), (late, 2, 2)], [1, 2, 3])
            unsynced.append(log.next_lsn - 1 - max(synced))
            if time % 7 == 6:
                cube.drain(1)
                unsynced.append(log.next_lsn - 1 - max(synced))
    assert max(unsynced) == (log.group_commit - 1 if fsync == "batch" else 0)
