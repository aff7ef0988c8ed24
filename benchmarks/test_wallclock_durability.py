"""Durability overhead: logged ingest vs raw, and recovery wall-clock.

Two costs matter for the durable cube: how much the write-ahead log
slows the ingest path (it should be a small constant per batch -- one
sequential append plus an amortized group-commit fsync), and how long
crash recovery takes (checkpoint restore plus a replay that is linear in
the log *tail*, not in history).

The ingest benchmark streams identical ``update_many`` batches into a
raw :class:`~repro.ecube.ecube.EvolvingDataCube` and into a
:class:`~repro.durability.recovery.DurableCube` with the default
``fsync="batch"`` group commit, asserts the answers agree, and checks
the logged/raw wall-clock ratio stays under the 3x budget.  The
recovery benchmark times a full-log replay against a post-checkpoint
tail replay of the same history.  Rows land in ``BENCH_durability.json``.

Since WAL format version 2 a batch body is packed columns (since
version 3 at bit width, one bit stream of rows), so two more costs are
recorded (>= 5 repeats, median + IQR): what the codec spends per
serving-benchmark-shaped record against what it saves in bytes, and the
replay rate of a log this build writes against the same history logged
in version 1 (this build reads both), on alternating rounds.  The rows
carry the medians; the codec ceilings are asserted on the best round
(what a shared host adds to a round is one-sided) and the replay floor
on the median of the rounds' paired ratios (its drift cancels in a pair).

One row is a byte count, deterministic per seed, not a time: the WAL
bytes per update a durable two-shard in-process
:class:`~repro.sharding.ShardedCube` logs for a seeded append mix (64
updates an append, 6 of them late, a drain every 32 appends).  It gates
on no more than its recorded value, :data:`SHARDED_APPEND_BYTES`.  Since
version 4 a sharded batch keeps its in-order runs as sorted sets, so one
more row times that codec on the record one preload frame of the
serving benchmark makes (median and IQR of 7 rounds, the version-3
layout timed in alternation in its note); it is informational, with no
ceiling.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import struct
import time
import zlib

import numpy as np

from _record import BENCH_DURABILITY_FILE, record
from repro.durability import DurableCube, bit_columns
from repro.durability.recovery import WAL_SUBDIR
from repro.durability.wal import (
    _FRAME,
    _HEADER,
    _PREFIX,
    SEGMENT_MAGIC,
    ShardedBatchRecord,
    UpdateBatchRecord,
    WriteAheadLog,
    decode_payload,
    encode_record,
    inspect_log,
)
from repro.ecube.ecube import EvolvingDataCube

SLICE_SHAPE = (32, 32)
NUM_TIMES = 256
NUM_BATCHES = 120
BATCH_SIZE = 200
OVERHEAD_CEILING = 3.0
REPEATS = 7
CODEC_CALLS = 200
CODEC_CEILING_US = 60.0
REPLAY_ROUNDS = 31  # recovery is ~0.2 s of kernel work: cheap to repeat, noisy
REPLAY_FLOOR = 0.9  # packed-log replay rate / version-1 replay rate
#: WAL bytes per update of the sharded append mix, as one log per cube
#: writes it in version 4 (one record an append, in-order runs as sorted
#: sets); the gate
SHARDED_APPEND_BYTES = 2.3742
#: the same mix in version 3 (one record an append, commit 715f1ef) and
#: when every shard kept its own WAL and logged a late append as two
#: batch records (commit 9f27cb2)
VERSION_3_BYTES, PER_SHARD_WAL_BYTES = 2.7377, 3.8128


def _batches(seed=29):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, NUM_TIMES, size=NUM_BATCHES * BATCH_SIZE))
    out = []
    for i in range(NUM_BATCHES):
        chunk = slice(i * BATCH_SIZE, (i + 1) * BATCH_SIZE)
        points = np.column_stack(
            (
                times[chunk],
                rng.integers(0, SLICE_SHAPE[0], size=BATCH_SIZE),
                rng.integers(0, SLICE_SHAPE[1], size=BATCH_SIZE),
            )
        ).astype(np.int64)
        out.append((points, rng.integers(-4, 9, size=BATCH_SIZE).astype(np.int64)))
    return out


def _timed_ingest(target, batches):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for points, deltas in batches:
            target.update_many(points, deltas)
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_logged_ingest_overhead(tmp_path):
    batches = _batches()
    raw_walls, logged_walls = [], []
    for rep in range(3):
        raw = EvolvingDataCube(SLICE_SHAPE, num_times=NUM_TIMES)
        logged = DurableCube(
            SLICE_SHAPE,
            tmp_path / f"rep-{rep}",
            buffered=False,
            num_times=NUM_TIMES,
            fsync="batch",
        )
        raw_walls.append(_timed_ingest(raw, batches))
        logged_walls.append(_timed_ingest(logged, batches))
        logged.flush()
        assert logged.total() == raw.total()
        logged.close()
    raw_wall, logged_wall = min(raw_walls), min(logged_walls)
    overhead = logged_wall / raw_wall
    record(
        "durable_ingest_update_many",
        "raw",
        raw_wall,
        0,
        path=BENCH_DURABILITY_FILE,
        batches=NUM_BATCHES,
        batch_size=BATCH_SIZE,
    )
    record(
        "durable_ingest_update_many",
        "logged_batch_fsync",
        logged_wall,
        0,
        path=BENCH_DURABILITY_FILE,
        batches=NUM_BATCHES,
        batch_size=BATCH_SIZE,
        overhead_x=round(overhead, 3),
    )
    assert overhead < OVERHEAD_CEILING, (
        f"logged ingest cost {overhead:.2f}x raw update_many "
        f"(budget {OVERHEAD_CEILING}x)"
    )


def test_recovery_wallclock(tmp_path):
    batches = _batches(seed=31)
    cube = DurableCube(
        SLICE_SHAPE,
        tmp_path,
        buffered=False,
        num_times=NUM_TIMES,
        fsync="off",
    )
    for points, deltas in batches:
        cube.update_many(points, deltas)
    total = cube.total()
    cube.close()

    gc.collect()
    start = time.perf_counter()
    recovered = DurableCube.recover(tmp_path)
    full_replay_wall = time.perf_counter() - start
    assert recovered.total() == total
    assert recovered.recovery_info["replayed_records"] == NUM_BATCHES

    recovered.checkpoint()
    recovered.close()
    gc.collect()
    start = time.perf_counter()
    tail_cube = DurableCube.recover(tmp_path)
    tail_replay_wall = time.perf_counter() - start
    assert tail_cube.total() == total
    assert tail_cube.recovery_info["replayed_records"] == 0
    tail_cube.close()

    # (``full_log_replay`` is recorded, with repeats, by
    # ``test_replay_rate_of_a_packed_log``)
    record(
        "durable_recovery",
        "checkpoint_tail_replay",
        tail_replay_wall,
        0,
        path=BENCH_DURABILITY_FILE,
        records=0,
        updates=NUM_BATCHES * BATCH_SIZE,
    )
    # O(tail): an empty tail after a checkpoint must not cost more than
    # the full-history replay it replaces
    assert tail_replay_wall <= full_replay_wall


def _median_iqr(values):
    low, _, high = statistics.quantiles(values, n=4)
    return statistics.median(values), high - low


def _per_call_us(call):
    """One call's microseconds in each of ``REPEATS`` rounds."""
    rounds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CODEC_CALLS):
            call()
        rounds.append((time.perf_counter() - start) / CODEC_CALLS * 1e6)
    return rounds


def test_packed_batch_codec(tmp_path):
    """A shard's record of one preload frame of the serving benchmark:
    512 updates, two occurring times, cells on 32 x 32 x 8, deltas 1..9."""
    rng = np.random.default_rng(37)
    n = 512
    points = np.column_stack(
        [np.repeat([40, 41], n // 2), *(rng.integers(0, s, n) for s in (32, 32, 8))]
    )
    batch = UpdateBatchRecord(points, rng.integers(1, 10, n), "fast")
    frame = encode_record(batch, 1)
    payload = frame[_FRAME.size :]
    assert decode_payload(payload) == (1, batch)
    with WriteAheadLog(tmp_path, fsync="off") as wal:
        for _ in range(64):
            wal.append(batch)
    bytes_per_update = inspect_log(tmp_path)["bytes_per_update"]
    common = {"path": BENCH_DURABILITY_FILE, "updates": n, "repeats": REPEATS}
    record(
        "wal_batch_codec", "wal_bytes_per_update", 0, 0, **common,
        bytes_per_update=bytes_per_update,
        note="the same record: version 2 (1343cf7) 5.135 B per update, "
        "version 1 (bca72f1) 40.047",
    )
    for mode, call, before in (
        ("encode_record", lambda: encode_record(batch, 1), "28.7-31.0"),
        ("decode_payload", lambda: decode_payload(payload), "22.0-22.7"),
    ):
        rounds = _per_call_us(call)
        median, iqr = _median_iqr(rounds)
        record(
            "wal_batch_codec", mode, median / 1e6, 0, **common,
            us_median=round(median, 2), us_iqr=round(iqr, 2),
            us_best=round(min(rounds), 2),
            note=f"version 2 (1343cf7), same host: {before} us (best of 7 x 200)",
        )
        assert min(rounds) <= CODEC_CEILING_US, (mode, rounds)
    assert bytes_per_update <= 2.5


def _as_version_1(wal_dir):
    """Rewrite a log of ``update_batch`` records as an older build wrote it."""
    (segment,) = sorted(wal_dir.iterdir())
    frames = [_HEADER.pack(SEGMENT_MAGIC, 1, 1)]
    with WriteAheadLog(wal_dir, fsync="off") as wal:
        for lsn, batch in wal.replay():
            payload = (
                _PREFIX.pack(batch.type, lsn)
                + struct.pack("<BIH", 0, *batch.points.shape)
                + batch.points.tobytes()
                + batch.deltas.tobytes()
            )
            frames.append(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
    segment.write_bytes(b"".join(frames))


def test_replay_rate_of_a_packed_log(tmp_path):
    """Recovery reads a ~15x smaller log through a slower decoder: the
    rate must hold against the same history in the version-1 layout."""
    batches = _batches(seed=41)
    updates = NUM_BATCHES * BATCH_SIZE
    with DurableCube(
        SLICE_SHAPE,
        tmp_path / "packed",
        buffered=False,
        num_times=NUM_TIMES,
        fsync="off",
    ) as cube:
        for points, deltas in batches:
            cube.update_many(points, deltas)
        total = cube.total()
    shutil.copytree(tmp_path / "packed", tmp_path / "v1")
    _as_version_1(tmp_path / "v1" / WAL_SUBDIR)
    sizes = {
        name: inspect_log(tmp_path / name / WAL_SUBDIR)["bytes_per_update"]
        for name in ("v1", "packed")
    }
    walls = {"v1": [], "packed": []}
    for round_ in range(REPLAY_ROUNDS):
        for name in ("v1", "packed") if round_ % 2 else ("packed", "v1"):
            shutil.copytree(tmp_path / name, tmp_path / "run")
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                recovered = DurableCube.recover(tmp_path / "run")
                walls[name].append(time.perf_counter() - start)
            finally:
                gc.enable()
            assert recovered.total() == total
            assert recovered.recovery_info["replayed_records"] == NUM_BATCHES
            recovered.close()
            shutil.rmtree(tmp_path / "run")
    modes = (("v1", "full_log_replay_version_1"), ("packed", "full_log_replay"))
    for name, mode in modes:
        wall, iqr = _median_iqr(walls[name])
        record(
            "durable_recovery", mode, wall, 0,
            path=BENCH_DURABILITY_FILE, records=NUM_BATCHES, updates=updates,
            repeats=REPLAY_ROUNDS, wall_iqr_s=round(iqr, 6),
            wall_best_s=round(min(walls[name]), 6),
            updates_per_s=round(updates / wall), wal_bytes_per_update=sizes[name],
        )
    assert sizes["packed"] < sizes["v1"] / 4
    # (each round's pair ran back to back: the host's drift cancels in its ratio)
    ratio = statistics.median(v1 / new for v1, new in zip(walls["v1"], walls["packed"]))
    print(f"replay rate, packed / version 1 (median of paired rounds): {ratio:.3f}")
    assert ratio >= REPLAY_FLOOR, walls


def _sharded_appends(seed=7, count=256, per=64, late=6, shape=SLICE_SHAPE):
    """``count`` appends of ``per`` updates on a new time each, the last
    ``late`` of them into the 12 times before it."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        time = 16 + i
        times = np.concatenate(
            [np.full(per - late, time), rng.integers(time - 12, time, late)]
        )
        cells = rng.integers(0, shape, (per, len(shape)))
        yield np.column_stack([times, cells]), rng.integers(1, 10, per)


def test_sharded_append_log_bytes(tmp_path):
    from repro.sharding import ShardedCube

    directory, updates = tmp_path / "sharded", 0
    start = time.perf_counter()
    with ShardedCube(SLICE_SHAPE, shards=2, durable_dir=directory) as cube:
        for i, (points, deltas) in enumerate(_sharded_appends()):
            cube.update_many(points, deltas)
            updates += len(points)
            if i % 32 == 31:
                cube.drain()
    wall = time.perf_counter() - start
    wal = sum(path.stat().st_size for path in directory.rglob("wal-*.log"))
    per_update = round(wal / updates, 4)
    record(
        "sharded_append", "one_log", wall, 0,
        path=BENCH_DURABILITY_FILE, updates=updates, wal_bytes=wal,
        wal_bytes_per_update=per_update,
        note=(
            f"deterministic per seed; {VERSION_3_BYTES} B/update in WAL "
            f"format 3 (715f1ef), {PER_SHARD_WAL_BYTES} with a WAL per shard "
            "(9f27cb2); wall_s is one run, informational"
        ),
    )  # fmt: skip
    assert per_update <= SHARDED_APPEND_BYTES


def _preload_frame_record(directory) -> ShardedBatchRecord:
    """What a durable two-shard cube logs for one preload frame of the
    serving benchmark's ``steady_read``: two occurring times of 320
    updates on 32 x 32 x 8, three fifths in the tenant's [0, 8)^3, a
    fifth in each shard's other cells, deltas 1..9."""
    from repro.sharding import ShardedCube

    rng = np.random.default_rng(7)
    parts = []
    for time_ in (40, 41):
        cells = np.concatenate([
            rng.integers(0, 8, (192, 3)),
            np.column_stack([rng.integers(0, 16, 64), rng.integers(8, 32, 64),
                             rng.integers(0, 8, 64)]),
            np.column_stack([rng.integers(16, 32, 64), rng.integers(0, 32, 64),
                             rng.integers(0, 8, 64)]),
        ])  # fmt: skip
        parts.append(np.column_stack([np.full(320, time_), rng.permutation(cells)]))
    with ShardedCube((32, 32, 8), shards=2, durable_dir=directory, fsync="off") as cube:
        cube.update_many(np.concatenate(parts), rng.integers(1, 10, 640))
        ((_, logged),) = cube.router.log.replay()
    return logged


def _version_3_body(record: ShardedBatchRecord) -> bytes:
    """``record``'s body as a version-3 segment holds it: every run as
    bit columns."""
    heads = np.column_stack([record.shards, record.runs]).ravel().tolist()
    out = [struct.pack("<HH", len(record.runs), record.points.shape[1])]
    out += map(bit_columns.varint, heads)
    columns, at = np.vstack([record.points.T, record.deltas]), 0
    for count in filter(None, record.runs.ravel().tolist()):
        out.append(bit_columns.pack(columns[:, at : at + count].copy()))
        at += count
    return b"".join(out)


def test_sharded_batch_codec(tmp_path):
    logged = _preload_frame_record(tmp_path / "frame")
    payload = encode_record(logged, 1)[_FRAME.size :]
    old = _PREFIX.pack(logged.type, 1) + _version_3_body(logged)
    assert decode_payload(payload) == (1, logged)
    assert decode_payload(old, version=3) == (1, logged)
    calls = {
        ("version 4", "encode_record"): lambda: encode_record(logged, 1),
        ("version 3", "encode_record"): lambda: _version_3_body(logged),
        ("version 4", "decode_payload"): lambda: decode_payload(payload),
        ("version 3", "decode_payload"): lambda: decode_payload(old, version=3),
    }
    rounds = {key: [] for key in calls}
    for round_ in range(REPEATS):  # the layouts alternate, round by round
        for key in sorted(calls, reverse=bool(round_ % 2)):
            gc.collect()
            start = time.perf_counter()
            for _ in range(CODEC_CALLS):
                calls[key]()
            rounds[key].append((time.perf_counter() - start) / CODEC_CALLS * 1e6)
    updates = len(logged.points)
    for mode in ("encode_record", "decode_payload"):
        median, iqr = _median_iqr(rounds["version 4", mode])
        then, then_iqr = _median_iqr(rounds["version 3", mode])
        record(
            "sharded_batch_codec", mode, median / 1e6, 0,
            path=BENCH_DURABILITY_FILE, updates=updates, repeats=REPEATS,
            us_median=round(median, 2), us_iqr=round(iqr, 2),
            payload_bytes=len(payload),
            note=(
                f"one preload frame's record, {updates} updates; version 3 "
                f"layout ({len(old)} B), timed in alternation: "
                f"{then:.2f} us median, {then_iqr:.2f} IQR; informational"
            ),
        )  # fmt: skip
    assert len(payload) < len(old)
