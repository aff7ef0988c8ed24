"""Crash injection: kill the log at arbitrary points and recover.

The harness builds a mixed workload (in-order updates, ``update_many``
batches, out-of-order corrections, drains, data aging -- or, for the
extent kind, interval inserts, interval batches and clock advances)
against a :class:`~repro.durability.recovery.DurableCube`, then
simulates a crash by truncating the WAL at randomized byte offsets.
Recovery must produce exactly the state a *live replica* reaches by
applying the surviving operation prefix through the same front-end: same
answers, same occurring-time directory, same lazy-copy progress (the
extent kind compares ``state_arrays`` bit for bit).  One crash matrix
for the one durable class over its one store, dense, and the kinds
``"buffered"`` and ``"unbuffered"`` (point objects) and ``"extent"``
(whose test ids live in ``tests/test_extent_durability.py``).

Also here: the retire-resurrection regression (a replayed correction
addressed to a since-retired time must be skipped, never resurrect the
retired detail slice) and a Hypothesis stateful machine that interleaves
mutations, checkpoints and full recover cycles against a dense oracle.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core.errors import AgedOutError
from repro.core.types import Box, TimeInterval
from repro.durability import DurableCube
from repro.durability.recovery import WAL_SUBDIR, build_front
from repro.durability.wal import _HEADER, inspect_log

SHAPE = (24, 8, 8)
EXTENT_SHAPE = (4, 4)
#: the store a durable cube serves (paged and sparse kernels are used bare)
BACKENDS = ["dense"]


def _create(kind, directory, **wal_options):
    if kind == "extent":
        return DurableCube(EXTENT_SHAPE, directory, extent=True, **wal_options)
    return DurableCube(
        SHAPE[1:],
        directory,
        buffered=kind == "buffered",
        num_times=SHAPE[0],
        **wal_options,
    )


def _make_ops(rng, kind, count):
    if kind == "extent":
        return _make_extent_ops(rng, count)
    return _make_point_ops(rng, kind == "buffered", count)


def _make_point_ops(rng, buffered, count):
    """A mixed workload whose every operation succeeds when applied live.

    Invariants maintained so the dense oracle stays exact: unbuffered
    in-order times never decrease, corrections target existing times at
    or above the retirement boundary, and every ``retire`` is preceded
    by a ``drain`` on buffered cubes so no buffered update can age out.
    """
    ops = []
    t_latest = -1
    boundary = 0

    def _cell():
        return int(rng.integers(0, 8)), int(rng.integers(0, 8))

    for _ in range(count):
        roll = float(rng.random())
        if roll < 0.45 or t_latest < boundary:
            t = int(rng.integers(max(boundary, t_latest, 0), SHAPE[0]))
            ops.append(("update", (t, *_cell()), int(rng.integers(-4, 9))))
            t_latest = max(t_latest, t)
        elif roll < 0.65:
            n = int(rng.integers(1, 6))
            low = boundary if buffered else t_latest
            times = np.sort(rng.integers(low, SHAPE[0], size=n))
            points = np.column_stack(
                (times, rng.integers(0, 8, size=n), rng.integers(0, 8, size=n))
            ).astype(np.int64)
            deltas = rng.integers(-4, 9, size=n).astype(np.int64)
            mode = "fast" if rng.random() < 0.7 else "metered"
            ops.append(("update_many", points, deltas, mode))
            t_latest = max(t_latest, int(times[-1]))
        elif roll < 0.85:
            if buffered:
                limit = None if rng.random() < 0.5 else int(rng.integers(1, 6))
                ops.append(("drain", limit))
            elif t_latest > boundary:  # corrections must be strictly historic
                t = int(rng.integers(boundary, t_latest))
                ops.append(("oob", (t, *_cell()), int(rng.integers(-4, 9))))
            else:
                t = int(rng.integers(t_latest, SHAPE[0]))
                ops.append(("update", (t, *_cell()), int(rng.integers(-4, 9))))
                t_latest = max(t_latest, t)
        else:
            new_boundary = int(rng.integers(boundary, t_latest + 1))
            if buffered:
                ops.append(("drain", None))
            ops.append(("retire", new_boundary))
            boundary = new_boundary
    return ops


def _make_extent_ops(rng, count):
    """A mixed extent workload whose every operation succeeds when applied.

    Invariants: ``advance`` never moves backwards, inserts (late ones
    included) never start before the retirement boundary, and every
    ``retire`` is preceded by a drain so no buffered start can age out.
    """
    ops = []
    clock = 0
    boundary = 0

    def _cell():
        return int(rng.integers(0, 4)), int(rng.integers(0, 4))

    for _ in range(count):
        roll = float(rng.random())
        if roll < 0.5:
            start = int(rng.integers(boundary, clock + 12))
            ops.append(
                (
                    "insert",
                    (start, start + int(rng.integers(0, 15))),
                    _cell(),
                    int(rng.integers(1, 6)),
                )
            )
            clock = max(clock, start)
        elif roll < 0.7:
            n = int(rng.integers(1, 6))
            starts = rng.integers(boundary, clock + 12, size=n)
            intervals = np.column_stack(
                (starts, starts + rng.integers(0, 15, size=n))
            ).astype(np.int64)
            cells = rng.integers(0, 4, size=(n, 2)).astype(np.int64)
            values = rng.integers(1, 6, size=n).astype(np.int64)
            mode = "fast" if rng.random() < 0.7 else "metered"
            ops.append(("insert_many", intervals, cells, values, mode))
            clock = max(clock, int(starts.max()))
        elif roll < 0.8:
            clock += int(rng.integers(0, 10))
            ops.append(("advance", clock))
        elif roll < 0.9:
            ops.append(("drain", None if rng.random() < 0.5 else int(rng.integers(1, 5))))
        else:
            ops.append(("drain", None))
            boundary = int(rng.integers(boundary, clock + 1))
            ops.append(("retire", boundary))
    return ops


def _apply_op(front, op):
    kind = op[0]
    if kind == "update":
        front.update(op[1], op[2])
    elif kind == "update_many":
        front.update_many(op[1], op[2], mode=op[3])
    elif kind == "oob":
        front.apply_out_of_order(op[1], op[2])
    elif kind == "insert":
        front.insert(op[1], op[2], op[3])
    elif kind == "insert_many":
        front.insert_many(op[1], op[2], op[3], mode=op[4])
    elif kind == "advance":
        front.advance(op[1])
    elif kind == "drain":
        front.drain(op[1])
    elif kind == "retire":
        front.retire_before(op[1])
    else:  # pragma: no cover - workload generator bug
        raise AssertionError(kind)


def _dense_effect(dense, op):
    kind = op[0]
    if kind in ("update", "oob"):
        dense[op[1]] += op[2]
    elif kind == "update_many":
        np.add.at(dense, tuple(op[1].T), op[2])


def _prefix_boxes(rng, boundary=0, count=15):
    """Random boxes anchored at time 0 (legal even after data aging).

    The upper time stays at or above the retirement ``boundary`` so the
    prefix query never lands on a retired instance.
    """
    boxes = []
    for _ in range(count):
        t_up = int(rng.integers(boundary, SHAPE[0]))
        upper = (t_up,) + tuple(int(rng.integers(0, n)) for n in SHAPE[1:])
        boxes.append(Box((0, 0, 0), upper))
    return boxes


def _retire_boundary(ops):
    return max((op[1] for op in ops if op[0] == "retire"), default=0)


def _assert_state_parity(recovered, replica, buffered):
    rec_front = recovered.front
    rec_kernel = recovered.cube
    ref_kernel = replica.cube if buffered else replica
    assert rec_kernel.num_slices == ref_kernel.num_slices
    assert rec_kernel.updates_applied == ref_kernel.updates_applied
    assert rec_kernel.occurring_times() == ref_kernel.occurring_times()
    assert rec_kernel.retired_instances == ref_kernel.retired_instances
    # bit-equivalence extends to lazy-copy progress, not just answers
    assert (
        rec_kernel.incomplete_historic_instances()
        == ref_kernel.incomplete_historic_instances()
    )
    if buffered:
        assert rec_front.buffered_updates == replica.buffered_updates
    assert rec_front.total() == replica.total()


def _assert_extent_bit_identical(recovered_front, replica, boundary=0):
    ours = recovered_front.state_arrays()
    theirs = replica.state_arrays()
    assert sorted(ours) == sorted(theirs)
    for key in ours:
        assert ours[key].tobytes() == theirs[key].tobytes(), key
    # intersection queries must stay at or after the retirement boundary
    queries = [
        TimeInterval(boundary, boundary + 200),
        TimeInterval(boundary + 5, boundary + 30),
        TimeInterval(boundary + 40, boundary + 41),
    ]
    boxes = [None, Box((1, 0), (3, 3)), None]
    assert recovered_front.intersecting_many(queries, boxes) == (
        replica.intersecting_many(queries, boxes)
    )
    # containment is index-based: exact even below the boundary
    containment = [TimeInterval(0, 500)] + queries
    assert recovered_front.containment_many(containment) == (
        replica.containment_many(containment)
    )


def _assert_parity(kind, recovered, replica, ops, rng):
    """``recovered`` equals a live ``replica`` that applied ``ops``."""
    boundary = _retire_boundary(ops)
    if kind == "extent":
        _assert_extent_bit_identical(recovered.front, replica, boundary)
        return
    _assert_state_parity(recovered, replica, kind == "buffered")
    dense = np.zeros(SHAPE, dtype=np.int64)
    for op in ops:
        _dense_effect(dense, op)
    for box in _prefix_boxes(rng, boundary):
        expected = int(
            dense[: box.upper[0] + 1, : box.upper[1] + 1, : box.upper[2] + 1].sum()
        )
        assert recovered.query(box) == expected
        assert replica.query(box) == expected


_SEEDS = {"unbuffered": 100, "buffered": 101, "extent": 31}


def check_crash_offsets(tmp_path, kind):
    rng = np.random.default_rng(_SEEDS[kind])
    ops = _make_ops(rng, kind, count=40 if kind == "extent" else 45)
    origin = tmp_path / "origin"
    cube = _create(kind, origin, fsync="off", segment_bytes=2048)
    config = dict(cube._config)
    for op in ops:
        _apply_op(cube, op)
    cube.close()

    wal_dir = origin / WAL_SUBDIR
    tail = sorted(wal_dir.glob("wal-*.log"))[-1]
    tail_size = tail.stat().st_size
    # crash points: clean close, mid-record cuts, and the bare header
    cuts = [tail_size] + [
        _HEADER.size + int(rng.integers(0, tail_size - _HEADER.size + 1))
        for _ in range(4)
    ]
    for case, cut in enumerate(cuts):
        crash_dir = tmp_path / f"crash-{case}"
        shutil.copytree(origin, crash_dir)
        with open(crash_dir / WAL_SUBDIR / tail.name, "r+b") as handle:
            handle.truncate(cut)
        survivors = inspect_log(crash_dir / WAL_SUBDIR)["records"]
        recovered = DurableCube.recover(crash_dir)
        assert recovered.recovery_info["replayed_records"] == survivors
        assert recovered.recovery_info["skipped_records"] == 0

        replica = build_front(config, counter=None)
        applied = ops[:survivors]
        for op in applied:
            _apply_op(replica, op)
        _assert_parity(kind, recovered, replica, applied, rng)
        # the survivor keeps logging: one more op, one more recovery
        applied = applied + [
            ("insert", (200, 210), (0, 0), 3)
            if kind == "extent"
            else ("update", (SHAPE[0] - 1, 0, 0), 7)
        ]
        _apply_op(recovered, applied[-1])
        _apply_op(replica, applied[-1])
        recovered.close()
        reopened = DurableCube.recover(crash_dir)
        _assert_parity(kind, reopened, replica, applied, rng)
        reopened.close()


def check_checkpoint_then_tail(tmp_path, kind):
    rng = np.random.default_rng(63 if kind == "extent" else 77)
    ops = _make_ops(rng, kind, count=30)
    cube = _create(kind, tmp_path, fsync="off")
    for op in ops[:20]:
        _apply_op(cube, op)
    assert cube.checkpoint().checkpoint_id == 1
    for op in ops[20:]:
        _apply_op(cube, op)
    cube.close()

    recovered = DurableCube.recover(tmp_path)
    assert recovered.recovery_info["checkpoint_id"] == 1
    # only the tail is replayed
    assert recovered.recovery_info["replayed_records"] == len(ops) - 20
    replica = build_front(dict(cube._config), counter=None)
    for op in ops:
        _apply_op(replica, op)
    _assert_parity(kind, recovered, replica, ops, rng)
    recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("buffered", [True, False])
def test_crash_at_random_offsets_recovers_surviving_prefix(
    tmp_path, backend, buffered
):
    check_crash_offsets(tmp_path, "buffered" if buffered else "unbuffered")


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_after_checkpoint_replays_only_the_tail(tmp_path, backend):
    check_checkpoint_then_tail(tmp_path, "buffered")


class TestRetireResurrection:
    """Satellite: replay must never resurrect since-retired slices."""

    def test_logged_aged_out_correction_is_skipped_on_replay(self, tmp_path):
        cube = DurableCube(
            SHAPE[1:], tmp_path, buffered=False, num_times=SHAPE[0], fsync="off"
        )
        dense = np.zeros(SHAPE, dtype=np.int64)
        for t in range(10):
            cube.update((t, 1, 1), t + 1)
            dense[t, 1, 1] += t + 1
        retired = cube.retire_before(6)
        assert retired > 0
        # the correction is logged before it raises: the log now holds a
        # record whose application failed in the original timeline
        with pytest.raises(AgedOutError):
            cube.apply_out_of_order((2, 1, 1), 100)
        # a batch stopping at its first aged-out correction: the newer
        # correction (time 8) lands, the older one (time 2) does not
        with pytest.raises(AgedOutError):
            cube.apply_out_of_order_many(
                np.array([[2, 3, 3], [8, 3, 3]], dtype=np.int64),
                np.array([50, 9], dtype=np.int64),
            )
        dense[8, 3, 3] += 9
        retired_instances = cube.cube.retired_instances
        num_slices = cube.cube.num_slices
        cube.close()

        recovered = DurableCube.recover(tmp_path)
        assert recovered.recovery_info["skipped_records"] == 2
        assert recovered.cube.retired_instances == retired_instances
        assert recovered.cube.num_slices == num_slices
        assert recovered.total() == int(dense.sum())
        # the retired region is still retired: detail queries refuse
        with pytest.raises(AgedOutError):
            recovered.query(Box((2, 0, 0), (9, 7, 7)))
        # and the open prefix still answers over all of history
        assert recovered.query(Box((0, 0, 0), (23, 7, 7))) == int(dense.sum())
        recovered.close()

    def test_retire_then_crash_preserves_boundary(self, tmp_path):
        cube = DurableCube(
            SHAPE[1:], tmp_path, buffered=False, num_times=SHAPE[0], fsync="off"
        )
        for t in range(12):
            cube.update((t, 0, 0), 5)
        cube.retire_before(8)
        cube.close()
        recovered = DurableCube.recover(tmp_path)
        with pytest.raises(AgedOutError):
            recovered.query(Box((7, 0, 0), (11, 7, 7)))
        assert recovered.total() == 60
        recovered.close()


class DurableCubeMachine(RuleBasedStateMachine):
    """Interleave mutations, checkpoints and recover cycles vs an oracle."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="durable-machine-")
        self.cube = DurableCube(
            SHAPE[1:], self.root, num_times=SHAPE[0], fsync="off"
        )
        self.dense = np.zeros(SHAPE, dtype=np.int64)

    def teardown(self):
        self.cube.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(
        t=st.integers(0, SHAPE[0] - 1),
        x=st.integers(0, 7),
        y=st.integers(0, 7),
        delta=st.integers(-4, 8),
    )
    def update(self, t, x, y, delta):
        self.cube.update((t, x, y), delta)
        self.dense[t, x, y] += delta

    @rule(data=st.data())
    def update_many(self, data):
        n = data.draw(st.integers(1, 6))
        points = np.column_stack(
            [
                data.draw(
                    st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
                )
                for k in SHAPE
            ]
        ).astype(np.int64)
        deltas = np.asarray(
            data.draw(st.lists(st.integers(-4, 8), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        self.cube.update_many(points, deltas)
        np.add.at(self.dense, tuple(points.T), deltas)

    @precondition(lambda self: self.cube.front.buffered_updates > 0)
    @rule(limit=st.one_of(st.none(), st.integers(1, 4)))
    def drain(self, limit):
        self.cube.drain(limit)

    @rule()
    def checkpoint(self):
        self.cube.checkpoint()

    @rule()
    def crash_and_recover(self):
        self.cube.close()
        self.cube = DurableCube.recover(self.root)

    @rule(data=st.data())
    def query_matches_oracle(self, data):
        lower = tuple(data.draw(st.integers(0, k - 1)) for k in SHAPE)
        upper = tuple(
            data.draw(st.integers(low, k - 1))
            for low, k in zip(lower, SHAPE)
        )
        expected = int(
            self.dense[
                lower[0] : upper[0] + 1,
                lower[1] : upper[1] + 1,
                lower[2] : upper[2] + 1,
            ].sum()
        )
        assert self.cube.query(Box(lower, upper)) == expected
        assert self.cube.total() == int(self.dense.sum())


TestDurableCubeMachine = DurableCubeMachine.TestCase
TestDurableCubeMachine.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
