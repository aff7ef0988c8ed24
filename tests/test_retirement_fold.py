"""Retirement never drops a ``G_d`` correction that an answer still counts.

``retire_before`` lands the buffered corrections below its threshold
through the drain's landing step while their times can still be spliced
in, and folds what the retired region froze into the boundary instance
(``BufferedEvolvingDataCube.prune_retired``).  The fixed cases are the
one that read 7 and then, silently, 2 when retirement dropped the
corrections, driven through the buffered, durable (reopened), snapshot
and sharded fronts.  The differential draws appends, late updates,
bounded drains and retirements over the same four fronts and checks
every answer against a brute-force sum: a read answers exactly, or
raises :class:`~repro.core.errors.AgedOutError` only where one of its
prefixes floors in the region the stream's own times retire.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotCube
from repro.core.errors import AgedOutError
from repro.core.types import Box
from repro.durability.recovery import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.sharding import ShardedCube

WIDE = Box((0, 0), (20, 3))


def _seven(front) -> None:
    """Updates at 10, 13 and 40 and a late +5 at 2, then ``retire_before(30)``."""
    for t in (10, 13, 40):
        front.update((t, 1), 1)
    front.update((2, 1), 5)
    assert front.query_many([WIDE]) == [7]
    front.retire_before(30)


class TestTheSevenThatReadTwo:
    def test_buffered(self):
        cube = BufferedEvolvingDataCube((4,))
        _seven(cube)
        assert cube.query(WIDE) == 7
        assert cube.query_many([WIDE], mode="fast") == [7]
        assert cube.query_many([WIDE], mode="metered") == [7]
        # the late time is spliced in before the retire, so a prefix
        # between it and the old first instance is refused, not read as 0
        with pytest.raises(AgedOutError):
            cube.query(Box((0, 0), (5, 3)))

    def test_durable_reopen(self, tmp_path):
        with DurableCube((4,), tmp_path / "d", fsync="off") as cube:
            _seven(cube)
            assert cube.query_many([WIDE]) == [7]
        # the replayed ``retire`` record lands the correction again
        with DurableCube.recover(tmp_path / "d") as cube:
            assert cube.query_many([WIDE]) == [7]
            assert cube.query(WIDE) == 7

    def test_snapshot_retire_is_one_epoch(self):
        snap = SnapshotCube(BufferedEvolvingDataCube((4,)))
        for t in (10, 13, 40):
            snap.update((t, 1), 1)
        snap.update((2, 1), 5)
        before = snap.pin()
        sequence = snap.current_sequence()
        snap.retire_before(30)
        # one published epoch: no view sees the correction gone from G_d
        # and not yet in the kernel
        assert snap.current_sequence() == sequence + 1
        assert snap.query_many([WIDE]) == [7]
        with snap.pin() as after:
            assert after.query_many([WIDE]) == [7]
        assert before.query_many([WIDE]) == [7]
        before.release()

    def test_sharded_shards_with_different_boundaries(self):
        with ShardedCube((4,), shards=2, processes=False) as cube:
            # shard 0 (cells 0-1) sees 10, 13, 40; shard 1 (cells 2-3) 11, 12, 41
            for t, cell in ((10, 1), (11, 3), (12, 3), (13, 1), (40, 1), (41, 3)):
                cube.update((t, cell), 1)
            cube.update((2, 1), 5)
            cube.update((3, 3), 7)
            assert cube.query_many([WIDE]) == [16]
            cube.retire_before(30)
            boundaries = [
                h.state.kernel.occurring_times()[h.state.kernel.retired_instances]
                for h in cube.router.handles
            ]
            assert boundaries == [13, 12]
            assert cube.query_many([WIDE]) == [16]
            assert cube.query_many([Box((14, 0), (41, 3))]) == [2]


def test_sharded_one_time_below_the_threshold_is_no_boundary():
    """With one occurring time below the threshold nothing retires, on the
    unsharded front and so on the router: a time spliced in below it
    later stays readable."""
    box = Box((0, 0, 0), (0, 3, 1))
    with ShardedCube((4, 2), shards=2, processes=False) as cube:
        plain = BufferedEvolvingDataCube((4, 2))
        for front in (cube, plain):
            front.update((1, 0, 0), 1)
            front.retire_before(2)
            front.update((0, 0, 0), 2)
            front.drain()
        assert cube.router.boundary_time is None
        assert cube.query_many([box]) == plain.query_many([box]) == [2]


class TestFrozenCorrectionsFold:
    """A late update into an already retired region cannot land at its
    own time; the next retirement folds it into the boundary instance."""

    def _cube(self):
        cube = BufferedEvolvingDataCube((4,))
        for t in (10, 13, 20, 40):
            cube.update((t, 1), 1)
        cube.retire_before(15)  # boundary 13, 10 retired
        cube.update((11, 2), 5)  # frozen: floors in the retired region
        cube.update((3, 3), 7)  # before the first instance
        assert cube.drain() == (0, 2)
        return cube

    def test_fold_keeps_every_answer(self):
        cube = self._cube()
        boxes = [Box((0, 0), (40, 3)), Box((0, 0), (5, 3)), Box((21, 0), (40, 3))]
        assert cube.query_many(boxes) == [16, 7, 1]
        cube.retire_before(30)  # boundary 20
        assert cube.buffer.entries() == [((3, 3), 7)]
        for mode in ("fast", "metered"):
            assert cube.query_many(boxes, mode=mode) == [16, 7, 1]
        with pytest.raises(AgedOutError):
            cube.query(Box((0, 0), (15, 3)))

    def test_prune_retired_folds_without_a_new_boundary(self):
        cube = self._cube()
        assert cube.prune_retired() == 1  # the entry at 11, into 13
        assert cube.buffer.entries() == [((3, 3), 7)]
        assert cube.query_many([Box((0, 0), (40, 3)), Box((14, 2), (40, 2))]) == [
            16,
            0,
        ]


# -- the differential -----------------------------------------------------------

SHAPE = (4, 2)
HORIZON = 16


class _Oracle:
    """Every update ever made, and the retired region its times draw."""

    def __init__(self) -> None:
        self.points: list[tuple[int, int, int]] = []
        self.deltas: list[int] = []
        self.boundary: int | None = None

    def update(self, point, delta) -> None:
        self.points.append(tuple(point))
        self.deltas.append(int(delta))

    def retire_before(self, time: int) -> None:
        below = sorted({p[0] for p in self.points if p[0] < time})
        if len(below) >= 2 and (self.boundary is None or below[-1] > self.boundary):
            self.boundary = below[-1]

    def retired(self, prefix: int) -> bool:
        if self.boundary is None:
            return False
        first = min(p[0] for p in self.points)
        return first <= prefix < self.boundary

    def answer(self, box: Box) -> int:
        if not self.points:
            return 0
        points = np.asarray(self.points, dtype=np.int64)
        inside = (points >= box.lower).all(axis=1) & (points <= box.upper).all(axis=1)
        return int(np.asarray(self.deltas, dtype=np.int64)[inside].sum())


class _Front:
    """One of the four fronts, behind the calls the differential makes."""

    def __init__(self, kind: str, directory: str) -> None:
        self.kind, self.directory = kind, directory
        if kind == "buffered":
            self.cube = BufferedEvolvingDataCube(SHAPE)
        elif kind == "durable":
            self.cube = DurableCube(SHAPE, directory, fsync="off")
        elif kind == "snapshot":
            self.cube = SnapshotCube(BufferedEvolvingDataCube(SHAPE))
        else:
            self.cube = ShardedCube(SHAPE, shards=2, processes=False)

    def reopen(self) -> None:
        if self.kind == "durable":
            self.cube.close()
            self.cube = DurableCube.recover(self.directory)

    def reads(self) -> list:
        """Each way this front reads a batch (they must all agree)."""
        reads = [self.cube.query_many]
        if self.kind == "buffered":
            reads.append(lambda boxes: self.cube.query_many(boxes, mode="metered"))
        elif self.kind == "snapshot":
            reads.append(self._pinned)
        return reads

    def _pinned(self, boxes):
        with self.cube.pin() as view:
            return view.query_many(boxes)

    def close(self) -> None:
        if self.kind in ("durable", "sharded"):
            self.cube.close()


_TIMES = st.integers(0, HORIZON)
_CELLS = st.tuples(st.integers(0, SHAPE[0] - 1), st.integers(0, SHAPE[1] - 1))
_APPEND = st.tuples(st.just("append"), st.integers(0, 3), _CELLS, st.integers(-3, 9))
_LATE = st.tuples(st.just("late"), _TIMES, _CELLS, st.integers(-3, 9))
_RETIRE = st.tuples(st.just("retire"), _TIMES)
_READ = st.tuples(st.just("read"), _TIMES, _TIMES, _CELLS, _CELLS)
_OPS = st.lists(
    st.one_of(
        _APPEND,
        _APPEND,
        _LATE,
        _LATE,
        st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(1, 3))),
        _RETIRE,
        _RETIRE,
        st.tuples(st.just("reopen")),
        _READ,
        _READ,
        _READ,
    ),
    min_size=4,
    max_size=40,
)


def _box(t1, t2, c1, c2) -> Box:
    lower = (min(t1, t2), min(c1[0], c2[0]), min(c1[1], c2[1]))
    upper = (max(t1, t2), max(c1[0], c2[0]), max(c1[1], c2[1]))
    return Box(lower, upper)


def _outcome(read, box: Box):
    try:
        return read([box])[0]
    except AgedOutError:
        return "aged out"


def _check(front: _Front, oracle: _Oracle, boxes: list[Box]) -> None:
    for box in boxes:
        outcomes = {_outcome(read, box) for read in front.reads()}
        assert len(outcomes) == 1, (box, outcomes)
        (outcome,) = outcomes
        retired = any(
            oracle.retired(prefix) for prefix in (box.lower[0] - 1, box.upper[0])
        )
        if outcome == "aged out":
            event("refused")
            assert retired, (box, oracle.boundary)
        else:
            if retired:
                event("answered a prefix the stream's times retire")
            assert outcome == oracle.answer(box), (box, outcome)


@pytest.mark.parametrize("kind", ["buffered", "durable", "snapshot", "sharded"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS)
# the 7 -> 2 case, and one time below the threshold spliced under later
@example(
    ops=[("late", t, (1, 0), 1) for t in (10, 13, 16)]
    + [("late", 2, (1, 0), 5), ("retire", 15)]
)
@example(
    ops=[("late", 1, (0, 0), 1), ("retire", 2), ("late", 0, (0, 0), 2), ("drain", None)]
)
def test_retirement_differential(kind, ops):
    with tempfile.TemporaryDirectory() as scratch:
        front, oracle, latest = _Front(kind, scratch + "/cube"), _Oracle(), 0
        try:
            for op in ops:
                if op[0] == "append":
                    latest += op[1]
                    point = (latest, *op[2])
                    front.cube.update(point, op[3])
                    oracle.update(point, op[3])
                elif op[0] == "late":
                    point = (op[1], *op[2])
                    latest = max(latest, op[1])
                    front.cube.update(point, op[3])
                    oracle.update(point, op[3])
                elif op[0] == "drain":
                    front.cube.drain(op[1])
                elif op[0] == "retire":
                    front.cube.retire_before(op[1])
                    oracle.retire_before(op[1])
                elif op[0] == "reopen":
                    front.reopen()
                else:
                    _check(front, oracle, [_box(*op[1:])])
            # every window over the whole cell domain, then again reopened
            windows = [
                Box((low, 0, 0), (up, SHAPE[0] - 1, SHAPE[1] - 1))
                for up in range(latest + 2)
                for low in range(up + 1)
            ]
            _check(front, oracle, windows)
            front.reopen()
            _check(front, oracle, windows[-latest - 2 :])
        finally:
            front.close()
