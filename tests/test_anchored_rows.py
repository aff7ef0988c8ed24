"""Anchored published rows against all-plain rows, answer for answer.

A published historic row is stored as an offset from the newest anchor
row below it where that offset is narrower than the row's values, else
plain (``DenseStore.make_row``).  The differential runs the same draws
through two copies of a front -- one as it is, one with the store's
anchor choice patched so that every row is stored plain -- and checks
that every ``query_many``, ``total``, top-k and approximate answer is
bit-identical, that both sides write checkpoint archives whose members
are byte-identical, and that the anchored side's rows are laid out by
the rule (``conftest.assert_row_layout``).  The fronts: a snapshot front
(with a checkpoint round trip through ``state_arrays``), the durable
front (checkpointed and reopened from its log), the tiered front, and
the sharded front, with its shards in this process and in worker
processes (which fork with the patch in place).  The draws include late
data and drains, never-occurring times (splices), single corrections,
retirement, demotion and deltas near +-2^62 whose sums wrap.
"""

from __future__ import annotations

import tempfile
import zipfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotCube
from repro.core.errors import AgedOutError, ReproError
from repro.core.front import layers
from repro.core.types import Box
from repro.durability.checkpoint import snapshot_arrays
from repro.durability.recovery import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.stores import DenseStore, OffsetRow, row_dtype
from repro.ranking import TopKEngine
from repro.retention import TieredCube
from repro.sharding import ShardedCube

from .conftest import assert_row_layout, fleet_leaks, fleet_owners

SHAPE = (4, 3)
TIERS = [{"name": "coarse", "granularity": 2, "horizon": None}]
HORIZON = 14
BIG = 2**62


@contextmanager
def _plain_rows():
    """Inside, the store's anchor choice never picks an offset: every
    published row is stored plain."""
    saved = DenseStore.make_row
    DenseStore.make_row = lambda self, values, anchor, offset=None: saved(
        self, values, None
    )
    try:
        yield
    finally:
        DenseStore.make_row = saved


def _archive_members(path: Path) -> list[tuple[str, bytes]]:
    """A checkpoint archive's members and their bytes (the zip headers
    carry the time they were written)."""
    with zipfile.ZipFile(path) as archive:
        return [(info.filename, archive.read(info)) for info in archive.infolist()]


class _Front:
    """One copy of a front of ``kind``, built and driven in ``context``."""

    def __init__(self, kind: str, root: Path, context) -> None:
        self.kind, self.root, self.context = kind, root, context
        with context():
            if kind == "snapshot":
                self.cube = SnapshotCube(BufferedEvolvingDataCube(SHAPE))
            elif kind == "durable":
                self.cube = DurableCube(SHAPE, root / "cube", fsync="off").serve()
            elif kind == "tiered":
                tiered = TieredCube(BufferedEvolvingDataCube(SHAPE), TIERS, root)
                self.cube = SnapshotCube(tiered)
            else:
                self.cube = ShardedCube(
                    SHAPE,
                    shards=2,
                    processes=kind == "processes",
                    durable_dir=root / "fleet",
                    fsync="off",
                    tiers=TIERS,
                    tile_root=root / "tiles",
                    timeout=120.0,
                )
        self.owners = fleet_owners(self.cube) if self.sharded else set()

    @property
    def sharded(self) -> bool:
        return self.kind in ("inline", "processes")

    def snaps(self) -> list:
        """The snapshot fronts whose rows are inspectable here."""
        if self.kind == "processes":
            return []
        if self.sharded:
            return [handle.state.snap for handle in self.cube.router.handles]
        return [self.cube]

    def apply(self, op, latest: int):
        with self.context():
            return self._apply(op, latest)

    def _apply(self, op, latest: int):
        cube, name = self.cube, op[0]
        if name == "append":
            return cube.update((latest, *op[2]), op[3])
        if name == "late":
            return cube.update((op[1], *op[2]), op[3])
        if name == "drain":
            return cube.drain(op[1])
        if name == "correct":  # one correction landed alone
            if self.kind in ("snapshot", "tiered"):  # at the kernel, past G_d
                return cube.kernel.apply_out_of_order((op[1], *op[2]), op[3])
            # a logged front refuses that over G_d: buffered, then drained
            cube.update((op[1], *op[2]), op[3])
            return cube.drain()
        if name == "retire":
            if self.kind == "tiered" or self.sharded:
                return cube.demote_before(op[1])
            return cube.retire_before(op[1])
        if name == "checkpoint":
            return self.checkpoint()
        return self.reopen()

    def checkpoint(self):
        """Checkpoint; the members of each archive it wrote, in order."""
        if self.kind == "durable":
            self.cube.checkpoint()
            archives = [max((self.root / "cube").glob("checkpoint-*.npz"))]
        elif self.sharded:
            self.cube.checkpoint()
            archives = [
                max(shard.glob("checkpoint-*.npz"))
                for shard in sorted((self.root / "fleet").glob("shard-*"))
            ]
        else:  # the arrays as they stand -> a fresh front restored from them
            arrays = snapshot_arrays(self.cube.target)
            self.cube.close()
            fresh = BufferedEvolvingDataCube(SHAPE)
            if self.kind == "tiered":
                fresh = TieredCube(fresh, TIERS, self.root)
            for layer in reversed(layers(fresh).values()):
                layer.restore_state(arrays)
            self.cube = SnapshotCube(fresh)
            return [
                (key, array.dtype.str, array.tobytes())
                for key, array in sorted(arrays.items())
            ]
        return [_archive_members(path) for path in archives]

    def reopen(self) -> None:
        if self.kind == "durable":
            self.cube.close()
            self.cube.target.close()
            self.cube = DurableCube.recover(self.root / "cube").serve()
        elif self.sharded:
            self.cube.close()
            self.cube = ShardedCube.recover(
                self.root / "fleet", processes=self.kind == "processes", timeout=120.0
            )
            self.owners |= fleet_owners(self.cube)

    # -- reads ---------------------------------------------------------------------

    def answers(self, latest: int) -> list:
        """Every answer the front gives over ``[0, latest]``, or the error."""
        full = tuple(n - 1 for n in SHAPE)
        boxes = [
            Box((low, 0, 0), (up, *full))
            for up in range(latest + 2)
            for low in range(up + 1)
        ] + [Box((low, 1, 1), (latest, 2, 1)) for low in range(latest + 1)]
        windows = [(t1, latest, 3) for t1 in range(latest + 1)]
        with self.context():
            return [
                _each(self.cube.query_many, boxes),
                _each(self._approx, boxes),
                _each(self._topk, windows),
                _outcome(self.cube.total),
            ]

    def _approx(self, boxes: list[Box]) -> list:
        if self.sharded:
            return self.cube.query_many_approx(boxes)
        if self.kind == "tiered":
            return self.cube.stack["tiered"].query_many_approx(boxes)
        return []

    def _topk(self, windows: list[tuple]) -> list:
        if self.sharded:
            return self.cube.topk_many(windows, nonnegative=False)
        return TopKEngine(self.cube, nonnegative=False).topk_many(windows)

    def close(self) -> None:
        with self.context():
            self.cube.close()
            if self.kind == "durable":
                self.cube.target.close()


def _outcome(call):
    try:
        return call()
    except ReproError as exc:  # both sides must refuse alike
        return type(exc).__name__


def _each(read, items: list) -> list:
    """``read(items)``, or item by item where the batch is refused (a box
    into retired history)."""
    try:
        return read(items)
    except AgedOutError:
        return [_outcome(lambda: read([item])) for item in items]


def _assert_laid_out(front: _Front, anchored: bool) -> int:
    """The front's rows follow the anchor rule, or on the patched side are
    all plain, each at its values' width; returns how many are offset rows."""
    offsets = 0
    for snap in front.snaps():
        rows = snap._rows
        if anchored:
            assert_row_layout(rows, snap.kernel.retired_instances)
            offsets += sum(isinstance(row, OffsetRow) for row in rows.values())
        else:
            assert all(row.dtype == row_dtype(row) for row in rows.values())
    return offsets


_DELTAS = st.one_of(
    st.integers(-3, 9),
    st.integers(-3000, 3000),
    st.integers(-(2**24), 2**24),
    st.sampled_from([BIG, -BIG, BIG - 1, 1 - BIG]),
)
_CELLS = st.tuples(st.integers(0, SHAPE[0] - 1), st.integers(0, SHAPE[1] - 1))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 3), _CELLS, _DELTAS),
        st.tuples(st.just("append"), st.integers(1, 3), _CELLS, _DELTAS),
        st.tuples(st.just("late"), st.integers(0, HORIZON), _CELLS, _DELTAS),
        st.tuples(st.just("late"), st.integers(0, HORIZON), _CELLS, _DELTAS),
        st.tuples(st.just("correct"), st.integers(0, HORIZON), _CELLS, _DELTAS),
        st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(1, 3))),
        st.tuples(st.just("retire"), st.integers(0, HORIZON)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("reopen")),
    ),
    min_size=4,
    max_size=24,
)

#: rows wide enough that offsets are narrower, a drain that splices and
#: reaches an anchor and its offsets, a single correction, a demotion
#: and a checkpoint round trip
_ANCHORED = (
    [("append", 1, (0, 0), 10**6)]
    + [("append", 1, (t % 4, t % 3), 700 * t) for t in range(1, 8)]
    + [("late", 3, (1, 1), 5), ("late", 6, (0, 2), -9), ("late", 4, (3, 0), 300)]
    + [("drain", None), ("correct", 5, (2, 2), 40), ("checkpoint",)]
    + [("retire", 6), ("append", 1, (0, 0), 1), ("reopen",)]
)
#: sums that wrap
_WRAPPING = (
    [("append", 1, (0, 0), BIG), ("append", 2, (3, 2), BIG), ("append", 1, (1, 1), 9)]
    + [("late", 1, (1, 1), BIG), ("late", 2, (0, 0), -BIG), ("drain", 1)]
    + [("correct", 3, (2, 1), BIG), ("checkpoint",), ("drain", None)]
)


def _run(kind: str, ops) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        anchored = _Front(kind, root / "anchored", nullcontext)
        plain = _Front(kind, root / "plain", _plain_rows)
        latest = 0
        try:
            for op in ops:
                if op[0] == "append":
                    latest += op[1]
                elif op[0] in ("late", "correct"):
                    latest = max(latest, op[1])
                got = _outcome(lambda: anchored.apply(op, latest))
                want = _outcome(lambda: plain.apply(op, latest))
                assert got == want, op
                if _assert_laid_out(anchored, True):
                    event("offset rows")
                _assert_laid_out(plain, False)
                assert anchored.answers(latest) == plain.answers(latest), op
        finally:
            anchored.close()
            plain.close()
        assert not fleet_leaks(anchored.owners | plain.owners)


@pytest.mark.parametrize("kind", ["snapshot", "durable", "tiered", "inline"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
@example(ops=_ANCHORED)
@example(ops=_WRAPPING)
def test_anchored_rows_answer_as_plain_rows(kind, ops):
    _run(kind, ops)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
@example(ops=_ANCHORED)
def test_anchored_rows_answer_as_plain_rows_in_worker_processes(ops):
    _run("processes", ops)


def test_a_drain_gives_a_new_array_only_to_rows_whose_offsets_move():
    """A correction at or below an anchor moves every row above it by the
    same sums: the anchor takes a new array, its offset rows keep theirs."""
    snap = SnapshotCube(BufferedEvolvingDataCube(SHAPE))
    snap.update((1, 0, 0), 10**6)  # int32 rows from here up ...
    for time in range(2, 12):  # ... each a few units above the one below
        snap.update((time, time % 4, time % 3), time)
    rows = dict(snap._rows)
    assert not isinstance(rows[0], OffsetRow)
    assert all(rows[index].anchor is rows[0] for index in range(1, len(rows)))
    snap.update((1, 2, 2), 3)  # late: into G_d, then landed at the anchor
    snap.drain()
    after = snap._rows
    assert after[0] is not rows[0]
    for index in range(1, len(rows)):
        assert after[index].anchor is after[0]
        assert after[index].offset is rows[index].offset
    assert_row_layout(after, 0)
