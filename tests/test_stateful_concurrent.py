"""Linearizability-style stateful test of snapshot-isolated serving.

Hypothesis interleaves the full concurrent-serving action set --
pinning views, querying pinned and live state, in-order and historic
updates, buffer drains and durable checkpoints -- against one
``DurableCube`` served through a :class:`SnapshotCube`.  The check is
the snapshot-isolation contract itself: every query against a pinned
view must equal the sequential replay of the write prefix that existed
when the view was pinned (held as a dense array copy), no matter what
the writer did afterwards; live queries must see every write.  What
buys that without a lock is checked after every step too: every
historic instance is its published, read-only row, and nothing the
current epoch cites is writable.

The machine is single-threaded -- it explores the *logical*
interleavings (which epoch a reader holds vs. where the writer is),
which is where snapshot bugs live; the scheduling-level races are the
stress suite's job (``test_concurrent_snapshot.py``).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.types import Box
from repro.durability.recovery import DurableCube

from .conftest import assert_history_published

SHAPE = (5, 5)
NUM_TIMES = 20
MAX_PINNED = 4


class ConcurrentServingMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.dir = Path(tempfile.mkdtemp(prefix="repro-stateful-"))
        self.durable = DurableCube(
            SHAPE,
            self.dir / "cube",
            buffered=True,
            fsync="off",
            num_times=NUM_TIMES,
        )
        self.snap = self.durable.serve()
        self.dense = np.zeros((NUM_TIMES,) + SHAPE, dtype=np.int64)
        self.latest = 0
        #: pinned views with the dense prefix they must keep answering
        self.views: list[tuple[object, np.ndarray]] = []

    # -- writes (one logical writer) ----------------------------------------

    @rule(
        advance=st.integers(0, 2),
        x=st.integers(0, SHAPE[0] - 1),
        y=st.integers(0, SHAPE[1] - 1),
        delta=st.integers(-5, 9),
    )
    def update(self, advance, x, y, delta):
        t = min(NUM_TIMES - 1, self.latest + advance)
        self.latest = max(self.latest, t)
        self.snap.update((t, x, y), delta)
        self.dense[t, x, y] += delta

    @rule(data=st.data(), count=st.integers(1, 6))
    def update_batch(self, data, count):
        points = []
        for _ in range(count):
            t = data.draw(st.integers(0, min(NUM_TIMES - 1, self.latest + 2)))
            points.append(
                (
                    t,
                    data.draw(st.integers(0, SHAPE[0] - 1)),
                    data.draw(st.integers(0, SHAPE[1] - 1)),
                )
            )
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(
            [data.draw(st.integers(-4, 8)) for _ in range(count)],
            dtype=np.int64,
        )
        self.snap.update_many(points, deltas)
        np.add.at(self.dense, tuple(points.T), deltas)
        self.latest = max(self.latest, int(points[:, 0].max()))

    @precondition(lambda self: self.latest > 0)
    @rule(
        back=st.integers(1, NUM_TIMES),
        x=st.integers(0, SHAPE[0] - 1),
        y=st.integers(0, SHAPE[1] - 1),
        delta=st.integers(-5, 9),
    )
    def correct_historic(self, back, x, y, delta):
        t = max(0, self.latest - back)
        self.snap.update((t, x, y), delta)
        self.dense[t, x, y] += delta

    @rule(limit=st.one_of(st.none(), st.integers(1, 4)))
    def drain(self, limit):
        self.snap.drain(limit)

    @rule()
    def checkpoint(self):
        manifest = self.snap.checkpoint()
        assert manifest.covered_epoch == self.snap.current_sequence()

    # -- readers ------------------------------------------------------------

    @rule()
    def pin(self):
        if len(self.views) >= MAX_PINNED:
            view, _ = self.views.pop(0)
            view.release()
        self.views.append((self.snap.pin(), self.dense.copy()))

    @precondition(lambda self: self.views)
    @rule(data=st.data())
    def query_pinned(self, data):
        index = data.draw(st.integers(0, len(self.views) - 1))
        view, frozen = self.views[index]
        box = self._draw_box(data)
        expected = int(
            frozen[
                box.lower[0] : box.upper[0] + 1,
                box.lower[1] : box.upper[1] + 1,
                box.lower[2] : box.upper[2] + 1,
            ].sum()
        )
        assert view.query(box) == expected
        assert view.query_many([box, box]) == [expected, expected]

    @precondition(lambda self: self.views)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(0, len(self.views) - 1))
        view, _ = self.views.pop(index)
        view.release()

    @rule(data=st.data())
    def query_live(self, data):
        box = self._draw_box(data)
        expected = int(
            self.dense[
                box.lower[0] : box.upper[0] + 1,
                box.lower[1] : box.upper[1] + 1,
                box.lower[2] : box.upper[2] + 1,
            ].sum()
        )
        assert self.snap.query(box) == expected

    def _draw_box(self, data) -> Box:
        lower, upper = [], []
        for n in (NUM_TIMES,) + SHAPE:
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(a, n - 1))
            lower.append(a)
            upper.append(b)
        return Box(tuple(lower), tuple(upper))

    # -- invariants ---------------------------------------------------------

    @invariant()
    def live_total_matches(self):
        if not hasattr(self, "snap"):
            return
        assert self.snap.total() == int(self.dense.sum())

    @invariant()
    def history_is_published_rows(self):
        if hasattr(self, "snap"):
            assert_history_published(self.snap)

    @invariant()
    def pinned_views_unchanged_by_later_writes(self):
        if not hasattr(self, "snap"):
            return
        full = Box((0, 0, 0), (NUM_TIMES - 1, SHAPE[0] - 1, SHAPE[1] - 1))
        for view, frozen in self.views:
            assert view.query(full) == int(frozen.sum())

    def teardown(self):
        if hasattr(self, "snap"):
            for view, _ in self.views:
                view.release()
            self.snap.close()
            self.durable.close()
            shutil.rmtree(self.dir, ignore_errors=True)


TestConcurrentServingMachine = ConcurrentServingMachine.TestCase
TestConcurrentServingMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
