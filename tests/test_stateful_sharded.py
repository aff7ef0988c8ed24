"""One stateful model of the process-sharded cube against its oracle.

``ShardedCube(processes=True)`` publishes each historic instance into
shared memory once; every later epoch cites that row.  The invariant
that buys -- *sharded answers stay bit-identical to an unsharded
``SnapshotCube`` whatever the writer does to history* -- is checked here
after every step of appends, late updates, drains, out-of-order
corrections (with splices), retirement, tiered demotion and
checkpoint / close / recover, with ``/dev/shm`` empty at teardown.  So
is the representation that buys it: every shard -- inline or a process --
and the oracle publish each historic instance as a finished read-only
row at the width of its values (a process shard as far as its epoch
shows it), and nothing the current epoch cites is writable.
Late data may predate all history, and a retirement may be followed by a
reopening.

The shards own the time axis and the router derives its view of it from
what they report: the same machine runs once more with the shards in
this process, where after every step ``router.latest_time`` /
``min_time`` / ``demote_boundary`` are held to the max / min / max of
what the shards' directories and tiered fronts hold.

The op set is not one configuration's: a durable buffered shard refuses
``apply_out_of_order``, only a tiered one demotes.  Hypothesis draws the
kind per example; every shard serves the dense store.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.concurrent import SnapshotCube
from repro.core.errors import AgedOutError
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ranking import TopKEngine
from repro.retention import Estimate
from repro.sharding import BlockCache, ShardedCube
from repro.sharding.shm import descriptor_blocks
from tests.data import make_durable_fixtures as fixtures

from .conftest import (
    assert_history_published,
    assert_rows_published,
    fleet_leaks,
    fleet_owners,
    random_box,
)

SHAPE = (6, 4)
NUM_TIMES = 48
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]
#: kind -> (durable, buffered, tiered)
KINDS = {
    "tiered": (True, True, True),  # late / drain / demote / reopen
    "plain": (False, True, False),  # late / drain / out-of-order / retire
    "logged": (True, False, False),  # out-of-order / retire / reopen
}


class Model:
    """A process-sharded cube and its unsharded oracle, driven in step."""

    def __init__(self, kind: str, processes=True) -> None:
        self.durable, self.buffered, self.tiered = KINDS[kind]
        self.processes = processes
        self.root = Path(tempfile.mkdtemp(prefix="repro-stateful-sharded-"))
        front = BufferedEvolvingDataCube(SHAPE)
        self.oracle = SnapshotCube(front if self.buffered else front.cube)
        self.cube = ShardedCube(
            SHAPE,
            shards=2,
            processes=processes,
            buffered=self.buffered,
            durable_dir=self.root / "fleet" if self.durable else None,
            tiers=TIERS if self.tiered else None,
            fsync="off",
            timeout=120.0,
        )
        #: every process that made a block of this model's fleets
        self.owners = fleet_owners(self.cube)
        self.latest = 0
        #: first time whose detail both sides still hold
        self.boundary = 0
        self.rng = np.random.default_rng(5)
        self.blocks = BlockCache()

    # -- writes -----------------------------------------------------------------

    def _both(self, method: str, *args):
        getattr(self.oracle, method)(*args)
        return getattr(self.cube, method)(*args)

    def append(self, advance: int, cells, deltas) -> None:
        self.latest = min(NUM_TIMES - 1, self.latest + advance)
        points = [(self.latest, *cell) for cell in cells]
        self._both("update_many", points, list(deltas))

    def late(self, points, deltas) -> None:
        self._both("update_many", [tuple(p) for p in points], list(deltas))

    def drain(self) -> None:
        applied = self.oracle.drain()[0]
        if not self.tiered:  # below a demotion watermark G_d keeps its entries
            assert self.cube.drain()[0] == applied
        else:
            self.cube.drain()

    def out_of_order(self, point, delta: int) -> None:
        # a forced correction lands at the kernel, past any G_d (a
        # snapshot front over a buffered cube refuses the call by name)
        self.oracle.kernel.apply_out_of_order(tuple(point), delta)
        self.oracle.publish()  # written past the front, which publishes
        self.cube.apply_out_of_order(tuple(point), delta)

    def retire(self, time: int) -> None:
        if self.buffered:
            self.drain()
        self.oracle.retire_before(time)
        self.cube.retire_before(time)
        self.boundary = max(self.boundary, time)

    def demote(self, time: int) -> None:
        self.cube.demote_before(time)  # the oracle keeps everything live

    def reopen(self, checkpoint: bool) -> None:
        if checkpoint:
            self.cube.checkpoint()
        self.cube.close()
        self.cube = ShardedCube.recover(
            self.root / "fleet", processes=self.processes, timeout=120.0
        )
        self.owners |= fleet_owners(self.cube)

    # -- the invariant ----------------------------------------------------------

    def check(self) -> None:
        boxes = [random_box(self.rng, (NUM_TIMES,) + SHAPE) for _ in range(24)]
        boxes.append(Box((0, 0, 0), (NUM_TIMES,) + tuple(n - 1 for n in SHAPE)))
        answerable = []
        for box in boxes:
            try:
                self.oracle.query(box)
            except AgedOutError:
                with pytest.raises(AgedOutError):
                    self.cube.query(box)
            else:
                answerable.append(box)
        assert self.cube.query_many(answerable) == self.oracle.query_many(answerable)
        # a box no prefix of which is demoted has an exact estimate
        demoted = self.cube.router.demote_boundary
        live = [
            box
            for box in answerable
            if demoted is None or min(box.upper[0], box.lower[0] - 1) >= demoted
        ]
        assert self.cube.query_many_approx(live) == [
            Estimate.of(value) for value in self.oracle.query_many(live)
        ]
        self.check_topk()
        assert self.cube.total() == self.oracle.total()
        if not self.processes:
            self.check_time_state()
        self.check_published()

    def check_published(self) -> None:
        """Every shard's history, and the oracle's, is published rows."""
        assert_history_published(self.oracle)
        cited = set()
        for handle in self.cube.router.handles:
            if isinstance(handle.descriptor, dict):  # a worker process
                assert_rows_published(handle.descriptor, self.blocks)
                cited |= descriptor_blocks(handle.descriptor)
            else:
                assert_history_published(handle.state.snap)
        self.blocks.prune(cited)

    def check_topk(self) -> None:
        """Top-k over windows anywhere in time, retired ones included; the
        drawn deltas can be negative, so nothing is declared non-negative."""
        oracle = TopKEngine(self.oracle, nonnegative=False)
        for _ in range(3):
            t1 = int(self.rng.integers(-2, NUM_TIMES))
            t2 = int(self.rng.integers(t1 - 1, NUM_TIMES + 2))
            query = [(t1, t2, int(self.rng.integers(0, 5)))]
            try:
                expected = oracle.topk_many(query)
            except AgedOutError:
                with pytest.raises(AgedOutError):
                    self.cube.topk_many(query, nonnegative=False)
            else:
                assert self.cube.topk_many(query, nonnegative=False) == expected

    def check_time_state(self) -> None:
        """The router's time state is what the shards hold, no more."""
        router = self.cube.router
        shards = [handle.state for handle in router.handles]
        spans = [s.kernel.directory.times() for s in shards if s.kernel.directory]
        watermarks = [
            s.layers["tiered"].demoted_through
            for s in shards
            if s.tiered and s.layers["tiered"].demoted_through is not None
        ]
        assert router.min_time == min((span[0] for span in spans), default=None)
        assert router.latest_time == max((span[-1] for span in spans), default=None)
        assert router.demote_boundary == max(watermarks, default=None)

    def close(self) -> None:
        self.blocks.close_all()
        self.cube.close()
        self.oracle.close()
        shutil.rmtree(self.root, ignore_errors=True)
        assert not fleet_leaks(self.owners)


_cells = st.lists(
    st.tuples(*(st.integers(0, n - 1) for n in SHAPE)), min_size=1, max_size=5
)
#: one per cell; a rule folds them into whatever range is valid right now
_numbers = st.lists(st.integers(0, 999), min_size=5, max_size=5)


def _kind(*kinds, history=False):
    """Rules of these kinds only; ``history``: some held time is historic."""
    return precondition(
        lambda self: self.kind in kinds
        and (not history or self.model.latest > self.model.boundary)
    )


class ShardedHistoryMachine(RuleBasedStateMachine):
    processes = True

    @initialize(kind=st.sampled_from(sorted(KINDS)))
    def build(self, kind):
        self.kind = kind
        self.model = Model(kind, processes=self.processes)
        # gaps, so that an odd historic time is a splice, and room below the
        # first occurring time for late data from before all history; the two
        # cells are one per shard
        for advance in (5, 2, 2, 2):
            self.model.append(advance, [(0, 0), (5, 3)], [1, 2])

    def _historic(self, number: int) -> int:
        """A time below the latest whose detail is still held."""
        model = self.model
        return model.boundary + number % (model.latest - model.boundary)

    @rule(advance=st.integers(0, 3), cells=_cells, numbers=_numbers)
    def append(self, advance, cells, numbers):
        self.model.append(advance, cells, [n % 14 - 4 for n in numbers[: len(cells)]])
        self.model.check()

    @_kind("tiered", "plain", history=True)
    @rule(cells=_cells, numbers=_numbers)
    def late(self, cells, numbers):
        points = [(self._historic(n), *cell) for n, cell in zip(numbers, cells)]
        self.model.late(points, [3] * len(points))
        self.model.check()

    @_kind("tiered", "plain")
    @rule()
    def drain(self):
        self.model.drain()
        self.model.check()

    @_kind("plain", "logged", history=True)
    @rule(cells=_cells, numbers=_numbers)
    def out_of_order(self, cells, numbers):
        self.model.out_of_order((self._historic(numbers[0]), *cells[0]), numbers[1] - 500)
        self.model.check()

    @_kind("plain", "logged")
    @rule(number=st.integers(0, 999))
    def retire(self, number):
        self.model.retire(number % self.model.latest)
        self.model.check()

    @_kind("tiered")
    @rule(number=st.integers(0, 999))
    def demote(self, number):
        self.model.demote(number % (self.model.latest + 1))
        self.model.check()

    @_kind("tiered", "logged")
    @rule(checkpoint=st.booleans())
    def reopen(self, checkpoint):
        self.model.reopen(checkpoint)
        self.model.check()

    def teardown(self):
        if hasattr(self, "model"):
            self.model.close()


TestShardedHistoryMachine = ShardedHistoryMachine.TestCase
TestShardedHistoryMachine.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)


class InlineShardedHistoryMachine(ShardedHistoryMachine):
    """The same histories with the shards in reach: the derived time state."""

    processes = False


TestInlineShardedHistoryMachine = InlineShardedHistoryMachine.TestCase
TestInlineShardedHistoryMachine.settings = settings(
    max_examples=60, stateful_step_count=15, deadline=None
)


def test_an_unrecoverable_mixed_instance_bootstraps_into_a_process_shard(tmp_path):
    """Recovery hands publication a slice no array sweep can normalize.

    Metered reads converted cells of a historic instance; later appends
    advanced those cells' lazy-copy stamps past it, so their DDC values
    are gone from slice and cache alike.  A served kernel no longer holds
    such a slice (its history is finished rows first); the directory an
    older build checkpointed like that is ``tests/data/sharded_converted``.
    Recovered into worker processes, the instance must still reach the
    router as a finished row: every prefix box over it equals the oracle.
    """
    shape, lost = fixtures.CONVERTED_SHAPE, fixtures.CONVERTED_LOST
    rng = np.random.default_rng(9)
    dense = np.zeros((8,) + shape, dtype=np.int64)
    for points, deltas in fixtures.CONVERTED_BATCHES:
        np.add.at(dense, tuple(points.T), deltas)
    shutil.copytree(Path(__file__).resolve().parent / "data" / "sharded_converted", tmp_path / "fleet")
    with ShardedCube.recover(tmp_path / "fleet", processes=True, timeout=120.0) as cube:
        owners = fleet_owners(cube)
        boxes = [Box((0, 0, 0), (lost, x, y)) for x in range(6) for y in range(6)]
        boxes += [Box((lost, x, 0), (lost, 5, y)) for x in range(6) for y in range(6)]
        boxes += [random_box(rng, dense.shape) for _ in range(40)]
        assert cube.query_many(boxes) == [
            int(dense[tuple(slice(lo, up + 1) for lo, up in zip(b.lower, b.upper))].sum())
            for b in boxes
        ]
    assert not fleet_leaks(owners)
