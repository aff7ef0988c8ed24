"""Published history rows at the width of what they hold, against an oracle.

A process shard publishes each historic instance once, as a
shared-memory row: an offset from the newest anchor row below it where
that offset is narrower than the row's values, else a plain row (the
next anchor), every array at the narrowest signed width that holds it
(:func:`repro.ecube.stores.row_dtype`, ``DenseStore.make_row``); readers
widen to int64 where they gather, and every slice a correction can write
is int64 (:class:`repro.ecube.stores.DenseStore`).  The fleets here -- shards in
this process with no shared memory, shards in this process that publish
into it exactly as a worker process does (so their stores can be
inspected), and worker processes; each with and without tiers -- are
driven through writes whose rows sit on each side of +-2^7, +-2^15 and
+-2^31 and past the int64 range (the prefix sums wrap), out-of-order
corrections that push a narrow row past its width, a splice that clones
a narrow floor row, late data and drains, demotion and retirement.
After every op: answers equal to an unsharded oracle (exact, top-k,
approximate), every writable slice int64, every published row laid out
as the anchor rule says (``conftest.assert_row_layout``): a row is plain
only where an offset would not be narrower.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.sharding.cube as cube_module
from repro.concurrent import SnapshotCube
from repro.core.errors import AgedOutError
from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.stores import _adopt_array, row_dtype
from repro.ranking import TopKEngine
from repro.retention import Estimate
from repro.sharding import BlockCache, ShardedCube
from repro.sharding.router import InlineHandle
from repro.sharding.shm import descriptor_blocks
from repro.storage.mmap_npz import open_checkpoint

from .conftest import (
    assert_row_layout,
    assert_rows_published,
    fleet_leaks,
    fleet_owners,
    random_box,
)

SHAPE = (6, 4)
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]
#: the value each shard's origin cell is driven to, one occurring time
#: each: every width boundary from both sides, then past int64 (it wraps)
TARGETS = [
    0, 127, 128, -128, -129, 2**15 - 1, 2**15, -(2**15), -(2**15) - 1,
    2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**62, 2**63 + 5, 3,
]  # fmt: skip
#: gaps between occurring times, so that an odd historic time is a splice
STEP = 2


def _ring(value: int) -> int:
    """``value`` as int64 arithmetic holds it (modulo 2^64)."""
    return (value + 2**63) % 2**64 - 2**63


class ShmInlineHandle(InlineHandle):
    """A shard in this process that publishes into shared memory and
    releases superseded epochs as a worker process does."""

    def __init__(self, shard_id: int, config: dict) -> None:
        super().__init__(shard_id, {**config, "use_shm": True})

    def send(self, op: str, payload=None) -> None:
        self.state.exporter.release_below(self.descriptor["sequence"])
        super().send(op, payload)


class Fleet:
    """A sharded cube and its unsharded oracle, driven in step."""

    def __init__(self, where: str, tiered: bool, tmp_path) -> None:
        self.oracle = SnapshotCube(BufferedEvolvingDataCube(SHAPE))
        self.cube = ShardedCube(
            SHAPE,
            shards=2,
            processes=where == "process",
            tiers=TIERS if tiered else None,
            tile_root=tmp_path if tiered else None,
            timeout=120.0,
        )
        self.owners = fleet_owners(self.cube)
        self.origins = [extent.origin for extent in self.cube.partitioner.extents]
        #: what each origin cell holds, cumulated over every time so far
        self.held = [0] * len(self.origins)
        self.latest = -STEP
        self.boundary = 0  # first time whose detail both sides hold
        self.blocks = BlockCache()
        self.rng = np.random.default_rng(7)

    def _both(self, method: str, *args):
        getattr(self.oracle, method)(*args)
        return getattr(self.cube, method)(*args)

    def append(self, target: int) -> None:
        """A new time whose rows reach ``target`` at every shard, plus a
        unit of noise elsewhere on every second time."""
        self.latest += STEP
        points, deltas = [], []
        for shard, origin in enumerate(self.origins):
            points.append((self.latest, *origin))
            deltas.append(_ring(target - self.held[shard]))
            self.held[shard] = _ring(target)
        if self.latest % (2 * STEP):
            points.append((self.latest, 4, 3))
            deltas.append(-1)
        self._both("update_many", points, deltas)

    def out_of_order(self, time: int, delta: int) -> None:
        point = (time, *self.origins[0])
        self.oracle.kernel.apply_out_of_order(point, delta)
        self.oracle.publish()  # written past the front, which publishes
        self.cube.apply_out_of_order(point, delta)
        self.held[0] = _ring(self.held[0] + delta)

    # -- the invariant ----------------------------------------------------------

    def check(self) -> None:
        span = (self.latest + 1,) + SHAPE
        full = tuple(n - 1 for n in SHAPE)
        boxes = [random_box(self.rng, span) for _ in range(16)]
        boxes += [Box((0, 0, 0), (t, *full)) for t in range(span[0])]
        answerable = []
        for box in boxes:
            try:
                self.oracle.query(box)
            except AgedOutError:
                with pytest.raises(AgedOutError):
                    self.cube.query(box)
            else:
                answerable.append(box)
        expected = self.oracle.query_many(answerable)
        assert self.cube.query_many(answerable) == expected
        demoted = self.cube.router.demote_boundary
        live = [
            (box, value)
            for box, value in zip(answerable, expected)
            if demoted is None or min(box.upper[0], box.lower[0] - 1) >= demoted
        ]
        assert self.cube.query_many_approx([box for box, _ in live]) == [
            Estimate.of(value) for _, value in live
        ]
        oracle = TopKEngine(self.oracle, nonnegative=False)
        for t1, t2 in ((self.boundary, self.latest), (self.latest - STEP, self.latest)):
            query = [(t1, t2, 3)]
            assert self.cube.topk_many(query, nonnegative=False) == oracle.topk_many(
                query
            )
        assert self.cube.total() == self.oracle.total()
        self.check_widths()

    def check_widths(self) -> None:
        """Published rows are laid out as the anchor rule says, every array
        at the narrowest width of what it holds; a slice is narrow or
        anchored only while it is read-only."""
        cited = set()
        for handle in self.cube.router.handles:
            if isinstance(handle.descriptor, dict):  # published into shm
                assert_rows_published(handle.descriptor, self.blocks)
                cited |= descriptor_blocks(handle.descriptor)
            state = getattr(handle, "state", None)
            if state is None:
                continue  # a worker process: only what it published is visible
            kernel = state.kernel
            rows = {}
            for index in range(kernel.retired_instances, kernel.num_slices):
                payload = kernel.directory.at_index(index)[1]
                if payload.retired:
                    continue
                if kernel.store.published(payload):  # what the shard published
                    rows[index] = payload.values
                else:
                    assert payload.values.dtype == np.int64
            assert_row_layout(rows, kernel.retired_instances)
        self.blocks.prune(cited)

    def close(self) -> None:
        self.blocks.close_all()
        self.cube.close()
        self.oracle.close()
        assert not fleet_leaks(self.owners)


@pytest.fixture(params=["inline", "shm", "process"])
def where(request, monkeypatch):
    if request.param == "shm":
        monkeypatch.setattr(cube_module, "InlineHandle", ShmInlineHandle)
    return request.param


@pytest.mark.parametrize("tiered", [False, True], ids=["untiered", "tiered"])
def test_rows_across_width_boundaries_answer_exactly(where, tiered, tmp_path):
    fleet = Fleet(where, tiered, tmp_path)
    try:
        for target in TARGETS:
            fleet.append(target)
            fleet.check()
        # instances 1 and 2 hold int8 rows: a correction there pushes them,
        # and every row above, past their width; a second one takes it back
        fleet.out_of_order(STEP, 2**20)
        fleet.check()
        fleet.out_of_order(2 * STEP, -(2**20))
        fleet.check()
        # a never-occurring time above an int8 row at -128: a splice, whose
        # new instance is a writable clone of that floor row taking -5
        fleet.out_of_order(3 * STEP + 1, -5)
        fleet.check()
        # late data buffered in G_d, then drained through the same cascades
        late = [(3 * STEP, 1, 1), (5 * STEP + 1, 4, 0), (STEP, 0, 3)]
        fleet._both("update_many", late, [2**16, -3, 2**40])
        fleet.check()
        fleet._both("drain")
        fleet.check()
        if tiered:
            fleet.cube.demote_before(6 * STEP)  # the oracle keeps it all live
        else:
            fleet._both("retire_before", 6 * STEP)
            fleet.boundary = 6 * STEP
        fleet.check()
        fleet.append(-(2**7))
        fleet.check()
    finally:
        fleet.close()


def test_a_narrow_archive_array_is_widened_in_one_copy():
    narrow = np.arange(-128, 128, dtype=np.int8).repeat(64)
    narrow.flags.writeable = False  # as an archive's mmap view is
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        widened = _adopt_array(narrow, np.int64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widened.dtype == np.int64 and widened.flags.writeable
    assert np.array_equal(widened, narrow) and not np.shares_memory(widened, narrow)
    assert peak < 1.5 * widened.nbytes


def test_a_checkpoint_of_narrow_rows_recovers_bit_identically(tmp_path):
    fleet_dir = tmp_path / "fleet"
    oracle = SnapshotCube(BufferedEvolvingDataCube(SHAPE))
    full = tuple(n - 1 for n in SHAPE)
    rng = np.random.default_rng(3)
    with ShardedCube(
        SHAPE, shards=2, processes=True, durable_dir=fleet_dir, fsync="off",
        timeout=120.0,
    ) as cube:  # fmt: skip
        owners = fleet_owners(cube)
        for time, target in enumerate(TARGETS[:12]):
            points = [(time, 0, 0), (time, 3, 0), (time, 5, 3)]
            deltas = [target, -target, time]
            oracle.update_many(points, deltas)
            cube.update_many(points, deltas)
        span = (len(TARGETS[:12]),) + SHAPE
        boxes = [random_box(rng, span) for _ in range(40)]
        boxes += [Box((0, 0, 0), (t, *full)) for t in range(span[0])]
        expected = oracle.query_many(boxes)
        assert cube.query_many(boxes) == expected
        cube.checkpoint()
    # each archive holds the historic rows as the worker published them,
    # narrow, and the latest instance as the int64 slice it writes
    widths = set()
    for shard in ("shard-00", "shard-01"):
        (archive,) = (fleet_dir / shard).glob("checkpoint-*.npz")
        with open_checkpoint(archive) as arrays:
            *historic, latest = sorted(
                int(key.split("_")[1])
                for key in arrays.keys()
                if key.startswith("slice_") and key.endswith("_values")
            )
            assert arrays[f"slice_{latest}_values"].dtype == np.int64
            for index in historic:
                values = arrays[f"slice_{index}_values"]
                assert values.dtype == row_dtype(values)
                widths.add(values.dtype.itemsize)
    assert widths == {1, 2, 4, 8}
    for processes in (False, True):
        with ShardedCube.recover(
            fleet_dir, processes=processes, timeout=120.0
        ) as recovered:
            owners |= fleet_owners(recovered)
            assert recovered.query_many(boxes) == expected
            # restored int64, then published anchored again; the latest
            # stays an int64 slice
            for handle in recovered.router.handles if not processes else ():
                kernel = handle.state.kernel
                *historic, latest = (
                    kernel.directory.at_index(index)[1]
                    for index in range(kernel.num_slices)
                )
                assert latest.values.dtype == np.int64
                assert_row_layout(
                    {index: payload.values for index, payload in enumerate(historic)}, 0
                )
    oracle.close()
    assert not fleet_leaks(owners)
