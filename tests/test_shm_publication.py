"""What shared-memory publication exports, counted exactly.

The rule under test (:mod:`repro.sharding.shm`): a historic instance is
exported once, when it becomes historic, as a finished prefix-sum row.
Representation-only work (lazy copies landing, conversions, finalizes)
exports nothing; an out-of-order correction reaching instance ``i``
re-creates exactly the rows at and above ``i``; retirement only drops
rows.  The second half covers what replaced the resource tracker: no
tracker process exists, a killed worker's blocks stay readable until
``close`` sweeps them, and a missing block is a typed error.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.concurrent import SnapshotCube, prepare_epoch
from repro.core.errors import AgedOutError, ShardUnavailableError, StorageError
from repro.core.front import layers
from repro.core.types import Box
from repro.durability.checkpoint import snapshot_arrays
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.stores import row_values
from repro.retention import TieredCube
from repro.sharding import (
    BlockCache,
    EpochExporter,
    ShardClient,
    ShardedCube,
    leaked_segments,
)
from repro.sharding.shm import (
    BlockOwner,
    descriptor_blocks,
    epoch_from_shared_memory,
    unlink_orphaned,
)
from repro.storage.mmap_npz import open_checkpoint

from tests.data import make_durable_fixtures as fixtures

from .conftest import (
    assert_history_published,
    assert_row_layout,
    brute_box_sum,
    fleet_leaks,
    fleet_owners,
    random_box,
)
from .test_shard_server import TIERED, _serve_cli, _stop_cli

DATA = Path(__file__).resolve().parent / "data"

SHAPE = (6, 5)
NUM_TIMES = 40
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]


def _counting(owner: BlockOwner) -> BlockOwner:
    """``owner``, remembering in ``owner.created`` the names it creates."""
    owner.created = []
    create = owner.create

    def counted(arrays):
        block = create(arrays)
        owner.created.append(block[0])
        return block

    owner.create = counted
    return owner


class Rig:
    """A cube, its exporter with a counting owner, and a dense oracle.

    ``serve=False`` leaves the front bare until :meth:`serve` attaches the
    snapshot front and the exporter."""

    def __init__(self, tmp_path=None, buffered=True, restore=None, serve=True) -> None:
        front = BufferedEvolvingDataCube(SHAPE, num_times=NUM_TIMES)
        self.kernel = front.cube
        self.front = front if buffered else front.cube
        if tmp_path is not None:
            self.front = TieredCube(self.front, TIERS, tmp_path)
        if restore is not None:  # a checkpoint archive: each layer its own
            for layer in reversed(layers(self.front).values()):
                layer.restore_state(restore)
        self.snap = self.exporter = None
        self.cache = BlockCache()
        self.dense = np.zeros((NUM_TIMES,) + SHAPE, dtype=np.int64)
        self.rng = np.random.default_rng(11)
        if serve:
            self.serve()

    def serve(self) -> None:
        self.snap = SnapshotCube(self.front)
        self.exporter = EpochExporter(self.snap, tag="pub")
        self.owner = _counting(self.exporter.owner)

    def write(self, times, apply=None) -> None:
        """Random updates at ``times`` through ``apply`` (default: the front)."""
        times = np.asarray(times)
        points = np.column_stack(
            [times] + [self.rng.integers(0, n, size=len(times)) for n in SHAPE]
        ).astype(np.int64)
        deltas = self.rng.integers(1, 9, size=len(times)).astype(np.int64)
        if apply is None:
            (self.snap or self.front).update_many(points, deltas)
        else:
            for point, delta in zip(points, deltas):
                apply(tuple(int(c) for c in point), int(delta))
        np.add.at(self.dense, tuple(points.T), deltas)

    def export(self) -> tuple[dict, list[str]]:
        """``(descriptor, names created since the previous export)``; older
        epochs released.  A correction's rows are born when it lands, before
        the export that cites them."""
        descriptor = self.exporter.export()
        self.exporter.release_below(descriptor["sequence"])
        created, self.owner.created = self.owner.created, []
        return descriptor, created

    def answers(self, descriptor, boxes, cache=None) -> list[int]:
        epoch = epoch_from_shared_memory(descriptor, cache or self.cache)
        return prepare_epoch(epoch).query_many(boxes)

    def expected(self, boxes) -> list[int]:
        return [brute_box_sum(self.dense, box) for box in boxes]

    def close(self) -> None:
        self.cache.close_all()
        if self.snap is not None:
            self.exporter.close()
            self.snap.close()


@pytest.fixture
def rig_factory():
    rigs: list[Rig] = []

    def build(*args, **kwargs) -> Rig:
        rigs.append(Rig(*args, **kwargs))
        return rigs[-1]

    yield build
    for rig in rigs:
        rig.close()
    assert not fleet_leaks()


def _rows(descriptor) -> dict[int, str]:
    return {index: name for index, name, _ in descriptor["slices"]}


def _boxes(rig, count=40) -> list[Box]:
    full = tuple(n - 1 for n in SHAPE)
    return [random_box(rig.rng, rig.dense.shape) for _ in range(count)] + [
        Box((0, 0, 0), (time,) + full) for time in range(NUM_TIMES)
    ]


class TestExportCounts:
    def test_k_new_times_create_k_rows_and_one_frontier(self, rig_factory):
        rig = rig_factory()
        rig.write([0] * 5)
        descriptor, created = rig.export()
        assert created == [descriptor["frontier"][0]]  # nothing is historic yet
        for k in (1, 3, 2):
            latest = int(rig.kernel.latest_time)
            rig.write(np.repeat(np.arange(latest + 1, latest + 1 + k), 4))
            descriptor, created = rig.export()
            # the old latest and all but the newest of the k became historic
            assert len(created) == k + 1
            assert created[-1] == descriptor["frontier"][0]
            assert created[:-1] == [name for _, name, _ in descriptor["slices"][-k:]]
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

    def test_representation_only_work_exports_nothing(self, rig_factory):
        rig = rig_factory()
        for time in range(8):
            rig.write([time] * 6)
        held, _ = rig.export()
        # every historic slice is its finished row: a same-time write finds
        # no lazy copy to force into one
        copies = rig.kernel.counter.copy_cell_writes
        rig.write([7] * 12)
        assert rig.kernel.counter.copy_cell_writes == copies
        descriptor, created = rig.export()
        assert created == [descriptor["frontier"][0]]
        assert _rows(descriptor) == _rows(held)
        # ... and none of these even publishes an epoch
        assert rig.kernel.sync_copies() == 0  # nothing owed to adopted slices
        assert rig.kernel.counter.copy_cell_writes == copies
        assert rig.kernel.bulk_finalize_slice(2)  # fast-path finalize_commit
        rig.kernel.query(Box((0, 1, 1), (4, 4, 3)))  # metered mark_ps
        assert rig.kernel.directory.at_index(4)[1].ps_count > 0
        again, created = rig.export()
        assert created == [] and again is descriptor
        # the next epoch still cites every old row, and answers right
        rig.write([8] * 3)
        descriptor, created = rig.export()
        assert len(created) == 2
        assert _rows(held).items() <= _rows(descriptor).items()
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

    @pytest.mark.parametrize("splice", [False, True])
    def test_out_of_order_recreates_exactly_the_rows_it_reaches(
        self, rig_factory, splice
    ):
        rig = rig_factory(buffered=False)
        times = range(0, 20, 2)
        for time in times:
            rig.write([time] * 5)
        before, _ = rig.export()
        # an occurring time corrects instance 4 in place; a never-occurring
        # one is spliced in as a new instance 4, shifting everything above
        rig.write(
            [7 if splice else 8],
            apply=lambda point, delta: rig.snap.apply_out_of_order_many(
                [point], [delta]
            ),
        )
        after, created = rig.export()
        old, new = _rows(before), _rows(after)
        historic = len(times) - 1 + splice
        assert sorted(new) == list(range(historic))
        assert [new[i] for i in range(4)] == [old[i] for i in range(4)]
        # the batch lands in one pass, a spliced clone sharing its floor's
        # row until then: each row from 4 up is re-published once, under the
        # anchor rule, and no int64 copy is born to be unlinked
        _assert_republished_from(rig, before, after, 4, created)
        assert sorted(fleet_leaks()) == sorted(descriptor_blocks(after))
        _assert_history_is_the_published_rows(rig, after)
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_a_drain_recreates_from_the_oldest_correction(self, rig_factory):
        rig = rig_factory()
        for time in range(0, 20, 2):
            rig.write([time] * 5)
        rig.export()
        rig.write([13, 6, 15])  # late: buffered in G_d
        before, created = rig.export()
        assert created == [before["frontier"][0]]  # a buffer-only epoch
        assert rig.snap.drain() == (3, 0)
        after, created = rig.export()
        old, new = _rows(before), _rows(after)
        # 6 occurs (instance 3); 13 and 15 are spliced in above it
        assert len(new) == len(old) + 2
        assert [new[i] for i in range(3)] == [old[i] for i in range(3)]
        # one pass, from the oldest correction up: each row the drain
        # reaches is re-published once, under the anchor rule, no int64 copy
        # is born, and the blocks left are the ones the epoch cites
        _assert_republished_from(rig, before, after, 3, created)
        assert sorted(fleet_leaks()) == sorted(descriptor_blocks(after))
        _assert_history_is_the_published_rows(rig, after)
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_a_cascade_publishes_its_int64_copies_anew(self, rig_factory):
        rig = rig_factory(buffered=False)
        for time in range(6):
            rig.write([time] * 5)
        before, _ = rig.export()
        # hold publication back: a new time makes instance 5 historic but
        # not yet published, so a correction reaching it cascades
        with rig.kernel.publish_barrier():
            rig.write([6] * 5)
            rig.write([2], apply=rig.snap.kernel.apply_out_of_order)
            reached = [rig.kernel.directory.at_index(i)[1] for i in range(2, 5)]
            copies = [payload.values for payload in reached]
            # each reached row promoted into an int64 heap copy, no block
            assert all(c.dtype == np.int64 and c.flags.writeable for c in copies)
            assert rig.owner.created == []
        after, created = rig.export()
        # the copies are swept as the fully PS slices they are and published
        # under the anchor rule, oldest first, with instance 5: one block
        # each at most
        for payload, copy in zip(reached, copies):
            assert payload.values is not copy
            assert np.array_equal(row_values(payload.values), copy)
        _assert_republished_from(rig, before, after, 2, created)
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_a_correction_that_needs_int64_makes_one_int64_anchor(self, rig_factory):
        rig = rig_factory(buffered=False)
        for time in range(6):
            rig.write([time] * 5)
        before, _ = rig.export()
        rig.snap.apply_out_of_order((2, 1, 1), 2**40)
        rig.dense[2, 1, 1] += 2**40
        after, created = rig.export()
        # instance 2 needs int64 and no offset from the anchor below it is
        # narrower: a plain int64 row; 3 and 4 differ from it by a few
        # slices of updates, so they are narrow offsets on it
        rows = rig.snap._current.rows
        assert rows[2].dtype == np.int64
        for index in (3, 4):
            assert rows[index].anchor is rows[2]
            assert rows[index].offset.dtype.itemsize < 8
        new = _rows(after)
        assert created == [new[2], new[3], new[4], after["frontier"][0]]
        _assert_republished_from(rig, before, after, 2, created)
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    @pytest.mark.parametrize("demote", [False, True])
    def test_retirement_creates_nothing_and_unlinks_dropped_rows(
        self, rig_factory, tmp_path, demote
    ):
        rig = rig_factory(tmp_path if demote else None)
        for time in range(12):
            rig.write([time] * 5)
        before, _ = rig.export()
        dropped = (rig.snap.target.demote_before if demote else rig.snap.retire_before)(6)
        assert dropped == 5  # instance 5 stays as the cumulative boundary
        after, created = rig.export()
        assert created == [after["frontier"][0]]
        old, new = _rows(before), _rows(after)
        assert new == {i: old[i] for i in range(5, 11)}
        # a dropped row's block outlives it only as the anchor of a kept row
        anchors = {name for name, _ in after["anchors"].values()}
        assert {old[i] for i in range(5)} & descriptor_blocks(after) <= anchors
        dropped = descriptor_blocks(before) - descriptor_blocks(after)
        assert not dropped & set(leaked_segments())
        boxes = [box for box in _boxes(rig) if box.lower[0] == 0 and box.upper[0] >= 5]
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_a_held_descriptor_never_changes_under_the_writer(self, rig_factory):
        rig = rig_factory(buffered=False)
        for time in range(0, 20, 2):
            rig.write([time] * 5)
        boxes = _boxes(rig)
        held = rig.exporter.export()
        expected = rig.expected(boxes)
        early = BlockCache()  # attached before the rewrite
        try:
            assert rig.answers(held, boxes, early) == expected
            frozen = {
                name: views["ps"].copy()
                for name, (_, views) in early._blocks.items()
                if "ps" in views
            }
            rig.write([3, 9, 1], apply=rig.snap.apply_out_of_order)
            newer = rig.exporter.export()  # nothing released yet
            assert rig.answers(newer, boxes) == rig.expected(boxes) != expected
            # attached now, or attached before: byte for byte the old epoch
            assert rig.answers(held, boxes) == expected
            for name, row in frozen.items():
                assert np.array_equal(early._blocks[name][1]["ps"], row)
            rig.exporter.release_below(newer["sequence"])
            assert not (set(_rows(held).values()) - set(_rows(newer).values())) & set(
                leaked_segments()
            )
            # what is mapped keeps answering; a first attach is a typed error
            assert rig.answers(held, boxes, early) == expected
            with pytest.raises(StorageError, match="disappeared"):
                rig.answers(held, boxes, BlockCache())
        finally:
            early.close_all()

    def test_one_append_at_256_slices_exports_at_most_3_blocks(self, rig_factory):
        rig = rig_factory()
        rig.kernel.num_times = None
        for start in range(0, 256, 32):
            rig.snap.update_many(
                [[t, t % 6, t % 5] for t in range(start, start + 32)], [1] * 32
            )
            rig.export()
        before = set(fleet_leaks())
        rig.snap.update_many([[256, 1, 1], [256, 2, 2]], [1, 1])
        descriptor, created = rig.export()
        assert len(descriptor["slices"]) == 256
        assert len(created) <= 3
        # superseded blocks are gone: the new row, and a frontier swapped
        assert len(set(fleet_leaks())) == len(before) + 1

    def test_the_unrecoverable_instance_is_walked_once(self, rig_factory, monkeypatch):
        rig = rig_factory(serve=False)
        for time in range(6):
            rig.write([time] * 10)
        # a metered read of the bare kernel converts cells of instance 3;
        # where the lazy copy had landed, the conversion overwrote the
        # cell's DDC value
        rig.kernel.query(Box((0, 1, 1), (3, 4, 3)))
        rig.write([6] * 25)
        assert not rig.kernel.bulk_finalize_slice(3)
        walked: list[int] = []
        walk = SnapshotCube._walked_row

        def spying(snap, index, values, flags):
            walked.append(index)
            return walk(snap, index, values, flags)

        monkeypatch.setattr(SnapshotCube, "_walked_row", spying)
        rig.serve()  # the first publication finishes history, 3 walked
        descriptor, _ = rig.export()
        assert walked == [3]
        assert np.array_equal(
            row_values(epoch_from_shared_memory(descriptor, rig.cache).rows[3]),
            rig.dense[:4].sum(axis=0).cumsum(axis=0).cumsum(axis=1),
        )
        rig.write([7] * 5)
        descriptor, _ = rig.export()
        assert walked == [3]  # the row is cited, never rebuilt
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

    def test_a_checkpointed_converted_instance_is_walked_once_on_recovery(
        self, tmp_path, monkeypatch
    ):
        """The input that still reaches the walk: a directory an inline
        shard checkpointed after its kernel answered a counted ``query``
        (written by an older build, ``tests/data/sharded_converted``: a
        served kernel no longer holds such a slice), recovered by a
        process fleet.  Each shard walks its lost instance once."""
        shape, lost = fixtures.CONVERTED_SHAPE, fixtures.CONVERTED_LOST
        rng = np.random.default_rng(11)
        dense = np.zeros((10,) + shape, dtype=np.int64)
        for points, deltas in fixtures.CONVERTED_BATCHES:
            np.add.at(dense, tuple(points.T), deltas)
        fleet = tmp_path / "fleet"
        shutil.copytree(DATA / "sharded_converted", fleet)
        walked = tmp_path / "walked"
        walk = SnapshotCube._walked_row

        def spying(snap, index, values, flags):  # runs in the worker
            with open(walked, "a") as log:
                log.write(f"{index}\n")
            return walk(snap, index, values, flags)

        monkeypatch.setattr(SnapshotCube, "_walked_row", spying)
        full = tuple(n - 1 for n in shape)
        boxes = [random_box(rng, dense.shape) for _ in range(40)]
        boxes += [Box((0, 0, 0), (time, *full)) for time in range(10)]
        recovered = ShardedCube.recover(
            fleet, processes=True, start_method="fork", timeout=120.0
        )
        owners = fleet_owners(recovered)
        try:
            expected = [brute_box_sum(dense, box) for box in boxes]
            assert recovered.query_many(boxes) == expected
            points = [(8, x, y) for x in range(6) for y in (0, 5)]
            recovered.update_many(points, [1] * len(points))
            np.add.at(dense, tuple(np.array(points).T), 1)
            expected = [brute_box_sum(dense, box) for box in boxes]
            assert recovered.query_many(boxes) == expected
            assert recovered.total() == int(dense.sum())
        finally:
            recovered.close()
        # once per shard, then cited
        assert walked.read_text().split() == [str(lost)] * 2
        assert not fleet_leaks(owners)


# -- history lives once: the structural invariant, under any history ------------


def _assert_republished_from(rig, before, after, first, created) -> None:
    """Between descriptors ``before`` and ``after``, the rows from ``first``
    up were re-published (and nothing below), and ``created`` is what the
    export made: each re-published row cites a new block but for an offset
    row that kept its offset block over its anchor's new one (its offset did
    not move), every block made is cited, and the frontier comes last."""
    old, new = _rows(before), _rows(after)
    assert [new[i] for i in range(first)] == [old[i] for i in range(first)]
    assert created[-1] == after["frontier"][0]
    fresh = descriptor_blocks(after) - descriptor_blocks(before)
    assert sorted(created) == sorted(fresh)
    anchors = after["anchors"]
    for index in range(first, len(new)):
        if new[index] not in fresh:
            assert anchors[index][0] in fresh
    _assert_history_is_the_published_rows(rig, after)


def _assert_history_is_the_published_rows(rig, descriptor) -> None:
    """Every resident historic slice *is* the row the descriptor cites,
    laid out by the anchor rule (``conftest.assert_row_layout``)."""
    kernel, store = rig.kernel, rig.kernel.store
    first = kernel.retired_instances
    cited = _rows(descriptor)
    assert sorted(cited) == list(range(first, max(kernel.num_slices - 1, first)))
    attached = epoch_from_shared_memory(descriptor, rig.cache).rows
    rows = rig.snap._current.rows
    for index in cited:
        _, payload = kernel.directory.at_index(index)
        assert store.published(payload)
        assert not payload.ps_flags.flags.writeable and payload.ps_flags.all()
        assert payload.ps_count == payload.ps_flags.size
        assert np.array_equal(row_values(payload.values), row_values(attached[index]))
        # the epoch cites the slice's own row, not a copy of it
        assert rows[index] is payload.values
    assert_row_layout({index: rows[index] for index in cited}, first)
    assert_row_layout({index: attached[index] for index in cited}, first)
    # no row outlives an export: the exporter holds what is cited
    assert {name for name, _, _ in rig.exporter._held.values()} == (
        descriptor_blocks(descriptor) - {descriptor["frontier"][0]}
    )
    assert kernel.incomplete_historic_instances() == 0


_times = st.integers(0, 999)


class PublicationMachine(RuleBasedStateMachine):
    """Any history through the publication rig (dense), export after every op.

    Held to: attached answers equal the dense oracle, pinned views and a
    held descriptor keep answering what they answered, every resident
    historic slice is read-only and bit-equal to its cited row, nothing
    the current epoch cites is writable (after every rule), and
    ``/dev/shm`` holds exactly the blocks the live descriptors cite.
    """

    @initialize(buffered=st.booleans(), tiered=st.booleans())
    def build(self, buffered, tiered):
        self.buffered, self.tiered = buffered, tiered
        self.root = tempfile.mkdtemp(prefix="repro-publication-")
        self.rig = Rig(self.root if tiered else None, buffered)
        self.rig.kernel.num_times = None
        self.boundary = 0  # detail below this time may be gone
        self.pins: list[tuple] = []  # (view, boxes, answers)
        self.held = None  # (descriptor, boxes, answers) kept from release
        self.archives = 0
        self.descriptor, self.unreleased = None, []
        for time in (3, 5, 7, 9):  # gaps: an even historic time is a splice
            self.rig.write([time] * 4)
        self.publish()

    def teardown(self):
        if hasattr(self, "rig"):
            for view, _, _ in self.pins:
                view.release()
            self.rig.close()
            shutil.rmtree(self.root, ignore_errors=True)
            assert not fleet_leaks()

    # -- helpers -------------------------------------------------------------------

    @property
    def latest(self) -> int:
        return int(self.rig.kernel.latest_time)

    def _historic(self, number: int, occurring: bool) -> int:
        """A time in ``[boundary, latest)`` that occurs (or never did)."""
        times = set(self.rig.kernel.occurring_times())
        pool = [
            time
            for time in range(self.boundary, self.latest)
            if (time in times) == occurring
        ] or list(range(self.boundary, self.latest))
        return pool[number % len(pool)]

    def _answerable(self, ask) -> tuple[list[Box], list[int]]:
        boxes, answers = [], []
        for box in _boxes(self.rig, count=12):
            try:
                ask(box)
            except AgedOutError:
                continue
            boxes.append(box)
            answers.append(brute_box_sum(self.rig.dense, box))
        return boxes, answers

    def publish(self) -> None:
        rig = self.rig
        descriptor = rig.exporter.export()
        keep = self.held[0] if self.held else descriptor
        rig.exporter.release_below(keep["sequence"])
        # what a release spares: the epochs from the held one on
        self.unreleased = [
            d for d in self.unreleased if keep["sequence"] <= d["sequence"]
        ] + [descriptor] * (descriptor is not self.descriptor)
        boxes, answers = self._answerable(rig.snap.query)
        assert rig.answers(descriptor, boxes) == answers
        _assert_history_is_the_published_rows(rig, descriptor)
        for view, pinned_boxes, pinned in self.pins:
            assert view.query_many(pinned_boxes) == pinned
        if self.held:
            held, held_boxes, held_answers = self.held
            assert rig.answers(held, held_boxes) == held_answers
        # no leak, no early unlink
        assert set(fleet_leaks()) == set().union(
            *map(descriptor_blocks, self.unreleased)
        )
        self.descriptor = descriptor

    has_history = precondition(lambda self: self.latest > self.boundary)

    @invariant()
    def history_is_published_rows(self):
        if hasattr(self, "rig"):
            assert_history_published(self.rig.snap)

    # -- rules ---------------------------------------------------------------------

    @precondition(lambda self: self.latest < NUM_TIMES - 8)
    @rule(k=st.integers(1, 3), gap=st.integers(1, 2))
    def append(self, k, gap):
        times = self.latest + gap * np.arange(1, k + 1)
        self.rig.write(np.repeat(times, 3))
        self.publish()

    @rule(count=st.integers(1, 6))
    def same_time_write(self, count):
        self.rig.write([self.latest] * count)
        self.publish()

    @has_history
    @precondition(lambda self: self.buffered)
    @rule(numbers=st.lists(_times, min_size=1, max_size=3), occurring=st.booleans())
    def late_write(self, numbers, occurring):
        self.rig.write([self._historic(n, occurring) for n in numbers])
        self.publish()

    @precondition(lambda self: self.buffered)
    @rule()
    def drain(self):
        self.rig.snap.drain()
        self.publish()

    @has_history
    @rule(number=_times, occurring=st.booleans())
    def out_of_order(self, number, occurring):
        # at the kernel, past any G_d (the snapshot front of a buffered
        # cube refuses the call by name)
        self.rig.write(
            [self._historic(number, occurring)],
            apply=self.rig.kernel.apply_out_of_order,
        )
        self.publish()

    @rule(number=_times)
    def retire_or_demote(self, number):
        rig, time = self.rig, number % (self.latest + 1)
        if self.tiered:
            rig.snap.target.demote_before(time)
        else:
            if self.buffered:
                rig.snap.drain()  # a retire prunes what G_d holds below it
            rig.snap.retire_before(time)
        self.boundary = max(self.boundary, time)
        self.publish()

    @precondition(lambda self: len(self.pins) < 2)
    @rule()
    def pin(self):
        view = self.rig.snap.pin()
        self.pins.append((view, *self._answerable(view.query)))

    @precondition(lambda self: self.pins)
    @rule()
    def release(self):
        self.pins.pop(0)[0].release()

    @rule()
    def hold_or_let_go(self):
        """A reader keeps (then drops) the descriptor it attached."""
        if self.held is None:
            self.held = (self.descriptor, *self._answerable(self.rig.snap.query))
        else:
            self.held = None
            self.publish()

    @rule()
    def checkpoint_and_restore(self):
        """``state_arrays()`` as they stand -> an archive -> a fresh rig."""
        old = self.rig
        # a new file every time, like the checkpoint writer: layers above
        # the kernel may keep serving off the archive they were restored from
        self.archives += 1
        archive = os.path.join(self.root, f"checkpoint-{self.archives}.npz")
        np.savez(archive, **snapshot_arrays(old.snap.target))
        for view, _, _ in self.pins:
            view.release()
        self.pins, self.held, self.unreleased = [], None, []
        old.close()
        with open_checkpoint(archive) as arrays:
            rig = Rig(self.root if self.tiered else None, self.buffered, arrays)
        rig.kernel.num_times = None
        rig.dense, rig.rng = old.dense, old.rng
        self.rig = rig
        self.publish()


TestPublicationMachine = PublicationMachine.TestCase
TestPublicationMachine.settings = settings(
    max_examples=30, stateful_step_count=14, deadline=None
)


def test_a_block_that_fails_while_being_filled_does_not_leak():
    owner = BlockOwner("leak")
    unfillable = {"fine": np.arange(8), "bad": np.array([{}], dtype=object)}
    with pytest.raises(ValueError):
        owner.create(unfillable)
    assert not fleet_leaks() and not len(owner)
    name = owner.create({"fine": np.arange(8)})[0]
    assert fleet_leaks() == [name]
    owner.close_all()
    assert not fleet_leaks()


_KILLED_AFTER_A_CORRECTION = """
import os, signal
import numpy as np
from repro.concurrent import SnapshotCube
from repro.ecube import EvolvingDataCube
from repro.sharding import EpochExporter, leaked_segments
from repro.sharding.shm import _owner_pid
snap = SnapshotCube(EvolvingDataCube((6, 5)))
exporter = EpochExporter(snap, tag="doomed")
for time in range(8):
    snap.update_many([[time, time % 6, time % 5]], [1])
    exporter.release_below(exporter.export()["sequence"])
def mine():
    return {name for name in leaked_segments() if _owner_pid(name) == os.getpid()}
before = mine()
# re-publishes rows 3 to 6 into new blocks; the old ones are unlinked by
# the next export
snap.apply_out_of_order((3, 2, 2), 5)
assert len(mine() - before) == 4 and len(exporter._held) == 11
print(os.getpid(), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_a_kill_between_promotion_and_export_leaves_only_sweepable_blocks():
    result = subprocess.run(
        [sys.executable, "-c", _KILLED_AFTER_A_CORRECTION],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert result.returncode == -signal.SIGKILL, result.stderr
    pid = int(result.stdout)
    left = fleet_leaks({pid})
    # 7 rows + a frontier and the 4 rows re-published: every one carries
    # the dead owner's pid, which is all the sweep needs
    assert len(left) == 12
    assert all(name.startswith(f"repro-ecube-doomed-{pid}-") for name in left)
    assert sorted(unlink_orphaned()) == left
    assert not fleet_leaks({pid})


# -- no resource tracker: who cleans up, and what a reader sees -----------------

_NO_TRACKER = """
import os, sys
from repro.core.types import Box
from repro.sharding import ShardedCube
with ShardedCube((6, 6), shards=2, processes=True, timeout=120.0) as cube:
    cube.update_many([[t, t % 6, 5 - t % 6] for t in range(12)], [1] * 12)
    assert cube.query(Box((0, 0, 0), (11, 5, 5))) == 12
    print(os.getpid(), *(handle.process.pid for handle in cube.router.handles))
tracker = sys.modules.get("multiprocessing.resource_tracker")
assert tracker is None or tracker._resource_tracker._pid is None, "tracker ran"
"""


def _descendants(pid: int) -> dict[int, str]:
    """pid -> command line of every live descendant of ``pid``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                with open(f"/proc/{entry}/cmdline") as handle:
                    parents[int(entry)] = (int(fields[1]), fields[0], handle.read())
            except OSError:
                continue  # exited while we looked
    found: dict[int, str] = {}
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, (ppid, state, cmdline) in parents.items():
            if ppid == parent and state != "Z" and child not in found:
                found[child] = cmdline
                frontier.append(child)
    return found


class TestNoTracker:
    def test_a_process_fleet_starts_no_resource_tracker(self):
        result = subprocess.run(
            [sys.executable, "-c", _NO_TRACKER],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert not fleet_leaks(map(int, result.stdout.split()))

    def test_a_killed_workers_blocks_outlive_it_until_close(self, rng):
        shape = (10, 6, 6)
        cube = ShardedCube(shape[1:], shards=2, processes=True, timeout=120.0)
        owners = fleet_owners(cube)
        try:
            dense = np.zeros(shape, dtype=np.int64)
            points = np.column_stack(
                [np.sort(rng.integers(0, 9, size=60))]
                + [rng.integers(0, 6, size=60) for _ in range(2)]
            ).astype(np.int64)
            cube.update_many(points, [1] * 60)
            np.add.at(dense, tuple(points.T), 1)
            boxes = [random_box(rng, shape) for _ in range(30)]
            expected = [brute_box_sum(dense, box) for box in boxes]
            assert cube.query_many(boxes) == expected
            victim = cube.router.handles[0]
            held = {i: h.descriptor for i, h in enumerate(cube.router.handles)}
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=30)
            assert not victim.is_alive()
            # nobody unlinked behind the router: the epoch it holds is whole,
            # on its mappings and for a first attach alike
            assert descriptor_blocks(held[0]) <= set(leaked_segments())
            reader = cube.router.reader_state
            assert reader.query_many(held, boxes) == expected
            assert type(reader)(cube.partitioner).query_many(held, boxes) == expected
            # ... while the fleet refuses what needs the dead shard
            with pytest.raises(ShardUnavailableError):
                cube.update_many([[9, 0, 0]], [1])
            with pytest.raises(ShardUnavailableError):
                cube.query_many(boxes)
            with pytest.raises(ShardUnavailableError):
                cube.total()
        finally:
            cube.close()
        assert not fleet_leaks(owners)

    def test_untiered_serve_is_one_process(self, tmp_path):
        process, banner = _serve_cli(tmp_path)
        try:
            assert banner["processes"] is False
            port = int(banner["listening"].rsplit(":", 1)[1])
            with ShardClient("127.0.0.1", port) as client:
                client.update_many([[0, 1, 1], [0, 5, 5]], [1, 2])
                assert client.total() == 3
            assert _descendants(process.pid) == {}
        finally:
            _stop_cli(process)

    def test_tiered_serve_is_one_process_and_stops_clean(self, tmp_path):
        process, banner = _serve_cli(tmp_path, *TIERED, shape="8,8")
        try:
            assert banner["processes"] is False
            port = int(banner["listening"].rsplit(":", 1)[1])
            with ShardClient("127.0.0.1", port) as client:
                for time in range(10):
                    client.update_many([[time, 1, 1], [time, 6, 6]], [1, 1])
                assert client.demote_before(6) > 0
                assert client.query(Box((0, 0, 0), (9, 7, 7))) == 20
                assert client.topk_many([(2, 4, 1)]) == [[((1, 1), 3)]]
            assert _descendants(process.pid) == {}
        finally:
            stderr = _stop_cli(process)
        assert "KeyError" not in stderr and "resource_tracker" not in stderr
        assert "Traceback" not in stderr
        assert not fleet_leaks({process.pid})
