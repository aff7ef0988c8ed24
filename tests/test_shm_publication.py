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

from repro.concurrent import SnapshotCube, prepare_epoch
from repro.core.errors import AgedOutError, ShardUnavailableError, StorageError
from repro.core.front import layers
from repro.core.types import Box
from repro.durability.checkpoint import snapshot_arrays
from repro.ecube.buffered import BufferedEvolvingDataCube
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
    row_dtype,
    unlink_orphaned,
)
from repro.storage.mmap_npz import open_checkpoint

from .conftest import brute_box_sum, random_box
from .test_shard_server import _serve_cli, _stop_cli

SHAPE = (6, 5)
NUM_TIMES = 40
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]


class CountingOwner(BlockOwner):
    """A :class:`BlockOwner` that remembers the names it created."""

    def __init__(self, tag: str) -> None:
        super().__init__(tag)
        self.created: list[str] = []

    def create(self, arrays):
        block = super().create(arrays)
        self.created.append(block[0])
        return block


class Rig:
    """A cube, its exporter with a counting owner, and a dense oracle."""

    def __init__(self, tmp_path=None, buffered=True, restore=None) -> None:
        front = BufferedEvolvingDataCube(SHAPE, num_times=NUM_TIMES)
        self.kernel = front.cube
        front = front if buffered else front.cube
        if tmp_path is not None:
            front = TieredCube(front, TIERS, tmp_path)
        if restore is not None:  # a checkpoint archive: each layer its own
            for layer in reversed(layers(front).values()):
                layer.restore_state(restore)
        self.snap = SnapshotCube(front)
        self.exporter = EpochExporter(self.snap, tag="pub")
        self.owner = self.exporter.owner = CountingOwner("pub")
        self.cache = BlockCache()
        self.dense = np.zeros((NUM_TIMES,) + SHAPE, dtype=np.int64)
        self.rng = np.random.default_rng(11)

    def write(self, times, apply=None) -> None:
        """Random updates at ``times`` through ``apply`` (default: the front)."""
        times = np.asarray(times)
        points = np.column_stack(
            [times] + [self.rng.integers(0, n, size=len(times)) for n in SHAPE]
        ).astype(np.int64)
        deltas = self.rng.integers(1, 9, size=len(times)).astype(np.int64)
        if apply is None:
            self.snap.update_many(points, deltas)
        else:
            for point, delta in zip(points, deltas):
                apply(tuple(int(c) for c in point), int(delta))
        np.add.at(self.dense, tuple(points.T), deltas)

    def export(self) -> tuple[dict, list[str]]:
        """``(descriptor, names created since the previous export)``; older
        epochs released.  A successor row is born when a correction
        promotes its slice, before the export that cites it."""
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
    assert not leaked_segments()


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
        rig.write([7 if splice else 8], apply=rig.snap.apply_out_of_order)
        after, created = rig.export()
        old, new = _rows(before), _rows(after)
        historic = len(times) - 1 + splice
        assert sorted(new) == list(range(historic))
        assert [new[i] for i in range(4)] == [old[i] for i in range(4)]
        # int64 successor rows are born in the cascade, one per promoted
        # instance; the export re-publishes each at its values' width (and
        # unlinks it) and sweeps a spliced clone into a row: which rows,
        # not in which order
        assert created[-1] == after["frontier"][0]
        successors, published = _split_created(created, historic - 4)
        assert sorted(published) == sorted(new[i] for i in range(4, historic))
        assert len(successors) == historic - 4 - splice
        assert not set(successors) & set(leaked_segments())
        assert not set(created) & set(old.values())
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
        # three cascades, newest first: a slice is promoted by the first one
        # that reaches it and corrected in place by the others; the export
        # publishes the rows from 3 up, each at its width, and unlinks the
        # successors it re-published narrow
        assert created[-1] == after["frontier"][0]
        successors, published = _split_created(created, len(new) - 3)
        assert sorted(published) == sorted(new[i] for i in range(3, len(new)))
        assert successors and not set(successors) & set(leaked_segments())
        _assert_history_is_the_published_rows(rig, after)
        boxes = _boxes(rig)
        assert rig.answers(after, boxes) == rig.expected(boxes)

    def test_only_a_fully_ps_successor_is_sealed(self, rig_factory):
        rig = rig_factory(buffered=False)
        for time in range(6):
            rig.write([time] * 5)
        rig.export()
        rig.write([2], apply=rig.snap.apply_out_of_order)
        kept, lost = (rig.kernel.directory.at_index(i)[1] for i in (2, 3))
        successors = {key: held[0] for key, held in rig.exporter._unsealed.items()}
        assert kept.values.flags.writeable and lost.values.flags.writeable
        lost.ps_flags = lost.ps_flags.copy()  # flags of its own: no longer "fully PS"
        assert not rig.kernel.store.seal(lost) and lost.values.flags.writeable
        kept_row, lost_row = kept.values, lost.values
        descriptor, _ = rig.export()
        new = _rows(descriptor)
        # the sealed successor's values fit a narrower width: re-published
        # at it and re-adopted, the int64 successor unlinked; the other is
        # unlinked and its slice swept into (and adopted as) a row of its own
        assert kept.values is not kept_row
        assert np.array_equal(kept.values, kept_row)
        assert kept.values.dtype.itemsize < 8 and new[2] != successors[id(kept_row)]
        assert lost.values is not lost_row and new[3] != successors[id(lost_row)]
        assert not {successors[id(kept_row)], successors[id(lost_row)]} & set(
            leaked_segments()
        )
        _assert_history_is_the_published_rows(rig, descriptor)
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

    def test_a_successor_that_needs_int64_is_cited_as_it_stands(self, rig_factory):
        rig = rig_factory(buffered=False)
        for time in range(6):
            rig.write([time] * 5)
        rig.export()
        rig.snap.apply_out_of_order((2, 1, 1), 2**40)
        rig.dense[2, 1, 1] += 2**40
        kept = rig.kernel.directory.at_index(2)[1]
        kept_row = kept.values
        assert kept_row.dtype == np.int64 and kept_row.flags.writeable
        descriptor, created = rig.export()
        # sealed, not copied: each instance the correction reached (2 to
        # 4) is cited as its own int64 successor, and no other row is made
        assert kept.values is kept_row and not kept_row.flags.writeable
        new = _rows(descriptor)
        assert created == [new[2], new[3], new[4], descriptor["frontier"][0]]
        _assert_history_is_the_published_rows(rig, descriptor)
        boxes = _boxes(rig)
        assert rig.answers(descriptor, boxes) == rig.expected(boxes)

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
        assert not {old[i] for i in range(5)} & set(leaked_segments())
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
        before = set(leaked_segments())
        rig.snap.update_many([[256, 1, 1], [256, 2, 2]], [1, 1])
        descriptor, created = rig.export()
        assert len(descriptor["slices"]) == 256
        assert len(created) <= 3
        # superseded blocks are gone: the new row, and a frontier swapped
        assert len(set(leaked_segments())) == len(before) + 1

    def test_the_unrecoverable_instance_is_walked_once(self, rig_factory, monkeypatch):
        rig = rig_factory()
        for time in range(6):
            rig.write([time] * 10)
        # a metered read converts cells of instance 3; where the lazy copy
        # had landed, the conversion overwrote the cell's DDC value
        rig.kernel.query(Box((0, 1, 1), (3, 4, 3)))
        rig.write([6] * 25)
        assert not rig.kernel.bulk_finalize_slice(3)
        walked: list[int] = []
        walk = EpochExporter._walked_row

        def spying(exporter, index, values, flags):
            walked.append(index)
            return walk(exporter, index, values, flags)

        monkeypatch.setattr(EpochExporter, "_walked_row", spying)
        descriptor, _ = rig.export()
        assert walked == [3]
        _, name, metas = descriptor["slices"][3]
        assert np.array_equal(
            rig.cache.arrays(name, metas)["ps"],
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
        """The input that reaches the walk when the fleet itself reads and
        writes in fast mode only: a directory an inline shard checkpointed
        after its kernel answered a counted ``query``, recovered by a
        process fleet."""
        rng = np.random.default_rng(11)
        dense = np.zeros((NUM_TIMES,) + SHAPE, dtype=np.int64)

        def write(cube, times):
            points = np.column_stack(
                [times] + [rng.integers(0, n, size=len(times)) for n in SHAPE]
            ).astype(np.int64)
            deltas = rng.integers(1, 9, size=len(times)).astype(np.int64)
            cube.update_many(points, deltas)
            np.add.at(dense, tuple(points.T), deltas)

        fleet = tmp_path / "fleet"
        with ShardedCube(
            SHAPE, shards=1, processes=False, durable_dir=fleet, fsync="off",
            num_times=NUM_TIMES,
        ) as cube:  # fmt: skip
            for time in range(6):
                write(cube, [time] * 10)
            kernel = cube.router.handles[0].state.kernel
            kernel.query(Box((0, 1, 1), (3, 4, 3)))  # converts cells of 3
            write(cube, [6] * 25)
            assert not kernel.bulk_finalize_slice(3)
            cube.checkpoint()
        walked = tmp_path / "walked"
        walk = EpochExporter._walked_row

        def spying(exporter, index, values, flags):  # runs in the worker
            with open(walked, "a") as log:
                log.write(f"{index}\n")
            return walk(exporter, index, values, flags)

        monkeypatch.setattr(EpochExporter, "_walked_row", spying)
        full = tuple(n - 1 for n in SHAPE)
        boxes = [random_box(rng, dense.shape) for _ in range(40)]
        boxes += [Box((0, 0, 0), (time, *full)) for time in range(8)]
        recovered = ShardedCube.recover(
            fleet, processes=True, start_method="fork", timeout=120.0
        )
        try:
            expected = [brute_box_sum(dense, box) for box in boxes]
            assert recovered.query_many(boxes) == expected
            write(recovered, [7] * 5)
            expected = [brute_box_sum(dense, box) for box in boxes]
            assert recovered.query_many(boxes) == expected
            assert recovered.total() == int(dense.sum())
        finally:
            recovered.close()
        assert walked.read_text().split() == ["3"]  # once, then cited
        assert not leaked_segments()


# -- history lives once: the structural invariant, under any history ------------


def _split_created(created: list[str], rows: int) -> tuple[list[str], list[str]]:
    """``(successors, rows published)`` of one correction and its export:
    the successors are born in the cascade, before the export creates its
    ``rows`` rows and then the frontier block."""
    return created[: -1 - rows], created[-1 - rows : -1]


def _assert_history_is_the_published_rows(rig, descriptor) -> None:
    """Every resident historic slice *is* the row the descriptor cites,
    stored at the narrowest width that holds its values."""
    kernel, store = rig.kernel, rig.kernel.store
    first = kernel.retired_instances
    cited = _rows(descriptor)
    assert sorted(cited) == list(range(first, max(kernel.num_slices - 1, first)))
    for index, name in cited.items():
        _, payload = kernel.directory.at_index(index)
        assert not payload.values.flags.writeable
        assert payload.values.dtype == row_dtype(payload.values)
        assert not payload.ps_flags.flags.writeable and payload.ps_flags.all()
        assert payload.ps_count == payload.values.size
        metas = descriptor["slices"][index - first][2]
        assert np.array_equal(payload.values, rig.cache.arrays(name, metas)["ps"])
        # freezing an immutable slice takes references, not copies
        frozen = store.freeze_slice(payload)
        assert frozen[0] is payload.values and frozen[1] is payload.ps_flags
    assert not rig.exporter._unsealed  # no successor row outlives an export
    assert kernel.incomplete_historic_instances() == 0


_times = st.integers(0, 999)


class PublicationMachine(RuleBasedStateMachine):
    """Any history through the publication rig (dense), export after every op.

    Held to: attached answers equal the dense oracle, pinned views and a
    held descriptor keep answering what they answered, every resident
    historic slice is read-only and bit-equal to its cited row, and
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
            assert not leaked_segments()

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
        assert set(leaked_segments()) == set().union(
            *map(descriptor_blocks, self.unreleased)
        )
        self.descriptor = descriptor

    has_history = precondition(lambda self: self.latest > self.boundary)

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
    assert not leaked_segments() and not len(owner)
    name = owner.create({"fine": np.arange(8)})[0]
    assert leaked_segments() == [name]
    owner.close_all()
    assert not leaked_segments()


_KILLED_AFTER_A_PROMOTION = """
import os, signal
import numpy as np
from repro.concurrent import SnapshotCube
from repro.ecube import EvolvingDataCube
from repro.sharding import EpochExporter, leaked_segments
snap = SnapshotCube(EvolvingDataCube((6, 5)))
exporter = EpochExporter(snap, tag="doomed")
for time in range(8):
    snap.update_many([[time, time % 6, time % 5]], [1])
    exporter.release_below(exporter.export()["sequence"])
before = set(leaked_segments())
snap.apply_out_of_order((3, 2, 2), 5)  # promotes rows 3.. into successors
assert len(set(leaked_segments()) - before) == 4 and len(exporter._unsealed) == 4
print(os.getpid(), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_a_kill_between_promotion_and_export_leaves_only_sweepable_blocks():
    result = subprocess.run(
        [sys.executable, "-c", _KILLED_AFTER_A_PROMOTION],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert result.returncode == -signal.SIGKILL, result.stderr
    pid = int(result.stdout)
    left = leaked_segments()
    # 7 rows + a frontier, and the 4 successor rows nothing cites yet: every
    # one carries the dead owner's pid, which is all the sweep needs
    assert len(left) == 12
    assert all(name.startswith(f"repro-ecube-doomed-{pid}-") for name in left)
    assert sorted(unlink_orphaned()) == left
    assert not leaked_segments()


# -- no resource tracker: who cleans up, and what a reader sees -----------------

_NO_TRACKER = """
import sys
from repro.core.types import Box
from repro.sharding import ShardedCube
with ShardedCube((6, 6), shards=2, processes=True, timeout=120.0) as cube:
    cube.update_many([[t, t % 6, 5 - t % 6] for t in range(12)], [1] * 12)
    assert cube.query(Box((0, 0, 0), (11, 5, 5))) == 12
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
        assert not leaked_segments()

    def test_a_killed_workers_blocks_outlive_it_until_close(self, rng):
        shape = (10, 6, 6)
        cube = ShardedCube(shape[1:], shards=2, processes=True, timeout=120.0)
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
        assert not leaked_segments()

    def test_serve_is_three_processes_and_stops_clean(self, tmp_path):
        process, banner = _serve_cli(tmp_path, inline=False, shape="8,8")
        try:
            port = int(banner["listening"].rsplit(":", 1)[1])
            with ShardClient("127.0.0.1", port) as client:
                for time in range(10):
                    client.update_many([[time, 1, 1], [time, 6, 6]], [1, 1])
                assert client.query(Box((0, 0, 0), (9, 7, 7))) == 20
            family = _descendants(process.pid)
            assert len(family) == 2, family  # the router's two workers
            assert not any("resource_tracker" in cmd for cmd in family.values())
        finally:
            stderr = _stop_cli(process)
        assert "KeyError" not in stderr and "resource_tracker" not in stderr
        assert "Traceback" not in stderr
        assert not leaked_segments()
