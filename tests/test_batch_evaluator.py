"""The one fast batch read, through each of its three callers.

:func:`repro.ecube.fastpath.stacked_query_many` answers ``query_many``
for the live kernel, for a pinned :class:`SnapshotView` and for an epoch
attached from shared memory (``EpochExporter`` ->
``epoch_from_shared_memory`` -> ``prepare_epoch``).  The differential
half drives all three over the *same* cube state -- mixed, fully-PS and
latest slices in one batch, a slice whose DDC state is unrecoverable,
``G_d`` contributions -- against the brute-force NumPy oracle.  The live
kernel runs on every backend; pinned and shared-memory epochs serve the
dense store only, and a bare paged or sparse kernel takes its late
arrivals through its own out-of-order path.  The state is built on the
bare front and served afterwards, as a snapshot front attached to a
kernel with history finds it: its publication finishes every historic
instance into a row, so an epoch -- pinned or attached -- gathers from
rows and sweeps only its latest instance.  The counting half pins down
that reuse contract: a slice is normalized once, never once per batch.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.concurrent import SnapshotCube, prepare_epoch
from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box
from repro.ecube import compiled, fastpath
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.fastpath import FastSliceEngine
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.metrics import CostCounter
from repro.sharding import BlockCache, EpochExporter, GridPartitioner
from repro.sharding.shm import epoch_from_shared_memory
from repro.sharding.worker import ReaderState

from .conftest import brute_box_sum, fleet_leaks, random_box

BACKENDS = ("dense", "paged", "sparse")
CALLERS = ("kernel", "pinned", "shm")
#: the bare kernels of the paper's other two cost models
BARE = {"paged": DiskEvolvingDataCube, "sparse": SparseEvolvingDataCube}
SHAPE = (6, 5)
NUM_TIMES = 26
#: the first occurring times are even, so an odd time floors onto its even
#: neighbour: a box over one odd time has both prefixes on one slice
TIMES = range(0, 22, 2)
#: ... followed by two adjacent ones; the rest of the domain stays free
TAIL = (22, 23)
#: instance indices the rig bulk-finalizes (fully PS)
FINAL = (1, 6)


class Rig:
    """One cube state behind the evaluator's three callers."""

    def __init__(
        self, backend: str, buffered: bool, rng, counter=None, serve=True
    ) -> None:
        self.dense = np.zeros((NUM_TIMES,) + SHAPE, dtype=np.int64)
        self.snap = self.exporter = self.cache = self._remote = None
        if backend in BARE:
            # a cost model is served bare: the live kernel is its one caller
            self.kernel = self.front = self.writer = BARE[backend](
                SHAPE, num_times=NUM_TIMES, counter=counter
            )
        else:
            front = BufferedEvolvingDataCube(SHAPE, num_times=NUM_TIMES, counter=counter)
            self.kernel = front.cube
            self.front = self.writer = front if buffered else front.cube
        for time in TIMES:
            self.append(time, rng, 12)
        # a metered read converts the cells it walks on a historic slice;
        # where the lazy copy had already landed the conversion overwrote
        # the cell's DDC value: the slice's DDC state is unrecoverable
        self.lost = 3
        self.kernel.query(Box((0, 1, 1), (int(TIMES[self.lost]), 4, 3)))
        for time in TAIL:
            self.append(time, rng, 25)
        # two slices are fully PS, the rest stay mixed
        for index in FINAL:
            assert self.kernel.bulk_finalize_slice(index)
        if buffered:
            late = self._points(rng, rng.integers(0, TAIL[0], size=9))
            deltas = rng.integers(1, 7, size=9).astype(np.int64)
            if backend in BARE:  # no G_d over a bare kernel: cascade them
                self.kernel.apply_out_of_order_many(late, deltas)
            else:
                self.front.update_many(late, deltas, mode="fast")
                assert self.front.buffered_updates == 9
            np.add.at(self.dense, tuple(late.T), deltas)
        if serve and backend not in BARE:
            self.snap = self.writer = SnapshotCube(self.front)
            self.exporter = EpochExporter(self.snap)
            self.cache = BlockCache()

    @staticmethod
    def _points(rng, times) -> np.ndarray:
        columns = [np.asarray(times)] + [
            rng.integers(0, n, size=len(times)) for n in SHAPE
        ]
        return np.column_stack(columns).astype(np.int64)

    def append(self, time: int, rng, count: int) -> None:
        points = self._points(rng, np.full(count, time))
        deltas = rng.integers(-2, 9, size=count).astype(np.int64)
        self.writer.update_many(points, deltas)
        np.add.at(self.dense, tuple(points.T), deltas)

    def boxes(self, rng, count: int = 40) -> list[Box]:
        full = tuple(n - 1 for n in SHAPE)
        return [random_box(rng, self.dense.shape) for _ in range(count)] + [
            Box((5, 0, 0), (5,) + full),  # both prefixes on one slice
            Box((0, 0, 0), (NUM_TIMES - 1,) + full),  # latest minus nothing
            Box((3, 1, 1), (int(TIMES[self.lost]), 4, 3)),  # the lost block
            Box((2, 0, 0), (int(TIMES[self.lost]) + 1, 0, 0)),
            Box((-4, -3, 2), (NUM_TIMES + 5, 99, 99)),  # overhang clips
        ]

    def remote_view(self):
        """The current epoch, attached from shared memory."""
        self._remote = None  # drop the old views before their mappings
        self._remote = prepare_epoch(
            epoch_from_shared_memory(self.exporter.export(), self.cache)
        )
        return self._remote

    def ask(self, caller: str, boxes: list[Box]) -> list[int]:
        if caller == "kernel":
            return self.front.query_many(boxes, mode="fast")
        if caller == "pinned":
            with self.snap.pin() as view:
                return view.query_many(boxes)
        return self.remote_view().query_many(boxes)

    def close(self) -> None:
        self._remote = None
        if self.snap is not None:
            self.cache.close_all()
            self.exporter.close()
            self.snap.close()


@pytest.fixture
def rig_factory():
    rigs: list[Rig] = []

    def build(backend="dense", buffered=True, counter=None, serve=True) -> Rig:
        # every rig replays the same seeded stream: two of them are twins
        rigs.append(Rig(backend, buffered, np.random.default_rng(7), counter, serve))
        return rigs[-1]

    yield build
    for rig in rigs:
        rig.close()
    assert not fleet_leaks()


@pytest.fixture
def evaluations(monkeypatch):
    """Jobs per call of the evaluator's corner location (one per batch read)."""
    calls: list[int] = []
    original = fastpath._corner_terms

    def counting(lowers, uppers, shape):
        calls.append(int(lowers.shape[0]))
        return original(lowers, uppers, shape)

    monkeypatch.setattr(fastpath, "_corner_terms", counting)
    return calls


class TestDifferential:
    @pytest.mark.parametrize(
        "caller, backend, buffered",
        [
            (caller, backend, buffered)
            for caller in CALLERS
            for backend in BACKENDS
            for buffered in (False, True)
            if caller == "kernel" or backend not in BARE
        ],
    )
    def test_matches_oracle(
        self, rig_factory, rng, evaluations, caller, backend, buffered
    ):
        rig = rig_factory(backend, buffered)
        boxes = rig.boxes(rng)
        expected = [
            brute_box_sum(rig.dense, box.clip_to(rig.dense.shape)) for box in boxes
        ]
        del evaluations[:]
        assert rig.ask(caller, boxes) == expected
        # every caller is the same evaluation: one pass over all the jobs
        assert len(evaluations) == 1
        # ... and again, now that slices were finalized / memoized
        assert rig.ask(caller, boxes) == expected
        assert rig.ask(caller, boxes[:1]) == expected[:1]
        assert rig.ask(caller, []) == []

    @pytest.mark.parametrize("caller", CALLERS)
    def test_unrecoverable_slice_takes_the_fallback(
        self, rig_factory, monkeypatch, caller
    ):
        # served, the lost instance was walked once into a row at attach
        rig = rig_factory("dense", buffered=False, serve=caller != "kernel")
        blocks: list[bool] = []  # per fallback box: did the term block answer?
        mixed_range = FastSliceEngine.mixed_range

        def spying(engine, *args):
            result = mixed_range(engine, *args)
            blocks.append(result is not None)
            return result

        monkeypatch.setattr(FastSliceEngine, "mixed_range", spying)
        time = int(TIMES[rig.lost])
        inside = Box((time, 1, 1), (time, 4, 3))  # term block holds a lost cell
        beside = Box((time, 5, 4), (time, 5, 4))  # ... and this one does not
        expected = [brute_box_sum(rig.dense, box) for box in (inside, beside)]
        assert rig.ask(caller, [inside, beside]) == expected
        if caller != "kernel":
            # publication walked the instance once, into a finished row: a
            # pinned or attached reader gathers from it like from any other
            assert blocks == []
            return
        assert sorted(blocks) == [False, True]  # per-cell walk, block gather
        # never finalized, never memoized: the next batch falls back again
        assert not rig.kernel.bulk_finalize_slice(rig.lost)
        assert rig.ask(caller, [inside, beside]) == expected
        assert sorted(blocks) == [False, False, True, True]

    def test_all_callers_raise_the_same_errors(self, rig_factory):
        rig = rig_factory("dense", buffered=False)
        rig.snap.retire_before(int(TIMES[4]))
        cases = {
            AgedOutError: Box((2, 0, 0), (9, 3, 3)),
            DomainError: Box((0, 7, 0), (9, 9, 3)),  # empty after clipping
        }
        for error, box in cases.items():
            messages = set()
            for caller in CALLERS:
                with pytest.raises(error) as raised:
                    rig.ask(caller, [Box((0, 0, 0), (3, 1, 1)), box])
                messages.add(str(raised.value))
            assert len(messages) == 1, messages
        # the metered walk shares the aged-out text with the evaluator
        with pytest.raises(AgedOutError) as raised:
            rig.kernel.query(cases[AgedOutError])
        with pytest.raises(AgedOutError) as fast:
            rig.kernel.query_many([cases[AgedOutError]], mode="fast")
        assert str(raised.value) == str(fast.value)
        # open prefixes from the beginning of time stay answerable
        box = Box((0, 0, 0), (NUM_TIMES - 1, 5, 4))
        answers = {caller: rig.ask(caller, [box]) for caller in CALLERS}
        assert len({tuple(a) for a in answers.values()}) == 1
        with pytest.raises(DomainError, match="arity"):
            rig.ask("pinned", [Box((0, 0), (1, 1))])

    @pytest.mark.parametrize("backend", ["dense"])  # the store epochs serve
    def test_frozen_callers_charge_and_mark_nothing(self, rig_factory, rng, backend):
        counter = CostCounter()
        rig = rig_factory(backend, buffered=True, counter=counter)
        boxes = rig.boxes(rng)
        golden = counter.snapshot()

        def conversion_state():
            return [
                rig.kernel.directory.at_index(i)[1].ps_count
                for i in range(rig.kernel.num_slices)
            ]

        converted = conversion_state()
        for caller in ("pinned", "shm"):
            rig.ask(caller, boxes)
            after = counter.snapshot()
            assert after.cell_accesses == golden.cell_accesses
            assert after.page_accesses == golden.page_accesses
            if caller != "shm":
                assert converted == conversion_state()
        # publication hands a dense store its history back: every historic
        # slice *is* the row the descriptor cites, finished and immutable
        descriptor = rig.exporter.export()
        assert [i for i, _, _ in descriptor["slices"]] == list(
            range(rig.kernel.num_slices - 1)
        )
        for index, name, metas in descriptor["slices"]:
            _, payload = rig.kernel.directory.at_index(index)
            assert not payload.values.flags.writeable
            assert not payload.ps_flags.flags.writeable
            assert payload.ps_flags.all() and payload.ps_count == payload.values.size
            assert np.array_equal(payload.values, rig.cache.arrays(name, metas)["ps"])

    def test_reader_threads_share_one_epochs_rows(self, rig_factory, rng):
        rig = rig_factory("dense", buffered=True)
        boxes = rig.boxes(rng, count=60)
        expected = [
            brute_box_sum(rig.dense, box.clip_to(rig.dense.shape)) for box in boxes
        ]
        errors: list[str] = []
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait(timeout=60)
            for _ in range(5):
                if rig.snap.query_many(boxes) != expected:
                    errors.append("batch mismatch")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors


@pytest.fixture
def normalized(monkeypatch):
    """Rows handed to the two normalization kernels, per call."""
    rows = {"effective_ddc": [], "fenwick": []}
    effective = compiled.effective_ddc_batch
    fenwick = compiled.fenwick_to_ps_inplace

    def counting_effective(values2d, *args):
        rows["effective_ddc"].append(int(values2d.shape[0]))
        return effective(values2d, *args)

    def counting_fenwick(block, axes_sizes, axis_offset=0):
        rows["fenwick"].append(int(block.shape[0]) if axis_offset else 1)
        return fenwick(block, axes_sizes, axis_offset)

    monkeypatch.setattr(compiled, "effective_ddc_batch", counting_effective)
    monkeypatch.setattr(compiled, "fenwick_to_ps_inplace", counting_fenwick)
    return rows


def _every_prefix() -> list[Box]:
    """One box per time: together they touch every instance."""
    return [
        Box((0, 0, 0), (time, SHAPE[0] - 1, SHAPE[1] - 1))
        for time in range(NUM_TIMES)
    ]


class TestReuse:
    @pytest.mark.parametrize("caller", ["pinned", "shm"])
    def test_a_repeated_batch_normalizes_nothing(self, rig_factory, normalized, caller):
        rig = rig_factory("dense", buffered=True)
        boxes = _every_prefix()
        view = rig.snap.pin() if caller == "pinned" else rig.remote_view()
        for rows in normalized.values():
            del rows[:]  # the rig's own bulk finalizes
        first = view.query_many(boxes)
        # history is finished rows: only the latest is swept, once
        assert normalized == {"effective_ddc": [], "fenwick": [1]}
        for rows in normalized.values():
            del rows[:]
        assert view.query_many(boxes) == first
        assert normalized == {"effective_ddc": [], "fenwick": []}
        if caller == "pinned":
            view.release()

    def test_a_new_epoch_normalizes_only_changed_freezes(
        self, rig_factory, rng, normalized
    ):
        rig = rig_factory("dense", buffered=True)
        reader = ReaderState(GridPartitioner(SHAPE, (1, 1)))
        boxes = _every_prefix()
        try:
            before = rig.exporter.export()
            first = reader.query_many({0: before}, boxes)
            assert first == [brute_box_sum(rig.dense, box) for box in boxes]
            for rows in normalized.values():
                del rows[:]
            # one more append: the old latest becomes historic; the forced
            # lazy copies it lands in older slices move no content
            rig.snap.update((NUM_TIMES - 1, 2, 2), 5)
            rig.dense[NUM_TIMES - 1, 2, 2] += 5
            after = rig.exporter.export()
            assert [row for row in after["slices"] if row not in before["slices"]] == [
                after["slices"][-1]
            ]
            # publication swept that one instance ...
            assert normalized == {"effective_ddc": [1], "fenwick": [1]}
            assert reader.query_many({0: after}, boxes) == [
                brute_box_sum(rig.dense, box) for box in boxes
            ]
            # ... and the reader the new epoch's latest
            assert normalized == {"effective_ddc": [1], "fenwick": [1, 1]}
        finally:
            reader.close()
