"""Cross-backend equivalence: one kernel, three slice stores.

The dense, paged and sparse cubes are the same
:class:`~repro.ecube.kernel.CubeKernel` over different
:class:`~repro.ecube.stores.SliceStore` backends, so on a shared random
workload they must produce *identical query answers* and -- because
counted cell reads are structural (term-set walks and conversion
recursion depend only on the query history, never on where bytes live)
-- *identical counted cell accesses* for the metered query phase.  These
tests pin that equivalence, plus the uniform availability of the batch
engine, out-of-order corrections and data aging on every backend, and
drive each backend through a Hypothesis stateful machine against a
dense numpy model.  Every backend here is a bare kernel: the layers
above the kernel serve the dense store only.
"""

from __future__ import annotations

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

from repro.core.errors import AgedOutError
from repro.core.types import Box
from repro.durability import DurableCube, read_manifest
from repro.durability.recovery import build_front
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.metrics import CostCounter

from tests.conftest import brute_box_sum, random_box

BACKENDS = ("dense", "paged", "sparse")


def make_cube(backend, slice_shape, num_times=None):
    if backend == "dense":
        return EvolvingDataCube(
            slice_shape, num_times=num_times, counter=CostCounter()
        )
    if backend == "paged":
        # small pages so several pages per slice are exercised
        return DiskEvolvingDataCube(
            slice_shape, num_times=num_times, counter=CostCounter(),
            page_size=64,
        )
    if backend == "sparse":
        return SparseEvolvingDataCube(
            slice_shape, num_times=num_times, counter=CostCounter()
        )
    raise AssertionError(backend)


def random_append_stream(rng, shape, count):
    times = np.sort(rng.integers(0, shape[0], size=count))
    updates = []
    for t in times:
        cell = tuple(int(rng.integers(0, n)) for n in shape[1:])
        updates.append(((int(t),) + cell, int(rng.integers(-5, 9))))
    return updates


def dense_model(shape, updates):
    model = np.zeros(shape, dtype=np.int64)
    for point, delta in updates:
        model[point] += delta
    return model


class TestSharedWorkloadEquivalence:
    def test_identical_answers_and_query_cell_accesses(self, rng):
        shape = (8, 6, 5)
        updates = random_append_stream(rng, shape, 80)
        model = dense_model(shape, updates)
        cubes = {b: make_cube(b, shape[1:], shape[0]) for b in BACKENDS}
        for cube in cubes.values():
            for point, delta in updates:
                cube.update(point, delta)
        boxes = [random_box(rng, shape) for _ in range(25)]
        for cube in cubes.values():
            cube.counter.reset()
        for box in boxes:
            expected = brute_box_sum(model, box)
            deltas = {}
            for backend, cube in cubes.items():
                before = cube.counter.snapshot()
                assert cube.query(box) == expected
                deltas[backend] = cube.counter.snapshot() - before
            # counted cell accesses are storage-independent: the metered
            # walk touches the same logical cells on every backend
            reads = {b: d.cell_reads for b, d in deltas.items()}
            assert len(set(reads.values())) == 1, reads

    def test_fast_batch_matches_metered_on_every_backend(self, rng):
        shape = (7, 5, 4)
        updates = random_append_stream(rng, shape, 60)
        model = dense_model(shape, updates)
        boxes = [random_box(rng, shape) for _ in range(20)]
        expected = [brute_box_sum(model, box) for box in boxes]
        fast_answers = {}
        for backend in BACKENDS:
            metered = make_cube(backend, shape[1:], shape[0])
            fast = make_cube(backend, shape[1:], shape[0])
            for point, delta in updates:
                metered.update(point, delta)
                fast.update(point, delta)
            assert metered.query_many(boxes, mode="metered") == expected
            fast_answers[backend] = fast.query_many(boxes, mode="fast")
            assert fast_answers[backend] == expected
        assert len({tuple(a) for a in fast_answers.values()}) == 1

    def test_fast_update_many_matches_metered_stream(self, rng):
        shape = (6, 4, 4)
        updates = random_append_stream(rng, shape, 50)
        points = np.array([p for p, _ in updates], dtype=np.int64)
        deltas = np.array([d for _, d in updates], dtype=np.int64)
        boxes = [random_box(rng, shape) for _ in range(12)]
        for backend in BACKENDS:
            metered = make_cube(backend, shape[1:], shape[0])
            for point, delta in updates:
                metered.update(point, delta)
            fast = make_cube(backend, shape[1:], shape[0])
            fast.update_many(points, deltas, mode="fast")
            assert [fast.query(b) for b in boxes] == [
                metered.query(b) for b in boxes
            ]
            assert fast.total() == metered.total()
            fast.sync_copies()
            assert fast.incomplete_historic_instances() == 0


class TestOutOfOrderOnAllBackends:
    def test_corrections_and_splices_match_model(self, rng):
        shape = (10, 5, 4)
        # leave times 3 and 7 never-occurring so corrections must splice
        updates = [
            (p, d)
            for p, d in random_append_stream(rng, shape, 70)
            if p[0] not in (3, 7)
        ]
        model = dense_model(shape, updates)
        corrections = []
        latest = max(p[0] for p, _ in updates)
        for t in (3, 7, 1, latest - 1):
            if t < 0 or t >= latest:
                continue
            cell = tuple(int(rng.integers(0, n)) for n in shape[1:])
            corrections.append(((t,) + cell, int(rng.integers(1, 6))))
        assert corrections
        boxes = [random_box(rng, shape) for _ in range(20)]
        for point, delta in corrections:
            model[point] += delta
        for backend in BACKENDS:
            cube = make_cube(backend, shape[1:], shape[0])
            for point, delta in updates:
                cube.update(point, delta)
            cube.apply_out_of_order_many(
                [p for p, _ in corrections], [d for _, d in corrections]
            )
            for t, _ in ((3, None), (7, None)):
                assert t in cube.occurring_times()
            expected = [brute_box_sum(model, box) for box in boxes]
            assert [cube.query(b) for b in boxes] == expected
            assert cube.query_many(boxes, mode="fast") == expected


class TestAgingOnAllBackends:
    def test_retire_before_behaves_identically(self, rng):
        shape = (10, 4, 4)
        updates = random_append_stream(rng, shape, 60)
        model = dense_model(shape, updates)
        retired_counts = {}
        for backend in BACKENDS:
            cube = make_cube(backend, shape[1:], shape[0])
            for point, delta in updates:
                cube.update(point, delta)
            latest = cube.latest_time
            boundary_time = latest - 2
            retired_counts[backend] = cube.retire_before(boundary_time)
            assert cube.retired_instances > 0
            # prefix queries from the beginning of time stay answerable
            prefix = Box((0, 0, 0), (latest, 3, 3))
            assert cube.query(prefix) == brute_box_sum(model, prefix)
            assert cube.query_many([prefix], mode="fast") == [
                brute_box_sum(model, prefix)
            ]
            # a lower bound inside the retired region is unanswerable
            retired_box = Box((1, 0, 0), (latest, 3, 3))
            if 0 <= cube.directory.floor_index(0) < cube.retired_instances:
                with pytest.raises(AgedOutError):
                    cube.query(retired_box)
                with pytest.raises(AgedOutError):
                    cube.query_many([retired_box], mode="fast")
            # corrections into the retired region stay unappliable
            with pytest.raises(AgedOutError):
                cube.apply_out_of_order(
                    (cube.occurring_times()[0], 0, 0), 1
                )
        assert len(set(retired_counts.values())) == 1, retired_counts


class TestBackendNamesOnEveryFront:
    """Every front builds its kernels over the one store a stack serves; a
    manifest names it (``"backend": "dense"``), as manifests always did."""

    @pytest.mark.parametrize("durable", [False, True])
    @pytest.mark.parametrize("front", ["unbuffered", "buffered", "extent"])
    @pytest.mark.parametrize("name, kind", [("dense", "dense")])
    def test_name_selects_the_store(self, tmp_path, name, kind, front, durable):
        if durable:
            with DurableCube(
                (4,),
                tmp_path,
                buffered=front != "unbuffered",
                extent=front == "extent",
            ) as cube:
                built = cube.front
            assert read_manifest(tmp_path).config["backend"] == name
        else:
            config = {
                "slice_shape": [4],
                "backend": name,
                "buffered": front == "buffered",
                "extent": front == "extent",
            }
            built = build_front(config, None)
        families = (
            (built.ended, built.containing) if front == "extent" else (built,)
        )
        assert [getattr(f, "cube", f).store.kind for f in families] == (
            [kind] * len(families)
        )


# -- stateful machines: every backend against a dense model --------------------

TIME_DOMAIN = 16
CELL_DOMAIN = 5


class BackendMachine(RuleBasedStateMachine):
    """Drives one backend through appends, corrections and queries."""

    backend = "dense"

    @initialize()
    def setup(self):
        self.cube = make_cube(
            self.backend, (CELL_DOMAIN, CELL_DOMAIN), TIME_DOMAIN
        )
        self.model = np.zeros(
            (TIME_DOMAIN, CELL_DOMAIN, CELL_DOMAIN), dtype=np.int64
        )
        self.clock = 0

    @rule(
        advance=st.integers(0, 3),
        x=st.integers(0, CELL_DOMAIN - 1),
        y=st.integers(0, CELL_DOMAIN - 1),
        delta=st.integers(-5, 9),
    )
    def append(self, advance, x, y, delta):
        self.clock = min(TIME_DOMAIN - 1, self.clock + advance)
        point = (self.clock, x, y)
        self.cube.update(point, delta)
        self.model[point] += delta

    @precondition(lambda self: self.clock > 0)
    @rule(
        t=st.integers(0, TIME_DOMAIN - 1),
        x=st.integers(0, CELL_DOMAIN - 1),
        y=st.integers(0, CELL_DOMAIN - 1),
        delta=st.integers(-3, 6),
    )
    def correct(self, t, x, y, delta):
        t = min(t, self.clock - 1)
        self.cube.apply_out_of_order((t, x, y), delta)
        self.model[t, x, y] += delta

    @precondition(lambda self: self.cube.num_slices > 0)
    @rule(data=st.data())
    def query(self, data):
        lows = [
            data.draw(st.integers(0, n - 1))
            for n in (TIME_DOMAIN, CELL_DOMAIN, CELL_DOMAIN)
        ]
        highs = [
            data.draw(st.integers(low, n - 1))
            for low, n in zip(lows, (TIME_DOMAIN, CELL_DOMAIN, CELL_DOMAIN))
        ]
        box = Box(tuple(lows), tuple(highs))
        expected = brute_box_sum(self.model, box)
        assert self.cube.query(box) == expected
        assert self.cube.query_many([box], mode="fast") == [expected]

    @invariant()
    def totals_agree(self):
        if getattr(self, "cube", None) is not None and self.cube.num_slices:
            assert self.cube.total() == int(self.model.sum())


class DenseMachine(BackendMachine):
    backend = "dense"


class PagedMachine(BackendMachine):
    backend = "paged"


class SparseMachine(BackendMachine):
    backend = "sparse"


_MACHINE_SETTINGS = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)

TestDenseMachine = DenseMachine.TestCase
TestDenseMachine.settings = _MACHINE_SETTINGS
TestPagedMachine = PagedMachine.TestCase
TestPagedMachine.settings = _MACHINE_SETTINGS
TestSparseMachine = SparseMachine.TestCase
TestSparseMachine.settings = _MACHINE_SETTINGS
