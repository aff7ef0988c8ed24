"""The one-pass landing of ``G_d`` corrections against the per-entry cascade.

``CubeKernel.land_historic`` lands a drained batch in one pass over the
instances when every instance it reaches is fully PS (every historic
instance under a snapshot front is a published row), and by one cascade
per correction otherwise.  The differential runs the same draws through
two copies of a front -- one as it is, one with the kernel made to see
no fully PS instance, so every batch cascades -- and checks that the
instances' content, the cache, the directory, the published rows' values,
``G_d``, every ``(applied, kept)`` pair and every answer are
bit-identical, and that both sides' rows are laid out by the anchor rule,
over the buffered, snapshot, durable and sharded fronts (the last two
reopened from their logs, the sharded one as ``serve`` runs it).  The
draws include never-occurring times, corrections before the first
instance and into the retired region, bounded drains, and deltas near
+-2^62 whose sums wrap.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotCube
from repro.core.errors import AgedOutError, DomainError
from repro.core.front import layers
from repro.core.types import Box
from repro.durability.recovery import DurableCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.kernel import CubeKernel
from repro.ecube.stores import DenseStore, row_values
from repro.sharding import ShardedCube

from .conftest import assert_row_layout

SHAPE = (4, 3)
HORIZON = 14
BIG = 2**62


@contextmanager
def _cascading():
    """Inside, a kernel sees no fully PS instance: every batch cascades."""
    saved = CubeKernel._reaches_only_ps
    CubeKernel._reaches_only_ps = lambda self, time: False
    try:
        yield
    finally:
        CubeKernel._reaches_only_ps = saved


@contextmanager
def _one_passes():
    """The sizes of the batches landed in one pass while inside."""
    sizes: list[int] = []
    saved = CubeKernel._land_in_one_pass

    def counted(self, points, deltas):
        sizes.append(len(deltas))
        return saved(self, points, deltas)

    CubeKernel._land_in_one_pass = counted
    try:
        yield sizes
    finally:
        CubeKernel._land_in_one_pass = saved


@pytest.mark.parametrize("mode", ["single", "fast", "buffer"])
def test_a_late_cell_outside_the_shape_is_refused(mode):
    cube = BufferedEvolvingDataCube((4,))
    cube.update((5, 1), 1)
    cube.update((6, 1), 1)
    with pytest.raises(DomainError):
        if mode == "single":
            cube.update((2, 1), 3)
            cube.update((3, 9), 2)
        else:
            cube.update_many([[2, 1], [3, 9]], [3, 2], mode=mode)
    if mode != "single":
        cube.update((2, 1), 3)
    assert cube.total() == 5
    assert cube.drain() == (1, 0)
    assert cube.total() == 5


def test_a_refused_batch_leaves_gd_as_it_was():
    cube = BufferedEvolvingDataCube((4,))
    cube.update((5, 1), 1)
    cube.update((6, 1), 1)
    # a buffer restored from an archive written before cells were checked
    cube.buffer.add_many([[2, 1], [3, 9]], [3, 2])
    with pytest.raises(DomainError):
        cube.drain()
    assert cube.buffer.entries() == [((2, 1), 3), ((3, 9), 2)]
    assert cube.cube.total() == 2


def test_a_snapshot_drain_lands_in_one_pass_with_no_int64_successor(monkeypatch):
    made = []
    new_row = DenseStore.new_row

    def spy(values, dtype):
        made.append(np.dtype(dtype))
        return new_row(values, dtype)

    monkeypatch.setattr(DenseStore, "new_row", staticmethod(spy))
    snap = SnapshotCube(BufferedEvolvingDataCube((8, 8)))
    rng = np.random.default_rng(3)
    for time in range(0, 40, 2):
        points = np.column_stack([np.full(6, time), rng.integers(0, 8, (6, 2))])
        snap.update_many(points, rng.integers(1, 9, 6))
    late = np.column_stack([rng.integers(0, 37, 30), rng.integers(0, 8, (30, 2))])
    snap.update_many(late, rng.integers(1, 9, 30))
    expected = snap.total()
    made.clear()
    with _one_passes() as passes:
        assert snap.drain() == (30, 0)
    assert passes == [30]
    # one row per instance from the oldest correction up, each at its width
    lowest = snap.kernel.directory.floor_index(int(late[:, 0].min()))
    assert len(made) == snap.kernel.num_slices - 1 - lowest
    assert np.dtype(np.int64) not in made
    assert snap.total() == expected


def test_a_batch_into_the_retired_region_applies_the_rest_then_refuses():
    cube = EvolvingDataCube((4,))
    for time in range(10):
        cube.update((time, time % 4), 1)
    cube.retire_before(6)
    with pytest.raises(AgedOutError):
        cube.apply_out_of_order_many([[2, 1], [8, 3], [7, 0]], [50, 9, 4])
    assert cube.total() == 10 + 9 + 4
    with pytest.raises(DomainError):  # checked whole before anything moves
        cube.apply_out_of_order_many([[8, 3], [7, 4]], [1, 1])
    assert cube.total() == 23


# -- the differential -----------------------------------------------------------


def _parts(cube) -> list[tuple]:
    """``(kernel, G_d buffer, snapshot front or None)`` per shard."""
    if isinstance(cube, ShardedCube):
        return [
            (h.state.kernel, h.state.snap.buffer, h.state.snap)
            for h in cube.router.handles
        ]
    stack = layers(cube)
    return [(stack["kernel"], stack["buffered"].buffer, stack.get("snapshot"))]


def _content(kernel) -> list[np.ndarray]:
    """Each live historic instance's prefix sums, whatever its form."""
    if not kernel.num_slices:
        return []
    fast = kernel.fast
    cache_values, stamps = kernel.store.cache_views()
    rows = []
    for index in range(kernel.retired_instances, kernel.num_slices - 1):
        values, flags = kernel.directory.at_index(index)[1].data()
        if flags.all():
            rows.append(np.asarray(row_values(values), dtype=np.int64))
            continue
        ddc = fast.effective_ddc(values, flags, stamps, cache_values, index)
        assert ddc is not None
        rows.append(fast.ddc_to_ps(ddc))
    return rows


class _Front:
    def __init__(self, kind: str, directory: str) -> None:
        self.kind, self.directory = kind, directory
        if kind == "buffered":
            self.cube = BufferedEvolvingDataCube(SHAPE)
        elif kind == "durable":
            self.cube = DurableCube(SHAPE, directory, fsync="off")
        elif kind == "snapshot":
            self.cube = SnapshotCube(BufferedEvolvingDataCube(SHAPE))
        else:  # as ``serve`` runs it
            self.cube = ShardedCube(
                SHAPE, shards=2, processes=False, durable_dir=directory, fsync="off"
            )

    def reopen(self) -> None:
        if self.kind == "durable":
            self.cube.close()
            self.cube = DurableCube.recover(self.directory)
        elif self.kind == "sharded":
            self.cube.close()
            self.cube = ShardedCube.recover(self.directory)

    def finalize(self) -> None:
        """Make every historic instance fully PS, so a batch can take the
        one pass with no snapshot front over the kernel."""
        for kernel, _, _ in _parts(self.cube):
            for index in range(kernel.retired_instances, kernel.num_slices - 1):
                kernel.bulk_finalize_slice(index)

    def close(self) -> None:
        if self.kind in ("durable", "sharded"):
            self.cube.close()


def _outcome(call):
    try:
        return call()
    except AgedOutError:
        return "aged out"


def _windows(latest: int) -> list[Box]:
    full = tuple(n - 1 for n in SHAPE)
    return [
        Box((low,) + (0,) * len(SHAPE), (up,) + full)
        for up in range(latest + 2)
        for low in range(up + 1)
    ]


def _assert_same(one: _Front, ref: _Front) -> None:
    for (k1, b1, s1), (k2, b2, s2) in zip(_parts(one.cube), _parts(ref.cube)):
        assert k1.occurring_times() == k2.occurring_times()
        assert k1.retired_instances == k2.retired_instances
        if k1.num_slices:
            for a1, a2 in zip(k1.store.cache_views(), k2.store.cache_views()):
                assert np.array_equal(a1, a2)
        for r1, r2 in zip(_content(k1), _content(k2), strict=True):
            assert np.array_equal(r1, r2)
        for c1, c2 in zip(b1.snapshot_columns(), b2.snapshot_columns()):
            assert np.array_equal(c1, c2)
        if s1 is not None:
            # the same values, each laid out by the anchor rule (the lowest
            # row may keep an anchor retirement freed, depending on whether
            # it was published before the retirement or after)
            assert s1._rows.keys() == s2._rows.keys()
            for index, row in s1._rows.items():
                assert np.array_equal(row_values(row), row_values(s2._rows[index]))
            for snap in (s1, s2):
                assert_row_layout(snap._rows, snap.kernel.retired_instances)


_DELTAS = st.one_of(
    st.integers(-3, 9), st.sampled_from([BIG, -BIG, BIG - 1, 1 - BIG])
)
_CELLS = st.tuples(st.integers(0, SHAPE[0] - 1), st.integers(0, SHAPE[1] - 1))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3), _CELLS, _DELTAS),
        st.tuples(st.just("late"), st.integers(0, HORIZON), _CELLS, _DELTAS),
        st.tuples(st.just("late"), st.integers(0, HORIZON), _CELLS, _DELTAS),
        st.tuples(st.just("late"), st.integers(0, HORIZON), _CELLS, _DELTAS),
        st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(1, 3))),
        st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(1, 3))),
        st.tuples(st.just("retire"), st.integers(0, HORIZON)),
        st.tuples(st.just("finalize")),
        st.tuples(st.just("reopen")),
    ),
    min_size=4,
    max_size=30,
)


def _apply(front: _Front, op, latest: int):
    if op[0] == "append":
        return front.cube.update((latest, *op[2]), op[3])
    if op[0] == "late":
        return front.cube.update((op[1], *op[2]), op[3])
    if op[0] == "drain":
        return front.cube.drain(op[1])  # the sharded front's limit is per shard
    if op[0] == "retire":
        return front.cube.retire_before(op[1])
    if op[0] == "finalize":
        return front.finalize()
    return front.reopen()


@pytest.mark.parametrize("kind", ["buffered", "snapshot", "durable", "sharded"])
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS)
# a correction before the first instance, two never-occurring times and
# an occurring one, in one drain
@example(
    ops=[("append", 4, (1, 1), 2), ("append", 3, (2, 0), 1), ("append", 3, (0, 2), 1)]
    + [("late", t, (t % 4, t % 3), 5) for t in (1, 5, 9, 8)]
    + [("finalize",), ("drain", None)]
)
# sums that wrap
@example(
    ops=[("append", 1, (0, 0), BIG), ("append", 2, (3, 2), BIG)]
    + [("late", 1, (1, 1), BIG), ("late", 2, (0, 0), BIG), ("finalize",)]
    + [("drain", 1), ("drain", None)]
)
def test_one_pass_matches_the_cascade(kind, ops):
    with tempfile.TemporaryDirectory() as scratch, _one_passes() as passes:
        one = _Front(kind, scratch + "/one")
        ref = _Front(kind, scratch + "/ref")
        latest = 0
        try:
            for op in ops:
                if op[0] == "append":
                    latest += op[1]
                elif op[0] == "late":
                    latest = max(latest, op[1])
                got = _apply(one, op, latest)
                with _cascading():
                    want = _apply(ref, op, latest)
                assert got == want, op
                _assert_same(one, ref)
            for box in _windows(latest):
                assert _outcome(lambda: one.cube.query_many([box])) == _outcome(
                    lambda: ref.cube.query_many([box])
                ), box
        finally:
            one.close()
            ref.close()
        if passes:
            event("landed in one pass")
