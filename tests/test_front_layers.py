"""A front is a declared stack (:mod:`repro.core.front`).

``TestRefusedNotDiscovered``: what a stack lacks is a
:class:`~repro.core.errors.DomainError` naming the method and the kind
it needs -- five calls that were ``AttributeError`` / ``TypeError``
before the declaration existed.

``test_every_stack_declares_round_trips_and_refuses``: one matrix over
every stack :func:`~repro.durability.recovery.build_front`,
:class:`~repro.durability.DurableCube` and the snapshot fronts can
build -- :func:`~repro.core.front.layers` yields the expected kinds in
order, every layer's ``state_arrays()`` survives checkpoint -> recover
(or, with no log, ``snapshot_arrays`` -> ``restore_state``) bit-equal,
and every name of the vocabulary answers or is refused.

Around them: the walk runs when a stack is built, never per operation;
re-checkpointing the fixture directories under ``tests/data/`` writes
the members the parent commit wrote, in its order, with its bytes; and a
paged or sparse kernel -- one of the paper's cost models -- is a stack
only bare: a layer over one is refused where it is built.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import zipfile

import numpy as np
import pytest

from repro.concurrent import SnapshotCube
from repro.concurrent.extent import SnapshotExtentCube
from repro.core.errors import DomainError
from repro.core.front import KINDS, layers
from repro.core.types import Box
from repro.durability import DurableCube
from repro.durability.checkpoint import snapshot_arrays
from repro.durability.recovery import WAL_SUBDIR, build_front
from repro.durability.wal import LOGGED, DemoteRecord, WriteAheadLog
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.ranking import TopKEngine
from repro.retention import TieredCube

from tests.data import make_durable_fixtures as fixtures

SHAPE = (4, 4)
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]
POINTS = [[0, 1, 1], [1, 2, 2], [4, 3, 0], [6, 0, 0], [9, 1, 3]]
DELTAS = [3, 4, 5, 6, 2]
# the second box starts at the boundary instance the matrix's demotion keeps live
BOXES = [Box((0, 0, 0), (9, 3, 3)), Box((5, 0, 0), (9, 3, 1))]


class TestRefusedNotDiscovered:
    def test_a_point_read_on_an_extent_durable_cube(self, tmp_path):
        with DurableCube(SHAPE, tmp_path, extent=True, fsync="off") as cube:
            cube.insert((0, 3), (1, 1))
            for name, args in (("query_many", (BOXES,)), ("total", ())):
                with pytest.raises(DomainError, match=rf"{name}\(\) requires a point-object"):
                    getattr(cube, name)(*args)

    def test_an_extent_read_on_a_point_durable_cube(self, tmp_path):
        with DurableCube(SHAPE, tmp_path, fsync="off") as cube:
            cube.update_many(POINTS, DELTAS)
            for name, args in (
                ("intersecting", ((0, 5),)),
                ("containment_many", ([(0, 5)],)),
            ):
                with pytest.raises(DomainError, match=rf"{name}\(\) requires a TT-extent"):
                    getattr(cube, name)(*args)

    def test_a_snapshot_front_takes_mode_and_ranks_without_a_shape(self):
        kernel = EvolvingDataCube(SHAPE)
        kernel.update_many(POINTS, DELTAS)
        snap = SnapshotCube(kernel)
        assert snap.query_many(BOXES, mode="fast") == kernel.query_many(BOXES)
        assert snap.query_many(BOXES, mode="metered") == kernel.query_many(BOXES)
        with pytest.raises(DomainError, match="unknown execution mode"):
            snap.query_many(BOXES, mode="bogus")
        ranked = TopKEngine(snap, nonnegative=True).topk(0, 9, 3)
        assert ranked == TopKEngine(kernel, nonnegative=True).topk(0, 9, 3)
        assert ranked[0] == ((0, 0), 6)

    def test_a_served_tiered_cube_demotes_through_the_log(self, tmp_path):
        points = [[t, t % 4, 0] for t in range(12)]
        fronts = {}
        for name in ("served", "direct"):
            cube = DurableCube(SHAPE, tmp_path / name, tiers=TIERS, fsync="off")
            cube.update_many(points, [1] * 12)
            fronts[name] = cube
        served = fronts["served"].serve()
        before = served.current_sequence()
        assert served.demote_before(8) == fronts["direct"].demote_before(8) > 0
        assert served.current_sequence() == before + 1  # published as one epoch
        assert served.stack["tiered"].demoted_through == 7
        boxes = [Box((0, 0, 0), (11, 3, 3)), Box((2, 0, 0), (5, 3, 3))]
        assert fronts["served"].query_many(boxes) == fronts["direct"].query_many(boxes)
        for cube in fronts.values():
            cube.close()
        with WriteAheadLog(tmp_path / "served" / WAL_SUBDIR, fsync="off") as wal:
            assert [r for _, r in wal.replay()][-1] == DemoteRecord(8)

    def test_a_write_the_stack_lacks_names_what_it_needs(self, tmp_path):
        snap = SnapshotCube(EvolvingDataCube(SHAPE))
        for name, args, phrase in (
            ("drain", (), "a buffered cube"),
            ("demote_before", (3,), "a tiered"),
            ("checkpoint", (), "a durable cube"),
            ("insert", ((0, 3), (1, 1)), "a TT-extent"),
        ):
            with pytest.raises(DomainError, match=rf"{name}\(\) requires {phrase}"):
                getattr(snap, name)(*args)
        with pytest.raises(DomainError, match="requires a point-object target"):
            SnapshotCube(build_front({"slice_shape": SHAPE, "extent": True}, None))
        with pytest.raises(DomainError, match="requires a point-object front"):
            build_front({"slice_shape": SHAPE, "extent": True, "tiers": TIERS}, None, tmp_path)


# -- the matrix ------------------------------------------------------------------

POINT_READS = {"query": (BOXES[0],), "query_many": (BOXES,), "total": ()}
EXTENT_READS = {
    "intersecting": ((2, 5),),
    "intersecting_many": ([(2, 5), (0, 9)],),
    "alive_at": (3,),
    "containment": ((0, 9),),
    "containment_many": ([(0, 9)],),
}
#: logged method -> arguments valid on a seeded stack that has it
WRITES = {
    "update": ((12, 1, 1), 5),
    "update_many": ([[12, 1, 1], [13, 0, 2]], [5, 1]),
    "apply_out_of_order": ((7, 1, 1), 2),  # above the matrix's demotion
    "apply_out_of_order_many": ([[7, 1, 1], [8, 3, 3]], [2, 1]),
    "retire_before": (2,),
    "demote_before": (5,),
    "drain": (None,),
    "insert": ((12, 14), (1, 1), 2),
    "insert_many": ([[12, 14], [13, 13]], [[1, 1], [0, 2]], [2, 1]),
    "advance": (20,),
}


def _build(tmp_path, bottom, tiers, durable, snapshot):
    """``(top, the front under any log / snapshot layer, its config)``."""
    config = {
        "slice_shape": list(SHAPE),
        "buffered": bottom == "buffered",
        "tiers": TIERS if tiers else None,
    }
    if bottom == "extent":
        config = {"slice_shape": list(SHAPE), "extent": True}
    if durable:
        top = DurableCube(
            SHAPE, tmp_path / "cube", fsync="off",
            buffered=bottom != "unbuffered", extent=bottom == "extent",
            tiers=TIERS if tiers else None,
        )  # fmt: skip
        front = top.front
    else:
        top = front = build_front(config, None, tmp_path / "tiles")
    if snapshot:
        top = (SnapshotExtentCube if bottom == "extent" else SnapshotCube)(top)
    return top, front, config


def _seed(top, bottom) -> None:
    if bottom == "extent":
        top.insert_many([[0, 3], [1, 6], [4, 4], [2, 30]], [[1, 1], [2, 2], [3, 0], [0, 3]])
        top.advance(9)
    else:
        top.update_many(POINTS, DELTAS)
        if bottom == "buffered":
            top.update((3, 2, 2), 7)  # late: lands in G_d


def _state(front) -> dict:
    """kind -> that layer's own arrays."""
    return {kind: layer.state_arrays() for kind, layer in layers(front).items()}


def _assert_same_state(ours: dict, theirs: dict) -> None:
    assert list(ours) == list(theirs)
    for kind, arrays in theirs.items():
        assert list(ours[kind]) == list(arrays), kind
        for key, value in arrays.items():
            assert ours[kind][key].dtype == value.dtype, (kind, key)
            np.testing.assert_array_equal(ours[kind][key], value, err_msg=f"{kind}.{key}")


@pytest.mark.parametrize("snapshot", [False, True], ids=["bare", "snapshot"])
@pytest.mark.parametrize("durable", [False, True], ids=["unlogged", "durable"])
@pytest.mark.parametrize("tiers", [False, True], ids=["untiered", "tiers"])
@pytest.mark.parametrize("bottom", ["unbuffered", "buffered", "extent"])
@pytest.mark.parametrize("backend", ["dense"])  # the one store a stack serves
def test_every_stack_declares_round_trips_and_refuses(
    tmp_path, backend, bottom, tiers, durable, snapshot
):
    if bottom == "extent" and tiers:
        pytest.skip("an extent cube takes no retention tiers (DurableCube refuses)")
    top, front, config = _build(tmp_path, bottom, tiers, durable, snapshot)
    extent = bottom == "extent"

    # 1. the stack says what it is, outermost first
    expected = [
        kind
        for kind, present in zip(
            KINDS,
            (snapshot, durable, tiers, bottom == "buffered", extent, not extent),
        )
        if present
    ]
    assert list(layers(top)) == expected
    assert layers(top)[expected[-1]].kernels  # the bottom names its kernels
    assert all(k.store.kind == backend for k in layers(top)[expected[-1]].kernels)

    # 2. each layer's own arrays survive the trip, bit-equal
    _seed(top, bottom)
    if tiers:
        top.demote_before(5)
    before = _state(front)
    if durable:
        top.checkpoint()
        if snapshot:
            top.close()
        layers(top)["durable"].close()
        recovered = DurableCube.recover(tmp_path / "cube")
        assert list(layers(recovered)) == [k for k in expected if k != "snapshot"]
        # served again, its history is published rows again (at their width)
        top = recovered.serve() if snapshot else recovered
        _assert_same_state(_state(recovered.front), before)
    else:
        archive = snapshot_arrays(front)
        twin = build_front(config, None, tmp_path / "tiles")
        for layer in reversed(layers(twin).values()):
            layer.restore_state(archive)
        if snapshot:
            (SnapshotExtentCube if extent else SnapshotCube)(twin)
        _assert_same_state(_state(twin), before)

    # 3. every name answers or is refused: never AttributeError, never TypeError
    wrapper = expected[0] in ("snapshot", "durable", "tiered")
    reads = (EXTENT_READS, POINT_READS) if extent else (POINT_READS, EXTENT_READS)
    for name, args in reads[0].items():
        getattr(top, name)(*args)  # a read of the stack's own kind answers
    if expected[0] == "durable":  # the one class that fronts both kinds
        for name, args in reads[1].items():
            with pytest.raises(DomainError, match=rf"{name}\(\) requires"):
                getattr(top, name)(*args)
    assert sorted(WRITES) == sorted(LOGGED)
    for name, args in WRITES.items():
        if not wrapper and not hasattr(type(top), name):
            continue  # a bare bottom's vocabulary is the methods it defines
        try:
            getattr(top, name)(*args)
        except DomainError as refusal:
            assert f"{name}() requires" in str(refusal)
    if durable:
        layers(top)["durable"].close()


# -- around the matrix -------------------------------------------------------------


def test_the_walk_runs_when_a_stack_is_built_never_per_operation(tmp_path, monkeypatch):
    calls = []

    def counting(front):
        calls.append(type(front).__name__)
        return layers(front)

    for module in list(sys.modules.values()):
        if getattr(module, "layers", None) is layers and module is not sys.modules[__name__]:
            monkeypatch.setattr(module, "layers", counting)
    served = DurableCube(SHAPE, tmp_path, tiers=TIERS, fsync="off").serve()
    # a layer handed its inner walks from itself; the log walks what it built
    assert sorted(calls) == ["SnapshotCube", "TieredCube", "TieredCube"]
    del calls[:]
    for t in range(100):
        served.update_many([[t, t % 4, 1], [t, 3, t % 4]], [1, 2])
    assert served.query_many([Box((0, 0, 0), (99, 3, 3))]) == [300]
    assert calls == []
    served.target.close()


#: sha256 over the re-checkpointed archive's members, in order, each as
#: ``name NUL bytes``: ``durable_point`` as commit 88af90a wrote it,
#: ``durable_extent`` as the build that gave each extent family its own
#: time axis writes it (the restored shared-axis instances, then the log
#: tail replayed on each family's own times)
RECHECKPOINTED = {
    "durable_point": (47, "c37aa969dfaf10d9af8dad0cb1c57891c379e59082d18f40994a18f5a8d40841"),
    "durable_extent": (87, "e16c2d0b7fda92f3a3272845ea4cfd8f5a2ed68589963785e29fc3d97c2353ed"),
}


@pytest.mark.parametrize("name", sorted(RECHECKPOINTED))
def test_a_fixture_directory_recheckpoints_to_the_parents_archive(tmp_path, name):
    shutil.copytree(fixtures.HERE / name, tmp_path / name)
    with DurableCube.recover(tmp_path / name) as cube:
        manifest = cube.checkpoint()
    digest = hashlib.sha256()
    with zipfile.ZipFile(tmp_path / name / manifest.checkpoint_file) as archive:
        members = archive.namelist()
        for member in members:
            digest.update(member.encode() + b"\0" + archive.read(member))
    assert (len(members), digest.hexdigest()) == RECHECKPOINTED[name]


def test_an_object_that_declares_nothing_is_no_layer():
    with pytest.raises(DomainError, match="object declares no layer kind"):
        layers(object())


@pytest.mark.parametrize("kernel", [DiskEvolvingDataCube, SparseEvolvingDataCube])
def test_a_paged_or_sparse_kernel_is_a_stack_only_on_its_own(tmp_path, kernel):
    bare = kernel(SHAPE)
    bare.update_many(POINTS, DELTAS)
    assert list(layers(bare)) == ["kernel"]
    assert TopKEngine(bare, nonnegative=True).topk(0, 9, 3)[0] == ((0, 0), 6)
    kind = bare.store.kind
    with pytest.raises(DomainError, match=f"a snapshot layer cannot sit over a {kind} kernel"):
        SnapshotCube(bare)
    with pytest.raises(DomainError, match=f"a tiered layer cannot sit over a {kind} kernel"):
        TieredCube(bare, TIERS, tmp_path / "tiles")
    assert bare.snapshot_front is None  # refused before it attached
    for name, args in (("state_arrays", ()), ("restore_state", ({},)), ("resident_slice_bytes", ())):
        with pytest.raises(DomainError, match=rf"{name}\(\) serves dense kernels only"):
            getattr(bare, name)(*args)
