"""The op table (:mod:`repro.sharding.ops`) and the layers that read it.

Wire side: every row round-trips its arguments and its result through
JSON, names a method the cube and the router both have, and is the row
the documents list.  Pipe side: one envelope decides what a shard
replies -- exercised through an inline handle and a process handle --
and one array clip localises a box batch.  The bytes themselves are pinned in
``test_shard_server.py``.
"""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.sharding.server
from repro.core.errors import DomainError, ShardUnavailableError
from repro.core.types import Box, as_boxes, box_array
from repro.durability import DurableCube
from repro.durability.checkpoint import snapshot_arrays
from repro.durability.wal import LOGGED
from repro.sharding import GridPartitioner, ShardedCube, ShardRouter
from repro.sharding.ops import (
    ESTIMATES,
    OPS,
    PAIR,
    RANKED,
    RAW,
    REQUIRED,
    ProtocolError,
    decode_request,
    encode_request,
)
from repro.sharding.worker import ShardWorkerState, serve

from .conftest import brute_box_sum, fleet_leaks, fleet_owners, random_box

REPO = Path(__file__).resolve().parent.parent

#: field name -> a value as the library caller passes it
ARGUMENTS = {
    "box": Box((0, 1, 2), (5, 3, 3)),
    "boxes": [Box((0, 0, 0), (1, 1, 1)), Box((2, 0, 1), (9, 3, 3))],
    "point": (4, 1, 2),
    "delta": -3,
    "points": np.asarray([[1, 0, 0], [2, 3, 3]]).tolist(),
    "deltas": [5, 7],
    "mode": "fast",
    "queries": [(0, 9, 3), (2, 2, 1)],
    "nonnegative": True,
    "limit": 4,
    "time": 6,
}

#: result kind -> a value as the cube method returns it
RESULTS = {
    RAW: [3, 1, 4],
    PAIR: (2, 1),
    RANKED: [[((0, 3), 7), ((1, 1), 6)], []],
    ESTIMATES: [(9.5, 9, 10), (0.0, 0, 0)],
}


def _wire(value):
    return json.loads(json.dumps(value))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        # a box batch decodes into one corner array
        expected = box_array(b, a.shape[2]) if a.ndim == 3 else np.asarray(b)
        return a.dtype == np.int64 and np.array_equal(a, expected)
    return a == b


@pytest.fixture(scope="module")
def inline_cube():
    with ShardedCube((4, 4), shards=2, processes=False) as cube:
        yield cube


@pytest.mark.parametrize("op", sorted(OPS))
def test_row_round_trips_and_names_a_real_method(op, inline_cube):
    row = OPS[op]
    arguments = {field.name: ARGUMENTS[field.name] for field in row.fields}
    frame = encode_request(op, *arguments.values())
    assert frame == encode_request(op, **arguments)
    assert list(frame) == ["op", *arguments]  # key order is wire bytes
    decoded_row, decoded = decode_request(_wire(frame))
    assert decoded_row is row and list(decoded) == list(arguments)
    for name, value in arguments.items():
        assert _same(decoded[name], value), name
    # optional fields may stay off the frame and take the row's default
    required = {f.name: arguments[f.name] for f in row.fields if f.default is REQUIRED}
    _, defaulted = decode_request(_wire(encode_request(op, **required)))
    for field in row.fields:
        assert _same(defaulted[field.name], required.get(field.name, field.default))
    result = RESULTS[row.result]
    assert row.result.decode(_wire(row.result.encode(result))) == result
    # the row's method: on the router, reachable through the cube, and
    # taking the row's field names as parameters
    parameters = inspect.signature(getattr(ShardRouter, row.method)).parameters
    assert set(arguments) <= set(parameters)
    assert callable(getattr(inline_cube, row.method))


def test_a_row_mutates_exactly_when_its_method_is_logged():
    mutating = {row.method for row in OPS.values() if row.mutates}
    assert mutating and mutating <= set(LOGGED)
    assert not {row.method for row in OPS.values() if not row.mutates} & set(LOGGED)


def test_misuse_of_the_client_side_is_a_type_error():
    for args, kwargs in [((), {}), ((1, 2, 3), {}), (((0, 0, 0),), {"point": (1,)}),
                         (((0, 0, 0), 1), {"weight": 2})]:
        with pytest.raises(TypeError):
            encode_request("update", *args, **kwargs)
    with pytest.raises(ProtocolError, match="unknown op"):
        decode_request({"op": "frobnicate"})


def test_cube_forwards_the_vocabulary_instead_of_mirroring_it(inline_cube):
    mirrored = {
        "update", "update_many", "apply_out_of_order", "drain", "retire_before",
        "query", "query_many", "topk", "topk_many", "query_approx",
        "query_many_approx", "total",
    }
    assert not mirrored & set(vars(ShardedCube))
    # the cube's own: it keeps the log's directory and checkpoint manifest
    assert {"checkpoint", "log_info"} <= set(vars(ShardedCube))
    for name in mirrored:
        assert getattr(inline_cube, name) == getattr(inline_cube.router, name)
    with pytest.raises(AttributeError):
        inline_cube.latest_time  # router state is not the cube's surface


# -- the documents list the table's rows ------------------------------------------


def _fields_cell(row) -> str:
    return ", ".join(
        f"`{f.name}`" if f.default is REQUIRED else f"`{f.name}`={json.dumps(f.default)}"
        for f in row.fields
    ) or "—"


def test_api_doc_table_is_the_op_table():
    text = (REPO / "docs" / "API.md").read_text()
    section = text[text.index("### Wire ops") :].split("\n## ")[0]
    listed = [
        tuple(cell.strip() for cell in line.strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [(op, fields, method) for op, fields, _, method in listed] == [
        (f"`{row.name}`", _fields_cell(row), f"`{row.method}`") for row in OPS.values()
    ]


def test_server_docstring_and_cli_help_name_only_table_ops(capsys):
    doc = repro.sharding.server.__doc__
    assert "repro.sharding.ops.OPS" in doc
    assert not set(re.findall(r"``(\w+)", doc)) & set(OPS)  # no second list
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    promised = re.search(r"enables the (.+?) wire ops", text).group(1)
    assert set(re.findall(r"\w+", promised)) - {"and"} == {"demote", "query_approx"}
    assert {"demote", "query_approx"} <= set(OPS)


# -- pipe side: one envelope, one clip loop ---------------------------------------


def test_mutating_ops_are_derived_from_the_handler_table():
    """A pipe op mutates as the wire row it serves says, and only the
    durable maintenance op (a shard's checkpoint archive) serves none."""
    served = {op: row for op, (_, row) in ShardWorkerState.ops.items()}
    assert {op for op, row in served.items() if row is None} == {"checkpoint"}
    assert set(served.values()) - {None} <= set(OPS)
    mutating = {op for op, row in served.items() if row is not None and OPS[row].mutates}
    assert mutating == {"ingest", "oob", "drain", "retire", "demote"}


@pytest.mark.parametrize(
    "durable, recover", [(False, False), (True, False), (True, True)]
)
@pytest.mark.parametrize("tiered", [False, True])
@pytest.mark.parametrize("buffered", [False, True])
def test_a_worker_declares_its_front_and_probing_would_agree(
    tmp_path, buffered, tiered, durable, recover
):
    """``buffered`` / ``tiered`` are what the built stack declares, on every
    front a worker can build: fresh, a durable cube's shard (which holds
    no log: the cube's router logs for it, and the shard writes its
    checkpoint archive), and that shard restarted from its archive."""
    from repro.core.front import layers
    from repro.ecube.buffered import BufferedEvolvingDataCube
    from repro.retention import TieredCube

    config = {
        "shard_id": 0,
        "slice_shape": (4, 4),
        "buffered": buffered,
        "tiers": [{"name": "coarse", "granularity": 4, "horizon": None}]
        if tiered
        else None,
        "tile_dir": str(tmp_path / "shard" / "tiles"),
    }
    state = ShardWorkerState(config)
    if durable:
        (tmp_path / "shard").mkdir(exist_ok=True)
        serve(state, "ingest", (np.array([[0, 1, 1], [1, 2, 2]]), np.array([1, 2]), 0))
        status, name, _ = serve(state, "checkpoint", (str(tmp_path / "shard"), 1))
        assert (status, name) == ("ok", "checkpoint-00000001.npz")
    if recover:
        state.close()
        state.snap.close()
        state = ShardWorkerState({**config, "checkpoint": str(tmp_path / "shard" / name)})
    try:
        assert (state.buffered, state.tiered) == (buffered, tiered)
        assert state.snap.total() == (3 if durable else 0)
        front = state.front
        assert not isinstance(front, DurableCube)
        # every front answers the names the record rows log under ...
        assert hasattr(front, "update_many") and hasattr(front, "retire_before")
        # ... and the stack says what it is made of, outermost first
        stack = layers(front)
        assert list(stack) == [
            kind
            for kind, present in (
                ("tiered", tiered), ("buffered", buffered), ("kernel", True),
            )
            if present
        ]  # fmt: skip
        # the worker reads the same declaration, under its snapshot layer
        assert state.layers == {"snapshot": state.snap, **stack}
        assert isinstance(stack.get("tiered"), TieredCube) == tiered
        assert isinstance(stack.get("buffered"), BufferedEvolvingDataCube) == buffered
    finally:
        state.close()


class _SpyConn:
    """A pipe end that records the frames crossing it."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.down: list = []
        self.up: list = []

    def send(self, frame) -> None:
        self.down.append(frame)
        self._conn.send(frame)

    def recv(self):
        self.up.append(self._conn.recv())
        return self.up[-1]

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.mark.parametrize("processes", [False, True])
def test_one_envelope_behind_inline_and_process_handles(processes):
    with ShardedCube((4, 4), shards=2, processes=processes, timeout=120.0) as cube:
        owners = fleet_owners(cube)
        handle = cube.router.handles[0]
        if processes:
            handle.conn = _SpyConn(handle.conn)

        published = []  # per reply: did it carry an epoch descriptor?
        deliver = handle._deliver

        def spying(reply):
            published.append(reply[2] is not None)
            return deliver(reply)

        handle._deliver = spying

        def delivered(op, payload, raises=None):
            """Did the reply carry an epoch descriptor?  (An inline shard's
            is its current epoch itself: the same object until it changes.)"""
            if raises is None:
                handle.request(op, payload)
            else:
                with pytest.raises(raises):
                    handle.request(op, payload)
            return published[-1]

        def ingest(point, delta):
            return np.asarray([point]), np.asarray([delta]), 0

        assert delivered("ingest", ingest((0, 1, 1), 5))
        assert not delivered("total", None)
        # a failing mutating op may have partially applied: fresh epoch
        assert delivered("ingest", ingest((1, 9, 9), 1), raises=DomainError)
        assert not delivered("query", np.zeros((1, 2, 2), np.int64), raises=DomainError)
        assert not delivered("frobnicate", None, raises=DomainError)
        assert handle.request("total") == 5
        if processes:
            conn = handle.conn
            assert all(len(frame) == 3 for frame in conn.down + conn.up)
            assert [frame[0] for frame in conn.up] == [
                "ok", "ok", "error", "error", "error", "ok",
            ]
            # what is no ReproError is not answered: the worker fails stop
            with pytest.raises(ShardUnavailableError):
                handle.request("ingest", None)
            handle.process.join(timeout=30)
            assert not handle.is_alive()
        else:
            assert len(serve(handle.state, "total", None)) == 3
            handle.send("ingest", None)  # the inline handle re-raises at recv
            with pytest.raises(TypeError):
                handle.recv()
            assert handle.request("total") == 5
    assert not fleet_leaks(owners)


def test_local_boxes_is_the_per_box_clip(rng):
    partitioner = GridPartitioner((7, 6), (2, 3))
    shape = (9, 7, 6)
    boxes = [random_box(rng, shape) for _ in range(200)]
    for extent in partitioner.extents:
        # touching the extent's first and last cell, and just past both
        origin, upper = extent.origin, extent.upper
        boxes += [
            Box((0, *origin), (3, *origin)),
            Box((0, *upper), (3, *upper)),
            Box((0, 0, 0), (3, *(max(o - 1, 0) for o in origin))),
            Box((0, *(min(u + 1, n - 1) for u, n in zip(upper, shape[1:]))), (3, 6, 5)),
        ]
    corners = box_array(boxes, 3)
    for extent in partitioner.extents:
        clips = [partitioner.local_box(box, extent) for box in boxes]
        positions, local = partitioner.local_boxes(corners, extent)
        assert positions.tolist() == [i for i, c in enumerate(clips) if c is not None]
        assert as_boxes(local) == [clip for clip in clips if clip is not None]
        assert 0 < len(positions) < len(boxes)  # some reach the extent, some miss it
    positions, local = partitioner.local_boxes(corners[:0], partitioner.extents[0])
    assert positions.size == 0 and local.shape == (0, 2, 3)


# -- a library caller's bad mode / limit: refused before the log or a scatter -------


def test_bad_mode_and_limit_never_reach_a_shard(tmp_path):
    with ShardedCube(
        (8, 8), shards=2, processes=True, durable_dir=tmp_path / "fleet",
        fsync="off", timeout=120.0,
    ) as cube:
        owners = fleet_owners(cube)
        cube.update_many([[5, 1, 1], [5, 6, 6]], [2, 3])
        logged = cube.log_info()
        for hostile in (
            lambda: cube.update_many([[6, 1, 1]], [1], mode="bogus"),
            lambda: cube.update_many([[6, 1, 1]], [1], mode="buffer"),
            lambda: cube.drain("x"),
            lambda: cube.drain(-1),
        ):
            with pytest.raises(DomainError):
                hostile()
            assert cube.total() == 5
        assert cube.log_info() == logged
        assert all(handle.is_alive() for handle in cube.router.handles)
    assert not fleet_leaks(owners)


@pytest.mark.parametrize("extent", [False, True])
def test_durable_cube_refuses_what_the_log_cannot_encode(tmp_path, extent):
    with DurableCube((4, 4), tmp_path / "cube", buffered=True, extent=extent) as cube:
        if extent:
            cube.insert_many([[0, 3]], [[1, 1]])
            batch = lambda: cube.insert_many([[1, 2]], [[2, 2]], mode="bogus")  # noqa: E731
        else:
            cube.update_many([[0, 1, 1]], [4])
            batch = lambda: cube.update_many([[1, 2, 2]], [1], mode="bogus")  # noqa: E731
        answer = (lambda: cube.alive_at(1)) if extent else cube.total
        lsn, before = cube.last_lsn, answer()
        for hostile in (batch, lambda: cube.drain("x"), lambda: cube.drain(-1)):
            with pytest.raises(DomainError):
                hostile()
        assert cube.last_lsn == lsn
        assert answer() == before


# -- one write mode: a point is a batch of one, a metered batch is refused ---------


@pytest.mark.parametrize("processes", [False, True])
def test_a_metered_batch_never_reaches_a_shard(processes):
    with ShardedCube((8, 8), shards=2, processes=processes, timeout=120.0) as cube:
        owners = fleet_owners(cube)
        cube.update_many([[5, 1, 1], [5, 6, 6]], [2, 3])
        before = [handle.request("total") for handle in cube.router.handles]
        assert sorted(before) == [2, 3]
        with pytest.raises(DomainError, match="fast mode only"):
            cube.update_many([[6, 1, 1], [6, 6, 6]], [1, 1], mode="metered")
        assert [handle.request("total") for handle in cube.router.handles] == before
        assert cube.router.latest_time == 5
    assert not fleet_leaks(owners)


def test_one_point_writes_match_the_oracle_and_recover_bit_identically(rng, tmp_path):
    shape = (10, 4, 4)
    dense = np.zeros(shape, dtype=np.int64)
    boxes = [random_box(rng, shape) for _ in range(40)]
    boxes += [Box((0, 0, 0), (t, 3, 3)) for t in range(shape[0])]
    fleet = tmp_path / "fleet"
    with ShardedCube(
        shape[1:], shards=2, processes=False, durable_dir=fleet, fsync="off"
    ) as cube:
        # in order, then late: locally late on its shard (rows 0-1 or
        # 2-3), and locally in order on the shard that never saw time 7
        for point, delta in [
            ((2, 0, 0), 4), ((5, 3, 3), 1), ((7, 0, 1), 6),
            ((3, 3, 2), 5), ((6, 0, 3), -2), ((6, 2, 2), 3),
        ]:  # fmt: skip
            cube.update(point, delta)
            dense[point] += delta
        expected = [brute_box_sum(dense, box) for box in boxes]
        assert cube.query_many(boxes) == expected
        assert cube.router.latest_time == 7
        buffered = [h.state.layers["buffered"] for h in cube.router.handles]
        assert [b.cube.directory.latest_time for b in buffered] == [7, 5]
        assert [b.buffered_updates for b in buffered] == [1, 2]  # as the oracle
        states = [snapshot_arrays(b) for b in buffered]
    recovered = ShardedCube.recover(fleet, processes=False)
    try:
        for handle, state in zip(recovered.router.handles, states):
            arrays = snapshot_arrays(handle.state.layers["buffered"])
            assert sorted(arrays) == sorted(state)
            for key, array in arrays.items():
                assert array.tobytes() == state[key].tobytes(), key
        assert recovered.query_many(boxes) == expected
        assert recovered.drain() == (3, 0)
        assert recovered.query_many(boxes) == expected
    finally:
        recovered.close()
