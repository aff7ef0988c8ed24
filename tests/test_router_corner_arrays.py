"""The sharding router on corner arrays.

A served read batch is one ``(n, 2, d)`` int64 corner array from the wire
decoder to the per-shard clip: the router validates it with array
operations, splits demoted from live boxes with a mask and clips it per
shard extent (``GridPartitioner.local_boxes``).  These tests hold that
path to the per-box definitions it replaced:

* a Hypothesis differential -- router on a corner array == router on the
  same ``Box`` list == unsharded tiered front == NumPy oracle, inline and
  over worker processes, exact and approximate;
* the typed errors of faulty batches, first faulty box first;
* a structural guard: no ``Box`` is built while a batch is served.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box, as_boxes
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.retention import TieredCube
from repro.sharding import GridPartitioner, ShardClient, ShardedCube

from .conftest import fleet_leaks, fleet_owners
from .test_shard_server import _ServerThread

SLICE = (7, 6)
TIMES = 24
#: prefixes below it are demoted to tiles; the rest stay live
DEMOTE = 12
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]


def _stream(seed: int):
    """Non-negative updates (the approximate bounds need them): in-order
    points over ``[0, TIMES)`` with late ones among them, and a
    second batch of late points at or after the demotion boundary."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, TIMES, size=160))
    times[rng.choice(times.size, size=12, replace=False)] -= 3  # late: G_d
    points = np.column_stack(
        [np.maximum(times, 0)] + [rng.integers(0, n, times.size) for n in SLICE]
    )
    late = np.column_stack(
        [rng.integers(DEMOTE, TIMES - 1, 10)] + [rng.integers(0, n, 10) for n in SLICE]
    )
    return (
        points.astype(np.int64), rng.integers(0, 9, times.size),
        late.astype(np.int64), rng.integers(1, 5, 10),
    )  # fmt: skip


def _load(front, stream) -> None:
    points, deltas, late, late_deltas = stream
    front.update_many(points, deltas)
    front.demote_before(DEMOTE)
    front.update_many(late, late_deltas)


def _oracle(stream) -> np.ndarray:
    points, deltas, late, late_deltas = stream
    dense = np.zeros((TIMES, *SLICE), dtype=np.int64)
    np.add.at(dense, tuple(points.T), deltas)
    np.add.at(dense, tuple(late.T), late_deltas)
    return dense


def _brute(dense: np.ndarray, corners: np.ndarray) -> list[int]:
    answers = []
    for lower, upper in corners.tolist():
        window = tuple(
            slice(max(lo, 0), max(min(up, n - 1) + 1, 0))
            for lo, up, n in zip(lower, upper, dense.shape)
        )
        answers.append(int(dense[window].sum()))
    return answers


@pytest.fixture(scope="module", params=[False, True], ids=["inline", "processes"])
def served(request, tmp_path_factory):
    """A 2 x 2-shard tiered fleet and an unsharded tiered front, one stream."""
    root = tmp_path_factory.mktemp("arrays")
    stream = _stream(29)
    reference = TieredCube(
        BufferedEvolvingDataCube(SLICE), TIERS, root / "reference"
    )
    fleet = ShardedCube(
        SLICE, shards=4, processes=request.param, tiers=TIERS,
        tile_root=root / "tiles", timeout=120.0,
    )  # fmt: skip
    owners = fleet_owners(fleet)
    try:
        _load(reference, stream)
        _load(fleet, stream)
        assert fleet.router.demote_boundary is not None
        yield fleet, reference, _oracle(stream)
    finally:
        fleet.close()
    assert not fleet_leaks(owners)


@st.composite
def _batches(draw) -> np.ndarray:
    """A box batch over ``SLICE``: boxes overhanging the domain, touching a
    shard extent's first or last cell or one past it, and, in some
    batches, boxes confined to one shard extent (the others get none);
    time ranges demoted, live, or straddling the boundary."""
    extents = GridPartitioner.for_shards(SLICE, 4).extents
    confined = draw(st.sampled_from([None, *extents]))
    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["demoted", "live", "straddle", "open"]))
        if kind == "demoted":
            t1 = draw(st.integers(-2, DEMOTE - 2))
            t2 = draw(st.integers(t1, DEMOTE - 1))
        elif kind == "live":
            t1 = draw(st.integers(DEMOTE + 1, TIMES + 2))
            t2 = draw(st.integers(t1, TIMES + 3))
        else:
            t1 = 0 if kind == "open" else draw(st.integers(1, DEMOTE))
            t2 = draw(st.integers(DEMOTE, TIMES + 3))
        lower, upper = [t1], [t2]
        extent = confined or draw(st.sampled_from(extents))
        for axis, n in enumerate(SLICE):
            first, last = extent.origin[axis], extent.upper[axis]
            shape = draw(st.sampled_from(["any", "edge", "past"]))
            if confined is not None:
                lo = draw(st.integers(first, last))
                hi = draw(st.integers(lo, last))
            elif shape == "any":  # may overhang the domain on either side
                lo = draw(st.integers(-3, n - 1))
                hi = draw(st.integers(max(lo, 0), n + 2))
            elif shape == "edge":  # a single cell: the extent's first or last
                lo = hi = draw(st.sampled_from([first, last]))
            else:  # a single cell just outside the extent, when in the domain
                past = [max(first - 1, 0), min(last + 1, n - 1)]
                lo = hi = draw(st.sampled_from(past))
            lower.append(lo)
            upper.append(hi)
        boxes.append((lower, upper))
    return np.asarray(boxes, dtype=np.int64)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)  # fmt: skip
@given(corners=_batches())
def test_array_router_is_the_box_router_the_front_and_the_oracle(served, corners):
    fleet, reference, dense = served
    boxes = as_boxes(corners)
    exact = _brute(dense, corners)
    assert fleet.query_many(corners) == exact
    assert fleet.query_many(boxes) == exact
    assert reference.query_many(corners) == exact
    approx = fleet.query_many_approx(corners)
    assert approx == fleet.query_many_approx(boxes)
    for (estimate, low, high), value in zip(approx, exact):
        assert low <= value <= high and low <= estimate <= high
        assert type(estimate) is float and type(low) is int and type(high) is int
    assert all(type(value) is int for value in fleet.query_many(corners))


def test_every_shard_reached_or_not_answers_alone(served):
    """A batch inside one shard extent leaves the other shards unasked."""
    fleet, _, dense = served
    for extent in fleet.router.partitioner.extents:
        corners = np.array(
            [[[0, *extent.origin], [TIMES - 1, *extent.upper]],
             [[DEMOTE - 3, *extent.origin], [DEMOTE + 3, *extent.origin]]],
        )  # fmt: skip
        assert fleet.query_many(corners) == _brute(dense, corners)
    assert fleet.query_many(np.empty((0, 2, 3), dtype=np.int64)) == []
    assert fleet.query_many([]) == [] and fleet.query_many_approx([]) == []


# -- typed errors: the first faulty box raises, as box by box -----------------------

AGED = [[3, 0, 0], [8, 5, 5]]  # its - prefix (time 2) was retired
EMPTY = [[6, 7, 0], [8, 9, 5]]  # no cell left after clipping to (6, 6)
LIVE = [[6, 0, 0], [11, 5, 5]]

#: batch -> the error class the per-box router raised for it
FAULTY = {
    "aged": ([LIVE, AGED], AgedOutError),
    "empty": ([LIVE, EMPTY], DomainError),
    "aged then empty": ([AGED, EMPTY], AgedOutError),
    "empty then aged": ([EMPTY, AGED], DomainError),
    "live, empty, aged": ([LIVE, EMPTY, AGED], DomainError),
    "aged and empty, one box": ([[[3, 7, 0], [8, 9, 5]], AGED], DomainError),
    "inverted": ([LIVE, [[6, 3, 0], [8, 2, 5]]], DomainError),
    "aged then inverted": ([AGED, [[6, 3, 0], [8, 2, 5]]], DomainError),
    "arity": ([[[6, 0], [8, 5]]], DomainError),
}


@pytest.fixture(scope="module", params=[False, True], ids=["inline", "processes"])
def retired(request):
    cube = ShardedCube((6, 6), shards=2, processes=request.param, timeout=120.0)
    try:
        cube.update_many([[t, t % 6, 5 * t % 6] for t in range(12)], [1] * 12)
        cube.retire_before(6)
        yield cube
    finally:
        cube.close()


@pytest.mark.parametrize("case", sorted(FAULTY))
def test_faulty_batches_raise_what_the_first_faulty_box_raised(retired, case):
    batch, error = FAULTY[case]
    with pytest.raises(error) as raised:
        retired.query_many(np.asarray(batch, dtype=np.int64))
    if error is AgedOutError:
        assert "prefix at time 2" in str(raised.value)
    with pytest.raises(error):
        retired.query_many_approx(np.asarray(batch, dtype=np.int64))
    if case not in ("inverted", "aged then inverted", "arity"):  # no such Box
        with pytest.raises(error):
            retired.query_many([Box(tuple(lo), tuple(up)) for lo, up in batch])
    if case == "empty":  # clip_cells' message, the one every other front raises
        assert str(raised.value) == (
            "box Box(lower=(7, 0), upper=(9, 5)) is empty after clipping to (6, 6)"
        )
    assert retired.query_many(np.array([LIVE])) == [6]


def _wire_request(client, op: str, boxes) -> dict:
    return client.request({"op": op, "boxes": boxes})


def test_wire_batches_keep_their_strictness(retired):
    """The decoder builds the array; a faulty batch still names its fault."""
    spec = lambda lower, upper: {"lower": lower, "upper": upper}  # noqa: E731
    live = spec(*LIVE)
    cases = [
        # (boxes, error class, words of the message)
        ([live, spec([6, 0], [8, 5, 5])], "DomainError", "corner arity mismatch"),
        ([live, spec([6, 0], [8, 5])], "DomainError", "arities [2, 3]"),
        ([spec([6, 0, 0], [8, 1.5, 5])], "ProtocolError", "boxes"),
        ([spec([6, 0, 0], [8, True, 5])], "ProtocolError", "boxes"),
        ([spec([6, 0, 0], [8, 1 << 63, 5])], "ProtocolError", "boxes"),
        ([spec([-(1 << 63), 0, 0], [8, 1, 5])], "ProtocolError", "boxes"),
        ([live, {"lower": [6, 0, 0]}], "ProtocolError", "boxes"),
        ([live, [[6, 0, 0], [8, 5, 5]]], "ProtocolError", "boxes"),
        # the first faulty box decides, protocol or domain
        ([spec([6, 3, 0], [8, 2, 5]), spec([6, 0, 0], [8, 1.5, 5])],
         "DomainError", "inverted range [3, 2]"),
        ([spec([6, 0, 0], [8, 1.5, 5]), spec([6, 3, 0], [8, 2, 5])],
         "ProtocolError", "boxes"),
        ([spec(*AGED), spec(*EMPTY)], "AgedOutError", "prefix at time 2"),
        ([spec(*EMPTY), spec(*AGED)], "DomainError", "empty after clipping"),
    ]  # fmt: skip
    with _ServerThread(retired) as server:
        with ShardClient("127.0.0.1", server.port) as client:
            for op in ("query_many", "query_approx"):
                for boxes, error, words in cases:
                    reply = _wire_request(client, op, boxes)
                    assert reply["ok"] is False, (op, boxes)
                    assert reply["error"] == error, (op, boxes, reply)
                    assert words in reply["message"], (op, boxes, reply)
                assert _wire_request(client, op, [])["result"] == []
            assert client.query_many([LIVE]) == [6]


# -- the client sends corner arrays -------------------------------------------------


def test_client_sends_a_corner_array(served):
    fleet, _, dense = served
    corners = np.array(
        [[[0, 0, 0], [TIMES - 1, 6, 5]], [[2, -1, 3], [DEMOTE + 4, 4, 9]]]
    )
    boxes = as_boxes(corners)
    with _ServerThread(fleet) as server:
        with ShardClient("127.0.0.1", server.port) as client:
            assert client.query_many(corners) == client.query_many(boxes)
            assert client.query_many(corners) == _brute(dense, corners)
            assert client.query_many_approx(corners) == client.query_many_approx(boxes)


# -- no Box on the served read path ---------------------------------------------------


@pytest.fixture
def box_count(monkeypatch):
    """How many ``Box`` objects this process has built since the reset."""
    counted = [0]
    build = Box.__post_init__

    def counting(self) -> None:
        counted[0] += 1
        build(self)

    monkeypatch.setattr(Box, "__post_init__", counting)
    return counted


def test_no_box_is_built_serving_a_batch_over_the_wire(served, box_count):
    """Wire decode, checks, mask split and shard clip in this process; with
    process shards the worker rows run elsewhere, inline ones here --
    the tiered exact and approximate reads among them."""
    fleet, _, dense = served
    corners = np.array(
        [[[0, -2, 0], [TIMES, 6, 5]], [[3, 1, 1], [DEMOTE - 2, 5, 4]],
         [[DEMOTE + 1, 0, 3], [TIMES - 1, 3, 3]]] * 20
    )  # fmt: skip
    with _ServerThread(fleet) as server:
        with ShardClient("127.0.0.1", server.port) as client:
            box_count[0] = 0
            assert client.query_many(corners) == _brute(dense, corners)
            assert box_count[0] == 0
            assert fleet.query_many(corners) == _brute(dense, corners)
            assert box_count[0] == 0
            client.query_many_approx(corners)
            fleet.query_many_approx(corners)
            assert box_count[0] == 0
            assert client.query(LIVE) == _brute(dense, np.array([LIVE]))[0]
            assert box_count[0] == 1  # the query op decodes its one Box


def test_no_box_is_built_by_inline_worker_rows(box_count):
    """Untiered inline shards: the approx row is the front's exact batch."""
    corners = np.array([[[0, -1, 0], [9, 3, 6]], [[2, 2, 2], [5, 2, 9]]] * 30)
    with ShardedCube((4, 5), shards=2, processes=False) as cube:
        cube.update_many([[t, t % 4, 2 * t % 5] for t in range(10)], list(range(10)))
        expected = cube.query_many(corners)
        box_count[0] = 0
        assert [e for e, _, _ in cube.query_many_approx(corners)] == expected
        assert cube.query_many(corners) == expected
        assert box_count[0] == 0

