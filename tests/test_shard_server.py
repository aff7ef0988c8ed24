"""The TCP front: wire protocol, error mapping, graceful drain.

The server is hosted on a background thread running its own asyncio
loop; the cube under it is an inline :class:`ShardedCube` (no worker
processes), so the test exercises exactly the network layer.  The
``_serve_cli`` tests instead run the ``python -m repro serve`` command
itself: restarted on one durable directory, fed hostile frames with
worker processes behind it, and with ``--tiers``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Box
from repro.sharding import ShardClient, ShardServer, ShardedCube
from repro.sharding.ops import OPS


class _ServerThread:
    """Run a ShardServer on its own event loop until stopped."""

    def __init__(self, cube) -> None:
        self.server = ShardServer(cube)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_forever(install_sigterm=False)

        self._loop.run_until_complete(main())

    def __enter__(self) -> ShardServer:
        self._thread.start()
        assert self._started.wait(timeout=30)
        return self.server

    def __exit__(self, *exc) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        ).result(timeout=30)
        self._thread.join(timeout=30)
        self._loop.close()


@pytest.fixture
def cube():
    cube = ShardedCube((6, 6), shards=2, processes=False)
    yield cube
    cube.close()


def test_roundtrip_over_tcp(cube, rng):
    with _ServerThread(cube) as server:
        with ShardClient("127.0.0.1", server.port) as client:
            assert client.ping()
            times = np.sort(rng.integers(0, 10, size=40))
            points = np.column_stack(
                [times, rng.integers(0, 6, 40), rng.integers(0, 6, 40)]
            ).astype(np.int64)
            deltas = np.ones(40, dtype=np.int64)
            client.update_many(points.tolist(), deltas.tolist())
            assert client.total() == 40
            box = ((0, 0, 0), (9, 5, 5))
            assert client.query(*box) == cube.query(Box(*box))
            client.update([int(times[-1]) + 1, 0, 0], 5)
            assert client.total() == 45
            assert client.query_many([((0, 0, 0), (11, 5, 5))]) == [45]


def test_errors_cross_the_wire_as_error_frames(cube):
    with _ServerThread(cube) as server:
        with ShardClient("127.0.0.1", server.port) as client:
            # a domain error: wrong arity point
            reply = client.request(
                {"op": "update", "point": [0, 1], "delta": 1}
            )
            assert reply["ok"] is False
            assert reply["error"] == "DomainError"
            # unknown op
            reply = client.request({"op": "frobnicate"})
            assert reply["ok"] is False
            assert reply["error"] == "ProtocolError"
            # invalid JSON is answered, not dropped
            raw = b"not json"
            client._sock.sendall(struct.pack(">I", len(raw)) + raw)
            header = client._recv_exact(4)
            (length,) = struct.unpack(">I", header)
            reply = json.loads(client._recv_exact(length))
            assert reply["error"] == "ProtocolError"
            # frames no row of the op table can read: each is answered,
            # names its op and field, and the connection stays open
            for frame, named in MALFORMED_FRAMES:
                reply = client.request(frame)
                assert reply["ok"] is False, frame
                assert reply["error"] == "ProtocolError", frame
                assert all(word in reply["message"] for word in named), reply
                assert client.ping()
            assert client.total() == 0  # nothing was applied


#: (frame, words its ProtocolError message carries)
MALFORMED_FRAMES = [
    ({"op": "query"}, ("query", "box")),
    ([1, 2, 3], ("not a JSON object",)),
    ({"op": ["query"]}, ("unknown op",)),
    ({"op": "update", "point": "abc", "delta": 1}, ("update", "point")),
    ({"op": "update_many", "points": [[3, 1, 1], [3, 1]], "deltas": [1, 1]},
     ("update_many", "points")),
    ({"op": "topk", "queries": [[0, 5]]}, ("topk", "queries")),
    ({"op": "topk", "queries": [[0, 5, 1]], "nonnegative": 1},
     ("topk", "nonnegative")),
    ({"op": "query", "box": {"lower": [0, 0, 0]}}, ("query", "box")),
    ({"op": "query_many", "boxes": {"lower": [0, 0, 0], "upper": [1, 1, 1]}},
     ("query_many", "boxes")),
    # non-integers are refused, not truncated into a neighbouring cell
    ({"op": "update", "point": [1, 1.9, 2], "delta": 2}, ("update", "point")),
    ({"op": "update", "point": [1, 1, 2], "delta": 2.7}, ("update", "delta")),
    ({"op": "update", "point": [1, True, 2], "delta": 2}, ("update", "point")),
    ({"op": "update", "point": [1, 1, 2], "delta": "3"}, ("update", "delta")),
    ({"op": "update", "point": [1, 1, 1 << 63], "delta": 1}, ("update", "point")),
    ({"op": "update_many", "points": [[2, 3.9, 2]], "deltas": [1]},
     ("update_many", "points")),
    ({"op": "update_many", "points": [[2, 3, 2]], "deltas": [1.9]},
     ("update_many", "deltas")),
    ({"op": "update_many", "points": [[2, 3, False]], "deltas": [1]},
     ("update_many", "points")),
    ({"op": "retire", "time": 1.0}, ("retire", "time")),
    # a served front writes in fast mode only; "buffer" is the worker's own
    # escape hatch
    ({"op": "update_many", "points": [[5, 1, 1]], "deltas": [1], "mode": "metered"},
     ("update_many", "mode")),
    ({"op": "update_many", "points": [[5, 1, 1]], "deltas": [1], "mode": "buffer"},
     ("update_many", "mode")),
    ({"op": "update_many", "points": [[5, 1, 1]], "deltas": [1], "mode": "bogus"},
     ("update_many", "mode")),
    ({"op": "drain", "limit": "x"}, ("drain", "limit")),
]


def test_oversized_frames_are_refused(cube):
    with _ServerThread(cube) as server:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        try:
            sock.sendall(struct.pack(">I", 1 << 30))
            header = sock.recv(4)
            (length,) = struct.unpack(">I", header)
            body = b""
            while len(body) < length:
                body += sock.recv(length - len(body))
            assert json.loads(body)["error"] == "ProtocolError"
        finally:
            sock.close()


def test_shutdown_drains_inflight_requests(cube, rng):
    with _ServerThread(cube) as server:
        client = ShardClient("127.0.0.1", server.port)
        times = np.sort(rng.integers(0, 10, size=30))
        points = np.column_stack(
            [times, rng.integers(0, 6, 30), rng.integers(0, 6, 30)]
        ).astype(np.int64)
        client.update_many(points.tolist(), [1] * 30)
        assert client.total() == 30
        client.close()
    # after drain the listener is gone
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=2)


def _serve_cli(durable_dir, *flags, inline=True, shape="6,6"):
    """``python -m repro serve`` on ``durable_dir``; returns (process, banner)."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", *(["--inline"] if inline else []),
            "--shards", "2", "--shape", shape, "--durable-dir", str(durable_dir),
            *flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        text=True,
    )
    banner = {}
    while "listening" not in banner:  # a shm-sweep line may come first
        line = process.stdout.readline()
        assert line, "server exited before printing its banner"
        banner = json.loads(line)
    return process, banner


def _stop_cli(process) -> str:
    """SIGTERM the server; its stderr once it has exited cleanly."""
    process.send_signal(signal.SIGTERM)
    _, stderr = process.communicate(timeout=60)
    assert process.returncode == 0, stderr
    return stderr


def test_durable_server_restarts_with_the_command_that_started_it(tmp_path):
    process, banner = _serve_cli(tmp_path)
    try:
        assert "recovered" not in banner
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ShardClient("127.0.0.1", port) as client:
            client.update_many([[0, 1, 1], [1, 5, 0], [2, 3, 4]], [4, 5, 6])
            assert client.total() == 15
    finally:
        _stop_cli(process)
    process, banner = _serve_cli(tmp_path)
    try:
        assert banner["recovered"] is True
        assert banner["shards"] == 2 and banner["slice_shape"] == [6, 6]
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ShardClient("127.0.0.1", port) as client:
            assert client.total() == 15
    finally:
        _stop_cli(process)


def test_hostile_frames_leave_every_worker_process_serving(tmp_path):
    """One frame used to kill a shard worker for good (``mode`` reached the
    WAL codec, ``limit`` reached ``int()``): now each is a typed error and
    the server keeps answering with the oracle's total."""
    process, banner = _serve_cli(tmp_path, inline=False, shape="8,8")
    try:
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ShardClient("127.0.0.1", port) as client:
            client.update_many([[5, 1, 1], [5, 6, 6]], [2, 3])
            for frame, _ in MALFORMED_FRAMES:
                reply = client.request(frame)
                assert (reply["ok"], reply["error"]) == (False, "ProtocolError")
                assert client.ping()
                assert client.total() == 5
            client.update([6, 1, 1], 1)  # both shards still take writes
            client.update([6, 6, 6], 1)
            assert client.total() == 7
    finally:
        stderr = _stop_cli(process)
    assert "Unhandled exception" not in stderr and "Traceback" not in stderr


def test_tiers_flag_serves_demote_and_query_approx(tmp_path):
    """``serve --tiers``' help promises the demote and query_approx ops."""
    tiers = [{"name": "hour", "granularity": 4, "horizon": None}]
    rng = np.random.default_rng(5)
    times = np.sort(rng.integers(0, 40, size=300))
    points = np.column_stack(
        [times, rng.integers(0, 6, 300), rng.integers(0, 6, 300)]
    ).astype(np.int64)
    deltas = rng.integers(1, 9, size=300)
    dense = np.zeros((40, 6, 6), dtype=np.int64)
    np.add.at(dense, tuple(points.T), deltas)
    boxes = [((0, 0, 0), (39, 5, 5)), ((3, 1, 0), (17, 4, 5)), ((10, 2, 2), (30, 3, 3))]
    oracle = [
        int(dense[tuple(slice(a, b + 1) for a, b in zip(lo, up))].sum())
        for lo, up in boxes
    ]
    process, banner = _serve_cli(tmp_path, "--tiers", json.dumps(tiers))
    try:
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ShardClient("127.0.0.1", port) as client:
            client.update_many(points.tolist(), deltas.tolist())
            assert client.demote_before(24) >= 1
            assert client.query_many(boxes) == oracle  # demoted prefixes, exact
            for (_, low, high), exact in zip(client.query_many_approx(boxes), oracle):
                assert low <= exact <= high
    finally:
        _stop_cli(process)
    # untiered, the op answers exactly as the library call does
    with ShardedCube((6, 6), shards=2, processes=False) as cube:
        with _ServerThread(cube) as server:
            with ShardClient("127.0.0.1", server.port) as client:
                with pytest.raises(RuntimeError, match="DomainError.*tiered"):
                    client.demote_before(3)
                with pytest.raises(RuntimeError, match="AppendOrderError.*empty"):
                    client.apply_out_of_order([0, 1, 1], 1)
                client.update_many([[0, 1, 1], [4, 2, 2]], [1, 1])
                client.apply_out_of_order([2, 1, 1], 3)  # cascades, no G_d
                assert client.drain() == (0, 0)
                assert client.retire_before(0) == 0
                assert client.query((0, 0, 0), (3, 5, 5)) == 4


# -- bytes on the wire ------------------------------------------------------------

#: (request, reply) captured at commit 4357172 from this sequence on a fresh
#: ``ShardedCube((4, 4), shards=2, processes=False)``: the ten ops that
#: existed then answer these bytes for as long as the wire is compatible
GOLDEN_FRAMES = [
    (b'{"op": "ping"}',
     b'{"ok": true, "result": "pong"}'),
    (b'{"op": "update_many", "points": [[0, 1, 1], [1, 2, 2], [3, 3, 0], '
     b'[2, 0, 3]], "deltas": [4, 5, 6, 7], "mode": "fast"}',
     b'{"ok": true, "result": null}'),
    (b'{"op": "update", "point": [4, 1, 1], "delta": 2}',
     b'{"ok": true, "result": null}'),
    (b'{"op": "total"}',
     b'{"ok": true, "result": 24}'),
    (b'{"op": "query", "box": {"lower": [0, 0, 0], "upper": [4, 3, 3]}}',
     b'{"ok": true, "result": 24}'),
    (b'{"op": "query_many", "boxes": [{"lower": [0, 0, 0], "upper": [1, 3, 3]}, '
     b'{"lower": [2, 0, 0], "upper": [4, 3, 1]}]}',
     b'{"ok": true, "result": [9, 8]}'),
    (b'{"op": "topk", "queries": [[0, 4, 2]], "nonnegative": true}',
     b'{"ok": true, "result": [[[[0, 3], 7], [[1, 1], 6]]]}'),
    (b'{"op": "query_approx", "boxes": [{"lower": [0, 1, 1], "upper": [3, 3, 3]}]}',
     b'{"ok": true, "result": [[9.0, 9, 9]]}'),
    (b'{"op": "drain"}',
     b'{"ok": true, "result": [1, 0]}'),
    (b'{"op": "drain", "limit": 3}',
     b'{"ok": true, "result": [0, 0]}'),
    (b'{"op": "retire", "time": 2}',
     b'{"ok": true, "result": 0}'),
    (b'{"op": "query", "box": {"lower": [0, 0, 0], "upper": [1, 3, 3]}}',
     b'{"ok": true, "result": 9}'),
]

#: the client calls that produce ``GOLDEN_FRAMES``' requests, in order
GOLDEN_CALLS = [
    ("ping", (), {}),
    ("update_many", ([[0, 1, 1], [1, 2, 2], [3, 3, 0], [2, 0, 3]], [4, 5, 6, 7]), {}),
    ("update", ([4, 1, 1], 2), {}),
    ("total", (), {}),
    ("query", ((0, 0, 0), (4, 3, 3)), {}),
    ("query_many", ([((0, 0, 0), (1, 3, 3)), Box((2, 0, 0), (4, 3, 1))],), {}),
    ("topk_many", ([(0, 4, 2)],), {"nonnegative": True}),
    ("query_many_approx", ([((0, 1, 1), (3, 3, 3))],), {}),
    ("drain", (), {}),
    ("drain", (3,), {}),
    ("retire_before", (2,), {}),
    ("query", (Box((0, 0, 0), (1, 3, 3)),), {}),
]


def test_frames_are_byte_identical_in_both_directions():
    with ShardedCube((4, 4), shards=2, processes=False) as cube:
        with _ServerThread(cube) as server:
            with ShardClient("127.0.0.1", server.port) as client:
                for request, expected in GOLDEN_FRAMES:
                    client._sock.sendall(struct.pack(">I", len(request)) + request)
                    (length,) = struct.unpack(">I", client._recv_exact(4))
                    assert client._recv_exact(length) == expected, request
    assert {json.loads(request)["op"] for request, _ in GOLDEN_FRAMES} == {
        "ping", "total", "query", "query_many", "update", "update_many",
        "topk", "query_approx", "drain", "retire",
    }


def test_client_encodes_the_golden_requests():
    client = ShardClient.__new__(ShardClient)  # no socket: capture the frames
    sent = []
    client.request = lambda message: sent.append(message) or {"ok": True, "result": []}
    for method, args, kwargs in GOLDEN_CALLS:
        getattr(client, method)(*args, **kwargs)
    assert [json.dumps(message).encode() for message in sent] == [
        request for request, _ in GOLDEN_FRAMES
    ]


# -- hostile input ----------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["lower", "upper", "x"]), children, max_size=3),
    max_leaves=12,
)

#: one acceptable value per field name, to mutate from
_VALID = {
    "box": {"lower": [0, 0, 0], "upper": [9, 7, 7]},
    "boxes": [{"lower": [0, 1, 1], "upper": [5, 6, 6]}],
    "point": [7, 2, 2],
    "delta": 3,
    "points": [[8, 1, 1], [8, 5, 5]],
    "deltas": [1, 2],
    "mode": "fast",
    "queries": [[0, 9, 2]],
    "nonnegative": True,
    "limit": 2,
    "time": 1,
}


@st.composite
def _hostile_frames(draw):
    row = OPS[draw(st.sampled_from(sorted(OPS)))]
    frame = {"op": row.name}
    for field in row.fields:
        fate = draw(st.sampled_from(["valid", "missing", "random", "random"]))
        if fate == "valid":
            frame[field.name] = _VALID[field.name]
        elif fate == "random":
            frame[field.name] = draw(_JSON)
    return frame


@pytest.fixture(scope="module")
def served_fleet(tmp_path_factory):
    """A durable two-process fleet behind one server, shared by the fuzz run."""
    cube = ShardedCube(
        (8, 8), shards=2, processes=True, timeout=120.0, fsync="off",
        durable_dir=tmp_path_factory.mktemp("fuzz") / "fleet",
    )
    try:
        with _ServerThread(cube) as server:
            with ShardClient("127.0.0.1", server.port) as client:
                yield cube, client
    finally:
        cube.close()


@settings(
    max_examples=int(os.environ.get("REPRO_WIRE_FUZZ_EXAMPLES", "60")),
    deadline=None,
)
@given(frame=_hostile_frames())
def test_any_json_in_any_field_is_answered_and_harmless(served_fleet, frame):
    cube, client = served_fleet
    before = client.total()
    reply = client.request(frame)
    assert set(reply) == ({"ok", "result"} if reply["ok"] else {"ok", "error", "message"})
    if not reply["ok"]:
        # a typed error: the table's, or one the cube raised for a legal frame
        assert reply["error"].endswith("Error") and reply["message"], reply
        assert client.total() == before
    assert client.ping()  # same connection
    assert all(handle.is_alive() for handle in cube.router.handles)
