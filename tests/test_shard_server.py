"""The TCP front: wire protocol, error mapping, graceful drain.

The server's accept loop runs on a background thread; the cube under
it is an inline :class:`ShardedCube` (no worker processes), so the test
exercises exactly the network layer.  The
``_serve_cli`` tests instead run the ``python -m repro serve`` command
itself: restarted on one durable directory, fed hostile frames with
worker processes behind it, and with ``--tiers``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Box
from repro.sharding import ShardClient, ShardServer, ShardedCube
from repro.sharding import server as server_module
from repro.sharding.ops import OPS


class _ServerThread:
    """Run a ShardServer's accept loop on a background thread until stopped."""

    def __init__(self, cube) -> None:
        self.server = ShardServer(cube)
        self._thread = threading.Thread(
            target=self.server.serve, kwargs={"install_sigterm": False}, daemon=True
        )

    def __enter__(self) -> ShardServer:
        self.server.listen()
        self._thread.start()
        return self.server

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()


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


class _SlowTotal:
    """The cube, with a ``total`` that takes ``seconds`` and says when it
    started."""

    def __init__(self, cube, seconds: float) -> None:
        self.cube = cube
        self.seconds = seconds
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self.cube, name)

    def total(self):
        self.entered.set()
        time.sleep(self.seconds)
        return self.cube.total()


def test_shutdown_finishes_the_request_in_flight(cube):
    slow = _SlowTotal(cube, 0.5)
    cube.update((0, 1, 1), 3)
    runner = _ServerThread(slow)
    server = runner.__enter__()
    busy = ShardClient("127.0.0.1", server.port)
    idle = ShardClient("127.0.0.1", server.port)
    assert idle.ping()
    replies = []
    asker = threading.Thread(target=lambda: replies.append(busy.total()))
    asker.start()
    assert slow.entered.wait(timeout=30)
    runner.__exit__(None, None, None)  # returns once drained
    asker.join(timeout=30)
    assert replies == [3]  # the request in flight was answered
    for client in (busy, idle):
        with pytest.raises(ConnectionError):
            client.ping()  # and then every connection was closed
        client.close()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=2)


def test_concurrent_connections_lose_no_update(cube):
    """More client threads than cores, each on its own connection, with a
    short switch interval: the cube lock must keep every write."""
    clients, writes = 6, 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _ServerThread(cube) as server:

            def write(seed: int) -> None:
                with ShardClient("127.0.0.1", server.port) as client:
                    for i in range(writes):
                        client.update_many([[i, seed % 6, i % 6], [i, 5, 5]], [seed, 1])

            threads = [
                threading.Thread(target=write, args=(seed,)) for seed in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            with ShardClient("127.0.0.1", server.port) as client:
                assert client.total() == writes * sum(range(clients)) + writes * clients
    finally:
        sys.setswitchinterval(interval)


def _read_reply(sock) -> dict:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        assert chunk, "connection closed before a reply"
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        body += sock.recv(length - len(body))
    return json.loads(body)


@pytest.mark.parametrize("trickle", [False, True], ids=["stops", "trickles"])
def test_a_body_late_after_its_header_is_refused(cube, monkeypatch, trickle):
    """Once a header has arrived its whole body has ``BODY_DEADLINE``
    seconds, so a byte every 0.1 s does not keep a 0.3 s body open; the
    late connection gets a ``ProtocolError`` frame and is closed, every
    other one is served, and time between frames is not limited."""
    monkeypatch.setattr(server_module, "BODY_DEADLINE", 0.3)
    with _ServerThread(cube) as server:
        with ShardClient("127.0.0.1", server.port) as other, ShardClient(
            "127.0.0.1", server.port
        ) as idle:
            assert other.ping()
            late = socket.create_connection(("127.0.0.1", server.port), timeout=30)
            refused = threading.Event()

            def send_late() -> None:
                with contextlib.suppress(OSError):  # the server hung up
                    late.sendall(struct.pack(">I", 50) + b'{"op": ')
                    while trickle and not refused.wait(0.1):
                        late.sendall(b" ")

            sender = threading.Thread(target=send_late)
            try:
                started = time.monotonic()
                sender.start()
                assert other.ping() and other.total() == 0
                reply = _read_reply(late)
                assert 0.3 <= time.monotonic() - started < 3.0
                assert reply["error"] == "ProtocolError"
                assert "not received within 0.3 s" in reply["message"]
                refused.set()
                with contextlib.suppress(ConnectionResetError):  # unread bytes
                    assert late.recv(1) == b""  # closed after the refusal
            finally:
                refused.set()
                sender.join(timeout=30)
                late.close()
            time.sleep(0.5)  # idle longer than the deadline, between frames
            assert other.ping() and idle.ping()


def test_an_announced_frame_is_not_allocated_before_it_arrives(cube, monkeypatch):
    """A header announcing ``MAX_FRAME`` bytes, followed by a few, makes the
    server hold what arrived, not what was announced."""
    monkeypatch.setattr(server_module, "BODY_DEADLINE", 0.3)
    with _ServerThread(cube) as server:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(struct.pack(">I", server_module.MAX_FRAME) + b"{" * 10)
                assert _read_reply(sock)["error"] == "ProtocolError"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < server_module.MAX_FRAME // 16, peak


class _LargeTotal:
    """The cube, with a ``total`` whose reply is a few MiB."""

    def __init__(self, cube) -> None:
        self.cube = cube

    def __getattr__(self, name):
        return getattr(self.cube, name)

    def total(self):
        return [0] * (1 << 20)


def test_a_client_that_does_not_read_its_reply_cannot_stall_the_drain(
    cube, monkeypatch
):
    """A reply larger than the socket buffers, to a client that never reads
    it, is dropped after ``BODY_DEADLINE``, so ``shutdown()`` returns."""
    monkeypatch.setattr(server_module, "BODY_DEADLINE", 0.3)
    runner = _ServerThread(_LargeTotal(cube))
    server = runner.__enter__()
    stuck = socket.socket()
    stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stuck.connect(("127.0.0.1", server.port))
    try:
        request = json.dumps({"op": "ping"}).encode()
        stuck.sendall(struct.pack(">I", len(request)) + request)
        assert _read_reply(stuck)["result"] == "pong"
        (accepted,) = server._connections
        accepted.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        request = json.dumps({"op": "total"}).encode()
        stuck.sendall(struct.pack(">I", len(request)) + request)
        time.sleep(0.1)  # the reply is being sent, and nobody reads it
        stopper = threading.Thread(target=runner.__exit__, args=(None, None, None))
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive(), "shutdown() waited on a reply nobody reads"
    finally:
        stuck.close()


def _has_ipv6_loopback() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.parametrize(
    "host",
    [
        "127.0.0.1",
        pytest.param(
            "::1",
            marks=pytest.mark.skipif(
                not _has_ipv6_loopback(), reason="no IPv6 loopback on this host"
            ),
        ),
    ],
)
def test_accepted_sockets_send_without_delay(cube, host):
    runner = _ServerThread(cube)
    runner.server.host = host
    with runner as server:
        with ShardClient(host, server.port) as client:
            assert client.ping()
            (accepted,) = server._connections
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_awaitable_start_and_serve_forever_run_the_sync_server(cube):
    """The two awaitable names serve from inside a caller's event loop."""
    server = ShardServer(cube)
    listening = threading.Event()

    async def main() -> None:
        await server.start()
        listening.set()
        await server.serve_forever(install_sigterm=False)

    loop = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    loop.start()
    assert listening.wait(timeout=30)
    with ShardClient("127.0.0.1", server.port) as client:
        assert client.ping()
    server.shutdown()
    loop.join(timeout=30)
    assert not loop.is_alive()


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


def test_a_client_that_leaves_mid_frame_ends_only_its_connection(tmp_path):
    """Closing mid-body, and resetting before the reply is read, used to
    print ``Unhandled exception in client_connected_cb`` and a traceback."""
    process, banner = _serve_cli(tmp_path)
    try:
        port = int(banner["listening"].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(struct.pack(">I", 100) + b'{"op": "pi')
        points = [[t // 40, t % 6, t % 5] for t in range(4000)]
        request = json.dumps(
            {"op": "update_many", "points": points, "deltas": [1] * 4000}
        ).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(struct.pack(">I", len(request)) + request)
        sock.close()  # a reset, before the reply
        with ShardClient("127.0.0.1", port) as client:
            assert client.ping()
    finally:
        stderr = _stop_cli(process)
    assert "Unhandled exception" not in stderr and "Traceback" not in stderr, stderr


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
