"""The TCP front: wire protocol, error mapping, graceful drain.

The server is hosted on a background thread running its own asyncio
loop; the cube under it is an inline :class:`ShardedCube` (no worker
processes), so the test exercises exactly the network layer.  The last
test instead runs the ``python -m repro serve`` command itself, twice on
one durable directory.
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

from repro.core.types import Box
from repro.sharding import ShardClient, ShardServer, ShardedCube


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


def _serve_cli(durable_dir):
    """``python -m repro serve`` on ``durable_dir``; returns (process, banner)."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--inline",
            "--shards", "2", "--shape", "6,6", "--durable-dir", str(durable_dir),
        ],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        text=True,
    )
    banner = {}
    while "listening" not in banner:  # a shm-sweep line may come first
        line = process.stdout.readline()
        assert line, "server exited before printing its banner"
        banner = json.loads(line)
    return process, banner


def test_durable_server_restarts_with_the_command_that_started_it(tmp_path):
    process, banner = _serve_cli(tmp_path)
    try:
        assert "recovered" not in banner
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ShardClient("127.0.0.1", port) as client:
            client.update_many([[0, 1, 1], [1, 5, 0], [2, 3, 4]], [4, 5, 6])
            assert client.total() == 15
    finally:
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    process, banner = _serve_cli(tmp_path)
    try:
        assert banner["recovered"] is True
        assert banner["shards"] == 2 and banner["slice_shape"] == [6, 6]
        port = int(banner["listening"].rsplit(":", 1)[1])
        with ShardClient("127.0.0.1", port) as client:
            assert client.total() == 15
    finally:
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
