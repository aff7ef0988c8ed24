"""The served process's memory step (:func:`repro.sharding.server.
release_memory`): one malloc arena, and freed pages handed back.

``ShardServer.listen`` caps the process at one arena and releases once.
A connection that ran an op whose row mutates the cube (the ``mutates``
column of :data:`repro.sharding.ops.OPS`) releases once it pauses for
``RELEASE_IDLE`` or closes -- once after a burst of back-to-back writes,
never for a read.  Where the C library lacks either function the step
does nothing.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

import repro.sharding.server as server_module
from repro.core.errors import AgedOutError
from repro.sharding import ShardClient, ShardedCube, ShardServer
from repro.sharding.ops import BY_METHOD, OPS, encode_request
from repro.sharding.server import release_memory

from .test_shard_ops import ARGUMENTS, RESULTS

WRITES = [op for op, row in OPS.items() if row.mutates]
READS = [op for op, row in OPS.items() if not row.mutates]


class _Cube:
    """Answers every row's method with a result of the row's kind."""

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail

    def __getattr__(self, name: str):
        row = BY_METHOD[name]

        def method(**arguments):
            if self.fail:
                raise AgedOutError("refused")
            return RESULTS[row.result]

        return method


@pytest.fixture
def releases(monkeypatch):
    """The ``arenas`` argument of every release the server makes; each
    release also sets ``releases.made``."""
    calls = []
    made = threading.Semaphore(0)

    def spy(arenas=None):
        calls.append(arenas)
        made.release()

    monkeypatch.setattr(server_module, "release_memory", spy)
    return SimpleNamespace(calls=calls, made=made)


def _body(op: str) -> bytes:
    row = OPS[op]
    frame = encode_request(op, **{f.name: ARGUMENTS[f.name] for f in row.fields})
    return json.dumps(frame).encode()


def _frame(op: str) -> bytes:
    body = _body(op)
    return len(body).to_bytes(4, "big") + body


def test_the_table_has_both_kinds_of_row():
    assert set(WRITES) == {
        "update", "update_many", "drain", "retire", "demote", "apply_out_of_order",
    }


@pytest.mark.parametrize("op", sorted(OPS))
def test_apply_says_whether_its_row_mutates_and_releases_nothing(op, releases):
    reply, mutated = ShardServer(_Cube())._apply(_body(op))
    assert reply["ok"] and mutated == OPS[op].mutates
    assert releases.calls == []


@pytest.mark.parametrize("op", WRITES)
def test_a_refused_mutation_still_mutated(op):
    reply, mutated = ShardServer(_Cube(fail=True))._apply(_body(op))
    assert reply["error"] == "AgedOutError" and mutated


def test_a_frame_no_row_reads_mutates_nothing():
    server = ShardServer(_Cube())
    for payload in (b"{", b'{"op": "frobnicate"}', b'{"op": "update", "delta": 1}'):
        reply, mutated = server._apply(payload)
        assert reply["error"] == "ProtocolError" and not mutated


@pytest.fixture
def connection(monkeypatch):
    """A client socket served by ``ShardServer._serve_connection`` on its
    own thread, with a short ``RELEASE_IDLE``."""
    monkeypatch.setattr(server_module, "RELEASE_IDLE", 0.05)
    server = ShardServer(_Cube())
    client, served = socket.socketpair()
    thread = threading.Thread(target=server._serve_connection, args=(served,))
    thread.start()
    yield SimpleNamespace(client=client, server=server, thread=thread)
    client.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _exchange(client: socket.socket, *ops: str) -> None:
    """Send ``ops`` back to back in one write, then read every reply."""
    client.sendall(b"".join(_frame(op) for op in ops))
    for _ in ops:
        assert json.loads(server_module._read_frame(client))["ok"]


@pytest.mark.parametrize("op", WRITES)
def test_a_connection_releases_once_it_pauses_after_a_write(op, releases, connection):
    _exchange(connection.client, op)
    assert releases.made.acquire(timeout=10)
    assert releases.calls == [None]


@pytest.mark.parametrize("op", READS)
def test_a_connection_never_releases_for_a_read(op, releases, connection):
    _exchange(connection.client, op, op)
    assert not releases.made.acquire(timeout=0.3)  # six idle periods
    connection.client.shutdown(socket.SHUT_WR)  # a close owes nothing either
    assert server_module._read_frame(connection.client) is None
    assert releases.calls == []


def test_the_release_runs_outside_the_cube_lock(monkeypatch, connection):
    held = []
    monkeypatch.setattr(
        server_module,
        "release_memory",
        lambda arenas=None: held.append(connection.server._cube_lock.locked()),
    )
    _exchange(connection.client, "update_many")
    connection.client.close()
    connection.thread.join(timeout=10)
    assert not connection.thread.is_alive() and held == [False]


def test_back_to_back_writes_release_once(releases, connection):
    _exchange(connection.client, *WRITES, "query", "update_many")
    assert releases.made.acquire(timeout=10)
    assert not releases.made.acquire(timeout=0.3)
    assert releases.calls == [None]


def test_a_connection_that_closes_after_a_write_releases(releases, monkeypatch):
    monkeypatch.setattr(server_module, "RELEASE_IDLE", 60.0)  # never idle here
    server = ShardServer(_Cube())
    client, served = socket.socketpair()
    thread = threading.Thread(target=server._serve_connection, args=(served,))
    thread.start()
    _exchange(client, "update")
    assert releases.calls == []
    client.close()
    thread.join(timeout=10)
    assert not thread.is_alive() and releases.calls == [None]


def test_listen_caps_the_arenas_and_releases_once(releases):
    server = ShardServer(_Cube())
    server.listen()
    try:
        assert releases.calls == [1]
    finally:
        server.shutdown()


def test_the_step_calls_mallopt_then_malloc_trim(monkeypatch):
    calls = []
    libc = SimpleNamespace(
        mallopt=lambda *args: calls.append(("mallopt", args)),
        malloc_trim=lambda *args: calls.append(("malloc_trim", args)),
    )
    monkeypatch.setattr(server_module, "_libc", lambda: libc)
    release_memory(arenas=1)
    release_memory()
    assert calls == [
        ("mallopt", (-8, 1)),  # M_ARENA_MAX
        ("malloc_trim", (0,)),
        ("malloc_trim", (0,)),
    ]


@pytest.mark.parametrize(
    "libc",
    [None, SimpleNamespace(), SimpleNamespace(malloc_trim=lambda pad: None)],
    ids=["no-libc", "neither-function", "no-mallopt"],
)
def test_a_libc_without_the_functions_is_a_silent_no_op(monkeypatch, libc):
    monkeypatch.setattr(server_module, "_libc", lambda: libc)
    release_memory(arenas=1)
    release_memory()


def test_a_served_cube_answers_the_same_with_the_real_step():
    """The step runs for real: writes, drains and reads over the wire
    answer what the cube in hand answers."""
    with ShardedCube((4, 4), shards=2, processes=False) as cube:
        server = ShardServer(cube)
        server.listen()
        thread = threading.Thread(target=server.serve, args=(False,))
        thread.start()
        try:
            with ShardClient(server.host, server.port) as client:
                client.update_many([[t, t % 4, 3 - t % 4] for t in range(1, 9)], [1] * 8)
                client.update((3, 1, 1), 5)  # late: a correction
                client.drain()
                time.sleep(5 * server_module.RELEASE_IDLE)  # a pause: it releases
                assert client.total() == cube.total() == 13
                assert client.query(((0, 0, 0), (4, 3, 3))) == 9
        finally:
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()
