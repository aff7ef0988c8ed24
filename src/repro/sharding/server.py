"""Asyncio TCP front for a sharded cube (:class:`ShardServer`).

Wire protocol: length-prefixed JSON.  Each frame is a 4-byte big-endian
length followed by a UTF-8 JSON document; requests carry ``{"op": ...}``
plus op-specific fields, responses ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "<ErrorClass>", "message": ...}``.

The ops, their fields and their results are the rows of
:data:`repro.sharding.ops.OPS` (tabulated in ``docs/API.md``, "Wire
ops"); this module holds no second list.  A frame no row can read --
not an object, unknown op, missing or ill-typed field -- is answered
with a ``ProtocolError`` frame and the connection stays open; an error
the cube raises crosses as its own class name.

The router is synchronous and single-outstanding, so every request runs
on a one-thread executor -- the event loop stays responsive (accepting
connections, reading frames) while at most one cube operation is in
flight, which is exactly the serialization the router requires.

Graceful drain: SIGTERM (or :meth:`ShardServer.shutdown`) stops the
listener, lets every in-flight request finish, answers anything already
buffered on open connections, then closes them.  The cube itself is left
open -- the caller owns its lifecycle.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import signal
import socket
import struct
from concurrent.futures import ThreadPoolExecutor

from repro.core.errors import ReproError

from repro.sharding.ops import (
    BY_METHOD,
    OPS,
    ProtocolError,
    decode_request,
    encode_request,
)

_HEADER = struct.Struct(">I")
MAX_FRAME = 64 << 20


def _encode(message: dict) -> bytes:
    data = json.dumps(message).encode("utf-8")
    return _HEADER.pack(len(data)) + data


def _failure(exc: ReproError) -> dict:
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


class ShardServer:
    """Serve a (sharded) cube over length-prefixed JSON on TCP."""

    def __init__(self, cube, host: str = "127.0.0.1", port: int = 0) -> None:
        self.cube = cube
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._executor = ThreadPoolExecutor(max_workers=1)
        self._draining = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self, install_sigterm: bool = True) -> None:
        """Run until :meth:`shutdown` (or SIGTERM) drains the server."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_sigterm:
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(
                    signal.SIGTERM,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()
        await self._drained()

    async def shutdown(self) -> None:
        """Stop accepting, finish in-flight requests, close connections."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drained()

    async def _drained(self) -> None:
        await self._idle.wait()
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        self._executor.shutdown(wait=True)

    # -- the per-connection loop -----------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while not self._draining:
                try:
                    header = await reader.readexactly(_HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME:
                    refusal = ProtocolError(f"frame of {length} bytes refused")
                    writer.write(_encode(_failure(refusal)))
                    await writer.drain()
                    break
                payload = await reader.readexactly(length)
                try:
                    request = json.loads(payload)
                except ValueError:
                    response = _failure(ProtocolError("request is not valid JSON"))
                else:
                    response = await self._dispatch(request)
                writer.write(_encode(response))
                await writer.drain()
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, request) -> dict:
        loop = asyncio.get_running_loop()
        self._inflight += 1
        self._idle.clear()
        try:
            return await loop.run_in_executor(
                self._executor, self._apply, request
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _apply(self, request) -> dict:
        """Decode with the op's row, call its cube method, encode the result."""
        try:
            row, arguments = decode_request(request)
            result = getattr(self.cube, row.method)(**arguments)
            return {"ok": True, "result": row.result.encode(result)}
        except ReproError as exc:  # ProtocolError included
            return _failure(exc)


class ShardClient:
    """Tiny synchronous client for :class:`ShardServer` (tests, CLI).

    Every row of :data:`~repro.sharding.ops.OPS` is a method named after
    the cube method it calls (``update_many``, ``drain``,
    ``retire_before``, ``topk_many``, ...), taking that method's wire
    fields; only the singular conveniences are written out below.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, message: dict) -> dict:
        self._sock.sendall(_encode(message))
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        return json.loads(self._recv_exact(length))

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def call(self, op: str, *args, **kwargs):
        """Send ``op`` with its row's fields; the decoded result, or raise."""
        reply = self.request(encode_request(op, *args, **kwargs))
        if not reply.get("ok"):
            raise RuntimeError(f"{reply.get('error')}: {reply.get('message')}")
        return OPS[op].result.decode(reply.get("result"))

    def __getattr__(self, name: str):
        row = BY_METHOD.get(name)
        if row is None:
            raise AttributeError(name)
        return functools.partial(self.call, row.name)

    def query(self, lower, upper=None) -> int:
        return self.call("query", lower if upper is None else (lower, upper))

    def topk(self, t1: int, t2: int, k: int, nonnegative: bool = False):
        return self.topk_many([(t1, t2, k)], nonnegative=nonnegative)[0]

    def query_approx(self, lower, upper=None) -> tuple[float, int, int]:
        box = lower if upper is None else (lower, upper)
        return self.query_many_approx([box])[0]

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
