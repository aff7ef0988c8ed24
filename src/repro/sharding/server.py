"""TCP front for a sharded cube (:class:`ShardServer`): blocking sockets
and one thread per connection.

Wire protocol: length-prefixed JSON.  Each frame is a 4-byte big-endian
length followed by a UTF-8 JSON document; requests carry ``{"op": ...}``
plus op-specific fields, responses ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "<ErrorClass>", "message": ...}``.

The ops, their fields and their results are the rows of
:data:`repro.sharding.ops.OPS` (tabulated in ``docs/API.md``, "Wire
ops"); this module holds no second list.  A frame no row can read --
not an object, unknown op, missing or ill-typed field -- is answered
with a ``ProtocolError`` frame and the connection stays open; an error
the cube raises crosses as its own class name.  A frame whose header
announces more than :data:`MAX_FRAME` bytes, or whose body does not
arrive within :data:`BODY_DEADLINE` seconds of its header, is answered
with a ``ProtocolError`` frame and its connection is closed.  Time
between frames is not limited.  A body is read as it arrives, so a
header alone makes the server allocate nothing; a reply that has not
left within :data:`BODY_DEADLINE` (its client does not read) drops its
connection.  A client that goes away (closes
mid-frame, resets before reading its reply) ends its own connection and
nothing else.

Threads: :meth:`ShardServer.serve` runs the accept loop on the calling
thread and starts one daemon thread per connection.  The router is
synchronous and single-outstanding, so every cube call holds one
``threading.Lock``: connections read, decode and encode side by side,
and at most one cube operation runs at a time.  Every accepted socket
sets ``TCP_NODELAY`` and every reply leaves in one ``sendall``.  The
server loads no event loop, no executor and no TLS: a served process
never initialises OpenSSL.

Memory: :meth:`ShardServer.listen` caps the process at one malloc arena
before any connection thread starts -- under the GIL more arenas buy no
parallelism, and each keeps its own high-water heap -- and hands back to
the OS what building or recovering the cube freed.  A connection that
ran an operation whose row mutates the cube hands back what was freed
once it pauses for :data:`RELEASE_IDLE` or closes; reads never do, and
back-to-back writes reuse what the one before freed
(:func:`release_memory`).

Graceful drain: SIGTERM (or :meth:`ShardServer.shutdown`) stops the
listener, lets every in-flight request finish and send its reply, then
closes the connections.  The cube itself is left open -- the caller owns
its lifecycle.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import select
import signal
import socket
import struct
import threading
import time

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
#: seconds a frame's body may take to arrive after its header, and a
#: reply to leave
BODY_DEADLINE = 30.0
_CHUNK = 1 << 20  # the most one recv asks for
#: seconds a connection waits for its next frame before it returns what
#: its mutations freed: back-to-back writes reuse each other's freed
#: memory, so a release between them would only fault it back in
RELEASE_IDLE = 0.01
#: ``mallopt``'s parameter number for the arena cap (glibc's malloc.h)
_M_ARENA_MAX = -8


@functools.cache
def _libc() -> ctypes.CDLL | None:
    """The C library the process runs on; ``None`` where ctypes cannot
    open it."""
    try:
        return ctypes.CDLL(None)
    except OSError:
        return None


def release_memory(arenas: int | None = None) -> None:
    """Return the free pages malloc holds, at the top and in the middle of
    its heaps, to the OS (``malloc_trim(0)``); with ``arenas``, first cap
    the process at that many malloc arenas (``mallopt(M_ARENA_MAX,
    arenas)``).  A step whose function the C library lacks does nothing.
    """
    libc = _libc()
    mallopt = getattr(libc, "mallopt", None)
    if arenas is not None and mallopt is not None:
        mallopt(_M_ARENA_MAX, arenas)
    malloc_trim = getattr(libc, "malloc_trim", None)
    if malloc_trim is not None:
        malloc_trim(0)


def _idle(sock: socket.socket, seconds: float) -> bool:
    """Does ``sock`` stay unreadable (no frame, no close) for ``seconds``?"""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return not poller.poll(seconds * 1000)


def _encode(message: dict) -> bytes:
    data = json.dumps(message).encode("utf-8")
    return _HEADER.pack(len(data)) + data


def _failure(exc: ReproError) -> dict:
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def _recv_exact(
    sock: socket.socket, n: int, deadline: float | None = None
) -> bytes | None:
    """``n`` bytes from ``sock``; ``None`` when the peer closed first.

    The bytes are read in chunks of at most :data:`_CHUNK`, so memory
    tracks what arrived, not what a header announced.  With a
    ``deadline`` (a :func:`time.monotonic` instant) raises
    ``TimeoutError`` once it passes.
    """
    chunks = []
    left = n
    while left:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            sock.settimeout(remaining)
        chunk = sock.recv(min(left, _CHUNK))
        if not chunk:
            return None
        chunks.append(chunk)
        left -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> bytes | None:
    """The next frame's body; ``None`` when the peer went away.  Raises
    ``ProtocolError`` for a frame the server refuses."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes refused")
    try:
        return _recv_exact(sock, length, time.monotonic() + BODY_DEADLINE)
    except TimeoutError:
        raise ProtocolError(
            f"frame body of {length} bytes not received within {BODY_DEADLINE} s"
        ) from None
    finally:
        sock.settimeout(None)


def _send(sock: socket.socket, reply: bytes) -> None:
    """Send ``reply`` in one ``sendall`` that must finish within
    :data:`BODY_DEADLINE`; a peer that does not read raises ``OSError``."""
    sock.settimeout(BODY_DEADLINE)  # bounds the whole sendall
    try:
        sock.sendall(reply)
    finally:
        sock.settimeout(None)


class ShardServer:
    """Serve a (sharded) cube over length-prefixed JSON on TCP.

    :meth:`listen` binds (``port=0`` picks a free port, read back from
    ``.port``); :meth:`serve`, which needs :meth:`listen` first, answers
    until :meth:`shutdown`, or SIGTERM, drains it.
    """

    def __init__(self, cube, host: str = "127.0.0.1", port: int = 0) -> None:
        self.cube = cube
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._wake_r = self._wake_w = None  # a socketpair once listening
        self._cube_lock = threading.Lock()
        # held by serve() while it runs; shutdown() waits on it
        self._run_lock = threading.Lock()
        # guards the connection set, the in-flight count and the drain
        # flag (set only under _run_lock); the drain waits on it
        self._state = threading.Condition()
        self._connections: set[socket.socket] = set()
        self._inflight = 0
        self._draining = False

    # -- lifecycle -------------------------------------------------------------

    def listen(self) -> None:
        """Bind and listen on ``host:port``; a host with a colon is IPv6.

        Also caps the process at one malloc arena and returns what the
        cube's building freed (:func:`release_memory`): no connection
        thread has started yet."""
        release_memory(arenas=1)
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server((self.host, self.port), family=family)
        self.port = self._listener.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)  # a full pair already wakes the loop

    def serve(self, install_sigterm: bool = True) -> None:
        """Answer connections until :meth:`shutdown` (or SIGTERM, when
        ``install_sigterm`` and this is the main thread) drains the server."""
        with self._run_lock:
            if self._draining:
                return
            previous = None
            main = threading.current_thread() is threading.main_thread()
            if install_sigterm and main:
                previous = signal.signal(signal.SIGTERM, lambda *_: self._wake())
            try:
                self._accept_loop()
            finally:
                if previous is not None:
                    signal.signal(signal.SIGTERM, previous)
                self._drain()

    def shutdown(self) -> None:
        """Stop accepting, finish in-flight requests, close connections;
        returns once the server has drained."""
        self._wake()
        with self._run_lock:  # serve() drains before it lets go
            if not self._draining:
                self._drain()

    # ROADMAP item 2 (a) deletes these two awaitable names together with
    # benchmarks/e2e/launch.py, which awaits them from its own event loop.
    # They await nothing: serve_forever blocks that loop until the drain.
    async def start(self) -> None:
        self.listen()

    async def serve_forever(self, install_sigterm: bool = True) -> None:
        self.serve(install_sigterm)

    def _wake(self) -> None:
        """Ask the accept loop to stop; safe in a signal handler."""
        with contextlib.suppress(AttributeError, OSError):  # not listening, closed
            self._wake_w.send(b"x")

    def _accept_loop(self) -> None:
        poller = select.poll()
        poller.register(self._listener, select.POLLIN)
        poller.register(self._wake_r, select.POLLIN)
        while True:
            if any(fd == self._wake_r.fileno() for fd, _ in poller.poll()):
                return
            try:
                sock, _ = self._listener.accept()
            except OSError:  # aborted by the peer, or out of descriptors
                time.sleep(0.1)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._state:
                self._connections.add(sock)
            threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            ).start()

    def _drain(self) -> None:
        with self._state:
            self._draining = True
            self._state.wait_for(lambda: self._inflight == 0)
            for sock in self._connections:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)  # wakes its blocked recv
            self._state.wait_for(lambda: not self._connections)
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                sock.close()

    # -- one connection --------------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        owed = False  # a mutation freed memory that no release returned yet
        try:
            while True:
                if owed and _idle(sock, RELEASE_IDLE):
                    release_memory()
                    owed = False
                try:
                    payload = _read_frame(sock)
                except ProtocolError as refusal:
                    with contextlib.suppress(OSError):
                        _send(sock, _encode(_failure(refusal)))
                    return
                except OSError:
                    return  # reset by the peer, or shut down by the drain
                if payload is None:
                    return
                with self._state:
                    if self._draining:
                        return
                    self._inflight += 1
                try:
                    reply, mutated = self._apply(payload)
                    owed |= mutated
                    try:
                        _send(sock, _encode(reply))
                    except OSError:  # includes the send's timeout
                        return  # the peer left, or did not read its reply in time
                finally:
                    with self._state:
                        self._inflight -= 1
                        self._state.notify_all()
        finally:
            if owed:
                release_memory()
            with self._state:
                self._connections.discard(sock)
                self._state.notify_all()
            sock.close()

    def _apply(self, payload: bytes) -> tuple[dict, bool]:
        """Decode with the op's row, call its cube method, encode the
        result; the reply, and whether the row mutates the cube."""
        try:
            request = json.loads(payload)
        except ValueError:
            return _failure(ProtocolError("request is not valid JSON")), False
        try:
            row, arguments = decode_request(request)
        except ReproError as exc:  # ProtocolError included
            return _failure(exc), False
        try:
            with self._cube_lock:
                result = getattr(self.cube, row.method)(**arguments)
            return {"ok": True, "result": row.result.encode(result)}, row.mutates
        except ReproError as exc:  # a failed mutation may have applied in part
            return _failure(exc), row.mutates


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
        data = _recv_exact(self._sock, n)
        if data is None:
            raise ConnectionError("server closed the connection")
        return data

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
