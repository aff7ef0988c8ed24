"""The closed-loop client: pre-encoded frames out, raw reply bytes back.

Closed loop because the callers of this server are dashboards and
batchers that wait for a reply, and ``ShardServer`` serialises every
operation through one executor thread anyway.  One thread drives every
connection (a *lane*) through ``select``, so all sends and replies fall
on one timeline and "how many writes were acknowledged when this read was
sent" is a plain counter, not a guess.  Nothing is decoded or checked
inside the timed loop; the caller verifies the raw replies afterwards.
"""

from __future__ import annotations

import gc
import select
import socket
import struct
import time
from dataclasses import dataclass

_HEADER = struct.Struct(">I")
#: after a send the client polls this long before it lets its CPU sleep
SPIN_S = 0.002


def _await_readable(socks, spin_until: float):
    """The sockets with a reply to read: busy-poll first, then block.

    On the two-vCPU sandbox a client that blocks at once lets its vCPU
    halt for the whole service time, and how long the hypervisor takes to
    wake it again drifts between 0.05 and 0.3 ms over minutes -- a third
    of a served point read, and none of it the server's.  Polling for the
    first ``SPIN_S`` keeps the vCPU awake across short requests; long
    ones (which do not care about 0.2 ms) still leave the core to the
    server's workers.
    """
    while True:
        spinning = time.perf_counter() < spin_until
        ready, _, _ = select.select(socks, [], [], 0 if spinning else 60.0)
        if ready:
            return ready
        if not spinning:
            raise TimeoutError("no reply from the server within 60 s")


@dataclass
class Entry:
    """One completed request, as the client saw it."""

    index: int  # position in the lane's script
    sent: float
    received: float
    raw: bytes  # the whole reply frame, undecoded
    acked_at_send: int  # writer requests acknowledged when this was sent
    sent_at_reply: int  # writer requests sent when this reply arrived

    @property
    def ms(self) -> float:
        return (self.received - self.sent) * 1e3


class Lane:
    """One connection working through a script, one request in flight."""

    def __init__(self, address, frames: list[bytes], writer: bool = False) -> None:
        self.frames = frames
        self.writer = writer
        self.sock = socket.create_connection(address, timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.log: list[Entry] = []
        self.cursor = 0  # requests sent so far
        self._buffer = bytearray()
        self._sent = 0.0
        self._acked_at_send = 0

    def close(self) -> None:
        self.sock.close()


def run(lanes: list[Lane], seconds: float | None = None) -> float:
    """Drive ``lanes`` closed-loop; returns the window length in seconds.

    A lane with ``writer=True`` sends its script once; the others cycle
    theirs.  The window ends when every writer script is acknowledged,
    or -- with no writer -- after ``seconds`` (``None``: after one pass
    over every script); requests in flight at that moment are waited for
    and counted.  Garbage collection is off inside the window.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        return _drive(lanes, seconds)
    finally:
        gc.enable()
        gc.unfreeze()


def _drive(lanes: list[Lane], seconds: float | None) -> float:
    writers = [lane for lane in lanes if lane.writer]
    writes_sent = writes_acked = 0
    by_socket = {lane.sock: lane for lane in lanes}
    socks = list(by_socket)
    in_flight = 0
    spin_until = 0.0

    def send(lane: Lane) -> None:
        nonlocal writes_sent, in_flight, spin_until
        data = lane.frames[lane.cursor % len(lane.frames)]
        lane._acked_at_send = writes_acked
        lane._sent = time.perf_counter()
        spin_until = lane._sent + SPIN_S
        lane.sock.sendall(data)
        lane.cursor += 1
        in_flight += 1
        if lane.writer:
            writes_sent += 1

    start = time.perf_counter()
    deadline = None if writers or seconds is None else start + seconds
    for lane in lanes:
        send(lane)
    stopping = False
    while in_flight:
        for sock in _await_readable(socks, spin_until):
            lane = by_socket[sock]
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer = lane._buffer
            buffer += chunk
            if len(buffer) < _HEADER.size:
                continue
            (length,) = _HEADER.unpack_from(buffer)
            if len(buffer) < _HEADER.size + length:
                continue
            now = time.perf_counter()
            lane.log.append(
                Entry(
                    (lane.cursor - 1) % len(lane.frames),
                    lane._sent,
                    now,
                    bytes(buffer),
                    lane._acked_at_send,
                    writes_sent,
                )
            )
            buffer.clear()
            in_flight -= 1
            if lane.writer:
                writes_acked += 1
            if writers:
                stopping = all(w.cursor >= len(w.frames) for w in writers) and (
                    writes_acked == writes_sent
                )
            elif deadline is not None:
                stopping = now >= deadline
            else:  # one pass over every script
                stopping = all(l.cursor >= len(l.frames) for l in lanes)
            if lane.writer:
                if lane.cursor < len(lane.frames):
                    send(lane)
            elif not stopping and (
                writers or deadline is not None or lane.cursor < len(lane.frames)
            ):
                send(lane)
    return time.perf_counter() - start


def once(address, frames: list[bytes]) -> list[Entry]:
    """Send ``frames`` once over a fresh connection; the completed entries."""
    lane = Lane(address, frames)
    try:
        run([lane])
        return lane.log
    finally:
        lane.close()


class Wire(Lane):
    """A connection the traced run keeps open: a frame out, the raw reply back.

    The same loop as the windows, one request at a time, so the served
    stair carries the client costs the untraced run's latencies carry.
    """

    def __init__(self, address) -> None:
        super().__init__(address, [])

    def call(self, data: bytes) -> bytes:
        self.frames, self.cursor = [data], 0
        _drive([self], None)
        return self.log.pop().raw
