"""Where a served cube's memory is: ``make pss``.

Runs ``python -m repro serve --shards 2 --shape 32,32,8 --durable-dir
...`` for an untiered cube and a tiered one (``--tiers``); either keeps
every shard in the server's own interpreter.  For each it reads the
server's ``/proc/<pid>/smaps`` three times: idle, in a server
that loaded two occurring times over the wire; loaded, in a second
server that loaded ``--slices`` more; and recovered, after that server
was stopped with SIGTERM and ``serve --durable-dir`` restarted on its
directory (which recovers the cube from its log).  It prints the
proportional set size per mapping class (``[heap]``, anonymous,
``/dev/shm``, numpy, python, OpenSSL's ``libcrypto`` / ``libssl``,
other libraries) for each phase.  ``server_pss_mb`` of the serving
benchmark is the total of these tables; this script says which class a
change moved.  Before each reading a box corner lands on every row, as
a long read workload would touch them.

Exit status 1 when, loaded or recovered, for either cube, the server
holds its history a second time on its heap: when its ``[heap]`` +
anonymous PSS passes the idle server's of the same cube by more than
half the bytes of the ``--slices`` more loaded at int64, whatever width
their rows are published at.  The idle server has
done everything the loaded one did once -- lazy tables built, log open,
a connection thread served, history rows published and attached -- so
what the gate reads is what scales with history.  It is a server of its
own, not a reading of the measured one.  A shard holds its history
once, in the heap rows it publishes at width, and a recovered shard
publishes its log tail as it replays it.  At the default 128 slices
both cubes read about 0.1x to 0.3x of the history, loaded and
recovered, and a second int64 copy of every row 1.1x to 1.3x (measured
when the tiered server ran worker processes).  Fewer slices cannot
tell: at 32 the loaded tiered server then read 0.50x to 0.54x with no
copy, because what it holds beyond the idle server and the rows does
not shrink with the history.

Recorded at 128 slices on 2 cores (Python 3.11, NumPy 2.4), the median
of three runs, total PSS in MiB, idle / loaded / recovered: untiered
25.74 / 27.99 / 27.69, tiered 25.83 / 28.14 / 27.81.  The gate read
0.27x / 0.24x untiered and 0.29x / 0.25x tiered (loaded / recovered).
Before the server took one malloc arena and handed freed pages back
(``repro.sharding.server.release_memory``) the same runs read 27.26 /
29.80 / 28.00 and 27.34 / 30.10 / 28.15, and the gate about 0.3x loaded
and 0.1x recovered: the idle server shrank more than the loaded ones,
since what it freed was a larger share of what it held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np

from repro.sharding import ShardClient

SHAPE = (32, 32, 8)
PER_SLICE = 320  # updates per occurring time
#: the cubes ``make pss`` serves, by their ``serve`` flags (a tier ladder
#: demotes nothing unless asked)
LAYOUTS = {
    "untiered": (),
    "tiered": ("--tiers", '[{"name": "hour", "granularity": 4}]'),
}
CLASSES = ("[heap]", "anon", "/dev/shm", "numpy", "python", "openssl", "other libs")
MIB = 2**20


def _classify(path: str) -> str:
    if path == "[heap]":
        return "[heap]"
    if not path or path.startswith("["):
        return "anon"  # unnamed mappings, the stack, vdso
    if path.startswith("/dev/shm/"):
        return "/dev/shm"
    if "/numpy" in path:
        return "numpy"
    name = os.path.basename(path)
    if "python" in name or "/lib-dynload/" in path:
        return "python"
    if name.startswith(("libcrypto", "libssl")):
        return "openssl"
    return "other libs"


def pss_by_class(pid: int) -> dict[str, int]:
    """Bytes of PSS per mapping class of one process."""
    totals = dict.fromkeys(CLASSES, 0)
    kind = "anon"
    with open(f"/proc/{pid}/smaps") as smaps:
        for line in smaps:
            head = line.split(None, 1)[0]
            if "-" in head and not head.endswith(":"):  # a mapping's header line
                fields = line.split(None, 5)
                kind = _classify(fields[5].strip() if len(fields) > 5 else "")
            elif head == "Pss:":
                totals[kind] += int(line.split()[1]) * 1024
    return totals


def _table(title: str, rows: dict[str, dict[str, int]]) -> None:
    print(f"\n{title} (PSS, MiB)")
    print(f"{'':10}" + "".join(f"{name:>12}" for name in CLASSES) + f"{'total':>12}")
    for name, row in rows.items():
        cells = "".join(f"{row[kind] / MIB:12.2f}" for kind in CLASSES)
        print(f"{name:10}{cells}{sum(row.values()) / MIB:12.2f}")
    print(f"{'all':10}{'':{12 * len(CLASSES)}}{_total(rows) / MIB:12.2f}")


def _total(rows: dict[str, dict[str, int]]) -> int:
    return sum(sum(row.values()) for row in rows.values())


class Server:
    """``python -m repro serve`` on ``durable_dir``: its pid, its port."""

    def __init__(self, durable_dir: str, flags: tuple[str, ...]) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", *flags, "--shards", "2",
                "--shape", ",".join(map(str, SHAPE)), "--durable-dir", durable_dir,
            ],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            text=True,
        )  # fmt: skip
        try:
            banner = {}
            while "listening" not in banner:  # a shm-sweep line may come first
                line = self.process.stdout.readline()
                if not line:
                    raise SystemExit("server exited before printing its banner")
                banner = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.port = int(banner["listening"].rsplit(":", 1)[1])

    def measure(self, title: str) -> dict[str, dict[str, int]]:
        rows = {"server": pss_by_class(self.process.pid)}
        _table(title, rows)
        return rows

    def stop(self) -> None:
        self.process.send_signal(signal.SIGTERM)
        self.process.wait(timeout=60)


def _touch(client: ShardClient, last: int) -> None:
    """PSS counts the pages a process touched: like a long read workload,
    put a box corner on every 4 KiB page of every row the server published
    (a row of x holds 256 cells).  One request per occurring time, as a
    read workload's batches do not grow with the history: a single batch
    of every box would leave its transient arrays in the allocator, which
    the gate would read as history."""
    top = [n - 1 for n in SHAPE]
    answers = []
    for time in range(last + 1):
        answers += client.query_many(
            [([time, 0, 0, 0], [time, x, *top[1:]]) for x in range(1, SHAPE[0], 2)]
        )
    assert sum(answers[SHAPE[0] // 2 - 1 :: SHAPE[0] // 2]) == client.total()


def _private(rows: dict[str, dict[str, int]]) -> int:
    return sum(row["[heap]"] + row["anon"] for row in rows.values())


def _loaded(durable_dir: str, flags: tuple[str, ...], last: int, title: str):
    """Serve ``durable_dir``, load occurring times 0..``last`` into it and
    print its table; return the reading."""
    rng = np.random.default_rng(3)
    server = Server(durable_dir, flags)
    try:
        with ShardClient("127.0.0.1", server.port) as client:
            for time in range(last + 1):
                points = np.column_stack(
                    [np.full(PER_SLICE, time)]
                    + [rng.integers(0, n, size=PER_SLICE) for n in SHAPE]
                )
                client.update_many(points.tolist(), [1] * PER_SLICE)
        # reads on a connection of their own: the writer's has closed, so
        # the server has handed back what the writes freed before the reading
        with ShardClient("127.0.0.1", server.port) as client:
            _touch(client, last)
        return server.measure(title)
    finally:
        server.stop()


def run_layout(flags: tuple[str, ...], slices: int) -> dict[str, dict]:
    """Print one process layout's idle, loaded and recovered tables;
    return the readings."""
    last = 1 + slices
    phases = {}
    with tempfile.TemporaryDirectory() as root:
        phases["idle"] = _loaded(f"{root}/idle", flags, 1, "idle: two slices")
        durable_dir = f"{root}/loaded"
        phases["loaded"] = _loaded(
            durable_dir, flags, last, f"loaded: {slices} more slices"
        )
        server = Server(durable_dir, flags)  # recovers the directory from its log
        try:
            with ShardClient("127.0.0.1", server.port) as client:
                _touch(client, last)
            phases["recovered"] = server.measure(
                "recovered: serve restarted on the directory"
            )
        finally:
            server.stop()
    return phases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slices", type=int, default=128)
    args = parser.parse_args()
    history = args.slices * math.prod(SHAPE) * 8
    readings = {}
    for layout, flags in LAYOUTS.items():
        print(f"\n== {layout}: serve {' '.join(flags)}")
        readings[layout] = run_layout(flags, args.slices)
    print(f"\n{args.slices} more slices are {history / MIB:.2f} MiB at int64")
    failed = False
    for layout, phases in readings.items():
        idle = _private(phases["idle"])
        for phase in ("loaded", "recovered"):
            rows = phases[phase]
            held = _private(rows) - idle
            print(
                f"{layout} {phase}: total {_total(rows) / MIB:.2f} MiB; [heap] + "
                f"anon {_private(rows) / MIB:.2f} MiB, {held / MIB:.2f} MiB past "
                f"the idle server's ({held / history:.2f} x history, gate 0.5)"
            )
            if held > history / 2:
                print(
                    f"FAIL: the {layout} server, {phase}, holds its history a "
                    "second time",
                    file=sys.stderr,
                )
                failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
