"""Where a served cube's memory is: ``make pss``.

Starts ``python -m repro serve --shards 2 --shape 32,32,8 --durable-dir
...``, reads every server process's ``/proc/<pid>/smaps`` once idle and
once after ``--slices`` occurring times were preloaded over the wire,
then stops the server with SIGTERM, restarts ``serve --durable-dir`` on
the same directory (which recovers the cube from its log) and reads
them a third time.  It prints the proportional set size per process and
per mapping class (``[heap]``, anonymous, ``/dev/shm``, numpy, python,
OpenSSL's ``libcrypto`` / ``libssl``, other libraries) for each
phase.  ``server_pss_mb`` of the serving benchmark is the sum of these
tables; this script says which class of which process a change moved.
Beside each table it counts the history rows the workers publish, per
width (a row is stored at the narrowest signed width that holds its
values), with their ``/dev/shm`` bytes and what the same rows would take
at int64.  Before each loaded and recovered reading a box corner lands
on every row, as a long read workload would touch them.

Exit status 1 when the workers' ``[heap]`` + anonymous growth over idle,
loaded or recovered, exceeds half the bytes of the history loaded (at
int64, whatever width its rows are published at): a
process shard holds its history once, in the shared-memory rows it
publishes (:mod:`repro.sharding.shm`), not a second time on its heap --
and a recovered shard publishes its log tail as it replays it.
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

from repro.sharding import ShardClient, leaked_segments
from repro.sharding.partition import GridPartitioner
from repro.sharding.shm import SHM_PREFIX

SHAPE = (32, 32, 8)
PER_SLICE = 320  # updates per occurring time
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


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue  # exited while we looked
            if ppid == pid:
                found.append(int(entry))
    return sorted(found)


def _table(title: str, rows: dict[str, dict[str, int]]) -> None:
    print(f"\n{title} (PSS, MiB)")
    print(f"{'':10}" + "".join(f"{name:>12}" for name in CLASSES) + f"{'total':>12}")
    for name, row in rows.items():
        cells = "".join(f"{row[kind] / MIB:12.2f}" for kind in CLASSES)
        print(f"{name:10}{cells}{sum(row.values()) / MIB:12.2f}")
    print(f"{'all':10}{'':{12 * len(CLASSES)}}{_total(rows) / MIB:12.2f}")


def _total(rows: dict[str, dict[str, int]]) -> int:
    return sum(sum(row.values()) for row in rows.values())


def published_rows(workers: set[int]) -> dict[int, list[int]]:
    """Per width in bytes, ``[rows, /dev/shm bytes]`` of the row blocks the
    ``workers`` publish.  A block is named ``<prefix>-s<shard>-<pid>-<n>``;
    a row block is one array of the shard's cells, so its size is the
    cell count times the width (a frontier block holds more)."""
    cells = {
        f"s{extent.shard_id}": math.prod(extent.shape)
        for extent in GridPartitioner.for_shards(SHAPE, 2).extents
    }
    widths: dict[int, list[int]] = {}
    for name in leaked_segments():
        tag, pid, _ = name[len(SHM_PREFIX) + 1 :].rsplit("-", 2)
        if tag not in cells or int(pid) not in workers:
            continue
        try:
            size = os.stat(f"/dev/shm/{name}").st_size
        except FileNotFoundError:
            continue  # unlinked while we looked
        width, rest = divmod(size, cells[tag])
        if not rest and width in (1, 2, 4, 8):
            held = widths.setdefault(width, [0, 0])
            held[0] += 1
            held[1] += size
    return widths


def _rows_line(widths: dict[int, list[int]]) -> None:
    rows = sum(count for count, _ in widths.values())
    size = sum(size for _, size in widths.values())
    at_int64 = sum(size * 8 // width for width, (_, size) in widths.items())
    parts = ", ".join(
        f"int{8 * width} {count} ({size / MIB:.2f} MiB)"
        for width, (count, size) in sorted(widths.items())
    )
    print(
        f"rows published: {parts or 'none'}; all {rows} rows {size / MIB:.2f} MiB "
        f"in /dev/shm ({at_int64 / MIB:.2f} MiB at int64)"
    )


class Server:
    """``python -m repro serve`` on ``durable_dir``: its processes, its port."""

    def __init__(self, durable_dir: str) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--shards", "2",
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
        self.pids = {"router": self.process.pid}
        self.pids.update(
            (f"worker {i}", pid) for i, pid in enumerate(_children(self.process.pid))
        )

    def measure(self, title: str) -> dict[str, dict[str, int]]:
        rows = {name: pss_by_class(pid) for name, pid in self.pids.items()}
        _table(title, rows)
        workers = {pid for name, pid in self.pids.items() if name != "router"}
        _rows_line(published_rows(workers))
        return rows

    def stop(self) -> None:
        self.process.send_signal(signal.SIGTERM)
        self.process.wait(timeout=60)


def _touch(client: ShardClient, last: int) -> None:
    """PSS counts the pages a process touched: like a long read workload,
    put a box corner on every 4 KiB page of every row the router attached
    (a row of x holds 256 cells).  The request after the read lets every
    worker release the epochs it superseded."""
    top = [n - 1 for n in SHAPE]
    answers = client.query_many(
        [
            ([time, 0, 0, 0], [time, x, *top[1:]])
            for time in range(last + 1)
            for x in range(1, SHAPE[0], 2)
        ]
    )
    assert sum(answers[SHAPE[0] // 2 - 1 :: SHAPE[0] // 2]) == client.total()


def _growth(rows, idle) -> int:
    """The workers' ``[heap]`` + anonymous growth over ``idle``."""
    return sum(
        rows[name][kind] - idle[name][kind]
        for name in rows
        if name != "router"
        for kind in ("[heap]", "anon")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slices", type=int, default=128)
    args = parser.parse_args()
    rng = np.random.default_rng(3)
    last = 1 + args.slices
    with tempfile.TemporaryDirectory() as durable_dir:
        server = Server(durable_dir)
        try:
            with ShardClient("127.0.0.1", server.port) as client:

                def load(times) -> None:
                    for time in times:
                        points = np.column_stack(
                            [np.full(PER_SLICE, time)]
                            + [rng.integers(0, n, size=PER_SLICE) for n in SHAPE]
                        )
                        client.update_many(points.tolist(), [1] * PER_SLICE)
                    _touch(client, times[-1])

                # idle is a server that has done everything once: lazy tables
                # built, log open, one historic row published and attached
                load(range(2))
                idle = server.measure("idle")
                load(range(2, last + 1))
                loaded = server.measure(f"loaded: {args.slices} more slices")
        finally:
            server.stop()
        server = Server(durable_dir)  # recovers the directory from its log
        try:
            with ShardClient("127.0.0.1", server.port) as client:
                _touch(client, last)
            recovered = server.measure("recovered: serve restarted on the directory")
        finally:
            server.stop()
    history = args.slices * math.prod(SHAPE) * 8
    shm = sum(row["/dev/shm"] for row in loaded.values())
    print(f"\nhistory loaded {history / MIB:.2f} MiB; /dev/shm PSS {shm / MIB:.2f} MiB")
    failed = False
    for phase, rows in (("loaded", loaded), ("recovered", recovered)):
        growth = _growth(rows, idle)
        print(
            f"{phase}: total {_total(rows) / MIB:.2f} MiB; workers' [heap] + anon "
            f"growth {growth / MIB:.2f} MiB ({growth / history:.2f} x history)"
        )
        if growth > history / 2:
            print(
                f"FAIL: the {phase} workers hold their history a second time",
                file=sys.stderr,
            )
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
