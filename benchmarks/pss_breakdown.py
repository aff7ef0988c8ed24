"""Where a served cube's memory is: ``make pss``.

Starts ``python -m repro serve --shards 2 --shape 32,32,8 --durable-dir
...``, reads every server process's ``/proc/<pid>/smaps`` once idle and
once after ``--slices`` occurring times were preloaded over the wire,
and prints the proportional set size per process and per mapping class
(``[heap]``, anonymous, ``/dev/shm``, numpy, python, other libraries).
``server_pss_mb`` of the serving benchmark is the sum of these tables;
this script says which class of which process a change moved.

Exit status 1 when the workers' ``[heap]`` + anonymous growth between
idle and loaded exceeds half the bytes of the history loaded: a process
shard holds its history once, in the shared-memory rows it publishes
(:mod:`repro.sharding.shm`), not a second time on its heap.
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
CLASSES = ("[heap]", "anon", "/dev/shm", "numpy", "python", "other libs")
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
    if "python" in os.path.basename(path) or "/lib-dynload/" in path:
        return "python"
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
    total = sum(sum(row.values()) for row in rows.values())
    print(f"{'all':10}{'':{12 * len(CLASSES)}}{total / MIB:12.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slices", type=int, default=128)
    args = parser.parse_args()
    rng = np.random.default_rng(3)
    with tempfile.TemporaryDirectory() as durable_dir:
        server = subprocess.Popen(
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
                line = server.stdout.readline()
                if not line:
                    raise SystemExit("server exited before printing its banner")
                banner = json.loads(line)
            pids = {"router": server.pid}
            pids.update(
                (f"worker {i}", pid) for i, pid in enumerate(_children(server.pid))
            )

            def measure(title: str) -> dict[str, dict[str, int]]:
                rows = {name: pss_by_class(pid) for name, pid in pids.items()}
                _table(title, rows)
                return rows

            port = int(banner["listening"].rsplit(":", 1)[1])
            top = [n - 1 for n in SHAPE]
            with ShardClient("127.0.0.1", port) as client:

                def load(times) -> None:
                    for time in times:
                        points = np.column_stack(
                            [np.full(PER_SLICE, time)]
                            + [rng.integers(0, n, size=PER_SLICE) for n in SHAPE]
                        )
                        client.update_many(points.tolist(), [1] * PER_SLICE)
                    # PSS counts the pages a process touched: like a long read
                    # workload, put a box corner on every 4 KiB page of every
                    # row the router attached (a row of x holds 256 cells)
                    answers = client.query_many(
                        [
                            ([time, 0, 0, 0], [time, x, *top[1:]])
                            for time in range(times[-1] + 1)
                            for x in range(1, SHAPE[0], 2)
                        ]
                    )
                    # ... and the request after a write lets every worker
                    # release the epochs it superseded
                    assert sum(answers[SHAPE[0] // 2 - 1 :: SHAPE[0] // 2]) == client.total()

                # idle is a server that has done everything once: lazy tables
                # built, log open, one historic row published and attached
                load(range(2))
                idle = measure("idle")
                load(range(2, 2 + args.slices))
                loaded = measure(f"loaded: {args.slices} more slices")
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=60)
    history = args.slices * math.prod(SHAPE) * 8
    growth = sum(
        loaded[name][kind] - idle[name][kind]
        for name in pids
        if name != "router"
        for kind in ("[heap]", "anon")
    )
    shm = sum(row["/dev/shm"] for row in loaded.values())
    print(
        f"\nhistory loaded {history / MIB:.2f} MiB; /dev/shm PSS {shm / MIB:.2f} MiB; "
        f"workers' [heap] + anon growth {growth / MIB:.2f} MiB "
        f"({growth / history:.2f} x history)"
    )
    if growth > history / 2:
        print("FAIL: the workers hold their history a second time", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
