"""What ``import repro.sharding`` costs a fresh interpreter: ``make fence``.

Every server process (``serve`` itself, and for a tiered cube each
shard worker too) pays this import before it can answer.  Prints the
number of ``repro.*`` modules the import loads and the PSS it adds over
an interpreter that already holds the standard library and NumPy (the
median of nine fresh interpreters): those two are the check.  Exit
status 1 when the import loads a module of the paper reproduction
(``tests/test_import_fence.py`` holds the list and the same check for a
served cube's whole life).  The import's wall time is printed as a median
with its interquartile range over the same nine interpreters; it is
informational only, since on a small host it moves by more than any one
module costs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from tests.test_import_fence import reproduction_modules

REPEATS = 9

CHILD = """
import json, sys, time

def pss():
    with open("/proc/self/smaps_rollup") as rollup:
        return next(int(line.split()[1]) for line in rollup if line.startswith("Pss:"))

import numpy
before, start = pss(), time.perf_counter()
import repro.sharding
from repro.sharding import ShardedCube, ShardServer
seconds = time.perf_counter() - start
modules = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
print(json.dumps({"modules": modules, "seconds": seconds, "pss_kib": pss() - before}))
"""


def main() -> int:
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", CHILD], check=True, capture_output=True, text=True
            ).stdout
        )
        for _ in range(REPEATS)
    ]
    modules = runs[0]["modules"]
    fenced = reproduction_modules(modules)
    low, median, high = statistics.quantiles([r["seconds"] for r in runs], n=4)
    print(
        f"import repro.sharding (+ ShardedCube, ShardServer): {len(modules)} repro.* "
        f"modules, +{statistics.median(r['pss_kib'] for r in runs) / 1024:.2f} MiB "
        f"PSS over stdlib + NumPy (median of {REPEATS}); import time "
        f"{median:.3f} s, IQR {high - low:.3f} s (informational)"
    )
    if fenced:
        print("reproduction modules on the serving path:", ", ".join(fenced))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
