"""Machine-readable benchmark trail.

Benchmarks record one row per measured configuration into a
``BENCH_*.json`` file at the repository root, so successive PRs
accumulate a perf trajectory instead of overwriting each other's
numbers.  Since schema 2 the file is an object::

    {"schema": 2,
     "rows": [
       {"bench": "weather4_batch_query", "mode": "fast",
        "wall_s": 0.0123, "cell_accesses": 45678,
        "commit": "ab12cd3", "timestamp": "2026-08-08T12:00:00Z",
        "runs": [ ...previous results, oldest first... ]},
       ...]}

Rows are unique per ``(bench, mode)``: re-recording a configuration
replaces the current row and pushes the superseded result onto that
row's ``runs`` history, so the trajectory is still fully preserved but
"the latest number for mode X" is always ``rows``' single entry rather
than whichever duplicate happened to be appended last.  Each result
carries the commit and UTC timestamp it was measured at; a commit
stamped ``<hash>-dirty`` measured uncommitted changes on top of it.

Legacy flat-array files (schema 1) are migrated transparently on the
first write; a corrupt or missing file is replaced rather than crashing
the benchmark run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

SCHEMA_VERSION = 2

#: repository root (benchmarks/ lives directly below it)
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_engine.json"
#: out-of-order (G_d) benchmark trail, kept separate so the engine and
#: buffer trajectories can be compared PR over PR independently
BENCH_OOB_FILE = REPO_ROOT / "BENCH_oob.json"
#: slice-storage backend trail: dense vs paged vs sparse batch throughput
BENCH_BACKENDS_FILE = REPO_ROOT / "BENCH_backends.json"
#: durability trail: logged-ingest overhead and recovery wall-clock
BENCH_DURABILITY_FILE = REPO_ROOT / "BENCH_durability.json"
#: concurrent-serving trail: snapshot readers vs the per-request baseline
BENCH_CONCURRENT_FILE = REPO_ROOT / "BENCH_concurrent.json"
#: sharded-serving trail: process-parallel scatter/gather vs one process
BENCH_SHARD_FILE = REPO_ROOT / "BENCH_shard.json"
#: TT-extent trail: batched interval queries vs the metered per-query path
BENCH_EXTENT_FILE = REPO_ROOT / "BENCH_extent.json"
#: tiered-retention trail: demoted vs undemoted resident footprint and
#: cross-tier query latency on an aged weather4 stream
BENCH_RETENTION_FILE = REPO_ROOT / "BENCH_retention.json"
#: ranking trail: top-k threshold pruning vs the dense full scan, and
#: tier-backed estimation vs exact cold-tier answering
BENCH_RANKING_FILE = REPO_ROOT / "BENCH_ranking.json"


def _git(root: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip()


def _commit(root: Path = REPO_ROOT) -> str:
    """The tree a row measured: ``HEAD``'s short hash, ``-dirty`` when the
    working tree differs from it.  The trail files themselves do not
    count: recording one row must not mark the next as dirty."""
    try:
        head = _git(root, "rev-parse", "--short", "HEAD")
        changed = _git(root, "status", "--porcelain", "--", ".", ":!BENCH_*.json")
    except OSError:
        return "unknown"
    if not head:
        return "unknown"
    return f"{head}-dirty" if changed else head


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _migrate(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold a schema-1 flat append-trail into deduped schema-2 rows."""
    merged: dict[tuple[str, str], dict[str, Any]] = {}
    for row in rows:
        key = (str(row.get("bench")), str(row.get("mode")))
        current = dict(row)
        history = current.pop("runs", [])
        if key in merged:
            previous = merged[key]
            history = previous.pop("runs", []) + [previous] + history
        current["runs"] = history
        merged[key] = current
    return list(merged.values())


def load_document(path: Path | None = None) -> dict[str, Any]:
    """Read a trail file, migrating legacy flat arrays to schema 2."""
    target = BENCH_FILE if path is None else path
    try:
        data = json.loads(target.read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema": SCHEMA_VERSION, "rows": []}
    if isinstance(data, list):  # schema 1: flat append-only array
        return {"schema": SCHEMA_VERSION, "rows": _migrate(data)}
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        return {"schema": SCHEMA_VERSION, "rows": []}
    data["schema"] = SCHEMA_VERSION
    return data


def median_quartiles(values) -> dict[str, Any]:
    """A row's wall time as the median of repeated runs, with its quartiles
    (``wall_s`` plus the fields that say so)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "wall_s": statistics.median(values),
        "repeats": len(values),
        "wall_s_q1": round(q1, 6),
        "wall_s_q3": round(q3, 6),
        "wall_s_is": "median of repeats",
    }


def host_fingerprint() -> dict[str, Any]:
    """What two rows must share before their wall times are compared: the
    host's CPU and core count and the interpreter and NumPy versions."""
    import os
    import platform

    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            models = (line.split(":", 1)[1] for line in info if "model name" in line)
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def load_rows(path: Path | None = None) -> list[dict[str, Any]]:
    """The current (deduped) rows of a trail file."""
    return load_document(path)["rows"]


def record(
    bench: str,
    mode: str,
    wall_s: float,
    cell_accesses: int,
    path: Path | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """Record one result; returns the row as written.

    Replaces any existing ``(bench, mode)`` row, pushing the superseded
    result (without its own history) onto the new row's ``runs`` list.
    """
    row: dict[str, Any] = {
        "bench": str(bench),
        "mode": str(mode),
        "wall_s": round(float(wall_s), 6),
        "cell_accesses": int(cell_accesses),
        "commit": _commit(),
        "timestamp": _timestamp(),
    }
    row.update(extra)
    target = BENCH_FILE if path is None else path
    document = load_document(target)
    rows = document["rows"]
    history: list[dict[str, Any]] = []
    for index, existing in enumerate(rows):
        if existing.get("bench") == row["bench"] and (
            existing.get("mode") == row["mode"]
        ):
            previous = dict(existing)
            history = previous.pop("runs", []) + [previous]
            row["runs"] = history
            rows[index] = row
            break
    else:
        row["runs"] = history
        rows.append(row)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return row
