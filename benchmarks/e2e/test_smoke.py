"""Smoke test of the serving benchmark (``pytest benchmarks/e2e``, about a minute).

Gates no timing: it runs ``run.py --smoke`` -- every workload, untraced
and traced, at a small scale -- and checks the shape of what comes out.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def test_every_workload_reports_once(smoke):
    declared = [entry["name"] for entry in SPEC["workloads"]]
    assert [line["workload"] for line in smoke] == declared


def test_every_metric_is_named_once_with_a_finite_value(smoke):
    units = {
        entry["name"]: entry["unit"]
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    assert len(units) == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    for line in smoke:
        assert sorted(line["metrics"]) == sorted(units), line["workload"]
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name]
            assert math.isfinite(metric["value"]), (line["workload"], name)
        for entry in SPEC["end_to_end"]:  # ratios between commits must exist
            assert line["metrics"][entry["name"]]["value"] > 0, entry["name"]


def test_no_operation_failed(smoke):
    for line in smoke:
        assert line["attempted"] >= 1
        assert line["failed"] == 0 and line["correct"] is True, line["workload"]


def test_layer_self_times_sum_to_the_served_stair(smoke):
    for line in smoke:
        for direction in ("read", "write"):
            stair = line["stairs"][direction]
            assert stair["served_ms"] > 0
            assert stair["sum_ms"] == pytest.approx(stair["served_ms"], rel=0.10), (
                line["workload"],
                direction,
                stair["parts_ms"],
            )


def test_the_harness_left_nothing_behind(smoke):
    for line in smoke:
        assert line["leftovers"] == [], line["workload"]
    assert not (HERE / "out" / "tmp").exists()


def test_run_refuses_a_directory_without_the_system(tmp_path):
    """The contract's empty-checkout case: non-zero exit, no result line."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],  # fmt: skip
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
