"""The serving benchmark: ``python3 benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0|1``.

``--trace 0`` drives a real ``python -m repro serve --shards 2
--durable-dir ...`` over TCP from one closed-loop client process, checks
every reply against the NumPy oracle and prints the end-to-end metrics;
``--trace 1`` replays a fixed sample through the staircase of public
fronts and prints the per-layer metrics (see ``staircase.py``).  The
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; names, units and bounds live in
``BENCHMARK.json``.  ``--repeat N`` and ``--smoke`` are the two tools
the README describes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np

import harness as hs
import loadgen
import serving
import staircase
import workloads as wl

CALIBRATION_DRIFT = 0.10


def _spec() -> dict:
    return json.loads((hs.ROOT / "BENCHMARK.json").read_text())


def _stats(logs, units) -> dict:
    """Whole-log percentiles and rate of closed-loop logs, pooled.

    ``units(entry)`` is what a request adds to the rate (boxes answered,
    updates acknowledged); requests that add nothing (a ``drain``) count
    towards the busy time but not towards the latency percentiles.
    """
    logs = [log for log in logs if log]
    samples = [entry.ms for log in logs for entry in log if units(entry)]
    p50, p95, p99 = np.percentile(samples, [50, 95, 99])
    busy = sum(log[-1].received - log[0].sent for log in logs)
    return {
        "count": len(samples),
        "p50_ms": float(p50),
        "p95_ms": float(p95),
        "p99_ms": float(p99),  # recorded; not an end-to-end metric yet
        "per_s": sum(units(entry) for log in logs for entry in log) / busy,
    }


# -- the untraced run ------------------------------------------------------------


def measure(work, seconds: float, harness) -> dict:
    """Set-ups, one window, one crash, reopenings (counts in ``Scale``); the run record."""
    scale = work.scale
    failures: list[str] = []
    attempted = 0
    for request in work.preload:
        work.acknowledge(request)
    probe = work.expect_probe(work.probe(2))
    served = None
    setup_seconds = []
    preload_logs = []
    for _ in range(scale.setups):
        if served is not None:
            serving.tear_down(harness, served)
        served = serving.set_up(harness, work, probe)
        setup_seconds.append(served.seconds)
        preload_logs.append(served.preload_log)
        failures += served.failures
        attempted += served.attempted
    if not work.writes:
        work.expect_static(served.demoted_through)

    reader = loadgen.Lane(served.address, [r.frame for r in work.reads])
    lanes = [reader]
    if work.writes:
        writer = loadgen.Lane(
            served.address, [w.frame for w in work.writes], writer=True
        )
        lanes.append(writer)
    calibration = [hs.calibrate()]
    try:
        window_s = loadgen.run(lanes, seconds)
    finally:
        for lane in lanes:
            lane.close()
    calibration.append(hs.calibrate())
    # one request that reaches every worker lets each release the epochs
    # the window superseded (the release rides the next request), so the
    # memory measured is the steady state, not the last write's leftovers
    loadgen.once(served.address, [wl.frame({"op": "total"})])
    pss_mb = harness.pss_mb(served.child)
    attempted += sum(len(lane.log) for lane in lanes)

    # what the window acknowledged goes into the oracle, then the crash
    if work.writes:
        for entry in writer.log:
            failure = wl.check(work.writes[entry.index], wl.decode(entry.raw))
            if failure:
                failures.append(f"write: {failure}")
        failures += wl.check_concurrent(work, reader.log, writer.log)
    else:
        failures += _check_static(work, reader.log)
    acked_updates = work.acked_updates
    harness.kill(served.child)
    disk = hs.disk_bytes(served.durable_dir)

    after_crash = work.probe(3)
    recover_seconds, replay_seconds = [], []
    lost = None
    for _ in range(scale.recovers):
        took, replay, reply = serving.reopen(harness, served.durable_dir, after_crash)
        recover_seconds.append(took)
        replay_seconds.append(replay)
        attempted += 1
        if lost is None and reply.get("ok"):
            # what the crash left is the state every reopening must return
            lost, failure = work.settle_after_crash(reply["result"][:2])
            if failure:
                failures.append(f"after SIGKILL: {failure}")
            work.expect_probe(after_crash)
        failure = wl.check(after_crash, reply)
        if failure:
            failures.append(f"after SIGKILL: {failure}")

    reads = _stats([reader.log], lambda entry: work.reads[entry.index].boxes)
    if work.writes:
        writes = _stats([writer.log], lambda entry: work.writes[entry.index].updates)
    else:  # the writes of a read workload are its preloads, pooled
        writes = _stats(preload_logs, lambda entry: work.preload[entry.index].updates)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "read_boxes_per_s": reads["per_s"],
        "read_p50_ms": reads["p50_ms"],
        "read_p95_ms": reads["p95_ms"],
        "write_updates_per_s": writes["per_s"],
        "write_p50_ms": writes["p50_ms"],
        "server_pss_mb": pss_mb,
        "disk_bytes_per_update": disk / acked_updates,
        "recover_s": statistics.median(recover_seconds),
    }
    return {
        "workload": work.name,
        "seed": work.seed,
        "seconds": seconds,
        "trace": 0,
        "fingerprint": hs.fingerprint(),
        "calibration_s": calibration,
        "window_s": window_s,
        "setup_s_samples": setup_seconds,
        "recover_s_samples": recover_seconds,
        "replay_s_samples": replay_seconds,  # ShardedCube.recover alone
        "reads": reads,
        "writes": writes,
        "acked_updates": acked_updates,
        "acked_writes_lost_on_kill": lost,
        "disk_bytes": disk,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
    }


def _check_static(work, log) -> list[str]:
    """Check a cycled script's replies; identical bytes are checked once."""
    failures = []
    verified: dict[int, bytes] = {}
    for entry in log:
        if verified.get(entry.index) == entry.raw:
            continue
        failure = wl.check(work.reads[entry.index], wl.decode(entry.raw))
        if failure:
            failures.append(f"read: {failure}")
        else:
            verified[entry.index] = entry.raw
    return failures


def _moved(calibration) -> bool:
    before, after = calibration
    return abs(after - before) / before > CALIBRATION_DRIFT


def run_one(workload: str, seed: int, seconds: float, trace: int, scale) -> dict:
    work = wl.build(workload, seed, seconds, scale)
    harness = hs.Harness()
    with harness:
        if trace:
            record = staircase.trace(work, seconds, harness)
        else:
            record = measure(work, seconds, harness)
    record["calibration_moved"] = _moved(record["calibration_s"])
    record["swept_on_entry"] = harness.swept
    record["leftovers"] = harness.leftovers()
    hs.OUT.mkdir(exist_ok=True)
    path = hs.OUT / f"run-{workload}-{seed}-t{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    return record


def result_line(record: dict, spec: dict) -> str:
    """The contract's last stdout line for one run record."""
    names = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {}
    for entry in names:
        value = float(record["metrics"][entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


# -- --smoke: every workload, both modes, small ------------------------------------


def smoke(seed: int) -> int:
    spec = _spec()
    failed = 0
    for workload in wl.WORKLOADS:
        merged = {"workload": workload, "attempted": 0, "failed": 0,
                  "metrics": {}, "leftovers": []}  # fmt: skip
        for trace in (0, 1):
            record = run_one(workload, seed, 2.0, trace, wl.SMOKE)
            line = json.loads(result_line(record, spec))
            merged["metrics"].update(line["metrics"])
            merged["leftovers"] += record["leftovers"]
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
            if trace:
                merged["stairs"] = record["stairs"]
            for failure in record["failures"]:
                print(f"{workload} trace={trace}: {failure}", file=sys.stderr)
        merged["correct"] = merged["failed"] == 0
        failed += merged["failed"] + len(merged["leftovers"])
        print(json.dumps(merged), flush=True)
    return 1 if failed else 0


# -- --repeat N: do two sets of runs of the same code agree? -------------------------


def repeat(count: int, seconds: float, first_seed: int) -> int:
    spec = _spec()
    records: dict[str, list[dict]] = {name: [] for name in wl.WORKLOADS}
    for i in range(count):
        # alternate the order so no workload always runs on a warm host
        order = wl.WORKLOADS if i % 2 == 0 else wl.WORKLOADS[::-1]
        for workload in order:
            seed = first_seed + i
            started = time.perf_counter()
            done = subprocess.run(
                [
                    sys.executable, str(hs.HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ],  # fmt: skip
                stdout=subprocess.PIPE,
                text=True,
            )
            if done.returncode:
                print(f"run {workload} seed {seed} exited {done.returncode}")
                return 2
            record = json.loads(
                (hs.OUT / f"run-{workload}-{seed}-t0.json").read_text()
            )
            record["wall_s"] = time.perf_counter() - started
            records[workload].append(record)
    report, ok = summarize(records, spec)
    (hs.OUT / "repeat.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    return 0 if ok else 1


def summarize(records: dict[str, list[dict]], spec: dict):
    """Median, spread and half-set agreement per metric; (report, ok).

    Every figure of the run records is reported; only the end-to-end
    metrics of ``BENCHMARK.json`` carry a bound and can fail the report.
    """
    prints = {
        json.dumps(r["fingerprint"], sort_keys=True)
        for runs in records.values()
        for r in runs
    }
    if len(prints) > 1:
        raise SystemExit(
            "refusing to rank runs from different hosts or builds:\n"
            + "\n".join(sorted(prints))
        )
    report = {"fingerprint": json.loads(prints.pop()), "claim": None, "workloads": {}}
    ok = True
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    for workload, runs in records.items():
        rows = {}
        for name in runs[0]["metrics"]:
            # the window's timings carry no bound (README): reported, never gated
            entry = bounds.get(name)
            values = [run["metrics"][name] for run in runs]
            half = len(values) // 2
            first = statistics.median(values[:half]) if half else values[0]
            second = statistics.median(values[half:])
            median = statistics.median(values)
            row = {
                "bound": entry["bound"] if entry else None,
                "values": values,
                "median": median,
                "min": min(values),
                "max": max(values),
                "halves": [first, second],
                "disagreement": abs(second - first) / first,
            }
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row["iqr_over_median"] = (q3 - q1) / median
            # the driver's two rules: halves within the bound, and (except for
            # setup_s) the inter-quartile spread within it too
            row["agrees"] = entry is None or (
                row["disagreement"] <= entry["bound"]
                and (name == "setup_s"
                     or row.get("iqr_over_median", 0.0) <= entry["bound"])
            )  # fmt: skip
            ok &= row["agrees"]
            rows[name] = row
        report["workloads"][workload] = {
            "metrics": rows,
            "runs": [
                {
                    "seed": run["seed"],
                    "failed": run["failed"],
                    "wall_s": run.get("wall_s"),
                    "calibration_moved": run["calibration_moved"],
                    "acked_writes_lost_on_kill": run["acked_writes_lost_on_kill"],
                }
                for run in runs
            ],
        }
        ok &= all(run["failed"] == 0 for run in runs)
    return report, ok


def print_report(report: dict) -> None:
    for workload, body in report["workloads"].items():
        marked = [r["seed"] for r in body["runs"] if r["calibration_moved"]]
        print(f"\n{workload}  ({len(body['runs'])} runs"
              + (f"; calibration moved >10% on seeds {marked}" if marked else "")
              + ")")
        print(f"  {'metric':<24}{'median':>12}{'min':>12}{'max':>12}"
              f"{'iqr/med':>9}{'halves':>9}{'bound':>7}")
        for name, row in body["metrics"].items():
            flag = "" if row["agrees"] else "  DISAGREES"
            bound = "none" if row["bound"] is None else f"{row['bound']:.3f}"
            print(
                f"  {name:<24}{row['median']:>12.4f}{row['min']:>12.4f}"
                f"{row['max']:>12.4f}{row.get('iqr_over_median', 0.0):>9.4f}"
                f"{row['disagreement']:>9.4f}{bound:>7}{flag}"
            )


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, both modes, at a small scale")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run every workload N times; do the halves agree?")
    args = parser.parse_args(argv)
    if not (hs.SRC / "repro").is_dir() or not (hs.ROOT / "BENCHMARK.json").exists():
        print(f"no system under test at {hs.SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(hs.SRC))
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        return smoke(args.seed)
    if args.repeat:
        return repeat(args.repeat, seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required (or --smoke / --repeat N)")
    record = run_one(args.workload, args.seed, seconds, args.trace, wl.FULL)
    for failure in record["failures"]:
        print(failure, file=sys.stderr)
    lost = record.get("acked_writes_lost_on_kill")
    if lost:
        print(f"note: SIGKILL lost the last {lost} acknowledged writes "
              "(README, finding 2)", file=sys.stderr)  # fmt: skip
    print(result_line(record, spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
