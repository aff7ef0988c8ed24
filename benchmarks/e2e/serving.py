"""Starting, loading, crashing and reopening the server under test."""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field

import harness as hs
import loadgen
import workloads as wl


def serve_cli(harness: hs.Harness, durable_dir, tiers=None):
    """``python -m repro serve --shards 2 --durable-dir ...``; (child, address)."""
    argv = [
        hs.python(), "-m", "repro", "serve",
        "--shards", str(wl.SHARDS),
        "--shape", ",".join(str(n) for n in wl.SLICE_SHAPE),
        "--durable-dir", str(durable_dir),
    ]  # fmt: skip
    if tiers is not None:
        argv += ["--tiers", json.dumps(tiers)]
    child = harness.spawn("serve", argv)
    return child, _address(harness.banner(child, "listening"))


def serve_reopened(harness: hs.Harness, durable_dir, demote=()):
    """``launch.py`` over an existing directory; (child, address, banner)."""
    argv = [
        hs.python(), str(hs.HERE / "launch.py"),
        "--durable-dir", str(durable_dir),
        "--demote", ",".join(str(t) for t in demote),
    ]  # fmt: skip
    child = harness.spawn("reopen", argv)
    banner = harness.banner(child, "listening")
    return child, _address(banner), banner


def _address(banner: dict) -> tuple[str, int]:
    host, port = banner["listening"].rsplit(":", 1)
    return host, int(port)


@dataclass
class Served:
    """A loaded server and what loading it cost."""

    child: hs.Child
    address: tuple[str, int]
    durable_dir: object
    seconds: float
    preload_log: list[loadgen.Entry]
    demoted_through: int | None = None
    failures: list[str] = field(default_factory=list)
    attempted: int = 0


def set_up(harness: hs.Harness, work: wl.Workload, probe: wl.Request) -> Served:
    """Spawn -> preload over the wire -> (demote) -> first verified answer."""
    durable_dir = harness.directory("durable")
    start = time.perf_counter()
    child, address = serve_cli(harness, durable_dir, work.tiers)
    log = loadgen.once(address, [request.frame for request in work.preload])
    demoted_through = None
    if work.demote:
        # the CLI cannot demote: stop it cleanly, reopen through launch.py
        harness.stop(child)
        child, address, banner = serve_reopened(harness, durable_dir, work.demote)
        demoted_through = banner["demoted_through"]
    (answer,) = loadgen.once(address, [probe.frame])
    failure = wl.check(probe, wl.decode(answer.raw))
    seconds = time.perf_counter() - start
    served = Served(
        child, address, durable_dir, seconds, log, demoted_through,
        attempted=len(log) + 1,
    )
    if failure:
        served.failures.append(f"set-up probe: {failure}")
    for request, entry in zip(work.preload, log):
        failure = wl.check(request, wl.decode(entry.raw))
        if failure:
            served.failures.append(f"preload: {failure}")
    return served


def tear_down(harness: hs.Harness, served: Served) -> None:
    harness.kill(served.child)
    shutil.rmtree(served.durable_dir, ignore_errors=True)


def reopen(harness: hs.Harness, durable_dir, probe: wl.Request):
    """Reopen a crashed directory -> first answer; (seconds, replay seconds, reply).

    ``replay seconds`` is the share ``ShardedCube.recover`` took inside
    the new process (``launch.py`` reports it); the rest is interpreter
    start-up, forking the workers and the probe.  The caller verifies the
    decoded reply once the clock has stopped.  The reopened server is
    SIGKILLed again, so the next reopening replays the same log
    (recovery takes no checkpoint).
    """
    start = time.perf_counter()
    child, address, banner = serve_reopened(harness, durable_dir)
    (answer,) = loadgen.once(address, [probe.frame])
    seconds = time.perf_counter() - start
    harness.kill(child)
    return seconds, banner["recover_s"], wl.decode(answer.raw)
