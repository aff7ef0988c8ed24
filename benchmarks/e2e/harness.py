"""Process, directory and shared-memory lifetime for the serving benchmark.

Every child the benchmark starts runs in its own process group and its
own directory under ``out/tmp/run-<pid>/``.  Leaving a :class:`Harness`
-- normally, by exception, or by SIGTERM -- kills every group, unlinks
the ``/dev/shm/repro-*`` segments those processes owned and removes the
run directory; entering one first sweeps whatever an earlier run that
was SIGKILLed could not clean up itself.  It also ends and waits for the
children this process got without spawning them by name: the workers an
in-process cube forked and multiprocessing's resource tracker, which
otherwise outlives its parent by the moment it takes to see the pipe close.
"""

from __future__ import annotations

import json
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
TMP = OUT / "tmp"
SHM_DIR = Path("/dev/shm")
#: ``repro-ecube-<tag>-<owner pid>-<sequence>``: the owner is in the name
_SHM_NAME = re.compile(r"^repro-.*-(\d+)-\d+$")
_PGIDS_FILE = "pgids"
_PIDS_FILE = "pids"


def _proc_stat(pid: int) -> tuple[str, int, int] | None:
    """``(state, pgrp, ppid)`` of a process, or ``None`` if it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return fields[0], int(fields[2]), int(fields[1])


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def group_pids(pgid: int, zombies: bool = False) -> list[int]:
    """Live processes in process group ``pgid`` (and the unreaped dead ones)."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pgid and (zombies or stat[0] != "Z"):
                pids.append(int(entry))
    return pids


def _become_subreaper() -> bool:
    """Orphaned descendants become this process's children, not init's.

    A SIGKILLed server orphans its workers and its resource tracker; as
    children of this process they can be waited for, so that none is left
    behind as a zombie for an init that reaps when it pleases.
    """
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait for every dead member of a killed group that is now our child."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        members = group_pids(pgid, zombies=True)
        if not members:
            return
        for pid in members:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not reparented to us yet
        time.sleep(0.002)


def own_children() -> list[int]:
    """Every process (zombies too) whose parent is this process."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[2] == me:
                pids.append(int(entry))
    return pids


def _resource_tracker():
    """This process's multiprocessing resource tracker, if it ever had one."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    return module._resource_tracker if module is not None else None


def _stop_resource_tracker(timeout: float = 5.0) -> None:
    """End this process's multiprocessing resource tracker and wait for it.

    The tracker exits when the last write end of its pipe closes (the
    forked workers that inherited that end are gone by now).  Left to
    itself it does that only after its parent has exited: a process still
    running when the run is already over.
    """
    tracker = _resource_tracker()
    if tracker is None or tracker._pid is None:
        return
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(tracker._pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:  # someone still holds the pipe
                os.kill(tracker._pid, signal.SIGKILL)
                os.waitpid(tracker._pid, 0)
                break
            time.sleep(0.002)
    except (ChildProcessError, ProcessLookupError):
        pass
    tracker._pid = None


def _is_benchmark(pid: int) -> bool:
    """Is ``pid`` (still) a process of this benchmark, not a reused pid?"""
    try:
        return b"run.py" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def _kill_group(pgid: int, timeout: float = 10.0) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + timeout
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.005)


def shm_segments(owners=None) -> list[str]:
    """``repro-*`` segments, optionally only those owned by ``owners``."""
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    found = []
    for name in names:
        match = _SHM_NAME.match(name)
        if match and (owners is None or int(match.group(1)) in owners):
            found.append(name)
    return sorted(found)


def _unlink_shm(names) -> None:
    for name in names:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass


def sweep_stale() -> list[str]:
    """Remove what dead earlier runs left behind; returns what was found."""
    swept = []
    if TMP.is_dir():
        for run_dir in TMP.glob("run-*"):
            owner = run_dir.name.split("-", 1)[1]
            if owner.isdigit() and _alive(int(owner)):
                continue  # a concurrent run owns it
            pgids = run_dir / _PGIDS_FILE
            if pgids.exists():
                for token in pgids.read_text().split():
                    if group_pids(int(token)):
                        swept.append(f"process group {token}")
                        _kill_group(int(token))
            pids = run_dir / _PIDS_FILE
            if pids.exists():
                # workers an in-process cube forked: they outlive a SIGKILLed
                # parent (each holds the other's pipe end, so none sees EOF)
                for token in pids.read_text().split():
                    if _alive(int(token)) and _is_benchmark(int(token)):
                        swept.append(f"process {token}")
                        os.kill(int(token), signal.SIGKILL)
            swept.append(str(run_dir))
            shutil.rmtree(run_dir, ignore_errors=True)
    orphans = [
        name
        for name in shm_segments()
        if not _alive(int(_SHM_NAME.match(name).group(1)))
    ]
    _unlink_shm(orphans)
    return swept + orphans


class Child:
    """One spawned process group and its private directory."""

    def __init__(self, name: str, popen: subprocess.Popen, directory: Path) -> None:
        self.name = name
        self.popen = popen
        self.directory = directory
        self.pgid = popen.pid
        #: every pid ever seen in the group (the owners of its shm segments)
        self.pids: set[int] = {popen.pid}

    def stderr_tail(self) -> str:
        try:
            return (self.directory / "stderr.log").read_text()[-2000:]
        except OSError:
            return ""


class Harness:
    """Owns every process, temp directory and shm segment of one run."""

    def __init__(self) -> None:
        self.run_dir = TMP / f"run-{os.getpid()}"
        self.children: list[Child] = []
        #: pids whose shm segments are ours: this process, every child's
        #: group, and workers forked by in-process cubes (added by callers)
        self.owners: set[int] = {os.getpid()}
        self.swept: list[str] = []
        self._serial = 0
        self._old_sigterm = None
        self._subreaper = False

    def __enter__(self) -> "Harness":
        self._subreaper = _become_subreaper()
        self.swept = sweep_stale()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._old_sigterm = signal.signal(signal.SIGTERM, self._on_sigterm)
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        signal.signal(signal.SIGTERM, self._old_sigterm)

    @staticmethod
    def _on_sigterm(signum, frame) -> None:
        raise SystemExit(128 + signum)  # unwinds through __exit__

    def close(self) -> None:
        for child in self.children:
            self.kill(child)
        # forked workers and helpers an in-process cube did not end itself
        # (an exception on the way out); a spawned child is reaped above
        tracker = _resource_tracker()
        keep = {child.popen.pid for child in self.children}
        keep.add(tracker._pid if tracker is not None else None)
        for pid in own_children():
            if pid in keep:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        _stop_resource_tracker()
        _unlink_shm(shm_segments(self.owners))
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still has a directory here

    def adopt(self, pids) -> None:
        """Workers forked by an in-process cube: ours to sweep, too."""
        pids = list(pids)
        self.owners.update(pids)
        with open(self.run_dir / _PIDS_FILE, "a") as handle:
            handle.write("".join(f"{pid}\n" for pid in pids))

    # -- directories and children ------------------------------------------------

    def directory(self, name: str) -> Path:
        self._serial += 1
        path = self.run_dir / f"{self._serial:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def spawn(self, name: str, argv: list[str]) -> Child:
        directory = self.directory(name)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(directory / "stderr.log", "wb") as stderr:
            popen = subprocess.Popen(
                argv,
                cwd=directory,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                bufsize=0,
                start_new_session=True,
            )
        child = Child(name, popen, directory)
        self.children.append(child)
        with open(self.run_dir / _PGIDS_FILE, "a") as handle:
            handle.write(f"{child.pgid}\n")
        return child

    def banner(self, child: Child, key: str, timeout: float = 60.0) -> dict:
        """The first JSON line on the child's stdout that carries ``key``."""
        deadline = time.monotonic() + timeout
        stdout = child.popen.stdout
        while True:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([stdout], [], [], wait)[0]:
                raise TimeoutError(f"{child.name}: no {key!r} banner in {timeout}s")
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{child.name} exited before its banner:\n{child.stderr_tail()}"
                )
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and key in doc:
                return doc

    def stop(self, child: Child, timeout: float = 15.0) -> None:
        """Graceful shutdown (SIGTERM to the leader), then reap the group."""
        if child.popen.poll() is None:
            child.pids.update(group_pids(child.pgid))
            child.popen.send_signal(signal.SIGTERM)
            try:
                child.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill(child)

    def kill(self, child: Child) -> None:
        """SIGKILL the whole group, wait for it, unlink what it owned."""
        child.pids.update(group_pids(child.pgid))
        _kill_group(child.pgid)
        child.popen.wait()
        if self._subreaper:
            _reap_group(child.pgid)
        if child.popen.stdout is not None:
            child.popen.stdout.close()
        self.owners |= child.pids
        _unlink_shm(shm_segments(child.pids))

    # -- measurements taken from outside -------------------------------------------

    def pss_mb(self, child: Child) -> float:
        """PSS of the child's whole process group (shm counted by share)."""
        total_kb = 0
        for pid in group_pids(child.pgid):
            try:
                rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            match = re.search(r"^Pss:\s+(\d+) kB", rollup, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def leftovers(self) -> list[str]:
        """Whatever of this run still exists (empty after :meth:`close`)."""
        found = [f"child process {pid}" for pid in own_children()]
        for child in self.children:
            found += [
                f"process {pid} of {child.name}"
                for pid in group_pids(child.pgid, zombies=self._subreaper)
            ]
        if self.run_dir.exists():
            found.append(str(self.run_dir))
        return found + [f"/dev/shm/{name}" for name in shm_segments(self.owners)]


def disk_bytes(directory) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                pass
    return total


def fingerprint() -> dict:
    """What two run records must share before their numbers are ranked."""
    import multiprocessing

    from repro.ecube.compiled import backend_name

    methods = multiprocessing.get_all_start_methods()
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend_name(),
        # what ShardedCube picks when not told otherwise
        "start_method": "fork" if "fork" in methods else "spawn",
    }


_SPIN_JSON = list(range(2500))


def calibrate(repeats: int = 5) -> float:
    """Seconds for a fixed interpreter + NumPy + JSON spin (best of 5).

    Taken right before and right after a window, and kept in the run
    record: ``--repeat`` marks (never drops) a run whose spin moved by
    more than a tenth across its window, because on a shared host that
    is the CPU changing speed under the measurement, not the server.
    """
    block = np.arange(1 << 19, dtype=np.int64)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        work = block
        for _ in range(6):
            work = np.cumsum(work) & 0xFFFF
        for _ in range(20):
            json.loads(json.dumps(_SPIN_JSON))
        best = min(best, time.perf_counter() - start)
    return best


def python() -> str:
    return sys.executable or "python3"
