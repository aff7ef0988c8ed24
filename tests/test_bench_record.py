"""The benchmark trail stamps each row with the tree it measured."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "_record.py"


def _load_record():
    spec = importlib.util.spec_from_file_location("bench_record", _RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_row_says_whether_it_measured_a_dirty_tree(tmp_path):
    record = _load_record()
    _git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    head = _git(tmp_path, "rev-parse", "--short", "HEAD")
    assert record._commit(tmp_path) == head
    # recording rows rewrites a trail file: the tree is still HEAD's
    (tmp_path / "BENCH_x.json").write_text('{"rows": []}\n')
    assert record._commit(tmp_path) == head
    (tmp_path / "code.py").write_text("x = 2\n")
    assert record._commit(tmp_path) == f"{head}-dirty"
    _git(tmp_path, "checkout", "-q", "code.py")
    (tmp_path / "new_module.py").write_text("y = 1\n")
    assert record._commit(tmp_path) == f"{head}-dirty"


def test_outside_a_repository_the_commit_is_unknown(tmp_path):
    assert _load_record()._commit(tmp_path) == "unknown"
