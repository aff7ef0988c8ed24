"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.types import Box
from repro.metrics import CostCounter

# Hypothesis profiles: the stateful suites (test_stateful*.py) build
# their settings on top of whichever profile is loaded here (conftest
# imports before any test module), so these defaults reach them too.
#
# * "ci" derandomizes: every CI run executes the same example sequence,
#   so a red build is reproducible locally by loading the same profile.
# * "dev" keeps random exploration but prints the failing example blob
#   (`@reproduce_failure(...)`) so any failure can be replayed exactly.
#
# Select explicitly with HYPOTHESIS_PROFILE=ci|dev; otherwise the CI
# environment variable picks "ci".
settings.register_profile(
    "ci", derandomize=True, print_blob=True, deadline=None
)
settings.register_profile("dev", print_blob=True, deadline=None)
settings.load_profile(
    os.environ.get(
        "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev"
    )
)


@pytest.fixture
def counter() -> CostCounter:
    return CostCounter()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def brute_box_sum(dense: np.ndarray, box: Box) -> int:
    """Reference aggregate: plain numpy sum over the inclusive box."""
    slices = tuple(slice(low, up + 1) for low, up in zip(box.lower, box.upper))
    return int(dense[slices].sum())


def random_box(rng: np.random.Generator, shape: tuple[int, ...]) -> Box:
    """A random inclusive box within an array of the given shape."""
    lower = []
    upper = []
    for n in shape:
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        lower.append(a)
        upper.append(b)
    return Box(tuple(lower), tuple(upper))


def apply_updates(dense_shape, updates):
    """Materialize a list of (point, delta) updates as a dense cube."""
    dense = np.zeros(dense_shape, dtype=np.int64)
    for point, delta in updates:
        dense[tuple(point)] += delta
    return dense


def assert_history_published(snap) -> None:
    """What a snapshot front holds between operations: every historic
    instance is complete (no copy owed) and is its published row -- fully
    PS, at the narrowest width of its values -- and every array the
    current epoch cites (rows, cache values, directory, ``G_d`` columns)
    is read-only.  Nothing a reader holds is ever written."""
    from repro.ecube.stores import row_dtype

    kernel, epoch = snap.kernel, snap._current
    assert kernel.incomplete_historic_instances() == 0
    historic = range(kernel.retired_instances, kernel.num_slices - 1)
    for index in historic:
        values, flags = kernel.directory.at_index(index)[1].data()
        assert flags.all() and values.dtype == row_dtype(values)
        assert epoch.rows[index] is values
    cited = [epoch.rows[index] for index in historic] + [
        epoch.cache_values, epoch.times, epoch.gd_points, epoch.gd_deltas,
    ]  # fmt: skip
    assert not any(array.flags.writeable for array in cited if array is not None)


def assert_rows_published(descriptor, blocks) -> None:
    """The same, as far as a process shard's published epoch shows it: a
    read-only row per historic instance, each at its values' width."""
    from repro.ecube.stores import row_dtype

    cited = [index for index, _, _ in descriptor["slices"]]
    assert cited == list(
        range(descriptor["retired_below"], max(descriptor["num_slices"] - 1, 0))
    )
    for _, name, metas in descriptor["slices"]:
        row = blocks.arrays(name, metas)["ps"]
        assert not row.flags.writeable and row.dtype == row_dtype(row)


def fleet_owners(*fronts) -> set[int]:
    """The pids that own the shared-memory blocks of ``fronts``: this
    process (inline shards, exporters, block caches) and every worker
    process of a sharded front.  Take them before ``close()``: a closed
    worker has no pid."""
    owners = {os.getpid()}
    for front in fronts:
        for handle in front.router.handles:
            process = getattr(handle, "process", None)
            if process is not None:
                owners.add(process.pid)
    return owners


def fleet_leaks(owners=()) -> list[str]:
    """The blocks on this host made by a process under test: the
    :func:`~repro.sharding.leaked_segments` whose owner pid (the block
    naming rule's) is this process or one of ``owners``.  The blocks of
    a server another command started on the same host are not counted."""
    from repro.sharding.shm import _owner_pid, leaked_segments

    mine = {os.getpid(), *owners}
    return [name for name in leaked_segments() if _owner_pid(name) in mine]
