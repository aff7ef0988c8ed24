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


def assert_row_layout(rows: dict, first: int) -> None:
    """The anchored layout of published rows ``rows`` (index -> row, every
    historic instance from ``first`` up; ``DenseStore.make_row``'s rule).

    Every array a row stores -- a plain row, an offset, an anchor -- is
    read-only at the narrowest width of what it holds.  A row over a
    published row is an offset exactly where its offset from the newest
    anchor below it (the row below's anchor) is narrower than its values,
    and then an offset on that anchor: a row is plain only where an
    offset would not be narrower.  The lowest row may still be an offset
    on an anchor retirement freed, narrower than its values."""
    from repro.ecube.stores import OffsetRow, anchor_of, row_dtype, row_values

    assert sorted(rows) == list(range(first, first + len(rows)))
    for index, row in rows.items():
        arrays = (row.anchor, row.offset) if isinstance(row, OffsetRow) else (row,)
        for array in arrays:
            assert not array.flags.writeable and array.dtype == row_dtype(array)
        values = row_values(row)
        own = row_dtype(values).itemsize
        if isinstance(row, OffsetRow):
            assert row.offset.dtype.itemsize < own
        if index == first:
            continue
        anchor = anchor_of(rows[index - 1])
        if isinstance(row, OffsetRow):
            assert row.anchor is anchor
        else:
            offset = np.subtract(values, anchor, dtype=np.int64)
            assert row_dtype(offset).itemsize >= own


def row_arrays(row) -> tuple:
    """The arrays a published row stores (its anchor's included)."""
    from repro.ecube.stores import OffsetRow

    return (row.anchor, row.offset) if isinstance(row, OffsetRow) else (row,)


def assert_history_published(snap) -> None:
    """What a snapshot front holds between operations: every historic
    instance is complete (no copy owed) and is its published row -- fully
    PS, laid out as :func:`assert_row_layout` says -- and every array the
    current epoch cites (rows and their anchors, cache values, directory,
    ``G_d`` columns) is read-only.  Nothing a reader holds is ever written."""
    kernel, epoch = snap.kernel, snap._current
    assert kernel.incomplete_historic_instances() == 0
    historic = range(kernel.retired_instances, kernel.num_slices - 1)
    for index in historic:
        values, flags = kernel.directory.at_index(index)[1].data()
        assert flags.all()
        assert epoch.rows[index] is values
    assert_row_layout({i: epoch.rows[i] for i in historic}, kernel.retired_instances)
    cited = [array for index in historic for array in row_arrays(epoch.rows[index])]
    cited += [epoch.cache_values, epoch.times, epoch.gd_points, epoch.gd_deltas]
    assert not any(array.flags.writeable for array in cited if array is not None)


def assert_rows_published(descriptor, blocks) -> None:
    """The same, as far as a process shard's published epoch shows it: a
    read-only row per historic instance, laid out as
    :func:`assert_row_layout` says."""
    from repro.sharding.shm import epoch_from_shared_memory

    cited = [index for index, _, _ in descriptor["slices"]]
    first = descriptor["retired_below"]
    assert cited == list(range(first, max(descriptor["num_slices"] - 1, 0)))
    rows = epoch_from_shared_memory(descriptor, blocks).rows
    assert_row_layout({index: rows[index] for index in cited}, first)


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
