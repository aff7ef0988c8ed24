"""Snapshot-isolated concurrent query serving over the eCube kernel.

The append-only structure of the paper's evolving data cube makes
snapshot isolation cheap: published instances never change their
answers, so an epoch only has to freeze the mutable frontier (cache,
directory, ``G_d`` columns).  See :mod:`repro.concurrent.snapshot` for
the design notes.
"""

from repro.concurrent.extent import ExtentSnapshotView, SnapshotExtentCube
from repro.concurrent.snapshot import (
    Epoch,
    SnapshotCube,
    SnapshotView,
    prepare_epoch,
)
from repro.concurrent.stress import StressResult, run_stress

__all__ = [
    "Epoch",
    "ExtentSnapshotView",
    "SnapshotExtentCube",
    "SnapshotCube",
    "SnapshotView",
    "StressResult",
    "prepare_epoch",
    "run_stress",
]
