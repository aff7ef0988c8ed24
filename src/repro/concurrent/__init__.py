"""Snapshot-isolated concurrent query serving over the eCube kernel.

The append-only structure of the paper's evolving data cube makes
snapshot isolation cheap: a historic instance never changes its answers,
so publication finishes it into an immutable row once and an epoch only
copies the mutable frontier (cache values, directory, ``G_d`` columns).
See :mod:`repro.concurrent.snapshot` for the design notes.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.concurrent.extent": "ExtentSnapshotView SnapshotExtentCube",
        "repro.concurrent.snapshot": "Epoch SnapshotCube SnapshotView prepare_epoch",
        "repro.concurrent.stress": "StressResult run_stress",
    },
)
