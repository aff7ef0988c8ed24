"""Saving and loading cube state (warehouse persistence).

A data warehouse survives restarts; this module persists the complete
state of a dense kernel-backed cube -- occurring times, per-slice values
and PS/DDC flags, the cache with its timestamps, and the retirement
boundary -- into a single ``.npz`` archive, and restores a cube that is
bit-for-bit equivalent (queries, lazy-copy progress and eCube conversion
state all resume exactly where they were).

One pair of entry points, :func:`save_kernel` / :func:`load_kernel`
(each takes a path or an open binary file), and one reader for both
archive formats: version 2 names its store in a ``backend`` member
(always ``"dense"``), version 1 predates the member and is dense too.
The durability checkpoints (:mod:`repro.durability.checkpoint`) build
on this.  The paged and sparse kernels are the paper's cost models, used
bare: they are not persisted, and what an older build persisted for one
is refused by :func:`require_dense`.  Archives written by a *newer*
build than this one are refused with an upgrade hint rather than misread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import StorageError
from repro.metrics import CostCounter

if TYPE_CHECKING:  # pragma: no cover - imported lazily to avoid a cycle
    from repro.ecube.kernel import CubeKernel

#: Version 2 adds the ``backend`` member; version 1 (no member) is read
#: by the same code.
FORMAT_VERSION = 2
_OLDEST_READABLE = 1

#: the last commit whose build reads a paged or sparse cube's persisted state
LAST_MULTI_STORE_BUILD = "7666b56"


def require_dense(backend: str | None, source: str) -> None:
    """Refuse persisted state of a store other than dense.

    ``source`` names what recorded ``backend`` (an archive, a manifest);
    ``None`` is a format that predates the name, which was dense.
    """
    if backend not in (None, "dense"):
        raise StorageError(
            f"{source} holds a {backend!r} cube: this build persists and "
            f"recovers dense cubes only; commit {LAST_MULTI_STORE_BUILD} is "
            "the last build that reads it"
        )


def _check_version(archive) -> int:
    if "format_version" not in archive:
        raise StorageError("not a cube archive (no format_version)")
    version = int(archive["format_version"][0])
    if version > FORMAT_VERSION:
        raise StorageError(
            f"cube archive has format version {version}, but this build "
            f"reads at most {FORMAT_VERSION}; upgrade the library to load "
            "archives written by newer versions"
        )
    if version < _OLDEST_READABLE:
        raise StorageError(f"unsupported cube archive version {version}")
    return version


def kernel_state_arrays(cube) -> dict[str, np.ndarray]:
    """The complete durable state of a stack's bottom layer -- a kernel,
    or an extent cube (its two) -- as an archive's named arrays."""
    arrays = cube.state_arrays()
    arrays["format_version"] = np.array([FORMAT_VERSION])
    return arrays


def save_kernel(cube: "CubeKernel", path) -> None:
    """Persist a dense kernel-backed cube."""
    arrays = kernel_state_arrays(cube)
    if hasattr(path, "write"):
        np.savez_compressed(path, **arrays)
    else:
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)


def load_kernel(path, counter: CostCounter | None = None) -> "CubeKernel":
    """Restore a cube persisted by :func:`save_kernel`."""
    from repro.ecube.ecube import EvolvingDataCube

    with np.load(path) as archive:
        _check_version(archive)
        raw_num_times = int(archive["num_times"][0])
        cube = EvolvingDataCube(
            tuple(int(n) for n in archive["slice_shape"]),
            num_times=None if raw_num_times < 0 else raw_num_times,
            counter=counter,
        )
        cube.restore_state(archive)
    return cube
