"""Saving and loading cube state (warehouse persistence).

A data warehouse survives restarts; this module persists the complete
state of a kernel-backed cube -- occurring times, per-slice values and
PS/DDC flags, the cache with its timestamps, and the retirement boundary
-- into a single ``.npz`` archive, and restores a cube that is
bit-for-bit equivalent (queries, lazy-copy progress and eCube conversion
state all resume exactly where they were).

One pair of entry points, :func:`save_kernel` / :func:`load_kernel`
(each takes a path or an open binary file): the physical slice and cache
representations are snapshot through the
:class:`~repro.ecube.stores.SliceStore` protocol, so dense, paged and
sparse cubes all round-trip.  The durability checkpoints
(:mod:`repro.durability.checkpoint`) build on this.

Archives carry an explicit ``format_version``.  Version 1 (dense-only)
archives still load; archives written by a *newer* build than this one
are refused with an upgrade hint rather than misread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import StorageError
from repro.metrics import CostCounter

if TYPE_CHECKING:  # pragma: no cover - imported lazily to avoid a cycle
    from repro.ecube.kernel import CubeKernel

#: Version 2 adds the ``backend`` key plus paged/sparse representations;
#: version 1 (dense-only, no ``backend`` key) remains loadable.
FORMAT_VERSION = 2
_OLDEST_READABLE = 1


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


def _archive_backend(archive) -> str:
    if "backend" in archive:
        return str(np.asarray(archive["backend"]).item())
    return "dense"  # version-1 archives predate multi-backend snapshots


def kernel_state_arrays(cube) -> dict[str, np.ndarray]:
    """The complete durable state of a stack's bottom layer -- a kernel,
    or an extent cube (its two) -- as an archive's named arrays."""
    arrays = cube.state_arrays()
    arrays["format_version"] = np.array([FORMAT_VERSION])
    if cube.kind == "kernel" and cube.store.kind == "paged":
        arrays["page_size"] = np.array([cube.store.page_size])
        arrays["cell_size"] = np.array([cube.store.cell_size])
    return arrays


def save_kernel(cube: "CubeKernel", path) -> None:
    """Persist any kernel-backed cube (dense, paged or sparse)."""
    arrays = kernel_state_arrays(cube)
    if hasattr(path, "write"):
        np.savez_compressed(path, **arrays)
    else:
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)


def restore_kernel_from(archive, counter: CostCounter | None = None) -> "CubeKernel":
    """Rebuild the right cube class from an open archive/array mapping."""
    _check_version(archive)
    backend = _archive_backend(archive)
    slice_shape = tuple(int(n) for n in archive["slice_shape"])
    raw_num_times = int(archive["num_times"][0])
    num_times = None if raw_num_times < 0 else raw_num_times
    if backend == "dense":
        from repro.ecube.ecube import EvolvingDataCube

        cube = EvolvingDataCube(slice_shape, num_times=num_times, counter=counter)
    elif backend == "paged":
        from repro.ecube.disk import DiskEvolvingDataCube

        cube = DiskEvolvingDataCube(
            slice_shape,
            num_times=num_times,
            counter=counter,
            page_size=int(archive["page_size"][0]),
            cell_size=int(archive["cell_size"][0]),
        )
    elif backend == "sparse":
        from repro.ecube.sparse import SparseEvolvingDataCube

        cube = SparseEvolvingDataCube(
            slice_shape, num_times=num_times, counter=counter
        )
    else:
        raise StorageError(f"archive names unknown backend {backend!r}")
    cube.restore_state(archive)
    return cube


def load_kernel(path, counter: CostCounter | None = None) -> "CubeKernel":
    """Restore a cube persisted by :func:`save_kernel` (any backend)."""
    with np.load(path) as archive:
        return restore_kernel_from(archive, counter=counter)
