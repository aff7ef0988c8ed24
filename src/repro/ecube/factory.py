"""The storage-backend switch, written once.

Every front that lets its caller choose a slice store by name -- the
``G_d`` wrapper, the extent cube's two families, the durable manifest,
shard workers, the stress harness -- builds its kernel here, so they all
accept the same names and apply the same defaults.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.errors import DomainError
from repro.ecube.disk import DiskEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.sparse import SparseEvolvingDataCube
from repro.metrics import CostCounter
from repro.storage.layout import DEFAULT_CELL_SIZE, DEFAULT_PAGE_SIZE


def build_kernel(
    slice_shape: Sequence[int],
    backend: str = "dense",
    *,
    num_times: int | None = None,
    counter: CostCounter | None = None,
    copy_budget: int | None = None,
    min_density: float = 0.005,
    page_size: int | None = None,
    cell_size: int | None = None,
    directory=None,
):
    """An empty kernel-backed cube over the named slice store.

    ``backend`` is ``"dense"``, ``"paged"`` (alias ``"disk"``; honours
    ``page_size``/``cell_size``) or ``"sparse"``.  ``directory`` injects
    a shared-axis :class:`~repro.ecube.families.FamilyDirectory`.
    """
    if backend == "dense":
        return EvolvingDataCube(
            slice_shape,
            num_times=num_times,
            counter=counter,
            copy_budget=copy_budget,
            min_density=min_density,
            directory=directory,
        )
    if backend in ("paged", "disk"):
        return DiskEvolvingDataCube(
            slice_shape,
            num_times=num_times,
            counter=counter,
            page_size=page_size if page_size is not None else DEFAULT_PAGE_SIZE,
            cell_size=cell_size if cell_size is not None else DEFAULT_CELL_SIZE,
            directory=directory,
        )
    if backend == "sparse":
        return SparseEvolvingDataCube(
            slice_shape,
            num_times=num_times,
            counter=counter,
            copy_budget=copy_budget,
            directory=directory,
        )
    raise DomainError(f"unknown storage backend {backend!r}")
