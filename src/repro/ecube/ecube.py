"""The complete in-memory Evolving Data Cube (Section 3.4).

``EvolvingDataCube`` maintains a d-dimensional append-only array:

* dimension 0 is the TT-dimension; the PS technique is implicitly applied
  along it because every slice instance is *cumulative*;
* dimensions 1..d-1 use DDC in the cache (latest instance) and evolve from
  DDC toward PS in historic slices (the eCube of Section 3.2);
* appending a new time slice only *reserves* storage; values migrate from
  the cache lazily (Section 3.3), with forced copies on cell updates and a
  budgeted copy-ahead that lets cheap updates pre-pay copy work;
* a d-dimensional range aggregate reduces to (at most) two (d-1)-dimensional
  eCube queries, one at the instance covering the upper time bound and one
  strictly below the lower bound (Figure 9).

Every cell touch is charged to the cube's :class:`~repro.metrics.CostCounter`,
with lazy-copy writes tagged separately so Figures 12/13 can split the two.

The algorithm itself lives in :class:`~repro.ecube.kernel.CubeKernel`;
this class configures it with the dense ndarray backend
(:class:`~repro.ecube.stores.DenseStore`), the one store every layer
above the kernel serves.  The external-memory and sparse variants are
the same kernel over different stores (:mod:`repro.ecube.disk`,
:mod:`repro.ecube.sparse`), the paper's cost models, used bare.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DomainError
from repro.ecube.cache import SliceCache
from repro.ecube.kernel import CubeKernel
from repro.ecube.stores import DenseSlice, DenseStore
from repro.metrics import CostCounter


class EvolvingDataCube(CubeKernel):
    """Append-only MOLAP data cube with evolving pre-aggregation.

    Parameters
    ----------
    slice_shape:
        Domain sizes of the non-time dimensions ``N_2 .. N_d``.
    num_times:
        Optional upper bound on the TT-domain (used only for validation;
        the structure grows one *occurring* time at a time regardless).
    counter:
        Cost counter; a private one is created when omitted.
    copy_budget:
        Total-cost threshold below which an update keeps doing copy-ahead
        work (Figure 8, step 4: "while the current total cost of the
        operation is low").  Defaults to the worst-case DDC update cost
        (one read plus one write per affected cell) plus ``1/min_density``
        copy operations -- the Section 3.4 amortization argument: a data
        set of density theta averages at least theta updates per cell, so
        ``1/theta`` copies per update keep all timestamps current.
    min_density:
        The paper's theta_min: the smallest density the array is expected
        to have ("arrays are only efficient if the underlying data set is
        not too sparse").  Only used to size the default copy budget.
    """

    def __init__(
        self,
        slice_shape: Sequence[int],
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        min_density: float = 0.005,
    ) -> None:
        super().__init__(
            slice_shape, DenseStore(), num_times=num_times, counter=counter
        )
        if copy_budget is None:
            if not 0 < min_density <= 1:
                raise DomainError(
                    f"min_density must be in (0, 1], got {min_density}"
                )
            copy_budget = 2 * self.engine.worst_case_update_cells() + int(
                1.0 / min_density
            )
        self.copy_budget = int(copy_budget)

    # -- bulk construction --------------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        min_density: float = 0.005,
    ) -> "EvolvingDataCube":
        """Vectorized initial load from a complete raw cube (axis 0 = TT).

        Every time coordinate becomes occurring, every slice is fully
        copied (stamps current) and holds the cumulative DDC values --
        exactly the state reached by streaming the same data and letting
        all lazy copies complete, but built with numpy sweeps instead of
        per-update work.  Use it for historical backfills; stream
        :meth:`update` for live integration.
        """
        dense = np.asarray(dense)
        if dense.ndim < 2:
            raise DomainError("need a TT-dimension plus at least one more")
        cube = cls(
            dense.shape[1:],
            num_times=dense.shape[0],
            counter=counter,
            copy_budget=copy_budget,
            min_density=min_density,
        )
        cumulative = np.cumsum(dense, axis=0, dtype=np.int64)
        for axis, technique in enumerate(cube.engine.techniques):
            cumulative = technique.aggregate(cumulative, axis=axis + 1)
        num_times = dense.shape[0]
        for time in range(num_times):
            payload = DenseSlice(cube.slice_shape)
            payload.values = np.ascontiguousarray(cumulative[time])
            cube.directory.append(time, payload)
        cube.cache = SliceCache(cube.slice_shape, cube.counter)
        cube.cache.values = cumulative[num_times - 1].copy()
        for _ in range(num_times - 1):
            cube.cache.notice_new_time()
        last = cube.cache.last_index
        cube.cache.stamps.fill(last)
        cube.cache._counts = [0] * num_times
        cube.cache._counts[last] = cube.cache.num_cells
        cube.cache._min_idx = last
        cube.cache._recount_pending()
        cube.updates_applied = int(np.count_nonzero(dense))
        return cube

    def __repr__(self) -> str:
        return (
            f"EvolvingDataCube(slice_shape={self.slice_shape}, "
            f"slices={self.num_slices}, updates={self.updates_applied})"
        )
