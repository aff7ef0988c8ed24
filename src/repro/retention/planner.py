"""The cross-tier query planner: :class:`TieredCube`.

``TieredCube`` -- the ``"tiered"`` layer of a declared stack
(:mod:`repro.core.front`) -- fronts a dense kernel-backed cube (bare or
``G_d``-buffered) and replaces *deleting* aged history
(``retire_before``) with *demoting* it
(:meth:`TieredCube.demote_before`): converged PS slices below the
horizon are finalized, written to a full-fidelity compressed tile
(:mod:`repro.retention.tiles`), folded into the rollup tiers
(:mod:`repro.retention.tiers`), and only then released from the live
store.

Cross-tier answering is the paper's prefix-difference trick applied
across resolutions.  Every range aggregate decomposes into two signed
cumulative prefixes, ``F(t_up) - F(t_lo - 1)``; each prefix floors onto
an occurring instance and is answered by whichever tier still holds that
instance's cumulative PS slice:

* floor at or above the demotion watermark -- the **live kernel** (via
  the front, so the ``G_d`` buffered contribution folds in as usual);
* floor on a retained rollup boundary -- the **rollup tier's** slice,
  in memory, no decode (the tier-aligned fast path);
* any other demoted floor -- the **tile** slice (exact for *every*
  demoted instance, because tiles keep full fidelity);
* plus, for demoted prefixes of a buffered front, the ``G_d`` range
  contribution over the same prefix box (buffered corrections aimed
  below the horizon stay exact through post-processing, exactly as they
  do across the plain retirement boundary).

Because converged PS slices are immutable and tiles are lossless, the
composed answer is *bit-identical* to an undemoted oracle everywhere --
tier-aligned or not -- which the differential suite pins.

A demotion drains the ``G_d`` buffer first (corrections aimed into the
region being demoted can still cascade while it is live), moves no
content a pinned snapshot epoch reads (its rows are immutable, and only
detail below the new horizon is dropped), and is deterministic: replaying
the same ``demote_before`` against the same kernel state rewrites
byte-identical tiles, which is what lets the durable layer log a
demotion as its horizon alone (the ``demote`` row of
:data:`repro.durability.wal.RECORD_TYPES`) and replay it after a crash.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import AgedOutError, DomainError, StorageError
from repro.core.front import forward, layers, require
from repro.core.types import Box, box_array, clip_cells
from repro.durability.wal import LOGGED
from repro.ecube.compiled import run_starts
from repro.ecube.fastpath import _corner_terms
from repro.ecube.stores import row_values
from repro.retention.tiers import TierPolicy, RollupTier
from repro.retention.tiles import TileStore

_NONE = np.iinfo(np.int64).min


def ps_box_sum(ps: np.ndarray, lower: Sequence[int], upper: Sequence[int]) -> int:
    """Inclusion-exclusion sum of one cell box over one cumulative PS
    slice: the one-box call of the gather every read shares
    (:func:`repro.ecube.fastpath._corner_terms`).  Bounds are clamped to
    the slice domain; a box that selects no cell sums to 0.
    """
    lo = [max(int(bound), 0) for bound in lower]
    hi = [min(int(bound), n - 1) for bound, n in zip(upper, ps.shape)]
    if any(low > up for low, up in zip(lo, hi)):
        return 0
    offsets, signs = _corner_terms(np.array([lo]), np.array([hi]), ps.shape)
    return int(ps.reshape(-1)[offsets[0]] @ signs[0])


class TieredCube:
    """Tiered-retention front over a kernel-backed cube.

    Implements the :class:`~repro.core.framework.BatchExecutor` protocol:
    queries route across tiers; the logged mutations the tiers do not
    redefine (:data:`FORWARDED`) pass to the wrapped front, each refused
    with :class:`~repro.core.errors.DomainError` when the stack under
    the tiers lacks it (``drain`` over a bare kernel).

    Parameters
    ----------
    front:
        A :class:`~repro.ecube.buffered.BufferedEvolvingDataCube` or a
        bare :class:`~repro.ecube.ecube.EvolvingDataCube` (a paged or
        sparse kernel is refused: :func:`repro.core.front.layers`).
    policy:
        A :class:`~repro.retention.tiers.TierPolicy` (or its JSON form).
    tile_dir:
        Directory for the immutable historic tiles.
    """

    #: the retention layer of a stack (:mod:`repro.core.front`)
    kind = "tiered"
    inner = property(lambda self: self.front)

    def __init__(self, front, policy, tile_dir) -> None:
        self.front = front
        #: this layer and those under it, as they declare themselves
        self.stack = layers(self)
        require(self.stack, "point", "TieredCube", "front")
        #: the wrapped :class:`~repro.ecube.kernel.CubeKernel` cube
        self.cube = self.stack["kernel"]
        #: the front's ``G_d`` buffer, or ``None`` for a bare kernel
        self.buffer = (
            self.stack["buffered"].buffer if "buffered" in self.stack else None
        )
        self.policy = TierPolicy.from_config(policy)
        self.tiles = TileStore(tile_dir)
        self.tiers = [RollupTier(spec) for spec in self.policy]
        #: first occurring time still live (the demotion watermark)
        self._demoted_through: int | None = None
        #: largest horizon ever requested (the tier-eviction clock)
        self._demote_horizon: int | None = None
        #: newest demoted instance (carried into the next fold)
        self._last_time: int | None = None
        self._last_ps: np.ndarray | None = None

    @property
    def demoted_through(self) -> int | None:
        return self._demoted_through

    @property
    def demote_horizon(self) -> int | None:
        return self._demote_horizon

    # -- demotion -------------------------------------------------------------

    def demote_before(self, time: int) -> int:
        """Demote detail older than ``time`` into tiles + rollups.

        Same boundary discipline as
        :meth:`~repro.ecube.kernel.CubeKernel.retire_before` -- the
        newest instance below ``time`` stays live as the cumulative
        boundary -- but every released slice is preserved at full
        fidelity on disk first.  Returns the number of slices demoted.
        """
        time = int(time)
        kernel = self.cube
        if not kernel.directory:
            return 0
        # corrections aimed below the new horizon can still cascade now;
        # after the demote they would sit in G_d forever
        if self.buffer is not None:
            self.front.drain(None)
        boundary = kernel.directory.floor_index(time - 1)
        if boundary <= kernel._retired_below:
            return 0
        times: list[int] = []
        slices: list[np.ndarray] = []
        for index in range(kernel._retired_below, boundary):
            occurring, payload = kernel.directory.at_index(index)
            if payload.retired:
                continue  # plain retire already dropped it; nothing to save
            self._finalize_slice(kernel, index, int(occurring))
            values, _ = kernel.store.slice_views(payload)
            times.append(int(occurring))
            slices.append(np.array(row_values(values), dtype=np.int64))
        demoted_through = int(kernel.directory.at_index(boundary)[0])
        if times:
            stack = np.stack(slices)
            times_arr = np.asarray(times, dtype=np.int64)
            self.tiles.write_tile(stack, times_arr)
            for tier in self.tiers:
                tier.absorb(
                    times_arr, stack, self._last_time, self._last_ps,
                    demoted_through,
                )
            self._last_time = times[-1]
            self._last_ps = slices[-1]
        self._demoted_through = demoted_through
        self._demote_horizon = (
            time
            if self._demote_horizon is None
            else max(self._demote_horizon, time)
        )
        for tier in self.tiers:
            tier.evict(self._demote_horizon)
        # retire at the kernel, not through the buffered front: its
        # retire path prunes G_d entries below the boundary, but here
        # those entries are live tier-correction state (query_many adds
        # them back over demoted prefixes)
        return kernel.retire_before(time)

    def retire_before(self, time: int) -> int:
        """Hard-retire live detail below ``time`` without demoting it.

        Unlike the buffered front's retire this never prunes ``G_d``:
        buffered corrections below the demotion watermark still
        contribute to demoted-prefix answers.
        """
        return self.cube.retire_before(int(time))

    def prune_retired(self) -> int:
        """No-op on a tiered front (returns 0).

        Every demoted instant stays answerable from rollups or tiles,
        so buffered corrections below the watermark are observable
        forever -- there is no dead region to prune.
        """
        return 0

    def _finalize_slice(self, kernel, index: int, occurring: int) -> None:
        """Install the full PS representation on one historic slice.

        The vectorized recovery (``bulk_finalize_slice``) bails on mixed
        slices where a cell was PS-converted after its lazy-copy stamp
        had already advanced past the slice -- the cell's DDC value is
        gone from both the payload and the cache.  The metered per-cell
        path does not need it: DDC conversion is intra-slice, so walking
        every cell's cumulative prefix persists the remaining
        conversions, after which the slice is fully PS and finalization
        is a trivial early return.
        """
        if kernel.bulk_finalize_slice(index):
            return
        shape = tuple(kernel.slice_shape)
        origin = (0,) * len(shape)
        for cell in np.ndindex(shape):
            kernel._slice_query(index, Box(origin, cell))
        if not kernel.bulk_finalize_slice(index):
            raise StorageError(
                f"cannot finalize instance at t={occurring} for demotion"
            )

    # -- queries --------------------------------------------------------------

    def query(self, box: Box) -> int:
        return self.query_many([box], mode="metered")[0]

    def _history_start(self) -> int:
        """The oldest time any prefix can see: the first instance, or
        older late data waiting in ``G_d`` (the directory is not empty)."""
        low = int(self.cube.directory.at_index(0)[0])
        if self.buffer is not None and len(self.buffer):
            low = min(low, self.buffer.min_time())
        return low

    def _decompose(self, corners: np.ndarray, mode: str):
        """The one cross-tier decomposition (module docstring) of a batch.

        Returns ``(sums, demoted)``.  ``sums`` is each box's exact int64
        share: the whole box when no prefix floors on a demoted instance,
        else its live prefixes (the front adds their ``G_d`` share
        itself) plus the ``G_d`` share of every other prefix, including
        one that floors below the first instance -- late data from
        before all history is in no slice, only in the buffer.
        ``demoted`` is the prefixes that floor on a demoted instance,
        ``(box ids, signs, floor times, cell lowers, cell uppers)``:
        :meth:`query_many` adds their exact sums
        (:meth:`_demoted_sums`), :meth:`query_many_approx` brackets them.

        One ``searchsorted`` resolves both prefixes of every box against
        the directory times.  The front answers its share in one batch,
        box by box and a box's ``+`` prefix before its ``-`` one: metered
        reads may convert cells as they walk them, so this order keeps
        their charges those of a box-by-box plan.  The ``G_d`` share of
        the other prefixes is one ``range_sum_many`` call.
        """
        if mode not in ("fast", "metered"):
            raise DomainError(f"unknown execution mode {mode!r}")
        kernel = self.cube
        retired_below = kernel._retired_below
        if not retired_below:  # nothing demoted: the front answers whole boxes
            sums = np.asarray(self.front.query_many(corners, mode=mode), np.int64)
            none, cells = corners[:0, 0, 0], corners[:0, 0, 1:]
            return sums, (none, none, none, cells, cells)
        lowers, uppers = clip_cells(corners, kernel.slice_shape)
        times = np.asarray(kernel.directory.times(), dtype=np.int64)
        # two terms per box: the + prefix at its upper bound and the -
        # prefix before its lower bound, each with the instance it floors on
        n = corners.shape[0]
        box_ids = np.repeat(np.arange(n), 2)
        signs = np.tile(np.array([1, -1], dtype=np.int64), n)
        prefixes = np.stack((corners[:, 1, 0], corners[:, 0, 0] - 1), axis=1)
        prefixes = prefixes.reshape(-1)
        floors = np.searchsorted(times, prefixes, side="right") - 1
        on_tier = (floors >= 0) & (floors < retired_below)
        split = np.repeat(on_tier.reshape(n, 2).any(axis=1), 2)
        # a split box is its prefixes [low, prefix]; one before all history
        # (buffered late data included) contributes nothing
        low = self._history_start()
        terms = np.repeat(corners, 2, axis=0)
        terms[split, 0, 0] = low
        terms[split, 1, 0] = prefixes[split]
        seen = split & (prefixes >= low)
        live = (~split & (signs > 0)) | (seen & (floors >= retired_below))
        sums = np.zeros(n, dtype=np.int64)

        def add(chosen, answer) -> None:
            if chosen.any():
                values = np.asarray(answer(terms[chosen], mode=mode), np.int64)
                np.add.at(sums, box_ids[chosen], signs[chosen] * values)

        add(live, self.front.query_many)
        if self.buffer is not None and len(self.buffer):
            add(seen & ~live, self.buffer.range_sum_many)
        demoted = np.flatnonzero(seen & on_tier)
        demoted = demoted[np.argsort(floors[demoted], kind="stable")]
        ids, floor_times = box_ids[demoted], times[floors[demoted]]
        return sums, (ids, signs[demoted], floor_times, lowers[ids], uppers[ids])

    def _floor_groups(self, demoted):
        """The demoted prefixes (:meth:`_decompose`) in runs that floor on
        one instance, oldest first: yields ``(floor time, rows)``, where
        ``rows`` slices the run.  In this order a tile decodes at most
        once per batch."""
        times = demoted[2]
        starts = run_starts(times)
        stops = [*starts[1:].tolist(), times.size]
        for time, start, stop in zip(times[starts].tolist(), starts.tolist(), stops):
            yield time, slice(start, stop)

    def _demoted_sums(self, demoted) -> np.ndarray:
        """Each demoted prefix's exact cell-box sum: one PS slice fetch
        (:meth:`_demoted_slice`) and one corner gather
        (:func:`~repro.ecube.fastpath._corner_terms`) per instance."""
        offsets, corner_signs = _corner_terms(*demoted[3:], self.cube.slice_shape)
        cells = np.empty_like(offsets)
        for time, rows in self._floor_groups(demoted):
            cells[rows] = self._demoted_slice(time).reshape(-1)[offsets[rows]]
        return (cells * corner_signs).sum(axis=1)

    def query_many(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ) -> list[int]:
        """Batch range aggregates, bit-identical to an undemoted oracle.

        ``boxes`` is a :class:`Box` sequence or an ``(n, 2, d)`` int64
        corner array (:func:`~repro.core.types.box_array`).  Both modes
        run one array pass (:meth:`_decompose`); a demoted floor is
        answered from its cumulative PS slice (rollup tier or tile), one
        gather per instance for the whole batch (:meth:`_demoted_sums`).
        """
        sums, demoted = self._decompose(box_array(boxes, self.cube.ndim), mode)
        box_ids, signs = demoted[:2]
        np.add.at(sums, box_ids, signs * self._demoted_sums(demoted))
        return sums.tolist()

    def query_approx(self, box: Box):
        """Approximate range aggregate with guaranteed-sound bounds."""
        return self.query_many_approx([box])[0]

    def query_many_approx(
        self, boxes: Sequence[Box] | np.ndarray, mode: str = "fast"
    ):
        """Batch :class:`~repro.retention.estimate.Estimate` aggregates.

        The same array pass as :meth:`query_many` (:meth:`_decompose`),
        but a demoted prefix is bracketed between the tiers' retained
        boundary slices (:mod:`repro.retention.estimate`) instead of
        decoded from its tile -- no disk access, at the price of a
        bounded interval rather than a point answer.  The prefixes that
        floor on one instance share its bracket and one gather per
        bracket slice.  Prefixes that are live, or that floor onto a
        retained rollup boundary, stay exact (``lo == hi``),
        bit-identical to :meth:`query_many`; the signed prefix
        combination ``F(t_up) - F(t_lo - 1)`` combines the per-prefix
        intervals by interval arithmetic, so every reported ``[lo, hi]``
        contains the exact answer (for non-negative measures -- see the
        estimate module docstring).
        """
        from repro.retention.estimate import (
            Estimate,
            bracket_prefix,
            estimate_sums,
        )

        sums, demoted = self._decompose(box_array(boxes, self.cube.ndim), mode)
        box_ids, signs = demoted[:2]
        offsets, corner_signs = _corner_terms(*demoted[3:], self.cube.slice_shape)
        estimate = np.zeros(box_ids.size)
        lo = np.zeros(box_ids.size, dtype=np.int64)
        hi = np.zeros(box_ids.size, dtype=np.int64)
        for time, rows in self._floor_groups(demoted):

            def box_sums(ps: np.ndarray, rows=rows) -> np.ndarray:
                cells = ps.reshape(-1)[offsets[rows]]
                return (cells * corner_signs[rows]).sum(axis=1)

            brackets = bracket_prefix(
                self.tiers, time, self._last_time, self._last_ps
            )
            estimate[rows], lo[rows], hi[rows] = estimate_sums(
                *brackets, time, box_sums
            )
        # interval arithmetic: a - prefix's hi bounds the box's lo; a box
        # has at most two estimated terms, so their order cannot move the
        # float sum (addition commutes)
        plus = signs > 0
        lows, highs, estimates = sums.copy(), sums.copy(), np.zeros(sums.size)
        np.add.at(lows, box_ids, np.where(plus, lo, -hi))
        np.add.at(highs, box_ids, np.where(plus, hi, -lo))
        np.add.at(estimates, box_ids, signs * estimate)
        estimates += sums
        return [
            Estimate(*row)
            for row in zip(estimates.tolist(), lows.tolist(), highs.tolist())
        ]

    def _demoted_slice(self, floor_time: int) -> np.ndarray:
        """The cumulative PS slice at a demoted occurring time.

        Rollup tiers first (finest wins; in-memory, no decode), then the
        full-fidelity tiles; an instance covered by neither was retired
        without demotion and is genuinely gone.
        """
        for tier in self.tiers:
            ps = tier.slice_at(floor_time)
            if ps is not None:
                return ps
        ps = self.tiles.slice_at(floor_time)
        if ps is not None:
            return ps
        raise AgedOutError(
            f"instance at t={floor_time} was retired without demotion; "
            "its detail is no longer accessible"
        )

    def total(self) -> int:
        return self.front.total()

    # -- footprint ------------------------------------------------------------

    def resident_slice_bytes(self) -> int:
        """Resident history bytes: live kernel slices + rollup slices.

        Tile bytes live on disk (served via mmap) and are *not*
        resident; this is the quantity the retention benchmark compares
        against an undemoted cube.
        """
        total = self.cube.resident_slice_bytes()
        for tier in self.tiers:
            total += tier.resident_nbytes()
        if self._last_ps is not None:
            total += self._last_ps.nbytes
        return total

    # -- durable snapshots ----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """This layer's durable state -- tier + demotion bookkeeping --
        as named (``ret_``) arrays; the layers under it snapshot their
        own (:func:`repro.durability.checkpoint.snapshot_arrays`).  Tile
        *contents* are not duplicated -- tiles are immutable files
        verified by checksum -- but their spans are recorded so recovery
        can detect a missing tile immediately.
        """
        shape = tuple(self.cube.slice_shape)
        arrays: dict[str, np.ndarray] = {
            "ret_meta": np.array(
                [
                    _NONE if self._demoted_through is None else self._demoted_through,
                    _NONE if self._demote_horizon is None else self._demote_horizon,
                    _NONE if self._last_time is None else self._last_time,
                    len(self.tiers),
                ],
                dtype=np.int64,
            ),
            "ret_last_ps": (
                np.empty((0, *shape), dtype=np.int64)
                if self._last_ps is None
                else self._last_ps.reshape((1, *shape))
            ),
            "ret_tile_spans": self.tiles.spans(),
        }
        for i, tier in enumerate(self.tiers):
            state = tier.state_arrays(shape)
            arrays[f"ret_tier{i}_times"] = state["times"]
            arrays[f"ret_tier{i}_stack"] = state["stack"]
            arrays[f"ret_tier{i}_meta"] = state["meta"]
        return arrays

    def restore_state(self, arrays) -> None:
        """Rebuild tier + demotion state from :meth:`state_arrays`."""
        meta = np.asarray(arrays["ret_meta"], dtype=np.int64)
        if int(meta[3]) != len(self.tiers):
            raise DomainError(
                f"checkpoint has {int(meta[3])} tiers, policy has "
                f"{len(self.tiers)}"
            )
        self._demoted_through = None if int(meta[0]) == _NONE else int(meta[0])
        self._demote_horizon = None if int(meta[1]) == _NONE else int(meta[1])
        self._last_time = None if int(meta[2]) == _NONE else int(meta[2])
        last = np.asarray(arrays["ret_last_ps"], dtype=np.int64)
        self._last_ps = (
            None if last.shape[0] == 0 else np.array(last[0], dtype=np.int64)
        )
        for i, tier in enumerate(self.tiers):
            tier.restore_state(
                arrays[f"ret_tier{i}_times"],
                arrays[f"ret_tier{i}_stack"],
                arrays[f"ret_tier{i}_meta"],
            )
        self.tiles.rescan()
        on_disk = {tuple(int(v) for v in span) for span in self.tiles.spans()}
        for span in np.asarray(arrays["ret_tile_spans"], dtype=np.int64):
            if (int(span[0]), int(span[1])) not in on_disk:
                raise StorageError(
                    f"checkpointed tile tile-{int(span[0])}-{int(span[1])}"
                    ".tile is missing from the tile directory"
                )

    def __repr__(self) -> str:
        return (
            f"TieredCube(front={self.front!r}, tiers={len(self.tiers)}, "
            f"tiles={len(self.tiles)}, demoted_through={self._demoted_through})"
        )


#: what passes through the tiers unchanged: every logged mutation they do
#: not redefine (``retire_before`` / ``demote_before`` are theirs)
FORWARDED = {
    name: needs for name, needs in LOGGED.items() if name not in vars(TieredCube)
}
forward(TieredCube, FORWARDED, "front")
