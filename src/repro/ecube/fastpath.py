"""Vectorized (fast-mode) evaluation of eCube slices.

The metered engine (:mod:`repro.ecube.slices`) walks term sets cell by
cell so every access is charged to the paper's cost model.  This module
is the fast mode of the dual-mode execution engine: the same slice state
(slice values, PS/DDC flag bitmap, cache values, cache stamps) is
evaluated with flat NumPy gathers and tensor contractions instead of
Python recursion.  Answers are bit-identical to the metered path; only
the *charging* differs (bulk tallies instead of per-cell calls).

A batch read has exactly one fast implementation,
:func:`stacked_query_many`: every touched slice is normalized to prefix
sums and the ``2^(d-1)`` corners of the whole batch are located at once
and read slice by slice.  Its callers -- the live kernel, a pinned
:class:`~repro.concurrent.snapshot.SnapshotView` and the sharding reader's
shared-memory epochs -- differ only in where the arrays come from
(:class:`SliceSource`).  A touched slice arrives in one of three states
(an epoch's slices in the first two only: its history is published
rows):

``ps``
    Fully converted (every flag set), or already normalized by an earlier
    batch: used as is.

``ddc``
    A complete DDC array -- the latest instance, whose content *is* the
    cache: one log-step Fenwick sweep converts it.

``mixed``
    The *effective DDC value* of every cell is selected from the four
    state arrays first, then converted like ``ddc``:

    * flag set, stamp <= slice: the conversion overwrote the slice cell,
      but the cache still holds the cell's DDC value (conversions never
      touch the cache) -- read the cache;
    * flag clear, stamp > slice: the lazy copy landed -- read the slice;
    * flag clear, stamp <= slice: copy still pending -- read the cache
      (its last change happened at or before this slice).

    A flagged cell whose stamp moved past the slice has lost its DDC
    value (the copy was skipped, the conversion overwrote the storage);
    such a slice is answered box by box from the DDC term block
    (:meth:`FastSliceEngine.mixed_range`) and, where the block itself
    holds such a cell, by the source's per-cell walk, which handles PS
    values natively.

Normalizing a slice costs a pass over all its cells, so it must be
*reused*: the live kernel persists the conversion (bulk finalize, driven
by its hit/density policy), an epoch memoizes its latest instance's row
(:meth:`SliceSource.normalised`), and snapshot publication sweeps each
historic instance once, into the row every later epoch cites
(:func:`slice_state` classifies what it sweeps).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.core.errors import AgedOutError, DomainError
from repro.core.types import Box, clip_cells
from repro.ecube import compiled
from repro.ecube.stores import gather_rows
from repro.metrics import CostCounter
from repro.preagg.ddc import DDCTechnique
from repro.preagg.term_tables import (
    TermTableSet,
    ddc_gather_counts,
    gathered_cell_count,
    ps_gather_counts,
)


def retired_instance_error(time: int) -> AgedOutError:
    """The error every read path raises for a prefix inside retired detail."""
    return AgedOutError(
        f"the instance at time {time} was retired by data aging; "
        "only queries at or after the retirement boundary (or open "
        "prefixes from the beginning of time) remain answerable"
    )


class FastSliceEngine:
    """Flat-gather evaluation for one (d-1)-dimensional slice shape.

    Stateless apart from the precomputed term tables; one instance is
    shared by all slices of a cube, mirroring
    :class:`~repro.ecube.slices.ECubeSliceEngine`.
    """

    def __init__(self, shape: Sequence[int]) -> None:
        self.shape = tuple(int(n) for n in shape)
        if not self.shape:
            raise DomainError("slice shape must have at least one dimension")
        self.ddc_techniques = [DDCTechnique(n) for n in self.shape]
        # term tables are only needed by the per-box paths (the mixed-slice
        # fallback, updates); the stacked batch read runs entirely on
        # compiled kernels, so building them is deferred to first use
        self._ddc_tables: TermTableSet | None = None

    @property
    def ddc_tables(self) -> TermTableSet:
        if self._ddc_tables is None:
            self._ddc_tables = TermTableSet(self.ddc_techniques)
        return self._ddc_tables

    # -- degenerate ranges ----------------------------------------------------

    def _clip_or_none(self, box: Box) -> Box | None:
        """Clamp ``box`` to the slice shape; ``None`` when it selects nothing.

        Mirrors the metered engine's degenerate-range early return
        (:meth:`~repro.ecube.slices.ECubeSliceEngine.range_query`): a
        range entirely outside the domain is an explicit empty result,
        not a term-table lookup error.
        """
        for low, up, size in zip(box.lower, box.upper, self.shape):
            if low > up or low >= size or up < 0:
                return None
        return box.clip_to(self.shape)

    # -- mixed slices ---------------------------------------------------------

    def mixed_range(
        self,
        box: Box,
        slice_values: np.ndarray,
        ps_flags: np.ndarray,
        stamps: np.ndarray,
        cache_values: np.ndarray,
        slice_index: int,
    ) -> tuple[int, int] | None:
        """DDC range aggregate over the effective DDC values of a block.

        Returns ``(value, cells read)``, or ``None`` when the block holds
        a flagged cell whose DDC value is unrecoverable (stamp advanced
        past the slice) -- the caller then falls back to the metered walk.
        """
        clipped = self._clip_or_none(box)
        if clipped is None:
            return 0, 0
        indices, coeffs = self.ddc_tables.range_arrays(clipped.lower, clipped.upper)
        if any(idx.size == 0 for idx in indices):
            return 0, 0
        grid = np.ix_(*indices)
        flags_blk = ps_flags[grid]
        stamps_blk = stamps[grid]
        newer = stamps_blk > slice_index
        if bool(np.any(flags_blk & newer)):
            return None
        block = np.where(
            ~flags_blk & newer, slice_values[grid], cache_values[grid]
        )
        for coeff in reversed(coeffs):
            block = block @ coeff
        return int(block), gathered_cell_count(indices)

    # -- whole-slice finalization ---------------------------------------------

    def effective_ddc(
        self,
        slice_values: np.ndarray,
        ps_flags: np.ndarray,
        stamps: np.ndarray,
        cache_values: np.ndarray,
        slice_index: int,
    ) -> np.ndarray | None:
        """The slice's complete DDC array, or ``None`` if unrecoverable."""
        out = np.array(slice_values, dtype=np.int64).reshape(1, -1)
        bad = compiled.effective_ddc_batch(
            out,
            np.ascontiguousarray(ps_flags, dtype=bool).reshape(1, -1),
            np.ascontiguousarray(stamps, dtype=np.int64).reshape(-1),
            np.ascontiguousarray(cache_values, dtype=np.int64).reshape(-1),
            np.array([slice_index], dtype=np.int64),
            out,
        )
        return None if bad[0] else out.reshape(self.shape)

    def ddc_to_ps(self, ddc_values: np.ndarray) -> np.ndarray:
        """Bulk DDC -> PS via the log-step Fenwick path recurrence.

        Identical integers to deaggregate-per-axis + cumsum-per-axis,
        in ``O(log n)`` whole-array adds per axis
        (:func:`repro.ecube.compiled.fenwick_to_ps_inplace`).
        """
        return compiled.fenwick_to_ps_inplace(
            np.array(ddc_values, dtype=np.int64), self.shape
        )

    # -- update support --------------------------------------------------------

    def update_flat_indices(self, cell: Sequence[int]) -> np.ndarray:
        """Flat (raveled) DDC update set of one raw cell."""
        per_dim = self.ddc_tables.update_arrays(cell)
        flat = per_dim[0]
        for axis in range(1, len(self.shape)):
            flat = flat[..., None] * self.shape[axis] + per_dim[axis]
        return flat.reshape(-1)


# -- the one fast batch read ------------------------------------------------------

PS, DDC, MIXED = "ps", "ddc", "mixed"


def slice_state(values: np.ndarray, flags: np.ndarray) -> tuple:
    """A historic slice's ``(PS | MIXED, values, flags)``, as
    :meth:`SliceSource.fetch` hands it over."""
    return (PS if flags.all() else MIXED), values, flags


class SliceSource(Protocol):
    """Where :func:`stacked_query_many` gets a cube's arrays from.

    ``fast``, :meth:`cache_arrays` and :meth:`walk` are read only for a
    ``MIXED`` slice, which only the live kernel hands over.
    """

    slice_shape: tuple[int, ...]
    #: ascending int64 occurring times, one per cumulative instance
    times: np.ndarray
    #: instances below this index had their detail retired
    retired_below: int
    #: built on first use; only the mixed-slice fallback needs it
    fast: FastSliceEngine

    def fetch(self, index: int) -> tuple[str, np.ndarray, np.ndarray | None]:
        """``(PS | DDC | MIXED, values, flags)`` of the instance at ``index``.

        ``flags`` is only read for ``MIXED`` slices.
        """

    def cache_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(cache values, cache stamps) that ``MIXED`` slices read through."""

    def normalised(self, index: int, ps_row: np.ndarray) -> None:
        """A ``DDC`` / ``MIXED`` slice was converted; ``ps_row`` is transient."""

    def walk(
        self, index: int, box: Box, values: np.ndarray, flags: np.ndarray
    ) -> int:
        """Per-cell range aggregate over a slice no array path can answer."""


def _plan_jobs(corners: np.ndarray, shape, times: np.ndarray, retired_below: int):
    """Clip a batch and resolve its prefixes to (instance, box, sign) jobs.

    ``corners`` is the validated ``(n, 2, d)`` batch (:func:`~repro.core.
    types.box_array`).  Returns ``(lowers, uppers, touched, bounds,
    job_boxes, job_signs)``: the ``(n, d-1)`` clipped slice-box corners,
    the distinct touched instance indices (ascending) and the jobs sorted
    by instance -- those on ``touched[g]`` are ``bounds[g]:bounds[g + 1]``,
    each with its box and its sign -- or ``None`` when no prefix reaches
    an instance (every answer is 0).  Raises for a box that is empty
    after clipping and a prefix inside retired detail.
    """
    n = corners.shape[0]
    if n == 0 or times.shape[0] == 0:
        return None
    lowers, uppers = clip_cells(corners, shape)
    # one job per prefix of the time difference: + at the upper bound's
    # floor instance, - at the floor of the time before the lower bound
    prefix_times = np.concatenate((corners[:, 1, 0], corners[:, 0, 0] - 1))
    job_slices = np.searchsorted(times, prefix_times, side="right") - 1
    order = np.argsort(job_slices, kind="stable")
    job_slices = job_slices[order]
    # a prefix before the first instance (index -1) contributes nothing
    first = int(np.searchsorted(job_slices, 0))
    order, job_slices = order[first:], job_slices[first:]
    if not order.size:
        return None
    bounds = np.concatenate(
        ([0], np.flatnonzero(job_slices[1:] != job_slices[:-1]) + 1, [order.size])
    )
    touched = job_slices[bounds[:-1]]
    if touched[0] < retired_below:
        raise retired_instance_error(int(times[touched[0]]))
    return lowers, uppers, touched, bounds, order % n, 1 - 2 * (order // n)


def _prefix_sum_rows(source: SliceSource, touched: np.ndarray, states: list):
    """Each fetched instance as a prefix-sum array; ``None`` if unrecoverable.

    ``PS`` slices are used where they are.  The others are stacked in
    one block -- ``MIXED`` rows first, reconstructed by *one* batched
    effective-DDC kernel, then the ``DDC`` arrays -- and the block is
    converted in one log-step Fenwick sweep (:mod:`repro.ecube.compiled`).
    """
    rows = [values if kind == PS else None for kind, values, _ in states]
    mixed = [g for g, state in enumerate(states) if state[0] == MIXED]
    convert = mixed + [g for g, state in enumerate(states) if state[0] == DDC]
    if not convert:
        return rows
    shape = source.slice_shape
    stack = np.empty((len(convert),) + tuple(shape), dtype=np.int64)
    block2d = stack.reshape(len(convert), -1)
    for row, group in enumerate(convert):
        block2d[row] = np.asarray(states[group][1]).reshape(-1)
    bad = np.zeros(len(convert), dtype=bool)
    if mixed:
        # the mixed rows hold the slice values; reconstruct all their
        # effective DDC arrays in place with one kernel call
        cache_values, stamps = source.cache_arrays()
        values2d = block2d[: len(mixed)]
        flags2d = np.empty(values2d.shape, dtype=bool)
        for row, group in enumerate(mixed):
            flags2d[row] = np.asarray(states[group][2]).reshape(-1)
        bad[: len(mixed)] = compiled.effective_ddc_batch(
            values2d,
            flags2d,
            np.ascontiguousarray(stamps, dtype=np.int64).reshape(-1),
            np.ascontiguousarray(cache_values, dtype=np.int64).reshape(-1),
            touched[mixed],
            values2d,
        )
    compiled.fenwick_to_ps_inplace(stack, shape, axis_offset=1)
    for row, group in enumerate(convert):
        # a mixed slice holding a converted cell whose DDC value is
        # unrecoverable stays without a row
        if not bad[row]:
            rows[group] = stack[row]
            source.normalised(int(touched[group]), stack[row])
    return rows


@functools.cache
def _corner_basis(shape: tuple[int, ...]):
    """Per slice shape: which corners step below the box, strides, parities.

    ``steps[axis, c]`` is 1 when corner ``c`` of the ``2^(d-1)`` takes the
    cell below the lower bound on ``axis`` (else the upper bound);
    ``strides`` are the row-major element strides of one slice; corner
    ``c`` enters the inclusion-exclusion with sign ``parity[c]``.
    """
    ndim = len(shape)
    steps = (np.arange(1 << ndim) >> np.arange(ndim)[:, None] & 1).astype(np.int64)
    strides = np.array(
        [math.prod(shape[axis + 1 :]) for axis in range(ndim)], dtype=np.int64
    )
    return steps, strides, 1 - 2 * (steps.sum(axis=0) & 1)


def _corner_terms(lowers: np.ndarray, uppers: np.ndarray, shape):
    """Flat cell offsets and signs of every box's ``2^(d-1)`` PS corners.

    Both ``(n, 2^(d-1))``.  A corner's offset is the all-upper corner's
    plus, per axis it steps below on, the difference to the cell below
    the lower bound -- one small matrix product for all corners.  A
    corner below the domain contributes nothing: its offset is clamped
    into the array and its sign is zero.
    """
    steps, strides, parity = _corner_basis(tuple(shape))
    below = lowers - 1
    upper_offsets = uppers * strides
    offsets = (
        upper_offsets.sum(axis=1)[:, None]
        + (np.maximum(below, 0) * strides - upper_offsets) @ steps
    )
    outside = (below < 0).astype(np.int64) @ steps
    return offsets, parity * (outside == 0)


def stacked_query_many(
    corners: np.ndarray,
    source: SliceSource,
    counter: CostCounter | None = None,
) -> np.ndarray:
    """Answer a batch of d-dimensional range aggregates; int64, input order.

    ``corners`` is the batch as a validated ``(n, 2, d)`` int64 corner
    array (:func:`~repro.core.types.box_array`; the callers convert).
    Each box is two (d-1)-dimensional prefix lookups on cumulative
    instances (Section 2.3), found with one vectorized directory search
    and grouped by instance.  Every touched instance is normalized to a
    prefix-sum array (:func:`_prefix_sum_rows`); the ``2^(d-1)`` corner
    cells of all (instance, box, sign) jobs are located at once
    (:func:`_corner_terms`), read with one gather per touched instance
    straight from where its array lives (and one per anchor an offset row
    shares with its neighbours: :func:`~repro.ecube.stores.gather_rows`),
    and accumulated with one signed ``np.add.at``.

    With a ``counter``, reads are charged per box in closed form,
    identical to per-box term gathers: PS slices bill
    ``prod(1 + (lower > 0))``, converted ones the Fenwick term-count
    product (:func:`~repro.preagg.term_tables.ddc_gather_counts`); the
    converted block is a transient evaluation artifact, not a cost-model
    access.
    """
    shape = source.slice_shape
    results = np.zeros(corners.shape[0], dtype=np.int64)
    plan = _plan_jobs(corners, shape, source.times, source.retired_below)
    if plan is None:
        return results
    lowers, uppers, touched, bounds, job_boxes, job_signs = plan
    states = [source.fetch(int(index)) for index in touched]
    rows = _prefix_sum_rows(source, touched, states)
    offsets, signs = _corner_terms(lowers[job_boxes], uppers[job_boxes], shape)
    cells = np.zeros_like(offsets)
    gather_rows(rows, offsets, bounds, cells)
    for group, row in enumerate(rows):
        if row is not None:
            continue
        jobs = slice(bounds[group], bounds[group + 1])
        _, values, flags = states[group]
        for i, sign in zip(job_boxes[jobs], job_signs[jobs]):
            results[i] += sign * _box_on_unrecoverable_slice(
                source, counter, int(touched[group]), values, flags,
                lowers[i], uppers[i],
            )  # fmt: skip
    # add.at, not fancy assignment: a box whose two prefixes land on the
    # same instance contributes twice (with cancelling signs)
    np.add.at(results, job_boxes, job_signs * (cells * signs).sum(axis=1))
    if counter is not None:
        # 0: charged box by box above, 1: read as PS, 2: converted first
        charge = np.repeat(
            [
                0 if row is None else 1 if state[0] == PS else 2
                for row, state in zip(rows, states)
            ],
            np.diff(bounds),
        )
        on_ps, on_ddc = job_boxes[charge == 1], job_boxes[charge == 2]
        # the closed forms cost a fixed dozen array ops even over no box
        counter.read_cells(
            (int(ps_gather_counts(lowers[on_ps]).sum()) if on_ps.size else 0)
            + (
                int(ddc_gather_counts(lowers[on_ddc], uppers[on_ddc]).sum())
                if on_ddc.size
                else 0
            )
        )
    return results


def _box_on_unrecoverable_slice(
    source: SliceSource, counter, index: int, values, flags, lower, upper
) -> int:
    """One box on a mixed slice with a converted cell whose DDC value is lost.

    The DDC term block gathered from the four state arrays
    (:meth:`FastSliceEngine.mixed_range`) and, where the lost cell sits
    inside that block, the source's per-cell walk.
    """
    box = Box(tuple(int(c) for c in lower), tuple(int(c) for c in upper))
    cache_values, stamps = source.cache_arrays()
    result = source.fast.mixed_range(box, values, flags, stamps, cache_values, index)
    if result is None:
        return source.walk(index, box, values, flags)
    value, cells = result
    if counter is not None:
        counter.read_cells(cells)
    return value
