"""The hot inner loops of the fast execution engine.

The fast path spends its time in four tight loops: the dedupe of a
batch's DDC update sets (:func:`sorted_unique`), the scatter-add that
lands them in the cache, the stale-cell selection of the lazy-copy
sweeps, and the per-cell reconstruction of a mixed slice's effective DDC
array.  Each is one NumPy kernel here -- exact int64 arithmetic, so the
order of evaluation never changes a result --
beside the log-step Fenwick-to-prefix-sum conversion
(:func:`fenwick_to_ps_inplace`), which runs as ``O(log n)`` whole-array
operations per axis.  The batch read's corner gather
(:func:`repro.ecube.fastpath.stacked_query_many`) is not a kernel: it
reads each touched slice where it lives with one fancy-index gather,
and a kernel called once per slice would cost more in dispatch than the
few cells it reads.

:func:`backend_name` reports ``"numpy"``; benchmark rows and the serving
benchmark's host fingerprint record it.
"""

from __future__ import annotations

import numpy as np


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """The index where each run of equal values in sorted ``ordered`` begins."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """What ``np.unique`` returns for a 1-d integer array: each value once,
    sorted.

    A sort, then each value that differs from its predecessor: O(n log n)
    in the array's size, no hash table.  NumPy 2.4's hash path of
    ``np.unique`` imports ``numpy.ma`` on its first call; in a forked
    server process that is a private copy of three modules per process.
    """
    ordered = np.sort(values)
    return ordered[run_starts(ordered)]


def scatter_add(
    values_flat: np.ndarray, indices: np.ndarray, deltas: np.ndarray
) -> None:
    """``values_flat[indices] += deltas`` with repeated indices."""
    np.add.at(values_flat, indices, deltas)


def select_writable(targets: np.ndarray, flags_flat: np.ndarray) -> np.ndarray:
    """The subset of ``targets`` whose conversion flag is clear.

    This is the inner selection of every lazy-copy sweep: a converted
    (PS-flagged) cell must not receive a copied DDC value.
    """
    return targets[~flags_flat[targets]]


def effective_ddc_batch(
    values2d: np.ndarray,
    flags2d: np.ndarray,
    stamps_flat: np.ndarray,
    cache_flat: np.ndarray,
    indices: np.ndarray,
    out2d: np.ndarray,
) -> np.ndarray:
    """Reconstruct many slices' effective DDC arrays in one pass.

    Row ``r`` of ``values2d``/``flags2d`` is one mixed slice (flattened)
    evaluated at slice index ``indices[r]``; the cache arrays are shared
    by every row.  Writes every row of ``out2d`` (``out2d`` may alias
    ``values2d``) and returns a boolean row mask of *unrecoverable*
    slices -- their output rows are unspecified and the caller routes
    them to the per-box fallback.
    """
    newer = stamps_flat[None, :] > indices[:, None]
    any_flags = bool(flags2d.any())
    if any_flags:
        bad = np.any(flags2d & newer, axis=1)
        stale = flags2d | ~newer
    else:
        # common case (no conversions yet): every row is recoverable and
        # the flag mask drops out of the selection
        bad = np.zeros(values2d.shape[0], dtype=bool)
        stale = ~newer
    if out2d is values2d:
        # in-place: only the cells routed to the cache need writing
        np.copyto(out2d, cache_flat[None, :], where=stale)
    else:
        np.copyto(out2d, np.where(stale, cache_flat[None, :], values2d))
    return bad


def backend_name() -> str:
    """Which implementation serves the hot kernels: ``"numpy"``."""
    return "numpy"


def fenwick_to_ps_inplace(block: np.ndarray, axes_sizes, axis_offset: int = 0):
    """Convert DDC (Fenwick) axes of ``block`` to prefix sums, in place.

    ``block`` holds one slice -- or a stack of slices, with
    ``axis_offset=1`` skipping the stack axis.  Per axis this runs the
    Fenwick path recurrence ``P1[j] = F1[j] + P1[j - lowbit(j)]`` by
    descending ``lowbit``: every position whose lowest set bit is
    ``2^b`` reads a source whose lowest set bit is strictly larger and
    therefore already final.  That turns the O(n)-step ``deaggregate``
    + ``cumsum`` pipeline into ``O(log n)`` whole-array adds per axis
    while producing identical integers (int64 addition is associative
    even under wraparound).
    """
    for axis, size in enumerate(axes_sizes):
        view = np.moveaxis(block, axis + axis_offset, 0)
        for bit in range(size.bit_length() - 1, -1, -1):
            step = 1 << bit
            # 1-indexed targets with lowbit == step are step, 3*step,
            # 5*step, ...; each reads source ``target - step``.  The
            # first target's source is 0 (no-op), so start at 3*step.
            # Basic strided slices, not index arrays: the residues are
            # disjoint, so the in-place add is race-free and each pass
            # is a single strided memory sweep.
            tgt = view[3 * step - 1 :: 2 * step]
            if tgt.shape[0]:
                tgt += view[2 * step - 1 :: 2 * step][: tgt.shape[0]]
    return block
