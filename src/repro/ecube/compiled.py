"""Compiled inner loops of the fast execution engine.

The fast path spends its time in three tight loops: the scatter-add
that lands batched DDC updates in the cache, the stale-cell selection of
the lazy-copy sweeps, and the per-cell reconstruction of a mixed slice's
effective DDC array.  This module provides each of them twice:

* **numba** -- ``@njit(nogil=True, cache=True)`` kernels.  ``nogil``
  releases the GIL during evaluation, so snapshot reader threads of one
  process overlap instead of serializing on the interpreter.  ``cache``
  persists the compiled machine code next to this file so worker
  processes (``repro.sharding``) don't pay the JIT on every spawn.
* **pure NumPy** -- a bit-identical fallback (all arithmetic is exact
  int64, so loop order never changes a result) selected automatically
  when numba is not importable, or forced with ``REPRO_NO_NUMBA=1``.

Selection happens once at import time and is reported by
:func:`backend_name`.  Importing this module must never warn or fail
because numba is missing: the fallback *is* a supported backend, and
every differential/golden-cost test passes on either one.

The log-step Fenwick-to-prefix-sum conversion
(:func:`fenwick_to_ps_inplace`) is shared by both backends: it already
runs as ``O(log n)`` whole-array NumPy operations per axis, which is
memory-bound either way.  So is the batch read's corner gather
(:func:`repro.ecube.fastpath.stacked_query_many`): it reads each touched
slice where it lives with one fancy-index gather, and a kernel called
once per slice would cost more in dispatch than the few cells it reads.
"""

from __future__ import annotations

import os

import numpy as np


def _fallback_forced() -> bool:
    return os.environ.get("REPRO_NO_NUMBA", "").strip() not in ("", "0")


# -- pure NumPy reference implementations --------------------------------------
#
# These are the semantics; the numba kernels below are line-for-line loop
# translations.  Keeping the reference in plain NumPy (not vectorized
# cleverness that could drift) is what lets the differential tests pin
# both backends to the same integers.


def _scatter_add_numpy(
    values_flat: np.ndarray, indices: np.ndarray, deltas: np.ndarray
) -> None:
    """``values_flat[indices] += deltas`` with repeated indices."""
    np.add.at(values_flat, indices, deltas)


def _select_writable_numpy(
    targets: np.ndarray, flags_flat: np.ndarray
) -> np.ndarray:
    """The subset of ``targets`` whose conversion flag is clear.

    This is the inner selection of every lazy-copy sweep: a converted
    (PS-flagged) cell must not receive a copied DDC value.
    """
    return targets[~flags_flat[targets]]


def _effective_ddc_batch_numpy(
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


# -- backend selection ---------------------------------------------------------

NUMBA_ACTIVE = False
scatter_add = _scatter_add_numpy
select_writable = _select_writable_numpy
effective_ddc_batch = _effective_ddc_batch_numpy


def _build_numba_kernels():
    """Compile the numba kernels; any failure selects the NumPy fallback."""
    from numba import njit

    @njit(nogil=True, cache=True)
    def scatter_add_nb(values_flat, indices, deltas):
        for k in range(indices.shape[0]):
            values_flat[indices[k]] += deltas[k]

    @njit(nogil=True, cache=True)
    def select_writable_nb(targets, flags_flat):
        out = np.empty(targets.shape[0], dtype=np.int64)
        m = 0
        for k in range(targets.shape[0]):
            t = targets[k]
            if not flags_flat[t]:
                out[m] = t
                m += 1
        return out[:m]

    @njit(nogil=True, cache=True)
    def effective_ddc_batch_nb(
        values2d, flags2d, stamps_flat, cache_flat, indices, out2d
    ):
        m, n = values2d.shape
        bad = np.zeros(m, dtype=np.bool_)
        for r in range(m):
            idx = indices[r]
            row_bad = False
            for k in range(n):
                flagged = flags2d[r, k]
                newer = stamps_flat[k] > idx
                if flagged and newer:
                    row_bad = True
                if not flagged and newer:
                    out2d[r, k] = values2d[r, k]
                else:
                    out2d[r, k] = cache_flat[k]
            bad[r] = row_bad
        return bad

    # warm every kernel on tiny inputs: surfaces typing/compilation
    # errors here (where we can still fall back cleanly) instead of on
    # the first real query, and populates the on-disk cache
    i64 = lambda *xs: np.array(xs, dtype=np.int64)  # noqa: E731
    vals = np.zeros(4, dtype=np.int64)
    scatter_add_nb(vals, i64(1, 1, 3), i64(2, 3, 4))
    flags = np.array([True, False, True, False])
    picked = select_writable_nb(i64(0, 1, 3), flags)
    eff2 = np.empty((2, 4), dtype=np.int64)
    bad = effective_ddc_batch_nb(
        np.vstack((vals, vals)),
        np.vstack((flags, flags)),
        i64(0, 2, 0, 2),
        i64(0, 1, 2, 3),
        i64(1, 3),
        eff2,
    )
    if (
        vals.tolist() != [0, 5, 0, 4]
        or picked.tolist() != [1, 3]
        or eff2.tolist() != [[0, 5, 2, 4], [0, 1, 2, 3]]
        or bad.tolist() != [False, False]
    ):  # pragma: no cover - would indicate a miscompiled kernel
        raise AssertionError("numba kernel warmup produced wrong results")
    return (
        scatter_add_nb,
        select_writable_nb,
        effective_ddc_batch_nb,
    )


if not _fallback_forced():  # pragma: no branch
    try:
        (
            scatter_add,
            select_writable,
            effective_ddc_batch,
        ) = _build_numba_kernels()
        NUMBA_ACTIVE = True
    except Exception:
        # numba missing, incompatible, or failed to compile: the NumPy
        # fallback is a fully supported backend -- never warn, never fail
        NUMBA_ACTIVE = False


def backend_name() -> str:
    """Which implementation serves the hot kernels: ``numba`` or ``numpy``."""
    return "numba" if NUMBA_ACTIVE else "numpy"


# -- shared (backend-independent) conversions ----------------------------------


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
