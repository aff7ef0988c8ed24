"""Probabilistic range estimation over rollup boundary slices.

When a demoted query prefix floors onto an instance that no rollup tier
retains, the exact path decodes the instance's historic tile.  This
module trades that decode for an *estimate with guaranteed bounds*
served entirely from the in-memory tier slices, after Buccafurri,
Furfaro & Sacca (arXiv:cs/0501029): inside a coarse bucket the exact
cumulative value is unknown, but it is *bracketed* by the retained
boundary slices on either side, and a uniform-spread (continuous-value)
assumption interpolates an estimate between them.

Soundness of the bounds: every retained tier slice is the cumulative PS
``F(t)`` at its boundary instance, and for a non-negative measure
(COUNT, or SUM over non-negative deltas -- every workload of the source
paper) ``F`` is monotone non-decreasing in ``t`` cell by cell.  Any box
aggregate over ``F`` with inclusion-exclusion of only *non-negative
spans* is then monotone too, so for a prefix time ``t`` bracketed by
retained boundary instances ``t_lo <= t < t_hi``::

    box_sum(F(t_lo)) <= box_sum(F(t)) <= box_sum(F(t_hi))

The estimator reports exactly that interval, with the uniform-spread
interpolation clamped into it (the min/max integrity constraint of the
Buccafurri et al. framework).  Signed combinations of bracketed
prefixes (``F(t_up) - F(t_lo - 1)``) combine by interval arithmetic in
:meth:`~repro.retention.planner.TieredCube.query_many_approx`, so every
reported ``[lo, hi]`` provably contains the exact answer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.errors import AgedOutError


class Estimate(NamedTuple):
    """An approximate aggregate with guaranteed-sound bounds.

    ``lo <= exact <= hi`` always holds (for non-negative measures);
    ``estimate`` is the uniform-spread interpolation clamped into the
    interval.  ``lo == hi`` means the answer is exact.
    """

    estimate: float
    lo: int
    hi: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= int(value) <= self.hi

    @classmethod
    def of(cls, value: int) -> "Estimate":
        """The degenerate (exact) estimate of a known value."""
        value = int(value)
        return cls(float(value), value, value)


def bracket_prefix(
    tiers,
    time: int,
    last_time: int | None = None,
    last_ps: np.ndarray | None = None,
):
    """Tightest retained boundary slices bracketing a demoted prefix.

    Scans every rollup tier (plus the planner's carried newest demoted
    slice ``last_time``/``last_ps``) for the newest retained instance at
    or below ``time`` and the oldest strictly above it.  Returns
    ``((t_lo, ps_lo) | None, (t_hi, ps_hi) | None)``; a ``None`` floor
    means the prefix predates every retained boundary (the cumulative
    ``F`` is zero there, which is itself a sound floor for non-negative
    measures).
    """
    time = int(time)
    best_lo = best_hi = None
    for tier in tiers:
        floor, ceiling = tier.bracket(time)
        if floor is not None and (best_lo is None or floor[0] > best_lo[0]):
            best_lo = floor
        if ceiling is not None and (best_hi is None or ceiling[0] < best_hi[0]):
            best_hi = ceiling
    if last_time is not None and last_ps is not None:
        if last_time <= time and (best_lo is None or last_time > best_lo[0]):
            best_lo = (int(last_time), last_ps)
        if last_time > time and (best_hi is None or last_time < best_hi[0]):
            best_hi = (int(last_time), last_ps)
    return best_lo, best_hi


def estimate_sums(bracket_lo, bracket_hi, time: int, box_sums):
    """Estimate prefix box sums at ``time`` from their bracket: the
    interpolate-and-clamp rule, over arrays.

    ``bracket_lo``/``bracket_hi`` are the ``(time, ps)`` pairs from
    :func:`bracket_prefix` (``bracket_lo`` may be ``None``: the zero
    cumulative state floors the bracket); ``box_sums(ps)`` sums every
    prefix's cell box over one PS slice.  Returns the ``(estimate, lo,
    hi)`` arrays.  A ``time`` some tier retains is its own bracket:
    exact; one with no retained slice above it cannot be bounded
    (:class:`~repro.core.errors.AgedOutError`).
    """
    time = int(time)
    if bracket_lo is not None and bracket_lo[0] == time:
        sums = box_sums(bracket_lo[1])
        return sums.astype(np.float64), sums, sums
    if bracket_hi is None:
        raise AgedOutError(
            f"no retained rollup boundary brackets t={time}; "
            "the prefix cannot be bounded"
        )
    s_hi = box_sums(bracket_hi[1])
    t_lo, s_lo = -1, np.zeros_like(s_hi)
    if bracket_lo is not None:
        t_lo, s_lo = int(bracket_lo[0]), box_sums(bracket_lo[1])
    # defensively order the bounds: for the declared non-negative
    # measures s_lo <= s_hi already holds
    lo, hi = np.minimum(s_lo, s_hi), np.maximum(s_lo, s_hi)
    # uniform spread of the bucket's mass across its time span, clamped
    # into the bounds (the min/max integrity constraint)
    fraction = (time - t_lo) / (int(bracket_hi[0]) - t_lo)
    estimate = s_lo + (s_hi - s_lo) * fraction
    return np.minimum(np.maximum(estimate, lo), hi), lo, hi


def estimate_prefix(bracket_lo, bracket_hi, time: int, lower, upper) -> Estimate:
    """:func:`estimate_sums` of one prefix box, whose cell-dimension
    corners are ``lower``/``upper``."""
    from repro.retention.planner import ps_box_sum

    def box_sums(ps: np.ndarray) -> np.ndarray:
        return np.array([ps_box_sum(ps, lower, upper)])

    estimate, lo, hi = estimate_sums(bracket_lo, bracket_hi, time, box_sums)
    return Estimate(float(estimate[0]), int(lo[0]), int(hi[0]))
