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


def estimate_prefix(bracket_lo, bracket_hi, time: int, lower, upper) -> Estimate:
    """Estimate one cumulative prefix box sum from its bracket.

    ``bracket_lo``/``bracket_hi`` are the ``(time, ps)`` pairs from
    :func:`bracket_prefix` (``bracket_lo`` may be ``None``: the zero
    cumulative state floors the bracket); ``lower``/``upper`` are the
    box's cell-dimension corners.
    """
    from repro.retention.planner import ps_box_sums

    time = int(time)
    if bracket_lo is not None and bracket_lo[0] == time:
        return Estimate.of(ps_box_sums([bracket_lo[1]], lower, upper)[0])
    # both bracket terms in one corner gather
    brackets = [b for b in (bracket_lo, bracket_hi) if b is not None]
    sums = ps_box_sums([ps for _, ps in brackets], lower, upper)
    t_lo, s_lo = (-1, 0) if bracket_lo is None else (int(bracket_lo[0]), sums[0])
    t_hi, s_hi = int(bracket_hi[0]), sums[-1]
    # defensively order the bounds: for the declared non-negative
    # measures s_lo <= s_hi already holds
    lo, hi = (s_lo, s_hi) if s_lo <= s_hi else (s_hi, s_lo)
    # uniform spread of the bucket's mass across its time span, clamped
    # into the bounds (the min/max integrity constraint)
    fraction = (time - t_lo) / (t_hi - t_lo)
    estimate = s_lo + (s_hi - s_lo) * fraction
    return Estimate(float(min(max(estimate, lo), hi)), lo, hi)
