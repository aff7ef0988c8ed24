"""Choosing pre-aggregation techniques per dimension (ICDT 2001 story).

Section 3.1 builds on the "flexible data cubes" framework precisely
because it "provides a variety of query-update cost tradeoffs" and lets
every dimension pick its own technique -- that is how the paper itself
combines PS along the TT-dimension with DDC elsewhere.

This module automates the choice: it *measures* each candidate
technique's average query/update term counts on the actual domain sizes
(no hand-maintained cost tables that can drift from the code) and searches
technique assignments minimizing the expected per-operation cost

    weight * product(query_i)  +  (1 - weight) * product(update_i)

where products reflect the cross-product composition of Section 3.1.  The
endpoints sanity-check themselves: weight 1.0 (query-only) picks PS
everywhere, weight 0.0 (update-only) picks the raw array.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.errors import DomainError
from repro.preagg.base import Technique, technique_by_name

#: Candidate techniques, spanning the trade-off spectrum.
DEFAULT_CANDIDATES = ("A", "PS", "RPS", "LPS", "DDC")


@dataclass(frozen=True)
class DimensionProfile:
    """Measured per-operation term counts of one technique on one domain."""

    technique: str
    size: int
    avg_query_terms: float
    avg_update_terms: float


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one shape and workload mix."""

    techniques: tuple[str, ...]
    expected_query_cost: float
    expected_update_cost: float
    expected_cost: float
    weight: float


def profile_technique(
    name: str, size: int, samples: int = 64
) -> DimensionProfile:
    """Measure a technique's average general-range and update term counts.

    Deterministic sampling (evenly spaced ranges/indices), so profiles are
    reproducible and need no RNG.
    """
    technique: Technique = technique_by_name(name, size)
    step = max(1, size // samples)
    query_terms = 0
    query_count = 0
    for low in range(0, size, step):
        for up in range(low, size, max(1, step)):
            query_terms += len(technique.range_terms(low, up))
            query_count += 1
    update_terms = 0
    update_count = 0
    for index in range(0, size, step):
        update_terms += len(technique.update_terms(index))
        update_count += 1
    return DimensionProfile(
        technique=name,
        size=size,
        avg_query_terms=query_terms / max(1, query_count),
        avg_update_terms=update_terms / max(1, update_count),
    )


def recommend_techniques(
    shape: Sequence[int],
    query_weight: float = 0.5,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    tt_dimension: int | None = None,
) -> Recommendation:
    """Search technique assignments minimizing the expected mixed cost.

    ``tt_dimension`` pins one axis to PS -- the paper's append-only rule
    (cumulative instances are prefix sums along transaction time).
    """
    shape = tuple(int(n) for n in shape)
    if not shape or any(n <= 0 for n in shape):
        raise DomainError(f"invalid shape {shape}")
    if not 0.0 <= query_weight <= 1.0:
        raise DomainError(f"query_weight must be in [0, 1], got {query_weight}")
    if tt_dimension is not None and not 0 <= tt_dimension < len(shape):
        raise DomainError(f"tt_dimension {tt_dimension} outside shape arity")

    profiles: list[list[DimensionProfile]] = []
    for axis, size in enumerate(shape):
        axis_candidates = (
            ("PS",) if axis == tt_dimension else tuple(candidates)
        )
        profiles.append(
            [profile_technique(name, size) for name in axis_candidates]
        )

    best: Recommendation | None = None
    for assignment in itertools.product(*profiles):
        query_cost = 1.0
        update_cost = 1.0
        for profile in assignment:
            query_cost *= profile.avg_query_terms
            update_cost *= profile.avg_update_terms
        cost = query_weight * query_cost + (1.0 - query_weight) * update_cost
        if best is None or cost < best.expected_cost:
            best = Recommendation(
                techniques=tuple(p.technique for p in assignment),
                expected_query_cost=query_cost,
                expected_update_cost=update_cost,
                expected_cost=cost,
                weight=query_weight,
            )
    assert best is not None
    return best
