"""One-dimensional pre-aggregation techniques and their composition.

Section 3.1 of the paper builds multi-dimensional pre-aggregated arrays by
choosing a one-dimensional technique per dimension (after Riedewald et al.,
ICDT 2001): the raw array ``A``, the Prefix-Sum array ``P`` (PS) and the
Dynamic-Data-Cube variant ``D`` (DDC).  Queries and updates decompose into a
set of (index, coefficient) *terms* per dimension; the multi-dimensional
answer is the cross product of the per-dimension term sets with multiplied
coefficients.
"""

from repro.preagg.advisor import (
    DimensionProfile,
    Recommendation,
    profile_technique,
    recommend_techniques,
)
from repro.preagg.base import Technique, Term, technique_by_name
from repro.preagg.identity import IdentityTechnique
from repro.preagg.prefix_sum import PrefixSumTechnique
from repro.preagg.ddc import DDCTechnique, lowbit
from repro.preagg.local_prefix import LocalPrefixSumTechnique
from repro.preagg.relative_prefix import RelativePrefixSumTechnique
from repro.preagg.cube import PreAggregatedArray
from repro.preagg.term_tables import (
    TermTable,
    TermTableSet,
    gather_dot,
    gathered_cell_count,
)

__all__ = [
    "Technique",
    "Term",
    "technique_by_name",
    "IdentityTechnique",
    "PrefixSumTechnique",
    "DDCTechnique",
    "LocalPrefixSumTechnique",
    "RelativePrefixSumTechnique",
    "lowbit",
    "PreAggregatedArray",
    "TermTable",
    "TermTableSet",
    "gather_dot",
    "gathered_cell_count",
    "DimensionProfile",
    "Recommendation",
    "profile_technique",
    "recommend_techniques",
]
