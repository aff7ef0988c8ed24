"""One-dimensional pre-aggregation techniques and their composition.

Section 3.1 of the paper builds multi-dimensional pre-aggregated arrays by
choosing a one-dimensional technique per dimension (after Riedewald et al.,
ICDT 2001): the raw array ``A``, the Prefix-Sum array ``P`` (PS) and the
Dynamic-Data-Cube variant ``D`` (DDC).  Queries and updates decompose into a
set of (index, coefficient) *terms* per dimension; the multi-dimensional
answer is the cross product of the per-dimension term sets with multiplied
coefficients.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.preagg.advisor": (
            "DimensionProfile Recommendation profile_technique recommend_techniques"
        ),
        "repro.preagg.base": "Technique Term technique_by_name",
        "repro.preagg.cube": "PreAggregatedArray",
        "repro.preagg.ddc": "DDCTechnique lowbit",
        "repro.preagg.identity": "IdentityTechnique",
        "repro.preagg.local_prefix": "LocalPrefixSumTechnique",
        "repro.preagg.prefix_sum": "PrefixSumTechnique",
        "repro.preagg.relative_prefix": "RelativePrefixSumTechnique",
        "repro.preagg.term_tables": (
            "TermTable TermTableSet gather_dot gathered_cell_count"
        ),
    },
)
