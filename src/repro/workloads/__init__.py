"""Workloads: the Section 5 datasets, query mixes and update streams.

The weather data sets substitute synthetic generators for the (offline
unavailable) edited synoptic cloud reports; shapes, densities and the
clustered station structure follow Table 3 -- see DESIGN.md for the
substitution rationale.  ``gauss3`` is generated exactly as described.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.workloads.datasets": (
            "Dataset dataset_by_name gauss3 uniform weather4 weather6"
        ),
        "repro.workloads.queries": "QueryWorkload skew_queries uni_queries",
        "repro.workloads.streams": (
            "SessionSegment interleave_out_of_order segment_arrays session_replay"
        ),
    },
)
