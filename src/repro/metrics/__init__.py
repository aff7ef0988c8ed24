"""Cost accounting for the reproduction.

The paper's evaluation (Section 5) measures *counted* costs -- cell accesses
for the in-memory algorithms and page accesses for the external-memory ones --
rather than wall-clock time.  Every data structure in this library routes its
touches through a :class:`CostCounter`, which makes the experiments exact
re-implementations of the paper's measurements.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.metrics.counters": "CostCounter CostSnapshot global_counter measured",
        "repro.metrics.stats": (
            "Quantiles RollingAverage frequency_table most_frequent rolling_average "
            "sorted_costs"
        ),
    },
)
