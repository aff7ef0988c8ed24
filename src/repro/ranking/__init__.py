"""Temporal top-k ranking over the eCube (Jestes et al., arXiv:1208.0222).

The last query class of the seed roadmap: "which cells scored highest
over the interval ``[t1, t2]``?"  :class:`~repro.ranking.topk.TopKEngine`
answers it exactly on *any* front implementing the
:class:`~repro.core.framework.BatchExecutor` protocol -- bare kernels,
``G_d``-buffered fronts, tiered-retention fronts and sharded cubes --
by threshold-style pruning over per-dimension prefix-sum marginals so
that only candidate cells are ever materialized through the batch
gather.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.ranking.topk": "TopKEngine TopKStats brute_topk",
    },
)
