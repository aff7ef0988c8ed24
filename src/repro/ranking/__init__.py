"""Temporal top-k ranking over the eCube (Jestes et al., arXiv:1208.0222).

The last query class of the seed roadmap: "which cells scored highest
over the interval ``[t1, t2]``?"  Every front answers it with one
function, :func:`~repro.ranking.topk.topk_from_slices`: each cell's
score is the inverse prefix of ``ps(t2) - ps(t1 - 1)`` plus the
window's ``G_d`` points, exact for any sign of delta.  A shard worker
calls it with its pinned epoch; :class:`~repro.ranking.topk.TopKEngine`
picks its inputs from a front's declared stack -- bare kernels of every
store, ``G_d``-buffered, tiered, durable and snapshot fronts.
:func:`~repro.ranking.topk.brute_topk` is the oracle.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.ranking.topk": "TopKEngine TopKStats brute_topk",
    },
)
