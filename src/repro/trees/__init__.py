"""Tree substrates: ordered indexes and multiversion structures.

These are the "pool" of data structures the framework draws from
(Sections 2.3 and 4):

* :class:`BPlusTree` -- single-version ordered index with subtree
  aggregates; usable as the one-dimensional ``R_{d-1}`` and as the sparse
  directory the paper mentions.
* :class:`PersistentAggregateTree` -- a partially persistent (multiversion)
  aggregate search tree with O(1) snapshots, the Section 4 instantiation
  for sparse data.
* :class:`FatNodeArray` -- the fat-node multiversion array (Driscoll et
  al. / O'Neill & Burton) the paper contrasts against: reads need a binary
  search over versions.
* :class:`MultiversionBTree` -- the blockwise-optimal multiversion B-tree
  (Becker et al.), the paper's named external-memory Section 4 option.
* :class:`RTree` -- R-tree with an R*-style insertion path and Sort-Tile-
  Recursive bulk loading; the Figure 14 baseline and the ``G_d``
  out-of-order store.
* :class:`ZOrderSliceStructure` -- sparse multi-dimensional slices over
  the persistent tree via Morton linearization (framework slices with
  d-1 >= 2).
* :class:`MRATree` -- multi-resolution aggregate tree with progressive
  error bounds (the pCube / Lazaridis-Mehrotra substrate family the paper
  cites for ``R_{d-1}``).
* :class:`TemporalAggregateTree` -- the SB-tree-style instant-aggregate
  index of the classic temporal-aggregation line (Section 6), including
  the non-invertible MAX/MIN the framework deliberately excludes.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.trees.bptree": "BPlusTree",
        "repro.trees.fat_node": "FatNodeArray",
        "repro.trees.mratree": "MRATree",
        "repro.trees.mvbtree": "MultiversionBTree",
        "repro.trees.persistent": "PersistentAggregateTree",
        "repro.trees.rtree": "RTree",
        "repro.trees.sbtree": "TemporalAggregateTree",
        "repro.trees.zorder": "ZOrderSliceStructure",
    },
)
