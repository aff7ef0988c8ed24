"""repro -- reproduction of Riedewald, Agrawal & El Abbadi, SIGMOD 2002.

"Efficient Integration and Aggregation of Historical Information": a
framework for aggregate range queries over append-only data sets, its MOLAP
instantiation (the Evolving Data Cube, eCube), multiversion substrates for
sparse data, and the full experimental harness of the paper's Section 5.

Quickstart
----------
>>> from repro import EvolvingDataCube, Box
>>> cube = EvolvingDataCube(slice_shape=(8, 8), num_times=16)
>>> cube.update((0, 2, 3), +5)          # (time, x, y) += 5
>>> cube.update((1, 2, 3), +7)
>>> cube.query(Box((0, 0, 0), (1, 7, 7)))
12
"""

from repro._exports import exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.concurrent.extent": "ExtentSnapshotView SnapshotExtentCube",
        "repro.concurrent.snapshot": "SnapshotCube SnapshotView",
        "repro.core.directory": "TimeDirectory",
        "repro.core.errors": (
            "AgedOutError AppendOrderError DomainError OperatorError RecoveryError "
            "ReproError StorageError"
        ),
        "repro.core.extent": "IntervalAggregator",
        "repro.core.framework": "AppendOnlyAggregator BatchExecutor",
        "repro.core.measures": "MeasureCube",
        "repro.core.operators": "AVERAGE COUNT Operator SUM SumCount get_operator",
        "repro.core.out_of_order": "OutOfOrderBuffer",
        "repro.core.types": "Box TimeInterval",
        "repro.durability.recovery": "DurableCube",
        "repro.durability.wal": "WriteAheadLog",
        "repro.ecube.buffered": "BufferedEvolvingDataCube",
        "repro.ecube.disk": "DiskEvolvingDataCube",
        "repro.ecube.ecube": "EvolvingDataCube",
        "repro.ecube.extent": "ExtentCube",
        "repro.ecube.sparse": "SparseEvolvingDataCube",
        "repro.metrics.counters": "CostCounter",
        "repro.olap.hierarchy": "Dimension Hierarchy uniform_hierarchy",
        "repro.olap.materialized": "MaterializedRollups",
        "repro.olap.view": "CubeView",
        "repro.preagg.advisor": "recommend_techniques",
        "repro.preagg.cube": "PreAggregatedArray",
        "repro.preagg.ddc": "DDCTechnique",
        "repro.preagg.identity": "IdentityTechnique",
        "repro.preagg.local_prefix": "LocalPrefixSumTechnique",
        "repro.preagg.prefix_sum": "PrefixSumTechnique",
        "repro.preagg.relative_prefix": "RelativePrefixSumTechnique",
        "repro.ranking.topk": "TopKEngine TopKStats brute_topk",
        "repro.retention.estimate": "Estimate",
        "repro.retention.planner": "TieredCube",
        "repro.retention.tiers": "TierPolicy TierSpec",
        "repro.retention.tiles": "TileStore",
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
