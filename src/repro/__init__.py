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

from repro.core import (
    AVERAGE,
    AgedOutError,
    COUNT,
    SUM,
    AppendOrderError,
    Box,
    DomainError,
    Operator,
    OperatorError,
    RecoveryError,
    ReproError,
    StorageError,
    SumCount,
    TimeInterval,
    get_operator,
)
from repro.concurrent import (
    ExtentSnapshotView,
    SnapshotCube,
    SnapshotExtentCube,
    SnapshotView,
)
from repro.core.directory import TimeDirectory
from repro.core.extent import IntervalAggregator
from repro.core.framework import AppendOnlyAggregator, BatchExecutor
from repro.core.measures import MeasureCube
from repro.core.out_of_order import OutOfOrderBuffer
from repro.durability import DurableCube, WriteAheadLog
from repro.ecube import (
    BufferedEvolvingDataCube,
    DiskEvolvingDataCube,
    EvolvingDataCube,
    ExtentCube,
    FamilyDirectory,
    SharedTimeAxis,
    SparseEvolvingDataCube,
)
from repro.metrics import CostCounter
from repro.ranking import TopKEngine, TopKStats, brute_topk
from repro.retention import (
    Estimate,
    TieredCube,
    TierPolicy,
    TierSpec,
    TileStore,
)
from repro.olap import (
    CubeView,
    Dimension,
    Hierarchy,
    MaterializedRollups,
    uniform_hierarchy,
)
from repro.preagg import (
    DDCTechnique,
    IdentityTechnique,
    LocalPrefixSumTechnique,
    PreAggregatedArray,
    PrefixSumTechnique,
    RelativePrefixSumTechnique,
    recommend_techniques,
)
from repro.trees import (
    BPlusTree,
    FatNodeArray,
    MRATree,
    MultiversionBTree,
    PersistentAggregateTree,
    RTree,
    TemporalAggregateTree,
    ZOrderSliceStructure,
)

__version__ = "1.0.0"

__all__ = [
    "AVERAGE",
    "COUNT",
    "SUM",
    "AgedOutError",
    "AppendOnlyAggregator",
    "AppendOrderError",
    "BatchExecutor",
    "BPlusTree",
    "BufferedEvolvingDataCube",
    "Box",
    "CostCounter",
    "CubeView",
    "Dimension",
    "Hierarchy",
    "MeasureCube",
    "uniform_hierarchy",
    "DDCTechnique",
    "DiskEvolvingDataCube",
    "DomainError",
    "DurableCube",
    "EvolvingDataCube",
    "ExtentCube",
    "FamilyDirectory",
    "SharedTimeAxis",
    "FatNodeArray",
    "IdentityTechnique",
    "LocalPrefixSumTechnique",
    "IntervalAggregator",
    "MRATree",
    "MaterializedRollups",
    "MultiversionBTree",
    "Operator",
    "OperatorError",
    "OutOfOrderBuffer",
    "PersistentAggregateTree",
    "PreAggregatedArray",
    "PrefixSumTechnique",
    "RelativePrefixSumTechnique",
    "recommend_techniques",
    "RTree",
    "RecoveryError",
    "ExtentSnapshotView",
    "SnapshotCube",
    "SnapshotExtentCube",
    "SnapshotView",
    "SparseEvolvingDataCube",
    "Estimate",
    "TieredCube",
    "TierPolicy",
    "TierSpec",
    "TileStore",
    "TopKEngine",
    "TopKStats",
    "brute_topk",
    "ReproError",
    "StorageError",
    "WriteAheadLog",
    "SumCount",
    "TemporalAggregateTree",
    "TimeDirectory",
    "ZOrderSliceStructure",
    "TimeInterval",
    "get_operator",
]
