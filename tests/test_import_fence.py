"""The import direction: the served system never loads the reproduction.

Package ``__init__``s are export tables (:mod:`repro._exports`), so
importing a package imports none of the modules it names.  The paper
reproduction (``REPRODUCTION`` below) may import the served system --
kernel, buffer, snapshots, durability, retention, ranking, sharding --
and never the reverse: a fresh interpreter that imports and then drives
a sharded durable cube ends with none of it in ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

#: modules only the paper's experiments, examples and tests may load
REPRODUCTION = [
    "repro.trees",
    "repro.rolap",
    "repro.olap",
    "repro.experiments",
    "repro.workloads",
    "repro.preagg.advisor",
    "repro.preagg.cube",
    "repro.preagg.identity",
    "repro.preagg.prefix_sum",
    "repro.preagg.local_prefix",
    "repro.preagg.relative_prefix",
    "repro.storage.paged_cube",
    "repro.storage.buffer",
    "repro.storage.pages",
    "repro.storage.layout",
    "repro.ecube.disk",
    "repro.ecube.sparse",
    "repro.core.framework",
    "repro.core.extent",
    "repro.core.measures",
    "repro.core.operators",
    "repro.metrics.stats",
    "repro.concurrent.stress",
]

#: ``import repro.sharding`` loaded 82 ``repro.*`` modules at cbd9a99, 47 at
#: 7666b56, 42 once the served system stopped loading the paged and
#: sparse stores, 44 with the two ``repro.ranking`` modules, and 43 once
#: a point cube's front stopped loading the extent cube
MODULE_CEILING = 44

#: what every package exported at cbd9a99, minus ``repro.storage``'s four
#: dense-only archive functions (``save_cube`` / ``load_cube`` /
#: ``dumps_cube`` / ``loads_cube``), deleted with their second code path,
#: and minus ``SharedTimeAxis`` / ``FamilyDirectory``, deleted when the
#: two families of an extent cube got their own time axes
EXPORTS = {
    "repro": (
        "AVERAGE AgedOutError AppendOnlyAggregator AppendOrderError BPlusTree "
        "BatchExecutor Box BufferedEvolvingDataCube COUNT CostCounter CubeView "
        "DDCTechnique Dimension DiskEvolvingDataCube DomainError DurableCube "
        "Estimate EvolvingDataCube ExtentCube ExtentSnapshotView FatNodeArray "
        "Hierarchy IdentityTechnique IntervalAggregator "
        "LocalPrefixSumTechnique MRATree MaterializedRollups MeasureCube "
        "MultiversionBTree Operator OperatorError OutOfOrderBuffer "
        "PersistentAggregateTree PreAggregatedArray PrefixSumTechnique RTree "
        "RecoveryError RelativePrefixSumTechnique ReproError SUM SnapshotCube "
        "SnapshotExtentCube SnapshotView SparseEvolvingDataCube "
        "StorageError SumCount TemporalAggregateTree TierPolicy TierSpec "
        "TieredCube TileStore TimeDirectory TimeInterval TopKEngine TopKStats "
        "WriteAheadLog ZOrderSliceStructure brute_topk get_operator "
        "recommend_techniques uniform_hierarchy"
    ),
    "repro.core": (
        "AVERAGE AgedOutError AppendOnlyAggregator AppendOrderError Box COUNT "
        "CopySnapshotStructure DomainError EmptyStructureError "
        "MVBTSliceStructure Operator OperatorError RecoveryError ReproError SUM "
        "ShardUnavailableError StorageError SumCount TimeInterval "
        "TreeSliceStructure as_point full_box get_operator register_operator"
    ),
    "repro.ecube": (
        "BufferedEvolvingDataCube CubeKernel DenseStore DiskEvolvingDataCube "
        "ECubeSliceEngine EvolvingDataCube ExtentCube PagedStore SliceStore "
        "SparseEvolvingDataCube SparseStore"
    ),
    "repro.storage": (
        "LRUBufferPool PageAccessTracker PagedArray PagedPreAggregatedArray "
        "cells_per_page load_kernel pages_for_cells rtree_leaf_capacity "
        "save_kernel"
    ),
    "repro.concurrent": (
        "Epoch ExtentSnapshotView SnapshotCube SnapshotExtentCube SnapshotView "
        "StressResult prepare_epoch run_stress"
    ),
    "repro.preagg": (
        "DDCTechnique DimensionProfile IdentityTechnique "
        "LocalPrefixSumTechnique PreAggregatedArray PrefixSumTechnique "
        "Recommendation RelativePrefixSumTechnique Technique Term TermTable "
        "TermTableSet gather_dot gathered_cell_count lowbit profile_technique "
        "recommend_techniques technique_by_name"
    ),
    "repro.trees": (
        "BPlusTree FatNodeArray MRATree MultiversionBTree "
        "PersistentAggregateTree RTree TemporalAggregateTree "
        "ZOrderSliceStructure"
    ),
    "repro.metrics": (
        "CostCounter CostSnapshot Quantiles RollingAverage frequency_table "
        "global_counter measured most_frequent rolling_average sorted_costs"
    ),
    "repro.durability": (
        "AdvanceRecord CheckpointManifest CheckpointMarkerRecord DrainRecord "
        "DurableCube IntervalBatchRecord IntervalInsertRecord "
        "OutOfOrderBatchRecord OutOfOrderRecord RetireRecord UpdateBatchRecord "
        "UpdateRecord WriteAheadLog read_manifest write_checkpoint"
    ),
    "repro.retention": (
        "Estimate RollupTier TierPolicy TierSpec TieredCube TileStore "
        "bracket_prefix decode_tile encode_tile estimate_prefix ps_box_sum "
        "tile_name"
    ),
    "repro.ranking": "TopKEngine TopKStats brute_topk",
    "repro.sharding": (
        "BlockCache EpochExporter GridPartitioner ShardClient "
        "ShardExtent ShardRouter ShardServer ShardedCube "
        "epoch_from_shared_memory leaked_segments"
    ),
    "repro.olap": (
        "CubeView Dimension GroupByResult Hierarchy MaterializedRollups "
        "uniform_hierarchy"
    ),
    "repro.rolap": "FactTable ROLAPSliceStructure",
    "repro.workloads": (
        "Dataset QueryWorkload SessionSegment dataset_by_name gauss3 "
        "interleave_out_of_order segment_arrays session_replay skew_queries "
        "uni_queries uniform weather4 weather6"
    ),
}

#: what a served process never loads: an event loop, an executor, TLS and
#: hashing (either of the last two initialises OpenSSL), ``numpy.ma``
#: (the hash path of ``np.unique`` imports it; in a tiered ``serve``
#: that import would come after the fork, a private copy in every
#: process), and, with its shards in process as an untiered ``serve``
#: keeps them, ``multiprocessing``: only a fleet that starts workers
#: imports it; nor the extent cube, which only an extent config builds
NEVER_LOADED = (
    "asyncio ssl _ssl hashlib _hashlib secrets concurrent.futures numpy.ma "
    "multiprocessing repro.ecube.extent"
)

#: run in a fresh interpreter: prints the ``repro.*`` modules loaded by the
#: import alone, then by a served cube's whole life (writes, reads, a
#: checkpoint and one ping over TCP), then by a tiered fleet's reads into
#: demoted history, then which of ``NEVER_LOADED`` it loaded
SERVED_SCRIPT = """
import json, sys, tempfile, threading

def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

import repro.sharding
print(json.dumps(loaded()))

from repro.core.types import Box
from repro.sharding import ShardClient, ShardServer, ShardedCube

with tempfile.TemporaryDirectory() as root, ShardedCube(
    (8, 8), shards=2, processes=False, buffered=True,
    durable_dir=root + "/front",
) as cube:
    cube.update_many([[t, t % 8, 3 * t % 8] for t in range(24)], [1] * 24)
    cube.update_many([[3, 1, 1], [5, 7, 7], [9, 0, 4]], [2, 3, 4])  # late
    cube.update((4, 2, 2), 5)
    everything = Box((0, 0, 0), (23, 7, 7))
    assert cube.query_many([everything, Box((2, 0, 0), (6, 3, 3))])[0] == 38
    assert cube.drain(2) == (3, 0)  # the limit is per shard
    assert cube.query_many([everything]) == [38]
    assert cube.topk_many([(0, 23, 2)]) == [[((2, 2), 5), ((0, 4), 4)]]
    cube.checkpoint()
    server = ShardServer(cube)
    server.listen()
    serving = threading.Thread(target=server.serve, kwargs={"install_sigterm": False})
    serving.start()
    with ShardClient("127.0.0.1", server.port) as client:
        assert client.ping() == "pong"
    server.shutdown()
    serving.join()
print(json.dumps(loaded()))

tiers = [
    {"name": "hour", "granularity": 4, "horizon": 8},
    {"name": "day", "granularity": 16, "horizon": None},
]
with tempfile.TemporaryDirectory() as root, ShardedCube(
    (8, 8), shards=2, processes=False, tiers=tiers, tile_root=root,
) as cube:
    cube.update_many([[t, t % 8, 5 * t % 8] for t in range(32)], list(range(32)))
    assert cube.demote_before(24) == 22  # instants on both shards
    boxes = [Box((0, 0, 0), (31, 7, 7)), Box((2, 1, 1), (9, 6, 6))]
    assert cube.query_many(boxes) == [496, 26]  # floors in demoted history
    estimate = cube.query_approx(boxes[1])
    assert estimate.lo <= 26 <= estimate.hi
    assert cube.topk_many([(2, 9, 1)]) == [[((1, 5), 9)]]
print(json.dumps(loaded()))
print(json.dumps([m for m in sys.argv[1].split() if m in sys.modules]))
"""


def reproduction_modules(modules):
    """The members of ``modules`` that belong to the paper reproduction."""
    return [
        m for m in modules if any(m == r or m.startswith(r + ".") for r in REPRODUCTION)
    ]


def test_served_process_loads_no_reproduction_module():
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", SERVED_SCRIPT, NEVER_LOADED],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    after_import, after_serving, after_tiered, unused = map(
        json.loads, result.stdout.splitlines()
    )
    assert "repro.sharding" in after_import and "repro.ecube.kernel" in after_serving
    assert "repro.retention.planner" in after_tiered
    # a shard ranks a top-k from two prefix slices, by the one function
    assert "repro.ranking.topk" in after_serving
    for modules in (after_import, after_serving, after_tiered):
        assert reproduction_modules(modules) == []
    # the ceiling counts the cube's modules; the TCP front adds its own
    assert len(after_import) <= MODULE_CEILING
    assert len(set(after_serving) - {"repro.sharding.server"}) <= MODULE_CEILING
    assert unused == []


def test_import_repro_is_silent():
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import repro; print(repro.__version__)"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.strip() == "1.0.0"


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_every_export_resolves_to_its_defining_modules_object(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(EXPORTS[package].split())
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        assert vars(module)[name] is value  # cached: the next access is a dict hit
        home = getattr(value, "__module__", "")
        if home.startswith("repro."):  # a class or function, not a constant
            assert getattr(importlib.import_module(home), name) is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name
