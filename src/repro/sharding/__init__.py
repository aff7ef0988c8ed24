"""Sharded, process-parallel serving over shared-memory epochs.

Breaks the GIL ceiling of the thread-based serving tier: the cube is
partitioned along its non-TT dimensions (:mod:`repro.sharding.partition`),
each shard runs in its own worker process, and every published epoch
lives in named shared-memory blocks (:mod:`repro.sharding.shm`: one
finished prefix-sum row per historic instance, written once) that the
router -- the only reader -- attaches zero-copy.  The
prefix-difference query is additive over any disjoint partition of the
cell domain, so per-shard answers sum to the exact unsharded answer
(:mod:`repro.sharding.router`).

Public surface: :class:`ShardedCube` (the front),
:class:`ShardRouter` (decomposition / scatter-gather),
:class:`GridPartitioner` (the default partitioner) and the
:class:`ShardServer` TCP front (:mod:`repro.sharding.server`); the
operations they share are the rows of :mod:`repro.sharding.ops`.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.sharding.cube": "ShardedCube",
        "repro.sharding.partition": "GridPartitioner ShardExtent",
        "repro.sharding.router": "ShardRouter",
        "repro.sharding.server": "ShardClient ShardServer",
        "repro.sharding.shm": (
            "BlockCache EpochExporter epoch_from_shared_memory leaked_segments"
        ),
    },
)
