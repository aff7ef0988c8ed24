"""Durability: write-ahead logging, checkpoints and crash recovery.

The paper's framework is append-only in transaction time (Section 2):
in-order updates only ever touch the newest slice and out-of-order
updates are buffered in ``G_d`` (Section 2.5).  Both arrive as small
deltas, which makes a *sequential* write-ahead log the natural
durability story -- every logical operation appends one record, the log
never seeks, and recovery replays a bounded tail on top of the latest
checkpoint:

* :mod:`repro.durability.wal` -- the segmented, CRC32-checksummed record
  log (binary codec with explicit versioning, configurable fsync policy,
  torn-tail detection), whose batch columns
  :mod:`repro.durability.bit_columns` stores at bit width;
* :mod:`repro.durability.checkpoint` -- incremental checkpoints through
  the :class:`~repro.ecube.stores.DenseStore` snapshot machinery, a
  manifest published by atomic rename, and segment compaction once a
  checkpoint covers them;
* :mod:`repro.durability.recovery` -- :class:`DurableCube`, the one
  logging front-end: it wraps any front of the stack (the dense kernel,
  buffered or not, tiered or not, or with ``extent=True`` the multi-family
  :class:`~repro.ecube.extent.ExtentCube` and its interval insert,
  interval batch and clock-advance records), plus
  ``DurableCube.recover``: latest checkpoint + tail replay of whichever
  kind the manifest records, and ``build_front``, which turns a manifest
  or shard-worker config into that front (``restore_front`` hands it a
  checkpoint archive).
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.durability.checkpoint": (
            "CheckpointManifest read_manifest write_checkpoint"
        ),
        "repro.durability.recovery": "DurableCube",
        "repro.durability.wal": (
            "AdvanceRecord CheckpointMarkerRecord DrainRecord IntervalBatchRecord "
            "IntervalInsertRecord OutOfOrderBatchRecord OutOfOrderRecord "
            "RetireRecord UpdateBatchRecord UpdateRecord WriteAheadLog"
        ),
    },
)
