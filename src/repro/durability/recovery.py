"""``DurableCube``: the logging front-end, and crash recovery.

``DurableCube`` wraps any front of the stack -- a dense, paged or sparse
kernel, with or without the ``G_d`` out-of-order buffer, with or without
retention tiers, or the two-family
:class:`~repro.ecube.extent.ExtentCube` of Section 2.4 -- and appends
one WAL record *before* applying each mutation (log-before-apply).
Queries pass straight through.  Because the wrapped classes are
deterministic (and the extent cube's queries are pure), replaying the
surviving log prefix through the same entry points reproduces the
pre-crash state exactly: same answers, same directory, same lazy-copy
progress.

Recovery = latest checkpoint + tail replay:

1. read the manifest (atomic-rename published, so always consistent);
2. rebuild the configured front-end (:func:`build_front`) and, when a
   checkpoint archive exists, restore its state from it;
3. open the log for append, which truncates a torn final record;
4. replay every record with LSN > the manifest's covered LSN.

Replay guards: a record whose application failed originally (an
append-order violation surfaced to the caller, a correction into the
data-aging retired region) fails identically during replay and is
*skipped*, not fatal -- in particular, out-of-order records addressed to
since-retired times go through
:meth:`~repro.ecube.kernel.CubeKernel.replay_out_of_order` so they can
never resurrect retired slices.  A record the directory's front kind
never logs (an interval insert in a point-object directory, or the
reverse) is a :class:`~repro.core.errors.RecoveryError`.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.errors import DomainError, RecoveryError, ReproError, StorageError
from repro.core.types import Box
from repro.durability.checkpoint import (
    CheckpointManifest,
    publish_manifest,
    read_manifest,
    write_checkpoint,
)
from repro.durability.wal import (
    AdvanceRecord,
    CheckpointMarkerRecord,
    DemoteRecord,
    DrainRecord,
    IntervalBatchRecord,
    IntervalInsertRecord,
    OutOfOrderBatchRecord,
    OutOfOrderRecord,
    RetireRecord,
    UpdateBatchRecord,
    UpdateRecord,
    WriteAheadLog,
    _MODE_CODES,
)
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.extent import ExtentCube, _as_interval
from repro.ecube.factory import build_kernel
from repro.metrics import CostCounter
from repro.storage.mmap_npz import open_checkpoint

WAL_SUBDIR = "wal"
TILES_SUBDIR = "tiles"


def build_front(config: dict, counter: CostCounter | None, tile_dir=None):
    """Construct the (empty) front a manifest or shard-worker config names.

    Kernel first, then what rides on it: the ``G_d`` buffer (the shard
    variant under ``global_order_buffer``), or the two buffered families
    of an :class:`~repro.ecube.extent.ExtentCube` under ``extent``; then
    the retention tiers, whose tiles live in ``tile_dir``.
    """
    slice_shape = tuple(int(n) for n in config["slice_shape"])
    kernel = {
        "backend": config.get("backend", "dense"),
        "num_times": config.get("num_times"),
        "counter": counter,
        "copy_budget": config.get("copy_budget"),
        "page_size": config.get("page_size"),
        "cell_size": config.get("cell_size"),
    }
    if config.get("extent"):
        front = ExtentCube(
            slice_shape, drain_threshold=config.get("drain_threshold"), **kernel
        )
    elif config.get("buffered", True):
        cube_cls = BufferedEvolvingDataCube
        if config.get("global_order_buffer"):
            # shard workers obey the router's *global* append-order
            # classification (lazy import: sharding sits above durability)
            from repro.sharding.buffered import ShardBufferedCube

            cube_cls = ShardBufferedCube
        front = cube_cls(
            slice_shape, drain_threshold=config.get("drain_threshold"), **kernel
        )
    else:
        front = build_kernel(slice_shape, **kernel)
    if config.get("tiers") is not None:
        from repro.retention import TieredCube

        front = TieredCube(front, config["tiers"], tile_dir)
    return front


def _tiers_config(tiers) -> list[dict] | None:
    """Normalize a tier policy (or its JSON form) for the manifest."""
    if tiers is None:
        return None
    from repro.retention import TierPolicy

    return TierPolicy.from_config(tiers).to_config()


def _unavailable(op: str, needs: str) -> DomainError:
    return DomainError(f"{op}() requires {needs} durable cube")


def _check_mode(mode) -> None:
    """Refuse a batch mode the log cannot encode, before logging."""
    if mode not in _MODE_CODES:
        raise DomainError(f"unknown execution mode {mode!r}")


def check_drain_limit(limit) -> None:
    """``drain(limit)`` takes ``None`` or a non-negative integer."""
    if limit is not None and not (
        isinstance(limit, (int, np.integer)) and limit >= 0
    ):
        raise DomainError(
            f"drain limit must be None or a non-negative integer, got {limit!r}"
        )


def _replay_out_of_order_batch(durable, record) -> None:
    # mirror apply_out_of_order_many's schedule (newest time first,
    # stable) *and* its failure behaviour: the original loop stopped at
    # the first raising correction, leaving the earlier ones applied.
    # The aged-out case in particular must not resurrect retired detail
    # during replay.
    kernel = durable.cube
    for i in np.argsort(record.points[:, 0], kind="stable")[::-1]:
        point = tuple(int(c) for c in record.points[i])
        kernel.apply_out_of_order(point, int(record.deltas[i]))


# Replay calls, ``(durable, record) -> result``.  A call that returns
# ``False`` or raises a :class:`ReproError` skipped its record, as the
# original call did; a record type missing from the directory's table is
# one its front kind never logs.
_REPLAY_EITHER = {
    RetireRecord: lambda d, r: d.front.retire_before(r.time),
    DrainRecord: lambda d, r: d.buffered and d.front.drain(r.limit),
    CheckpointMarkerRecord: lambda d, r: True,
}
#: ``DurableCube.extent`` -> record type -> replay call
_REPLAY = {
    False: {
        **_REPLAY_EITHER,
        UpdateRecord: lambda d, r: d.front.update(r.point, r.delta),
        UpdateBatchRecord: lambda d, r: d.front.update_many(
            r.points, r.deltas, mode=r.mode
        ),
        OutOfOrderRecord: lambda d, r: d.cube.replay_out_of_order(r.point, r.delta),
        OutOfOrderBatchRecord: _replay_out_of_order_batch,
        DemoteRecord: lambda d, r: d.tiered and d.front.demote_before(r.time),
    },
    True: {
        **_REPLAY_EITHER,
        IntervalInsertRecord: lambda d, r: d.front.insert(
            (r.start, r.end), r.cell, r.value
        ),
        IntervalBatchRecord: lambda d, r: d.front.insert_many(
            r.intervals, r.cells, r.values, mode=r.mode
        ),
        AdvanceRecord: lambda d, r: d.front.advance(r.time),
    },
}


class DurableCube:
    """A cube front with write-ahead logging and checkpoints.

    Every cube takes :meth:`retire_before`; point-object cubes take
    :meth:`update` / :meth:`update_many`, unbuffered ones also
    :meth:`apply_out_of_order` / :meth:`apply_out_of_order_many`, buffered
    ones (extent included) :meth:`drain`, tiered ones
    :meth:`demote_before`, and extent cubes :meth:`insert` /
    :meth:`insert_many` / :meth:`advance`.  A mutation the configured
    front does not have raises :class:`~repro.core.errors.DomainError`
    before anything is logged.

    Parameters
    ----------
    slice_shape:
        Domain sizes of the non-time dimensions.
    directory:
        Where the log, checkpoints and manifest live; created if
        missing.  A directory that already holds a durable cube must be
        opened with :meth:`recover` instead.
    buffered:
        ``True`` (default) wraps the kernel in
        :class:`~repro.ecube.buffered.BufferedEvolvingDataCube`, so
        out-of-order updates flow through :meth:`update`/:meth:`update_many`
        and :meth:`drain`; ``False`` exposes the raw append-only cube
        plus :meth:`apply_out_of_order`.
    extent:
        ``True`` logs an :class:`~repro.ecube.extent.ExtentCube`
        (Section 2.4: two buffered families on one time axis) instead of
        a point-object cube; the manifest records it, so :meth:`recover`
        needs no hint.  Extent cubes are always buffered and never
        tiered.
    backend:
        ``"dense"`` | ``"paged"`` (``"disk"``) | ``"sparse"`` slice storage.
    fsync:
        WAL fsync policy: ``"always"`` (fsync per record), ``"batch"``
        (group commit; at most ``group_commit`` trailing operations are
        lost on a crash, never corrupted), ``"off"`` (leave flushing to
        the OS).
    """

    def __init__(
        self,
        slice_shape: Sequence[int],
        directory,
        *,
        buffered: bool = True,
        extent: bool = False,
        backend: str = "dense",
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        drain_threshold: float | None = None,
        page_size: int | None = None,
        cell_size: int | None = None,
        fsync: str = "batch",
        segment_bytes: int = 4 << 20,
        group_commit: int = 256,
        global_order_buffer: bool = False,
        tiers=None,
    ) -> None:
        directory = Path(directory)
        if read_manifest(directory) is not None:
            raise StorageError(
                f"{directory} already holds a durable cube; open it "
                "with DurableCube.recover"
            )
        config = {
            "slice_shape": [int(n) for n in slice_shape],
            "backend": backend,
            "num_times": num_times,
            "copy_budget": copy_budget,
            "drain_threshold": drain_threshold,
            "page_size": page_size,
            "cell_size": cell_size,
            "fsync": fsync,
            "segment_bytes": int(segment_bytes),
            "group_commit": int(group_commit),
        }
        if extent:
            if not buffered or global_order_buffer or tiers is not None:
                raise DomainError(
                    "an extent cube is always buffered and takes neither "
                    "a global-order buffer nor retention tiers"
                )
            config["extent"] = True
        else:
            config["buffered"] = bool(buffered)
            config["global_order_buffer"] = bool(global_order_buffer)
            config["tiers"] = _tiers_config(tiers)
        directory.mkdir(parents=True, exist_ok=True)
        self._attach(directory, config, counter)
        self.wal = self._open_wal(fsync)
        self._manifest = CheckpointManifest(
            checkpoint_id=0,
            covered_lsn=0,
            checkpoint_file=None,
            live_segments=self.wal.segments(),
            config=config,
        )
        publish_manifest(directory, self._manifest)
        self.recovery_info: dict | None = None

    def _attach(self, directory: Path, config: dict, counter) -> None:
        """Bind to ``directory`` and build the front ``config`` names."""
        self.directory = directory
        self._config = config
        #: the front holds TT-extent objects (an ``ExtentCube``)
        self.extent = bool(config.get("extent"))
        self.buffered = bool(config.get("buffered", True))
        self.tiered = config.get("tiers") is not None
        self.front = build_front(config, counter, directory / TILES_SUBDIR)

    def _open_wal(self, fsync: str | None) -> WriteAheadLog:
        config = self._config
        return WriteAheadLog(
            self.directory / WAL_SUBDIR,
            fsync=fsync if fsync is not None else config.get("fsync", "batch"),
            segment_bytes=int(config.get("segment_bytes", 4 << 20)),
            group_commit=int(config.get("group_commit", 256)),
        )

    # -- introspection -----------------------------------------------------------

    @property
    def cube(self):
        """The wrapped kernel (unwraps tiered/``G_d`` fronts if present).

        An extent cube has two -- ``front.ended.cube`` and
        ``front.containing.cube`` -- and this is the extent cube itself.
        """
        return getattr(self.front, "cube", self.front)

    def _kernels(self) -> tuple:
        if self.extent:
            return (self.front.ended.cube, self.front.containing.cube)
        return (self.cube,)

    @property
    def counter(self) -> CostCounter:
        return self.front.counter

    @property
    def ndim(self) -> int:
        return self.front.ndim

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 = empty log)."""
        return self.wal.next_lsn - 1

    def log_info(self) -> dict:
        info = self.wal.log_info()
        info["checkpoint_id"] = self._manifest.checkpoint_id
        info["covered_lsn"] = self._manifest.covered_lsn
        info["checkpoint_file"] = self._manifest.checkpoint_file
        return info

    # -- logged mutations ---------------------------------------------------------

    def update(self, point: Sequence[int], delta: int) -> None:
        """Log, then apply one update (in-order, or buffered if late)."""
        if self.extent:
            raise _unavailable("update", "a point-object")
        point = tuple(int(c) for c in point)
        self.wal.append(UpdateRecord(point, int(delta)))
        self.front.update(point, int(delta))

    def update_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
        mode: str = "fast",
    ) -> None:
        """Log the whole batch as one record, then apply it."""
        if self.extent:
            raise _unavailable("update_many", "a point-object")
        _check_mode(mode)
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.shape[0] == 0:
            return
        self.wal.append(UpdateBatchRecord(points, deltas, mode))
        self.front.update_many(points, deltas, mode=mode)

    def apply_out_of_order(self, point: Sequence[int], delta: int) -> None:
        """Log, then cascade one historic correction (unbuffered cubes).

        Buffered cubes take historic updates through :meth:`update` /
        :meth:`update_many`; this is the unbuffered escape hatch.
        """
        if self.buffered:
            raise _unavailable(
                "apply_out_of_order", "an unbuffered point-object"
            )
        point = tuple(int(c) for c in point)
        self.wal.append(OutOfOrderRecord(point, int(delta)))
        self.front.apply_out_of_order(point, int(delta))

    def apply_out_of_order_many(
        self,
        points: Sequence[Sequence[int]] | np.ndarray,
        deltas: Sequence[int] | np.ndarray,
    ) -> int:
        if self.buffered:
            raise _unavailable(
                "apply_out_of_order_many", "an unbuffered point-object"
            )
        points = np.asarray(points, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if points.shape[0] == 0:
            return 0
        self.wal.append(OutOfOrderBatchRecord(points, deltas))
        return self.front.apply_out_of_order_many(points, deltas)

    def retire_before(self, time: int) -> int:
        """Log, then retire detail slices older than ``time``."""
        self.wal.append(RetireRecord(int(time)))
        return self.front.retire_before(int(time))

    def demote_before(self, time: int) -> int:
        """Log, then demote detail older than ``time`` into the tiers.

        Only one record is logged: demotion is deterministic against the
        cube state it runs on (the implied pre-demote drain included),
        so replaying it after a crash rewrites byte-identical tiles and
        rebuilds the same rollup slices.
        """
        if not self.tiered:
            raise _unavailable("demote_before", "a tiered (tiers=...)")
        self.wal.append(DemoteRecord(int(time)))
        return self.front.demote_before(int(time))

    def drain(self, limit: int | None = None) -> tuple[int, int]:
        """Log, then drain the ``G_d`` buffer (both, on an extent cube)."""
        if not self.buffered:
            raise _unavailable("drain", "a buffered")
        check_drain_limit(limit)
        self.wal.append(DrainRecord(limit))
        return self.front.drain(limit)

    def insert(self, interval, cell: Sequence[int], value: int = 1) -> None:
        """Log, then insert one interval object (extent cubes)."""
        if not self.extent:
            raise _unavailable("insert", "a TT-extent (extent=True)")
        interval = _as_interval(interval)
        cell = tuple(int(c) for c in cell)
        self.wal.append(
            IntervalInsertRecord(interval.start, interval.end, cell, int(value))
        )
        self.front.insert(interval, cell, int(value))

    def insert_many(
        self,
        intervals: Sequence[Sequence[int]] | np.ndarray,
        cells: Sequence[Sequence[int]] | np.ndarray,
        values: Sequence[int] | np.ndarray | None = None,
        mode: str = "fast",
    ) -> None:
        """Log the whole interval batch as one record, then apply it."""
        if not self.extent:
            raise _unavailable("insert_many", "a TT-extent (extent=True)")
        _check_mode(mode)
        intervals = np.asarray(intervals, dtype=np.int64)
        cells = np.asarray(cells, dtype=np.int64)
        if intervals.shape[0] == 0:
            return
        if values is None:
            values = np.ones(intervals.shape[0], dtype=np.int64)
        else:
            values = np.asarray(values, dtype=np.int64)
        self.wal.append(IntervalBatchRecord(intervals, cells, values, mode))
        self.front.insert_many(intervals, cells, values, mode=mode)

    def advance(self, time: int) -> int:
        """Log, then move the logical clock (flushing due interval ends)."""
        if not self.extent:
            raise _unavailable("advance", "a TT-extent (extent=True)")
        self.wal.append(AdvanceRecord(int(time)))
        return self.front.advance(int(time))

    # -- pass-through queries -----------------------------------------------------

    def query(self, box: Box) -> int:
        return self.front.query(box)

    def query_many(self, boxes: Sequence[Box], mode: str = "fast") -> list[int]:
        return self.front.query_many(boxes, mode=mode)

    def total(self) -> int:
        return self.front.total()

    def intersecting(
        self, query, cell_box: Box | None = None, mode: str = "fast"
    ) -> int:
        return self.front.intersecting(query, cell_box, mode=mode)

    def intersecting_many(
        self, queries, cell_boxes=None, mode: str = "fast"
    ) -> list[int]:
        return self.front.intersecting_many(queries, cell_boxes, mode=mode)

    def alive_at(
        self, time: int, cell_box: Box | None = None, mode: str = "fast"
    ) -> int:
        return self.front.alive_at(time, cell_box, mode=mode)

    def containment(self, query, cell_box: Box | None = None) -> int:
        return self.front.containment(query, cell_box)

    def containment_many(self, queries, cell_boxes=None) -> list[int]:
        return self.front.containment_many(queries, cell_boxes)

    # -- checkpoints --------------------------------------------------------------

    def checkpoint(self) -> CheckpointManifest:
        """Snapshot current state, publish it, and truncate covered log.

        The checkpoint-marker record pins the log position the snapshot
        corresponds to; the segment is rolled so everything up to the
        marker becomes droppable.  When the cube is being served
        concurrently (a snapshot front from :meth:`serve` is attached),
        the current epoch of every kernel under the front -- one for a
        point cube, two for an extent cube -- is pinned for the duration
        of the archive write, which keeps the slices readers of those
        epochs answer from from being rewritten underneath the
        serializer.  A point cube records its pinned epoch's sequence in
        the manifest as ``covered_epoch``.  Returns the published
        manifest.
        """
        checkpoint_id = self._manifest.checkpoint_id + 1
        covered_lsn = self.wal.append(CheckpointMarkerRecord(checkpoint_id))
        self.wal.commit()
        self.wal.roll_segment()
        pins = []
        try:
            for kernel in self._kernels():
                if kernel._epoch_sink is not None:
                    pins.append(kernel._epoch_sink.pin())
            self._manifest = write_checkpoint(
                self.directory,
                self.front,
                covered_lsn=covered_lsn,
                checkpoint_id=checkpoint_id,
                config=self._config,
                wal=self.wal,
                covered_epoch=(
                    pins[0].sequence if pins and not self.extent else None
                ),
            )
        finally:
            for pinned in pins:
                pinned.release()
        return self._manifest

    def serve(self):
        """Attach a snapshot-isolation front for concurrent readers.

        Returns a :class:`~repro.concurrent.snapshot.SnapshotCube` (a
        :class:`~repro.concurrent.extent.SnapshotExtentCube` for an
        extent cube) over this durable cube: route writes through it
        (one writer thread, each one logged *then* applied and published
        as an epoch) and pin epochs for lock-free reads from any thread.
        """
        if self.extent:
            from repro.concurrent.extent import SnapshotExtentCube

            return SnapshotExtentCube(self)
        from repro.concurrent.snapshot import SnapshotCube

        return SnapshotCube(self)

    def flush(self) -> None:
        """Force the log durable now (mostly useful with ``fsync="batch"``)."""
        self.wal.commit()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableCube":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableCube({str(self.directory)!r}, "
            f"backend={self._config['backend']!r}, extent={self.extent}, "
            f"buffered={self.buffered}, next_lsn={self.wal.next_lsn})"
        )

    # -- recovery -----------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory,
        counter: CostCounter | None = None,
        fsync: str | None = None,
    ) -> "DurableCube":
        """Rebuild the durable cube living in ``directory``.

        Opens whichever front the manifest records (point-object or
        extent).  Latest checkpoint plus tail replay; a torn final log
        record is truncated, records that failed originally are skipped
        (see module docstring).  ``fsync`` overrides the logged policy
        for the reopened log (e.g. recover with ``"always"`` a log
        written with ``"batch"``).  The result continues logging where
        the survivor left off; :attr:`recovery_info` reports what
        happened.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        if manifest is None:
            raise RecoveryError(
                f"{directory} holds no durable cube (missing manifest)"
            )
        self = cls.__new__(cls)
        self._attach(directory, manifest.config, counter)
        if manifest.checkpoint_file is not None:
            archive_path = directory / manifest.checkpoint_file
            if not archive_path.exists():
                raise RecoveryError(
                    f"manifest names missing checkpoint {manifest.checkpoint_file}"
                )
            # mmap-backed when the archive is uncompressed: slice arrays
            # are adopted as read-only views and the recovered cube
            # serves queries straight off the checkpoint file (stores
            # promote a slice to heap copies on first write)
            with open_checkpoint(archive_path) as archive:
                if self.extent:
                    self.front.restore_state(archive)
                else:
                    cube = self.cube
                    cube.copy_budget = int(archive["copy_budget"][0])
                    cube.restore_state(archive)
                    if self.buffered:
                        self.front.restore_buffer_state(archive)
                    if "ret_meta" in archive:
                        self.front.restore_retention_state(archive)
        # opening for append repairs a torn tail before replay reads it
        self.wal = self._open_wal(fsync)
        self._manifest = manifest
        replayed = skipped = 0
        last_lsn = manifest.covered_lsn
        for lsn, record in self.wal.replay(after_lsn=manifest.covered_lsn):
            replayed += 1
            last_lsn = lsn
            if not self._replay_record(record):
                skipped += 1
        self.recovery_info = {
            "checkpoint_id": manifest.checkpoint_id,
            "covered_lsn": manifest.covered_lsn,
            "replayed_records": replayed,
            "skipped_records": skipped,
            "last_lsn": last_lsn,
        }
        return self

    def _replay_record(self, record) -> bool:
        """Apply one tail record; ``False`` = skipped (failed originally)."""
        replay = _REPLAY[self.extent].get(type(record))
        if replay is None:
            raise RecoveryError(
                f"cannot replay {type(record).__name__} into "
                f"{'an extent' if self.extent else 'a point-object'} cube"
            )
        try:
            return replay(self, record) is not False
        except ReproError:
            return False
