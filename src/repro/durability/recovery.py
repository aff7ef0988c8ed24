"""``DurableCube``: the logging front-end, and crash recovery.

``DurableCube`` wraps any front of the stack -- the dense kernel, with
or without the ``G_d`` out-of-order buffer, with or without retention
tiers, or the two-family
:class:`~repro.ecube.extent.ExtentCube` of Section 2.4 -- and appends
one WAL record *before* applying each mutation (log-before-apply).
Reads pass straight through; what the built stack
(:func:`repro.core.front.layers`) lacks, mutation or read, is refused
before anything is logged.  Because the wrapped classes are
deterministic (and the extent cube's queries are pure), replaying the
surviving log prefix through the same entry points reproduces the
pre-crash state exactly: same answers, same directory, same lazy-copy
progress.

Recovery = latest checkpoint + tail replay:

1. read the manifest (atomic-rename published, so always consistent);
2. rebuild the configured front-end (:func:`build_front`) and, when a
   checkpoint archive exists, hand it to each layer's ``restore_state``,
   bottom-up;
3. open the log for append, which truncates a torn final record (and
   refuses a committed one this build cannot decode: every committed
   frame is checked, none decoded);
4. replay every record with LSN > the manifest's covered LSN, decoding
   each once, as it is applied.

A sharded cube's router runs the same steps over its one log and its
shards' archives (:mod:`repro.sharding.cube`).

Which mutations are logged, what each needs of the front and how each
is replayed is the record table, :data:`repro.durability.wal.RECORD_TYPES`:
the logged methods and :meth:`DurableCube._replay_record` are each
written once and read its rows.

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

from repro.core.errors import DomainError, RecoveryError, ReproError, StorageError
from repro.core.front import FRONT_KINDS, forward, layers, require, unmet
from repro.durability.checkpoint import (
    CheckpointManifest,
    manifest_path,
    publish_manifest,
    read_manifest,
    write_checkpoint,
)
from repro.durability.wal import (
    BY_CLASS,
    RECORD_TYPES,
    CheckpointMarkerRecord,
    WriteAheadLog,
    log_record,
)
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube
from repro.ecube.extent import ExtentCube
from repro.metrics import CostCounter
from repro.storage.mmap_npz import open_checkpoint
from repro.storage.serialize import require_dense

WAL_SUBDIR = "wal"
TILES_SUBDIR = "tiles"


def build_front(config: dict, counter: CostCounter | None, tile_dir=None):
    """Construct the (empty) front a manifest or shard-worker config names.

    Kernel first, then what rides on it: the ``G_d`` buffer, or the two
    buffered families of an :class:`~repro.ecube.extent.ExtentCube`
    under ``extent``; then the retention tiers, whose tiles live in
    ``tile_dir``.
    """
    slice_shape = tuple(int(n) for n in config["slice_shape"])
    kernel = {
        "num_times": config.get("num_times"),
        "counter": counter,
        "copy_budget": config.get("copy_budget"),
    }
    if config.get("extent"):
        front = ExtentCube(
            slice_shape, drain_threshold=config.get("drain_threshold"), **kernel
        )
    elif config.get("buffered", True):
        front = BufferedEvolvingDataCube(
            slice_shape, drain_threshold=config.get("drain_threshold"), **kernel
        )
    else:
        front = EvolvingDataCube(slice_shape, **kernel)
    if config.get("tiers") is not None:
        from repro.retention import TieredCube

        front = TieredCube(front, config["tiers"], tile_dir)
    return front


def restore_front(front, archive_path: Path) -> None:
    """Hand a checkpoint archive to each layer of ``front``'s stack,
    bottom-up.  Mmap-backed when the archive is uncompressed: slice
    arrays are adopted as read-only views and the front serves straight
    off the file (stores promote a slice to heap copies on first write)."""
    if not archive_path.exists():
        raise RecoveryError(f"manifest names missing checkpoint {archive_path.name}")
    with open_checkpoint(archive_path) as archive:
        for layer in reversed(layers(front).values()):
            layer.restore_state(archive)


def replay_log(wal: WriteAheadLog, manifest: CheckpointManifest, apply) -> dict:
    """``apply`` each record after ``manifest``'s covered LSN, in LSN
    order (``False``: skipped); what was replayed, a ``recovery_info``."""
    replayed = skipped = 0
    last_lsn = manifest.covered_lsn
    for last_lsn, record in wal.replay(after_lsn=manifest.covered_lsn):
        replayed += 1
        skipped += not apply(record)
    return {
        "checkpoint_id": manifest.checkpoint_id,
        "covered_lsn": manifest.covered_lsn,
        "replayed_records": replayed,
        "skipped_records": skipped,
        "last_lsn": last_lsn,
    }


def log_info(wal: WriteAheadLog, manifest: CheckpointManifest) -> dict:
    """A log's summary and the checkpoint it continues from."""
    return {
        **wal.log_info(),
        "checkpoint_id": manifest.checkpoint_id,
        "covered_lsn": manifest.covered_lsn,
        "checkpoint_file": manifest.checkpoint_file,
    }


def _tiers_config(tiers) -> list[dict] | None:
    """Normalize a tier policy (or its JSON form) for the manifest."""
    if tiers is None:
        return None
    from repro.retention import TierPolicy

    return TierPolicy.from_config(tiers).to_config()


def _logged(row):
    """The :class:`DurableCube` method that logs ``row``'s record:
    gate, normalise, one ``wal.append``, one front call."""
    phrase = FRONT_KINDS[row.needs][0]

    def method(self, *args, **kwargs):
        require(self.stack, row.needs, row.method, "durable cube")
        record = log_record(row, *args, **kwargs)
        if record is None:  # an empty batch
            return row.empty
        self.wal.append(record)
        return row.apply(self, record)

    method.__name__ = row.method
    method.__qualname__ = f"DurableCube.{row.method}"
    method.__doc__ = (
        f"Log one :class:`~repro.durability.wal.{row.cls.__name__}`, then "
        "apply it to the front"
        + (f" (refused unless this is {phrase} durable cube)." if phrase else ".")
    )
    return method


class DurableCube:
    """A cube front with write-ahead logging and checkpoints.

    The logged mutations are the rows of
    :data:`~repro.durability.wal.RECORD_TYPES`, each installed under its
    row's method name with the front's own signature: every cube takes
    ``retire_before``; point-object cubes take ``update`` /
    ``update_many``, unbuffered ones also ``apply_out_of_order`` /
    ``apply_out_of_order_many``, buffered ones (extent included)
    ``drain``, tiered ones ``demote_before``, and extent cubes
    ``insert`` / ``insert_many`` / ``advance``.  A mutation the
    configured front does not have raises
    :class:`~repro.core.errors.DomainError` before anything is logged.

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
        (Section 2.4: two buffered families, each on its own time axis) instead of
        a point-object cube; the manifest records it, so :meth:`recover`
        needs no hint.  Extent cubes are always buffered and never
        tiered.
    fsync:
        WAL fsync policy: ``"always"`` (fsync per record), ``"batch"``
        (group commit; at most ``group_commit`` trailing operations are
        lost on a crash, never corrupted), ``"off"`` (leave flushing to
        the OS).
    """

    #: the logging layer of a stack (:mod:`repro.core.front`)
    kind = "durable"
    inner = property(lambda self: self.front)

    def __init__(
        self,
        slice_shape: Sequence[int],
        directory,
        *,
        buffered: bool = True,
        extent: bool = False,
        num_times: int | None = None,
        counter: CostCounter | None = None,
        copy_budget: int | None = None,
        drain_threshold: float | None = None,
        fsync: str = "batch",
        segment_bytes: int = 4 << 20,
        group_commit: int = 256,
        tiers=None,
    ) -> None:
        directory = Path(directory)
        if read_manifest(directory) is not None:
            raise StorageError(
                f"{directory} already holds a durable cube; open it "
                "with DurableCube.recover"
            )
        # "backend" / "page_size" / "cell_size" (and the global-order key
        # below) are constants, kept so the manifest's bytes (and every
        # older reader of them) stay as they were; recovery reads none
        config = {
            "slice_shape": [int(n) for n in slice_shape],
            "backend": "dense",
            "num_times": num_times,
            "copy_budget": copy_budget,
            "drain_threshold": drain_threshold,
            "page_size": None,
            "cell_size": None,
            "fsync": fsync,
            "segment_bytes": int(segment_bytes),
            "group_commit": int(group_commit),
        }
        if extent:
            if not buffered or tiers is not None:
                raise DomainError(
                    "an extent cube is always buffered and takes no "
                    "retention tiers"
                )
            config["extent"] = True
        else:
            config["buffered"] = bool(buffered)
            config["global_order_buffer"] = False
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
        self.front = build_front(config, counter, directory / TILES_SUBDIR)
        #: the layers under the log, as built (not as the config put it)
        self.stack = layers(self.front)
        #: the front holds TT-extent objects (an ``ExtentCube``)
        self.extent = "extent" in self.stack
        self.buffered = self.extent or "buffered" in self.stack
        self.tiered = "tiered" in self.stack
        #: the wrapped kernel under any tiered / ``G_d`` layers; an
        #: extent cube has two (``front.ended.cube``,
        #: ``front.containing.cube``) and this is the extent cube itself
        self.cube = next(reversed(self.stack.values()))

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
    def counter(self) -> CostCounter:
        return self.cube.counter

    @property
    def ndim(self) -> int:
        return self.cube.ndim

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 = empty log)."""
        return self.wal.next_lsn - 1

    def log_info(self) -> dict:
        return log_info(self.wal, self._manifest)

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
            for kernel in self.cube.kernels:
                if kernel.snapshot_front is not None:
                    pins.append(kernel.snapshot_front.pin())
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
            f"DurableCube({str(self.directory)!r}, extent={self.extent}, "
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
        require_dense(manifest.config.get("backend"), str(manifest_path(directory)))
        self = cls.__new__(cls)
        self._attach(directory, manifest.config, counter)
        if manifest.checkpoint_file is not None:
            restore_front(self.front, directory / manifest.checkpoint_file)
        # opening for append repairs a torn tail before replay reads it
        self.wal = self._open_wal(fsync)
        self._manifest = manifest
        try:
            self.recovery_info = replay_log(self.wal, manifest, self._replay_record)
        except BaseException:
            self.wal.close()  # no usable cube is left to close it
            raise
        return self

    def _replay_record(self, record) -> bool:
        """Apply one tail record; ``False`` = skipped.

        Skipped is what the original call did too: it raised (the record
        was logged first), or -- in a log this class did not write --
        the front lacks the capability.  A record of the other object
        kind cannot have been logged here at all.
        """
        row = BY_CLASS[type(record)]
        lacking = unmet(self.stack, row.needs)
        if "extent" in lacking or row.replay is None:
            raise RecoveryError(
                f"cannot replay {type(record).__name__} into "
                f"{'an extent' if self.extent else 'a point-object'} cube"
            )
        if lacking:
            return False
        try:
            return row.replay(self, record) is not False
        except ReproError:
            return False


# the logged mutations: gate -> normalise -> one append -> one front call
for _row in RECORD_TYPES:
    if _row.method is not None:
        setattr(DurableCube, _row.method, _logged(_row))
# the reads pass straight through, each to the kind of front that has it
for _needs, _reads in {
    "point": "query query_many total",
    "extent": "intersecting intersecting_many alive_at containment containment_many",
}.items():
    forward(DurableCube, dict.fromkeys(_reads.split(), _needs), "front", "durable cube")
