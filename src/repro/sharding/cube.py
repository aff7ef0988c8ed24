"""The sharded cube front (:class:`ShardedCube`).

Partitions the cell domain into rectangles (one shard each), keeps the
shards in this process or runs one worker process per shard, and
answers queries in this process, from the shards' published epochs
(a worker's attached zero-copy from shared memory).  The public surface
is the single-process fronts' -- the methods the rows of
:data:`repro.sharding.ops.OPS` name (``update_many``, ``drain``,
``retire_before``, ``query_many``, ``topk_many``, ``total``, ...) --
and answers are bit-identical to an
unsharded :class:`~repro.concurrent.snapshot.SnapshotCube` over the same
stream (see :mod:`repro.sharding.router` for the contracts).

Two execution modes:

* ``processes=False`` -- every shard lives in this process (no pipes,
  no shared memory, one interpreter).  The default, and what
  ``python -m repro serve`` runs for every cube, tiered or not: a shard
  answers a read into demoted history from its tiles, decoding only the
  slices the read's prefixes floor on, and ranks a top-k from two prefix
  slices, so no read needs a worker of its own.
* ``processes=True`` -- worker processes publish epochs into shared
  memory; this process attaches them and evaluates queries.  An explicit
  opt-in of the library; this module imports :mod:`multiprocessing`
  only when it starts such a fleet.

Durability: pass ``durable_dir`` and the router keeps one write-ahead
log for the whole cube (``wal/``), one record per mutation
(:mod:`repro.sharding.router`), beside ``sharding.json`` (the
configuration) and one checkpoint manifest.  ``shard-NN/`` holds a
shard's tiles and checkpoint archive, no log.  :meth:`ShardedCube.checkpoint`
archives every shard at one LSN; :meth:`ShardedCube.recover` restores
each shard's archive, then replays the log through the router's scatter.
A directory whose shards kept a WAL each (an older build's) is recovered
once that way and rewritten in this layout.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Sequence
from pathlib import Path

from repro.core.errors import (
    DomainError,
    ReproError,
    ShardUnavailableError,
    StorageError,
)
from repro.durability.checkpoint import (
    CheckpointManifest,
    publish_checkpoint,
    publish_manifest,
    read_manifest,
    write_archive,
)
from repro.durability.recovery import TILES_SUBDIR, WAL_SUBDIR, log_info, replay_log
from repro.durability.wal import CheckpointMarkerRecord, WriteAheadLog
from repro.storage.serialize import require_dense

from repro.sharding.ops import BY_METHOD
from repro.sharding.partition import GridPartitioner
from repro.sharding.router import (
    InlineHandle,
    ShardRouter,
    WorkerHandle,
)
from repro.sharding.shm import SHM_PREFIX, unlink_by_prefix
from repro.sharding.worker import worker_main

MANIFEST_NAME = "sharding.json"

#: what :class:`ShardedCube` hands to its router unchanged: every method
#: a wire op names and the singular conveniences
ROUTED = frozenset(BY_METHOD) | {"topk", "query_approx"}


def _context(start_method: str | None):
    import multiprocessing

    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardedCube:
    """A cube partitioned into shards, in this process or one worker
    process each over shared-memory epochs."""

    def __init__(
        self,
        slice_shape: Sequence[int],
        *,
        shards: int = 2,
        partitioner: GridPartitioner | None = None,
        processes: bool = False,
        buffered: bool = True,
        num_times: int | None = None,
        durable_dir=None,
        drain_threshold: float | None = None,
        fsync: str = "batch",
        timeout: float = 60.0,
        start_method: str | None = None,
        tiers=None,
        tile_root=None,
        _recover: CheckpointManifest | None = None,
    ) -> None:
        self.slice_shape = tuple(int(n) for n in slice_shape)
        if partitioner is None:
            partitioner = GridPartitioner.for_shards(self.slice_shape, shards)
        elif partitioner.slice_shape != self.slice_shape:
            raise DomainError(
                f"partitioner covers {partitioner.slice_shape}, cube is "
                f"{self.slice_shape}"
            )
        self.partitioner = partitioner
        self.processes = bool(processes)
        self.buffered = bool(buffered)
        self.durable_dir = Path(durable_dir) if durable_dir is not None else None
        self._closed = False
        self._sweep_prefixes: list[str] = []
        if tiers is not None:
            from repro.retention import TierPolicy

            tiers = TierPolicy.from_config(tiers).to_config()
        self.tiers = tiers
        root = self.durable_dir if self.durable_dir is not None else tile_root
        if tiers is not None and root is None:
            raise DomainError(
                "tiered sharding needs somewhere for the tiles: pass "
                "durable_dir (tiles live in each shard's directory) or "
                "tile_root (non-durable shards)"
            )
        if self.durable_dir is not None and _recover is None:
            self._create_manifest(num_times, fsync, drain_threshold)
        configs = []
        for extent in partitioner.extents:
            config = {
                "shard_id": extent.shard_id,
                "slice_shape": extent.shape,
                "buffered": self.buffered,
                "num_times": num_times,
                "drain_threshold": drain_threshold,
                "use_shm": self.processes,
                "tiers": tiers,
            }
            if tiers is not None:
                config["tile_dir"] = str(_shard_dir(root, extent.shard_id) / TILES_SUBDIR)
            if _recover is not None and _recover.checkpoint_file is not None:
                config["checkpoint"] = str(
                    _shard_dir(root, extent.shard_id) / _recover.checkpoint_file
                )
            configs.append(config)
        handles = []
        log = None
        try:
            if not self.processes:
                for config in configs:
                    handles.append(InlineHandle(config["shard_id"], config))
            else:
                self._start_workers(configs, handles, float(timeout), start_method)
            if self.durable_dir is not None:
                try:
                    log = WriteAheadLog(self.durable_dir / WAL_SUBDIR, fsync=fsync)
                except StorageError as exc:
                    raise StorageError(f"sharded cube failed to start: {exc}") from exc
        except BaseException:
            # a fleet that does not start leaves no worker and no block
            for handle in handles:
                handle.close()
            for prefix in self._sweep_prefixes:
                unlink_by_prefix(prefix)
            raise
        self.router = ShardRouter(
            partitioner, handles, buffered=self.buffered,
            tiered=tiers is not None, log=log,
        )  # fmt: skip
        self.router.num_times = num_times
        self._manifest = _recover
        if log is not None and _recover is None:
            self._manifest = CheckpointManifest(0, 0, None, log.segments())
            publish_manifest(self.durable_dir, self._manifest)

    #: what the last :meth:`recover` replayed (``None``: not recovered)
    recovery_info: dict | None = None

    def _start_workers(self, configs, handles: list, timeout, start_method) -> None:
        """Start one worker process per config into ``handles``, then take
        every handshake: each shard's first epoch and time state, or why it
        could not start."""
        ctx = _context(start_method)
        for config in configs:
            shard_id = config["shard_id"]
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=worker_main,
                args=(child, config),
                name=f"shard {shard_id} worker",
                daemon=True,
            )
            process.start()
            child.close()
            handles.append(WorkerHandle(shard_id, process, parent, timeout))
            self._sweep_prefixes.append(f"{SHM_PREFIX}-s{shard_id}-{process.pid}-")
        for handle in handles:
            try:
                handle.recv()
            except ShardUnavailableError as exc:
                raise StorageError(f"sharded cube failed to start: {exc}") from exc
            except ReproError as exc:
                raise StorageError(
                    f"sharded cube failed to start: shard {handle.shard_id}: {exc}"
                ) from exc

    # -- durability ------------------------------------------------------------

    def _create_manifest(self, num_times, fsync, drain_threshold) -> None:
        self.durable_dir.mkdir(parents=True, exist_ok=True)
        path = self.durable_dir / MANIFEST_NAME
        if path.exists():
            raise StorageError(
                f"{self.durable_dir} already holds a sharded cube; open it "
                "with ShardedCube.recover"
            )
        _write_json(path, {
            "partitioner": self.partitioner.to_config(),
            "slice_shape": list(self.slice_shape),
            "shards": self.partitioner.num_shards,
            "backend": "dense",  # a constant: the file's bytes stay as they were
            "buffered": self.buffered,
            "num_times": num_times,
            "fsync": fsync,
            "tiers": self.tiers,
            "drain_threshold": drain_threshold,
        })  # fmt: skip

    def _log(self, name: str) -> WriteAheadLog:
        if self.router.log is None:
            raise DomainError(f"{name} requires a durable sharded cube (durable_dir=...)")
        return self.router.log

    def checkpoint(self) -> CheckpointManifest:
        """Archive every shard at one LSN under one manifest, which also
        records the retirement boundary, and drop the log it covers."""
        log, router = self._log("checkpoint"), self.router
        router._writable(router.handles)  # a failed write is not archived
        checkpoint_id = self._manifest.checkpoint_id + 1
        covered_lsn = log.append(CheckpointMarkerRecord(checkpoint_id))
        log.roll_segment()
        folders = [_shard_dir(self.durable_dir, i) for i in range(len(router.handles))]
        names = router._scatter(
            router.handles, "checkpoint", [(str(f), checkpoint_id) for f in folders]
        )
        manifest = CheckpointManifest(
            checkpoint_id, covered_lsn, names[0],
            config={"boundary_time": router.boundary_time},
        )  # fmt: skip
        self._manifest = publish_checkpoint(self.durable_dir, manifest, log, folders)
        return self._manifest

    def log_info(self) -> dict:
        """The one log's summary and the checkpoint it continues from."""
        return log_info(self._log("log_info"), self._manifest)

    @classmethod
    def recover(
        cls,
        durable_dir,
        *,
        processes: bool = False,
        timeout: float = 60.0,
        start_method: str | None = None,
    ) -> "ShardedCube":
        """Rebuild a sharded cube: each shard from its checkpoint archive,
        then the log's tail replayed through the router, in one pass."""
        durable_dir = Path(durable_dir)
        path = durable_dir / MANIFEST_NAME
        if not path.exists():
            raise StorageError(f"{durable_dir} holds no sharded cube manifest")
        manifest = json.loads(path.read_text())
        require_dense(manifest.get("backend"), str(path))
        checkpoint = read_manifest(durable_dir)
        if checkpoint is None:
            checkpoint = _convert(durable_dir, manifest)
        cube = cls(
            manifest["slice_shape"],
            partitioner=GridPartitioner.from_config(manifest["partitioner"]),
            processes=processes,
            buffered=manifest.get("buffered", True),
            num_times=manifest.get("num_times"),
            durable_dir=durable_dir,
            drain_threshold=manifest.get("drain_threshold"),
            fsync=manifest.get("fsync", "batch"),
            tiers=manifest.get("tiers"),
            timeout=timeout,
            start_method=start_method,
            _recover=checkpoint,
        )
        router = cube.router
        router.boundary_time = checkpoint.config.get("boundary_time")
        try:
            cube.recovery_info = replay_log(router.log, checkpoint, router.replay)
        except ReproError as exc:
            cube.close()
            raise StorageError(f"sharded cube failed to start: {exc}") from exc
        return cube

    # -- cube API: the op table's methods, answered by the router ----------------

    @property
    def ndim(self) -> int:
        return 1 + len(self.slice_shape)

    def __getattr__(self, name: str):
        if name in ROUTED:
            return getattr(self.router, name)
        raise AttributeError(name)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut everything down and reclaim shared memory.

        Workers unlink their own blocks on a clean close; blocks orphaned
        by a crashed worker are swept here by name prefix, so no
        ``/dev/shm`` segment survives the cube.
        """
        if self._closed:
            return
        self._closed = True
        self.router.close()
        for prefix in self._sweep_prefixes:
            unlink_by_prefix(prefix)

    def __enter__(self) -> "ShardedCube":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "closed" if self._closed else f"processes={self.processes}"
        return (
            f"ShardedCube(shape={self.slice_shape}, "
            f"shards={self.partitioner.num_shards}, {mode})"
        )


def _write_json(path: Path, manifest: dict) -> None:
    """Replace ``path`` atomically."""
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(manifest, indent=2))
    os.replace(scratch, path)


def _shard_dir(root: Path, shard_id: int) -> Path:
    return Path(root) / f"shard-{shard_id:02d}"


def _convert(durable_dir: Path, manifest: dict) -> CheckpointManifest:
    """Rewrite a directory whose shards kept a WAL each: every shard is
    recovered as the durable cube it was and archived at one new
    checkpoint, whose manifest is the commit point; the shards' logs and
    manifests go after it.  ``sharding.json``'s ``boundary_time`` moves
    into that manifest, the shards' ``drain_threshold`` into
    ``sharding.json``."""
    from repro.durability.recovery import DurableCube

    folders = [_shard_dir(durable_dir, i) for i in range(manifest["shards"])]
    old = [read_manifest(folder) for folder in folders]
    if None in old:
        raise StorageError(f"{durable_dir} holds neither a log nor shard logs")
    checkpoint_id = 1 + max(shard.checkpoint_id for shard in old)
    manifest["drain_threshold"] = old[0].config.get("drain_threshold")
    _write_json(durable_dir / MANIFEST_NAME, manifest)
    for folder in folders:
        with DurableCube.recover(folder) as shard:
            name = write_archive(folder, shard.front, checkpoint_id)
    boundary = {"boundary_time": manifest.get("boundary_time")}
    checkpoint = CheckpointManifest(checkpoint_id, 0, name, config=boundary)
    publish_checkpoint(durable_dir, checkpoint, archive_dirs=folders)
    for folder in folders:
        (folder / "MANIFEST.json").unlink()
        shutil.rmtree(folder / WAL_SUBDIR)
    return checkpoint
