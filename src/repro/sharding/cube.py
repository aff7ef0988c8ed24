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

Durability: pass ``durable_dir`` to give every shard its own WAL +
checkpoint directory (``shard-00/``, ``shard-01/``, ...) beside a
``sharding.json`` manifest; :meth:`ShardedCube.recover` rebuilds the
fleet shard by shard.  The shards report their time state in the
handshake; the retirement boundary, which only the router ever knew, is
a ``boundary_time`` key the manifest gains at the first ``retire_before``
that moves it, written before any shard retires.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from pathlib import Path

from repro.core.errors import (
    DomainError,
    ReproError,
    ShardUnavailableError,
    StorageError,
)
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
#: a wire op names, the singular conveniences and the durability calls
ROUTED = frozenset(BY_METHOD) | {"topk", "query_approx", "checkpoint", "log_info"}


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
        _recover: bool = False,
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
        tile_root = Path(tile_root) if tile_root is not None else None
        if tiers is not None and self.durable_dir is None and tile_root is None:
            raise DomainError(
                "tiered sharding needs somewhere for the tiles: pass "
                "durable_dir (tiles live beside each shard's WAL) or "
                "tile_root (non-durable shards)"
            )
        if self.durable_dir is not None and not _recover:
            self._create_manifest(num_times, fsync)
        configs = []
        for extent in partitioner.extents:
            config = {
                "shard_id": extent.shard_id,
                "slice_shape": extent.shape,
                "buffered": self.buffered,
                "num_times": num_times,
                "drain_threshold": drain_threshold,
                "fsync": fsync,
                "use_shm": self.processes,
                "recover": _recover,
                "tiers": tiers,
            }
            if self.durable_dir is not None:
                config["durable_dir"] = str(
                    self.durable_dir / f"shard-{extent.shard_id:02d}"
                )
            elif tiers is not None:
                config["tile_dir"] = str(
                    tile_root / f"shard-{extent.shard_id:02d}" / "tiles"
                )
            configs.append(config)
        handles = []
        try:
            if not self.processes:
                for config in configs:
                    handles.append(InlineHandle(config["shard_id"], config))
            else:
                self._start_workers(configs, handles, float(timeout), start_method)
        except BaseException:
            # a fleet that does not start leaves no worker and no block
            for handle in handles:
                handle.close()
            for prefix in self._sweep_prefixes:
                unlink_by_prefix(prefix)
            raise
        self.router = ShardRouter(partitioner, handles, buffered=self.buffered)
        self.router.num_times = num_times
        if self.durable_dir is not None:
            self.router.on_boundary = self._record_boundary

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

    def _write_manifest(self, manifest: dict) -> None:
        """Replace ``sharding.json`` atomically."""
        path = self.durable_dir / MANIFEST_NAME
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(manifest, indent=2))
        os.replace(scratch, path)

    def _create_manifest(self, num_times, fsync) -> None:
        self.durable_dir.mkdir(parents=True, exist_ok=True)
        if (self.durable_dir / MANIFEST_NAME).exists():
            raise StorageError(
                f"{self.durable_dir} already holds a sharded cube; open it "
                "with ShardedCube.recover"
            )
        self._write_manifest(
            {
                "partitioner": self.partitioner.to_config(),
                "slice_shape": list(self.slice_shape),
                "shards": self.partitioner.num_shards,
                "backend": "dense",  # a constant: the file's bytes stay as they were
                "buffered": self.buffered,
                "num_times": num_times,
                "fsync": fsync,
                "tiers": self.tiers,
            }
        )

    def _record_boundary(self, boundary: int) -> None:
        """Persist the router's retirement boundary (no shard knows it)."""
        manifest = json.loads((self.durable_dir / MANIFEST_NAME).read_text())
        self._write_manifest({**manifest, "boundary_time": boundary})

    @classmethod
    def recover(
        cls,
        durable_dir,
        *,
        processes: bool = False,
        timeout: float = 60.0,
        start_method: str | None = None,
    ) -> "ShardedCube":
        """Rebuild a sharded cube from its per-shard durable directories."""
        durable_dir = Path(durable_dir)
        path = durable_dir / MANIFEST_NAME
        if not path.exists():
            raise StorageError(f"{durable_dir} holds no sharded cube manifest")
        manifest = json.loads(path.read_text())
        require_dense(manifest.get("backend"), str(path))
        cube = cls(
            manifest["slice_shape"],
            partitioner=GridPartitioner.from_config(manifest["partitioner"]),
            processes=processes,
            buffered=manifest.get("buffered", True),
            num_times=manifest.get("num_times"),
            durable_dir=durable_dir,
            fsync=manifest.get("fsync", "batch"),
            tiers=manifest.get("tiers"),
            timeout=timeout,
            start_method=start_method,
            _recover=True,
        )
        # absent until a retire_before first moved it
        cube.router.boundary_time = manifest.get("boundary_time")
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
