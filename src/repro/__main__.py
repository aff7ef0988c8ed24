"""CLI entry point: ``python -m repro``.

Offers a quick orientation (``info``), a 30-second self-demonstration
(``demo``), a pointer to the experiment harness, operational commands
for durable-cube directories (``checkpoint`` / ``recover`` /
``log-info`` / ``demote``) and the TCP server (``serve``).
"""

from __future__ import annotations

import argparse
import json
import sys

import repro


def _info() -> int:
    print(f"repro {repro.__version__}")
    print(
        "Reproduction of Riedewald, Agrawal & El Abbadi: 'Efficient "
        "Integration and Aggregation of Historical Information' (SIGMOD 2002)"
    )
    print()
    print("Key entry points:")
    print("  repro.EvolvingDataCube          the eCube (Section 3)")
    print("  repro.DiskEvolvingDataCube      external-memory variant (3.5)")
    print("  repro.BufferedEvolvingDataCube  with out-of-order G_d (2.5)")
    print("  repro.AppendOnlyAggregator      the general framework (2.3)")
    print("  repro.IntervalAggregator        objects with extent (2.4)")
    print("  repro.ExtentCube                TT-extent objects on the eCube")
    print("  repro.DurableCube               WAL + checkpoints + recovery")
    print("  repro.TieredCube / TierPolicy   tiered retention (rollups+tiles)")
    print("  repro.CubeView / Dimension      OLAP roll-up / data cube")
    print()
    print("Experiments: python -m repro.experiments [--list]")
    print("Durability:  python -m repro {checkpoint,recover,log-info,demote} DIR")
    print("Examples:    python examples/quickstart.py")
    return 0


def _demo() -> int:
    import numpy as np

    from repro import Box, CostCounter, EvolvingDataCube

    print("Building a 3-d append-only cube (48 days x 16 x 16) ...")
    counter = CostCounter()
    cube = EvolvingDataCube((16, 16), num_times=48, counter=counter)
    rng = np.random.default_rng(0)
    for day in range(48):
        for _ in range(20):
            cube.update(
                (day, int(rng.integers(0, 16)), int(rng.integers(0, 16))),
                int(rng.integers(1, 9)),
            )
    integration = counter.snapshot()
    print(
        f"  960 updates integrated: {integration.cell_accesses} cell "
        f"accesses ({integration.copy_cost} copy writes), "
        f"{cube.incomplete_historic_instances()} incomplete instances"
    )
    box = Box((10, 2, 2), (40, 13, 13))
    counter.reset()
    first = cube.query(box)
    cost_first = counter.cell_reads
    counter.reset()
    assert cube.query(box) == first
    print(
        f"  range aggregate over 31 days: {first} "
        f"({cost_first} reads cold, {counter.cell_reads} after eCube "
        "conversion)"
    )
    print("Done.  See EXPERIMENTS.md for the full regenerated evaluation.")
    return 0


def _cmd_recover(directory: str) -> int:
    from repro.durability import DurableCube

    cube = DurableCube.recover(directory)
    try:
        info = dict(cube.recovery_info or {})
        if cube.extent:
            # TT-extent cube: report the extent layer's bookkeeping
            front = cube.stack["extent"]
            info["extent"] = True
            info["occurring_times"] = len(front.occurring_times())
            info["objects_inserted"] = front.objects_inserted
            info["pending_ends"] = front.pending_ends
            info["buffered_updates"] = front.buffered_updates
            info["clock"] = front.clock
        else:
            kernel = cube.cube
            info["occurring_times"] = kernel.num_slices
            info["updates_applied"] = kernel.updates_applied
            info["retired_instances"] = kernel.retired_instances
            info["total"] = cube.total()
        print(json.dumps(info, indent=2))
    finally:
        cube.close()
    return 0


def _cmd_checkpoint(directory: str) -> int:
    from repro.durability import DurableCube

    cube = DurableCube.recover(directory)
    try:
        manifest = cube.checkpoint()
        print(
            json.dumps(
                {
                    "checkpoint_id": manifest.checkpoint_id,
                    "covered_lsn": manifest.covered_lsn,
                    "checkpoint_file": manifest.checkpoint_file,
                    "live_segments": manifest.live_segments,
                    "replayed_records": (cube.recovery_info or {}).get(
                        "replayed_records"
                    ),
                },
                indent=2,
            )
        )
    finally:
        cube.close()
    return 0


def _sweep_leaked_shm() -> list[str]:
    """Unlink shared-memory segments orphaned by a crashed server.

    A SIGKILLed server never drops its epoch refcounts, so its segments
    survive in ``/dev/shm`` and would eventually exhaust it across
    restarts.  Every block carries its owner's pid in its name; startup
    sweeps the blocks whose owner is dead and spares those of a live
    one (another server on the host, an in-process ``ShardedCube``).
    """
    from repro.sharding.shm import unlink_orphaned

    return unlink_orphaned()


def _cmd_serve(args) -> int:
    """Serve a sharded cube over TCP: partition it into ``--shards``
    shards, all kept in this process (tiered or not), and answer
    length-prefixed JSON requests on ``--host``/``--port`` until SIGTERM
    drains the listener."""
    from pathlib import Path

    from repro.sharding import ShardServer, ShardedCube
    from repro.sharding.cube import MANIFEST_NAME

    swept = _sweep_leaked_shm()
    if swept:
        print(
            json.dumps({"swept_leaked_shm_segments": swept}),
            flush=True,
        )
    manifest = None
    if args.durable_dir is not None:
        path = Path(args.durable_dir) / MANIFEST_NAME
        if path.exists():
            manifest = json.loads(path.read_text())
    if manifest is not None:
        # a restart of the command that created the directory: shape,
        # shards and tiers come from its manifest
        cube = ShardedCube.recover(args.durable_dir)
    else:
        cube = ShardedCube(
            tuple(int(n) for n in args.shape.split(",")),
            shards=args.shards,
            num_times=args.num_times,
            durable_dir=args.durable_dir,
            tiers=json.loads(args.tiers) if args.tiers else None,
            tile_root=args.tile_root,
        )
    server = ShardServer(cube, host=args.host, port=args.port)
    try:
        server.listen()
        banner = {
            "listening": f"{server.host}:{server.port}",
            "shards": cube.partitioner.num_shards,
            "processes": cube.processes,
            "slice_shape": list(cube.slice_shape),
        }
        if manifest is not None:
            banner["recovered"] = True
        print(json.dumps(banner), flush=True)
        server.serve()
    except KeyboardInterrupt:
        pass
    finally:
        cube.close()
    return 0


def _checkpoint_demoted_through(directory, manifest) -> int | None:
    """The checkpointed demotion watermark of a tiered directory, if any."""
    import numpy as np

    from repro.storage.mmap_npz import open_checkpoint

    if manifest.checkpoint_file is None:
        return None
    archive_path = directory / manifest.checkpoint_file
    if not archive_path.exists():
        return None
    with open_checkpoint(archive_path) as archive:
        if "ret_meta" not in archive:
            return None
        value = int(np.asarray(archive["ret_meta"], dtype=np.int64)[0])
    return None if value == np.iinfo(np.int64).min else value


def _sharded(directory) -> bool:
    """Did ``serve --durable-dir`` write ``directory``?"""
    from pathlib import Path

    from repro.sharding.cube import MANIFEST_NAME

    return (Path(directory) / MANIFEST_NAME).exists()


def _log_info(directory) -> dict:
    """One durable cube's log and manifest, read-only."""
    from pathlib import Path

    from repro.durability.checkpoint import read_manifest
    from repro.durability.recovery import TILES_SUBDIR, WAL_SUBDIR
    from repro.durability.wal import inspect_log

    manifest = read_manifest(directory)
    info = inspect_log(Path(directory) / WAL_SUBDIR)
    if manifest is not None:
        info["checkpoint_id"] = manifest.checkpoint_id
        info["covered_lsn"] = manifest.covered_lsn
        info["checkpoint_file"] = manifest.checkpoint_file
        info["backend"] = manifest.config.get("backend")
        info["buffered"] = manifest.config.get("buffered")
        if manifest.config.get("extent"):
            info["extent"] = True
        if manifest.config.get("tiers") is not None:
            from repro.retention import TileStore

            tiles = TileStore(Path(directory) / TILES_SUBDIR)
            info["tiers"] = manifest.config["tiers"]
            info["tiles"] = {
                "count": len(tiles),
                "disk_bytes": tiles.disk_bytes(),
                "versions": tiles.versions(),
                "spans": [
                    [int(a), int(b)] for a, b in tiles.spans()
                ],
            }
            # the demotion watermark as of the last checkpoint; a tiered
            # directory that never demoted (or never checkpointed a
            # demote) reports None rather than erroring out
            info["demoted_through"] = _checkpoint_demoted_through(
                Path(directory), manifest
            )
    return info


def _cmd_log_info(directory: str) -> int:
    """The durable cube's log; a sharded cube's one log and its shards."""
    info = _log_info(directory)
    if _sharded(directory):
        from pathlib import Path

        from repro.sharding.cube import MANIFEST_NAME

        if "covered_lsn" not in info:
            print(
                f"{directory} keeps a log per shard (an older build's layout): "
                "open it once with `python -m repro serve --durable-dir` to "
                "rewrite it with one log",
                file=sys.stderr,
            )
            return 2
        sharding = json.loads((Path(directory) / MANIFEST_NAME).read_text())
        info.update({key: sharding.get(key) for key in ("backend", "buffered", "shards")})
    print(json.dumps(info, indent=2))
    return 0


def _cmd_demote(directory: str, before: int) -> int:
    """Recover a tiered durable cube and demote history below ``before``."""
    from repro.durability import DurableCube

    cube = DurableCube.recover(directory)
    try:
        demoted = cube.demote_before(before)
        cube.flush()
        front = cube.stack["tiered"]
        print(
            json.dumps(
                {
                    "demoted_slices": demoted,
                    "demoted_through": front.demoted_through,
                    "tiles": len(front.tiles),
                    "tile_disk_bytes": front.tiles.disk_bytes(),
                    "tier_slices": {
                        tier.spec.name: len(tier) for tier in front.tiers
                    },
                    "resident_slice_bytes": front.resident_slice_bytes(),
                },
                indent=2,
            )
        )
    finally:
        cube.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="orientation (default)")
    sub.add_parser("demo", help="30-second walk-through")
    for name, help_text in (
        ("checkpoint", "recover a durable cube, then checkpoint + compact it"),
        ("recover", "recover a durable cube and print a state summary"),
        ("log-info", "read-only summary of a durable cube's WAL + manifest"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("directory", help="durable cube directory")
    demote = sub.add_parser(
        "demote",
        help="demote a tiered durable cube's history below --before",
    )
    demote.add_argument("directory", help="durable cube directory")
    demote.add_argument(
        "--before",
        type=int,
        required=True,
        help="demote detail strictly older than this TT coordinate",
    )
    serve = sub.add_parser("serve", help="serve a sharded cube over TCP")
    serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shards the cell domain is partitioned into (default: 2)",
    )
    serve.add_argument(
        "--shape",
        default="16,16",
        help="comma-separated non-TT cell dimensions (default: 16,16)",
    )
    serve.add_argument(
        "--num-times", type=int, default=None, help="TT capacity hint"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (default: ephemeral)"
    )
    serve.add_argument(
        "--durable-dir",
        default=None,
        help=(
            "keep the cube's one WAL, its checkpoints and the shards' tiles "
            "under this path; a directory that already holds a sharded cube "
            "is recovered (its manifest then decides shape, shards and tiers)"
        ),
    )
    serve.add_argument(
        "--tiers",
        default=None,
        help=(
            "JSON tier ladder for tiered retention, e.g. "
            '\'[{"name": "hour", "granularity": 4, "horizon": 16}]\'; '
            "enables the demote and query_approx wire ops"
        ),
    )
    serve.add_argument(
        "--tile-root",
        default=None,
        help="tile directory root for tiered non-durable shards",
    )
    args = parser.parse_args(argv)
    if args.command in ("checkpoint", "recover", "demote") and _sharded(
        args.directory
    ):
        parser.error(
            f"{args.directory} holds a sharded cube (sharding.json beside its "
            f"one log) and `{args.command}` works on one durable cube: reopen "
            "the sharded cube with `python -m repro serve --durable-dir`"
        )
    if args.command == "demo":
        return _demo()
    if args.command == "checkpoint":
        return _cmd_checkpoint(args.directory)
    if args.command == "recover":
        return _cmd_recover(args.directory)
    if args.command == "log-info":
        return _cmd_log_info(args.directory)
    if args.command == "demote":
        return _cmd_demote(args.directory, args.before)
    if args.command == "serve":
        return _cmd_serve(args)
    return _info()


if __name__ == "__main__":
    raise SystemExit(main())
