"""Reopen an existing durable directory (and optionally demote), then serve.

``python -m repro serve`` can do neither: it refuses a ``--durable-dir``
that already holds a cube, and the wire has no ``demote`` op.  This file
composes the public ``ShardedCube.recover`` / ``demote_before`` /
``ShardServer`` for those two steps only; every other server of the
benchmark is the CLI.  (README, finding 1.)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

from repro.sharding import ShardedCube, ShardServer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--durable-dir", required=True)
    parser.add_argument(
        "--demote",
        default="",
        help="comma-separated horizons, one demote_before call each",
    )
    args = parser.parse_args()
    start = time.perf_counter()
    cube = ShardedCube.recover(args.durable_dir)
    recovered = time.perf_counter()
    demoted = [
        cube.demote_before(int(horizon))
        for horizon in args.demote.split(",")
        if horizon
    ]
    server = ShardServer(cube)

    async def run() -> None:
        await server.start()
        print(
            json.dumps(
                {
                    "listening": f"{server.host}:{server.port}",
                    "recover_s": recovered - start,
                    "demote_s": time.perf_counter() - recovered,
                    "demoted_slices": demoted,
                    "demoted_through": cube.router.demote_boundary,
                }
            ),
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        cube.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
