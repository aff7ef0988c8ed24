"""Writes the durable-directory fixtures next to this file.

``durable_point/`` is a buffered, tiered point cube and
``durable_extent/`` a TT-extent cube; each holds one checkpoint and a
log tail behind it.  The committed copies were written by commit e4e8b7e
(the last one with a second durable class for extent cubes), so
``tests/test_durability_checkpoint.py`` proves that directories from
before the two classes were merged still recover.  Their log segments
are WAL format version 1, which no later build writes: they are input,
never regenerated.  ``durable_point_v2/`` and ``durable_extent_v2/``
are the same two op lists as the first build that writes version 2
(packed batch columns) left them.  The tiles of ``durable_point/`` and
``durable_point_v2/`` are tile format version 1 (differenced along time
only), which no later build writes either; ``durable_point_v3/`` is the
point op list again, with WAL format 2 and tile format 2 (differenced
along every axis).  ``durable_point_v4/`` and ``durable_extent_v3/`` are
the two op lists in WAL format 3 (batch columns at bit width).  Every
extent directory up to ``durable_extent_v3/`` checkpoints the *aligned*
layout: both families on one shared time axis, so each holds an instance
for every time either one saw.  No later build writes it;
``durable_extent_v4/`` is the extent op list again, with each family's
checkpoint holding its own times only.  ``durable_point_v4/`` and
``durable_extent_v4/`` are what this build writes; every directory
before them is input, never regenerated.  The op lists below are what
the test replays into a live replica.

``sharded_converted/`` is a two-shard ``serve``-style directory whose
checkpoint holds, in each shard, a historic instance no array sweep can
finish: its kernel answered a counted ``query`` (converting cells whose
lazy copy had landed) and later appends advanced those cells' stamps past
it, so their DDC values are gone from slice and cache alike.  Commit
18508ee wrote it (:func:`write_converted`); no later build can, since a
served kernel's history is finished rows before anything converts a
cell.  It is input, never regenerated.

Regenerate the directories of the formats this build writes (only when
the on-disk format changes on purpose)::

    PYTHONPATH=src python tests/data/make_durable_fixtures.py
"""

from __future__ import annotations

import inspect
import shutil
from pathlib import Path

import numpy as np

from repro.durability import DurableCube

HERE = Path(__file__).resolve().parent
SHAPE = (4, 4)
TIERS = [
    {"name": "hour", "granularity": 4, "horizon": 16},
    {"name": "day", "granularity": 8, "horizon": None},
]


def _batch(times):
    times = np.asarray(times, dtype=np.int64)
    points = np.column_stack((times, times % 4, (times * 3) % 4))
    return points, (times % 5) + 1


#: ("checkpoint",) is applied to the durable cube only
POINT_OPS = (
    [("update", (t, t % 4, (t + 1) % 4), t + 1) for t in range(0, 12, 3)]
    + [
        ("update_many", *_batch([12, 13, 5, 14, 3, 14]), "fast"),  # two late
        ("drain", 1),
        ("demote", 8),
        ("update_many", *_batch([15, 16, 16]), "metered"),
        ("checkpoint",),
        ("update", (18, 1, 2), 7),
        ("update", (10, 3, 3), -2),  # late, above the demoted region
        ("update_many", *_batch([19, 4, 20, 22]), "fast"),  # late, below it
        ("demote", 14),
        ("drain", None),
        ("update", (23, 0, 0), 4),
        ("update", (17, 2, 1), 3),  # stays in G_d
    ]
)

EXTENT_OPS = (
    [
        ("insert", (t, t + 1 + t % 4), (t % 4, (t * 3) % 4), 1 + t % 3)
        for t in range(0, 9, 3)
    ]
    + [
        (
            "insert_many",
            np.array([[9, 30], [10, 10], [2, 4], [10, 13]], dtype=np.int64),  # one late
            np.array([[0, 1], [1, 1], [2, 3], [3, 0]], dtype=np.int64),
            np.array([2, 1, 3, 1], dtype=np.int64),
            "fast",
        ),
        ("advance", 12),
        ("drain", None),
        ("retire", 4),
        ("checkpoint",),
        ("insert", (13, 14), (1, 2), 5),
        ("insert", (7, 20), (3, 3), 2),  # late start
        (
            "insert_many",
            np.array([[15, 15], [16, 40]], dtype=np.int64),
            np.array([[0, 0], [2, 2]], dtype=np.int64),
            np.array([1, 4], dtype=np.int64),
            "metered",
        ),
        ("advance", 22),
        ("drain", 1),
    ]
)


def apply_op(front, op) -> None:
    kind, *args = op
    if kind == "update":
        front.update(*args)
    elif kind == "update_many":
        front.update_many(args[0], args[1], mode=args[2])
    elif kind == "insert":
        front.insert(*args)
    elif kind == "insert_many":
        front.insert_many(args[0], args[1], args[2], mode=args[3])
    elif kind == "advance":
        front.advance(*args)
    elif kind == "drain":
        front.drain(*args)
    elif kind == "retire":
        front.retire_before(*args)
    elif kind == "demote":
        front.demote_before(*args)
    elif kind == "checkpoint":
        front.checkpoint()
    else:  # pragma: no cover - typo in an op list
        raise AssertionError(kind)


def _extent_cube(directory):
    if "extent" in inspect.signature(DurableCube.__init__).parameters:
        return DurableCube(SHAPE, directory, extent=True, fsync="off")
    # commit e4e8b7e, which wrote the committed fixtures
    from repro.durability import extent as legacy

    return getattr(legacy, "Durable" "ExtentCube")(SHAPE, directory, fsync="off")


def _point_cube(directory):
    return DurableCube(SHAPE, directory, tiers=TIERS, fsync="off")


FIXTURES = {
    "durable_point": (_point_cube, POINT_OPS),
    "durable_extent": (_extent_cube, EXTENT_OPS),
    "durable_point_v2": (_point_cube, POINT_OPS),
    "durable_extent_v2": (_extent_cube, EXTENT_OPS),
    "durable_point_v3": (_point_cube, POINT_OPS),
    "durable_point_v4": (_point_cube, POINT_OPS),
    "durable_extent_v3": (_extent_cube, EXTENT_OPS),
    "durable_extent_v4": (_extent_cube, EXTENT_OPS),
}
#: per fixture, the WAL format version of its log segments, the tile
#: format version of its tiles (``None``: it has none) and the layout of
#: its checkpoint archive: ``"point"``, or for an extent cube
#: ``"aligned"`` (both families on one shared time axis) or
#: ``"families"`` (each family on its own times)
FORMATS = {
    "durable_point": (1, 1, "point"),
    "durable_extent": (1, None, "aligned"),
    "durable_point_v2": (2, 1, "point"),
    "durable_extent_v2": (2, None, "aligned"),
    "durable_point_v3": (2, 2, "point"),
    "durable_point_v4": (3, 2, "point"),
    "durable_extent_v3": (3, None, "aligned"),
    "durable_extent_v4": (3, None, "families"),
}
#: the checkpoint layouts this build writes
LAYOUTS = ("point", "families")
#: log segments in WAL format version 1, the oldest this build reads
FROZEN = ("durable_point", "durable_extent")
#: every file in the formats this build writes; the only directories the
#: script below regenerates
CURRENT = ("durable_extent_v4", "durable_point_v4")


#: ``sharded_converted/``: its slice shape, the instance each shard's
#: counted query converted, and the append batches, one per time
CONVERTED_SHAPE = (6, 6)
CONVERTED_LOST = 3


def _converted_batches() -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(9)
    batches = []
    for time, count in [(t, 14) for t in range(6)] + [(6, 40), (7, 40)]:
        points = np.column_stack(
            [np.full(count, time)]
            + [rng.integers(0, n, size=count) for n in CONVERTED_SHAPE]
        ).astype(np.int64)
        batches.append((points, rng.integers(1, 9, size=count).astype(np.int64)))
    return batches


CONVERTED_BATCHES = _converted_batches()


def write_converted(directory) -> None:
    """Two inline shards; each kernel answers a counted prefix query over
    instance :data:`CONVERTED_LOST`, two more times are appended, and the
    fleet checkpoints."""
    from repro.core.types import Box
    from repro.sharding import ShardedCube

    with ShardedCube(
        CONVERTED_SHAPE, shards=2, processes=False, durable_dir=directory,
        fsync="off",
    ) as cube:  # fmt: skip
        for points, deltas in CONVERTED_BATCHES[:6]:
            cube.update_many(points, deltas)
        for handle in cube.router.handles:
            kernel = handle.state.kernel
            full = tuple(n - 1 for n in kernel.slice_shape)
            kernel.query(Box((0,) * kernel.ndim, (CONVERTED_LOST, *full)))
        for points, deltas in CONVERTED_BATCHES[6:]:
            cube.update_many(points, deltas)
        cube.checkpoint()


def write(name: str, directory) -> None:
    """Run fixture ``name``'s op list against a new durable ``directory``."""
    create, ops = FIXTURES[name]
    cube = create(directory)
    for op in ops:
        apply_op(cube, op)
    cube.close()


if __name__ == "__main__":
    for fixture in CURRENT:
        shutil.rmtree(HERE / fixture, ignore_errors=True)
        write(fixture, HERE / fixture)
