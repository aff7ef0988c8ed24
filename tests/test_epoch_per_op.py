"""One epoch per mutating op, on every shard it reaches, none for a read.

A shard publishes once after each pipe op whose wire row (its handler
table, ``ShardWorkerState.ops``, names the row it serves) mutates, and
the router sends a pipe op for each row of the wire table
(:data:`repro.sharding.ops.OPS`).  Driving
every row through an in-process durable :class:`ShardedCube` and reading
each shard's epoch sequence before and after ties the two tables
together: a row with ``mutates=True`` advances each shard it reaches by
exactly one sequence -- an ingest holding both in-order and late points
included -- and a read row advances none.
"""

from __future__ import annotations

import pytest

from repro.core.types import Box
from repro.sharding import ShardedCube
from repro.sharding.ops import OPS
from repro.sharding.router import InlineHandle
from repro.sharding.worker import ShardWorkerState

SHAPE = (4, 4)
TIERS = [{"name": "c", "granularity": 2, "horizon": None}]
FULL = Box((0, 0, 0), (17, 3, 3))

#: reads, asked before and after a demotion (after it, exact and
#: approximate reads into demoted history reach the shards' pipe rows)
READS = [
    ("ping", ()),
    ("total", ()),
    ("query", (FULL,)),
    ("query_many", ([FULL, Box((4, 0, 0), (9, 3, 3))],)),
    ("topk", ([(0, 17, 2)],)),
    ("query_approx", ([FULL],)),
]

#: per cube kind, the rows it runs in order (a read list is spliced in)
SCRIPTS = {
    "buffered": [
        *READS,
        ("update", ((16, 1, 1), 2)),
        # in-order and late points on both shards: one ingest each
        ("update_many", ([[17, 0, 0], [3, 0, 0], [17, 3, 3], [5, 3, 3]], [1, 2, 3, 4])),
        ("drain", (None,)),
        ("update_many", ([[2, 1, 1], [7, 2, 3]], [5, 6])),
        ("drain", (1,)),
        ("demote", (6,)),
        *READS,
        ("retire", (9,)),
        *READS,
    ],
    "unbuffered": [
        ("update", ((16, 1, 1), 2)),
        ("apply_out_of_order", ((9, 3, 3), 5)),
        ("apply_out_of_order", ((4, 0, 0), -1)),
        ("retire", (3,)),
        ("demote", (8,)),
        *READS,
    ],
}


@pytest.fixture
def sent(monkeypatch):
    """``(shard id, pipe op)`` of every request an inline handle sends."""
    requests: list[tuple[int, str]] = []
    send = InlineHandle.send

    def recorded(self, op, payload=None):
        requests.append((self.shard_id, op))
        return send(self, op, payload)

    monkeypatch.setattr(InlineHandle, "send", recorded)
    return requests


def test_a_mutating_row_publishes_one_epoch_per_shard_it_reaches(tmp_path, sent):
    ran = set()
    for kind, script in SCRIPTS.items():
        cube = ShardedCube(
            SHAPE, shards=2, processes=False, buffered=kind == "buffered",
            durable_dir=tmp_path / kind, tiers=TIERS,
        )  # fmt: skip
        try:
            cube.update_many([[t, t % 4, 3 * t % 4] for t in range(0, 16, 2)], [1] * 8)
            handles = cube.router.handles
            for name, args in script:
                row = OPS[name]
                before = [h.state.snap.current_sequence() for h in handles]
                sent.clear()
                getattr(cube, row.method)(*args)
                moved = [h.state.snap.current_sequence() - b for h, b in zip(handles, before)]
                reached = {shard for shard, _ in sent}
                # the pipe rows the wire row sent say what the wire row says
                served = {OPS[ShardWorkerState.ops[op][1]] for _, op in sent}
                assert {pipe_row.mutates for pipe_row in served} <= {row.mutates}
                expected = [int(row.mutates and h.shard_id in reached) for h in handles]
                assert moved == expected, (kind, name, args)
                if row.mutates:
                    assert reached, (kind, name)  # the script reaches a shard
                ran.add(name)
        finally:
            cube.close()
    assert ran == set(OPS)
