"""One epoch per mutating op, on every shard it reaches, none for a read.

The wire rows (:data:`repro.sharding.ops.OPS`) are the one vocabulary:
the router sends a shard the method a row names (or ``checkpoint``, the
shard's archive, which no row names), and the shard publishes exactly
when that row ``mutates``.  Driving every row through an in-process
durable :class:`ShardedCube` and reading each shard's epoch sequence
before and after holds that: every name a handle sends is such a
method, a row with ``mutates=True`` advances each shard it reaches by
exactly one sequence -- an ``update_many`` section holding both in-order
and late points included -- and a read (or a checkpoint) advances none.
Any other name is refused and leaves the shard as it was.
"""

from __future__ import annotations

import pytest

from repro.core.errors import DomainError
from repro.core.types import Box
from repro.sharding import ShardedCube
from repro.sharding.ops import BY_METHOD, OPS
from repro.sharding.router import InlineHandle
from repro.sharding.worker import serve

SHAPE = (4, 4)
TIERS = [{"name": "c", "granularity": 2, "horizon": None}]
FULL = Box((0, 0, 0), (17, 3, 3))

#: reads, asked before and after a demotion (after it, exact and
#: approximate reads into demoted history reach the shards themselves)
READS = [
    ("ping", ()),
    ("total", ()),
    ("query", (FULL,)),
    ("query_many", ([FULL, Box((4, 0, 0), (9, 3, 3))],)),
    ("topk", ([(0, 17, 2)],)),
    ("query_approx", ([FULL],)),
]

#: per cube kind, the rows it runs in order (a read list is spliced in),
#: and the cube's checkpoint, which no row names
SCRIPTS = {
    "buffered": [
        *READS,
        ("update", ((16, 1, 1), 2)),
        # in-order and late points on both shards: one section each
        ("update_many", ([[17, 0, 0], [3, 0, 0], [17, 3, 3], [5, 3, 3]], [1, 2, 3, 4])),
        ("drain", (None,)),
        ("update_many", ([[2, 1, 1], [7, 2, 3]], [5, 6])),
        ("drain", (1,)),
        ("demote", (6,)),
        *READS,
        ("retire", (9,)),
        *READS,
        ("checkpoint", ()),
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


#: what a shard answers: the methods the wire rows name, and its archive
SHARD_METHODS = set(BY_METHOD) | {"checkpoint"}


@pytest.fixture
def sent(monkeypatch):
    """``(shard id, method)`` of every request an inline handle sends."""
    requests: list[tuple[int, str]] = []
    send = InlineHandle.send

    def recorded(self, method, payload=None):
        requests.append((self.shard_id, method))
        return send(self, method, payload)

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
                row = OPS.get(name)
                method = name if row is None else row.method
                mutates = row is not None and row.mutates
                before = [h.state.snap.current_sequence() for h in handles]
                sent.clear()
                getattr(cube, method)(*args)
                after = [h.state.snap.current_sequence() for h in handles]
                moved = [a - b for a, b in zip(after, before)]
                reached = {shard for shard, _ in sent}
                # every name sent is a shard method of the one vocabulary,
                # and the op that sent it mutates as its own row says
                assert {m for _, m in sent} <= SHARD_METHODS, (kind, name)
                sent_rows = {BY_METHOD[m] for _, m in sent if m in BY_METHOD}
                assert {r.mutates for r in sent_rows} <= {mutates}, (kind, name)
                expected = [int(mutates and h.shard_id in reached) for h in handles]
                assert moved == expected, (kind, name, args)
                if mutates:
                    assert reached, (kind, name)  # the script reaches a shard
                ran.add(name)
        finally:
            cube.close()
    assert ran == set(OPS) | {"checkpoint"}


@pytest.mark.parametrize(
    "name",
    ["query", "update", "close", "published", "kernel", "__init__", "ingest", "oob"],
)
def test_a_name_outside_the_vocabulary_is_refused_and_changes_nothing(name):
    with ShardedCube(SHAPE, shards=1, processes=False) as cube:
        cube.update_many([[1, 1, 1], [3, 2, 2]], [4, 5])
        state = cube.router.handles[0].state
        sequence, total = state.snap.current_sequence(), state.snap.total()
        status, error, published = serve(state, name, ((4, 0, 0), 1))
        assert (status, type(error), published) == ("error", DomainError, None)
        assert f"unknown shard op {name!r}" in str(error)
        assert state.snap.current_sequence() == sequence
        assert state.snap.total() == total
        assert cube.total() == 9
