"""The record table (:data:`repro.durability.wal.RECORD_TYPES`) and its views.

One suite, parametrised over the rows.  Log side: a row's method on a
front of the kind it needs appends exactly one record of the row's type
and then makes one front call; on every other kind it raises the
refusal text before anything is logged.  Replay side: a record of the
other object kind is fatal, a record the front lacks the capability for
is skipped.  Around them: the wire's op table joins the log's on the
method name, and ``docs/API.md`` lists the rows.  The bytes themselves
are pinned in ``test_durability_wal.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import DomainError, RecoveryError
from repro.durability import DurableCube
from repro.durability.recovery import FRONT_KINDS, WAL_SUBDIR
from repro.durability.wal import RECORD_TYPES, WriteAheadLog
from repro.sharding.ops import OPS

from tests.test_durability_wal import GOLDEN_FRAMES, GOLDEN_SORTED_FRAME

REPO = Path(__file__).resolve().parent.parent
SHAPE = (4, 4)
TIERS = [{"name": "coarse", "granularity": 4, "horizon": None}]

#: the fronts a durable cube can be built over -> its constructor options
FRONTS = {
    "buffered": {},
    "unbuffered": {"buffered": False},
    "tiered": {"tiers": TIERS},
    "unbuffered tiered": {"buffered": False, "tiers": TIERS},
    "extent": {"extent": True},
}
#: front kind a row may need -> the fronts that are one, and how a
#: refusal names it (written out, not derived: this is the contract)
ACCEPTS = {
    "any": (set(FRONTS), None),
    "point": (set(FRONTS) - {"extent"}, "a point-object"),
    "unbuffered point": (
        {"unbuffered", "unbuffered tiered"},
        "an unbuffered point-object",
    ),
    "buffered": ({"buffered", "tiered", "extent"}, "a buffered"),
    "tiered": ({"tiered", "unbuffered tiered"}, "a tiered (tiers=...)"),
    "extent": ({"extent"}, "a TT-extent (extent=True)"),
    # no row needs it: what ``checkpoint`` needs of a snapshot front
    "durable": (set(FRONTS), "a durable"),
}
#: method -> arguments valid on a seeded cube of the right kind
ARGUMENTS = {
    "update": ((7, 1, 1), 5),
    "update_many": ([[7, 1, 1], [8, 0, 2]], [5, -1]),
    "apply_out_of_order": ((2, 1, 1), 2),
    "apply_out_of_order_many": ([[2, 1, 1], [0, 3, 3]], [2, 1]),
    "retire_before": (2,),
    "demote_before": (5,),
    "drain": (None,),
    "insert": ((7, 9), (1, 1), 2),
    "insert_many": ([[7, 9], [8, 8]], [[1, 1], [0, 2]], [2, 1]),
    "advance": (12,),
}
LOGGED = [row for row in RECORD_TYPES if row.method is not None]


def _row_id(row) -> str:
    return row.name


def _seeded(directory, front: str) -> DurableCube:
    cube = DurableCube(SHAPE, directory, fsync="off", num_times=32, **FRONTS[front])
    if cube.extent:
        cube.insert_many([[0, 3], [1, 6], [4, 4]], [[1, 1], [2, 2], [3, 0]])
    else:
        cube.update_many([[0, 1, 1], [1, 2, 2], [4, 3, 0], [6, 0, 0]], [3, 4, 5, 6])
    return cube


def _answer(cube):
    return cube.alive_at(3) if cube.extent else cube.total()


def _log(directory) -> list:
    with WriteAheadLog(Path(directory) / WAL_SUBDIR, fsync="off") as wal:
        return [record for _, record in wal.replay()]


class _Spy:
    """Stands in for ``cube.front``: notes each call made *on the front*
    (calls the front makes on itself bypass it)."""

    def __init__(self, target, events: list) -> None:
        self._target, self._events = target, events

    def __getattr__(self, name):
        attribute = getattr(self._target, name)
        if not callable(attribute):
            return attribute

        def call(*args, **kwargs):
            self._events.append(f"front.{name}")
            return attribute(*args, **kwargs)

        return call


def _spied_appends(cube, monkeypatch) -> list[str]:
    """The event list ``cube.wal.append`` now notes each record's class in."""
    events: list[str] = []
    append = cube.wal.append

    def spy(record):
        events.append(type(record).__name__)
        return append(record)

    monkeypatch.setattr(cube.wal, "append", spy)
    return events


def test_the_contract_covers_every_front_kind_and_every_logged_method():
    assert set(ACCEPTS) == set(FRONT_KINDS)
    assert {row.needs for row in RECORD_TYPES} <= set(FRONT_KINDS)
    assert sorted(ARGUMENTS) == sorted(row.method for row in LOGGED)
    for needs, (_, phrase) in ACCEPTS.items():
        assert FRONT_KINDS[needs][0] == (phrase or "")
    # the rows no durable cube method logs: the marker checkpoint() writes
    # and the sharded router's batch
    assert [row.name for row in RECORD_TYPES if row.method is None] == [
        "checkpoint_marker", "sharded_batch"
    ]


@pytest.mark.parametrize("row", LOGGED, ids=_row_id)
def test_the_right_front_logs_one_record_then_makes_one_front_call(
    tmp_path, monkeypatch, row
):
    for front in sorted(ACCEPTS[row.needs][0]):
        directory = tmp_path / front.replace(" ", "-")
        cube = _seeded(directory, front)
        assert hasattr(cube, row.method) and hasattr(DurableCube, row.method)
        events = _spied_appends(cube, monkeypatch)
        real_front, cube.front = cube.front, _Spy(cube.front, events)
        lsn = cube.last_lsn
        result = getattr(cube, row.method)(*ARGUMENTS[row.method])
        cube.front = real_front
        assert events == [row.cls.__name__, f"front.{row.method}"], front
        assert cube.last_lsn == lsn + 1
        after, state = _answer(cube), cube.front.state_arrays() if cube.extent else None
        cube.close()
        assert type(_log(directory)[-1]) is row.cls
        # and the replayed record reaches the same state with the same call
        with DurableCube.recover(directory) as recovered:
            assert recovered.recovery_info["skipped_records"] == 0
            assert _answer(recovered) == after
            if state is not None:
                for name, array in recovered.front.state_arrays().items():
                    assert np.array_equal(array, state[name]), name
        if row.method in ("drain", "retire_before", "demote_before", "advance"):
            assert result is not None  # the front's answer comes back


@pytest.mark.parametrize("row", LOGGED, ids=_row_id)
def test_every_other_front_refuses_before_anything_is_logged(tmp_path, row):
    accepted, phrase = ACCEPTS[row.needs]
    for front in sorted(set(FRONTS) - accepted):
        with _seeded(tmp_path / front.replace(" ", "-"), front) as cube:
            lsn, before = cube.last_lsn, _answer(cube)
            refusal = f"{row.method}() requires {phrase} durable cube"
            with pytest.raises(DomainError, match=re.escape(refusal)):
                getattr(cube, row.method)(*ARGUMENTS[row.method])
            assert cube.last_lsn == lsn and _answer(cube) == before


@pytest.mark.parametrize("row", RECORD_TYPES, ids=_row_id)
def test_replay_is_fatal_for_the_other_object_kind_and_skips_a_missing_capability(
    tmp_path, row
):
    # (the tag-12 golden record of version 3 holds an unsorted in-order
    # run, which version 4 does not write)
    written = [*GOLDEN_FRAMES[:-1], GOLDEN_SORTED_FRAME]
    (record,) = (r for r, _ in written if type(r) is row.cls)
    # (no single cube replays the sharded router's record)
    accepted = ACCEPTS[row.needs][0] if row.replay is not None else set()
    for front in sorted(set(FRONTS) - accepted):
        directory = tmp_path / front.replace(" ", "-")
        cube = _seeded(directory, front)
        before = _answer(cube)
        cube.close()
        with WriteAheadLog(directory / WAL_SUBDIR, fsync="off") as wal:
            wal.append(record)
        other_kind = (front == "extent") != (row.needs == "extent") or not accepted
        if other_kind:
            with pytest.raises(RecoveryError, match="cannot replay"):
                DurableCube.recover(directory)
            continue
        # drain into an unbuffered front, demote into an untiered one, ...
        with DurableCube.recover(directory) as recovered:
            assert recovered.recovery_info["skipped_records"] == 1
            assert _answer(recovered) == before


@pytest.mark.parametrize(
    "row", [row for row in LOGGED if "mode" in row.layout.fields], ids=_row_id
)
def test_a_mode_the_log_cannot_encode_is_refused_before_logging(tmp_path, row):
    front = sorted(ACCEPTS[row.needs][0])[0]
    with _seeded(tmp_path, front) as cube:
        lsn, before = cube.last_lsn, _answer(cube)
        with pytest.raises(DomainError, match="unknown execution mode 'bogus'"):
            getattr(cube, row.method)(*ARGUMENTS[row.method], mode="bogus")
        assert cube.last_lsn == lsn and _answer(cube) == before


def test_buffer_mode_is_logged_and_replayed(tmp_path):
    """The shard worker's escape hatch: the router's *global* verdict that
    a batch is historic travels through ``DurableCube.update_many`` of a
    plain buffered front."""
    with DurableCube(SHAPE, tmp_path, fsync="off", num_times=32) as cube:
        cube.update_many([[4, 1, 1]], [3])
        # locally appendable, globally late: it must sit in G_d
        cube.update_many([[4, 2, 2]], [5], mode="buffer")
        assert cube.front.buffered_updates == 1 and cube.total() == 8
    assert _log(tmp_path)[-1].mode == "buffer"
    with DurableCube.recover(tmp_path) as recovered:
        assert recovered.front.buffered_updates == 1 and recovered.total() == 8


@pytest.mark.parametrize(
    "row", [row for row in LOGGED if row.method.endswith("_many")], ids=_row_id
)
def test_an_empty_batch_logs_nothing(tmp_path, row):
    front = sorted(ACCEPTS[row.needs][0])[0]
    with _seeded(tmp_path, front) as cube:
        lsn = cube.last_lsn
        empty = [[] for _ in ARGUMENTS[row.method]]
        assert getattr(cube, row.method)(*empty) == row.empty
        assert cube.last_lsn == lsn


def test_the_wire_and_the_log_join_on_the_method_name():
    """A mutating wire op names a method exactly one record row logs."""
    reads = {"ping", "total", "query", "query_many", "topk", "query_approx"}
    assert reads <= set(OPS)
    logged = [row.method for row in LOGGED]
    assert len(set(logged)) == len(logged)
    for op in OPS.values():
        if op.name not in reads:
            assert logged.count(op.method) == 1, op.name


def test_api_md_lists_exactly_the_rows():
    text = (REPO / "docs" / "API.md").read_text()
    section = text[text.index("| logged mutation | record | front it needs |") :]
    listed = [
        tuple(cell.strip() for cell in line.strip("|").split("|"))
        for line in section.split("\n\n")[0].splitlines()[2:]
    ]
    unlogged = {"checkpoint_marker": "(`checkpoint`)", "sharded_batch": "(router)"}
    assert listed == [
        (
            f"`{row.method}`" if row.method else unlogged[row.name],
            f"`{row.cls.__name__}`",
            row.needs,
        )
        for row in RECORD_TYPES
    ]
