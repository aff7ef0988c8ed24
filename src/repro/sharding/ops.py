"""The sharded front's operation vocabulary, spelled once (:data:`OPS`).

One row per wire op: its wire name, the cube method it calls (on
``ShardedCube`` and ``ShardRouter`` alike), its fields, its result kind
and whether it mutates the cube (a mutating row's method is a logged
one, :data:`repro.durability.wal.LOGGED`).  ``ShardServer`` decodes a
request and encodes the reply with the row, ``ShardClient`` does the
reverse, ``ShardedCube`` forwards the row's method to its router -- a
new op is a row plus a router method.

A *kind* carries one value across the wire in both directions.  Its
decoder is the only check on input from outside the program, so it is
strict: an integer is a JSON integer (not ``1.9``, ``true``, ``"3"``)
that fits int64 with room for the ``t - 1`` of prefix arithmetic, a
matrix is rectangular, a mode is ``"fast"`` (the only one served).  Anything
else is a :class:`ProtocolError` naming op and field, raised before the
cube is touched.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.core.errors import DomainError, ReproError
from repro.core.types import Box


class ProtocolError(ReproError):
    """A request frame that no row of the op table can read."""


#: ``encode`` builds the JSON value; ``decode`` reads it back, raising
#: LookupError / TypeError / ValueError / OverflowError on any other input
Kind = namedtuple("Kind", "encode decode")

_INT = {int}
_MAX = (1 << 63) - 1


def _same(value):
    return value


def _listed(value) -> list:
    if type(value) is not list:
        raise TypeError(value)
    return value


def _coords(value) -> tuple[int, ...]:
    if type(value) is not list:  # inlined _listed: this runs twice per box
        raise TypeError(value)
    for c in value:
        if type(c) is not int or not -_MAX <= c <= _MAX:
            raise TypeError(c)
    return tuple(value)


def _int(value) -> int:
    return _coords([value])[0]


def _array(ndim: int):
    def decode(value) -> np.ndarray:
        scalars = value if ndim == 1 else chain.from_iterable(value)
        if type(value) is not list or not set(map(type, scalars)) <= _INT:
            raise TypeError(value)
        array = np.asarray(value, dtype=np.int64)  # ragged rows: ValueError
        if value and array.ndim != ndim:
            raise ValueError(value)
        return array

    return decode


def _triples(value) -> list[tuple[int, ...]]:
    triples = [_coords(triple) for triple in _listed(value)]
    if any(len(triple) != 3 for triple in triples):
        raise ValueError(value)
    return triples


def _box_to_wire(box) -> dict:
    # accept both the library's Box type and a bare (lower, upper) pair
    lower, upper = (box.lower, box.upper) if isinstance(box, Box) else box
    return {"lower": list(lower), "upper": list(upper)}


def _box_from_wire(spec) -> Box:
    return Box(_coords(spec["lower"]), _coords(spec["upper"]))


def _boxes_to_wire(boxes) -> list[dict]:
    # a Box sequence, (lower, upper) pairs, or an (n, 2, d) corner array
    if isinstance(boxes, np.ndarray):
        boxes = boxes.tolist()
    return [_box_to_wire(box) for box in boxes]


def _boxes_from_wire(specs) -> np.ndarray | list:
    """A box batch as one ``(n, 2, d)`` int64 corner array (``[]`` when
    empty: no arity).  A batch that fails the whole-batch check is read
    again box by box, so its first faulty box raises what :data:`BOX`
    raises for it; one that passes mixes arities.  Inverted ranges are
    left to :func:`~repro.core.types.box_array`, which every front calls.
    """
    specs = _listed(specs)
    if not specs:
        return []
    try:
        pairs = [(spec["lower"], spec["upper"]) for spec in specs]
        if set(map(type, chain.from_iterable(pairs))) == {list} and set(
            map(type, chain.from_iterable(chain.from_iterable(pairs)))
        ) <= _INT:
            corners = np.array(pairs, dtype=np.int64)  # ragged: ValueError
            if corners.ndim == 3 and (corners.size == 0 or corners.min() >= -_MAX):
                return corners
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    arities = {_box_from_wire(spec).ndim for spec in specs}
    raise DomainError(f"one batch holds boxes of arities {sorted(arities)}")


def _choice(kind: type, *allowed):
    def decode(value):
        if type(value) is not kind or value not in allowed:
            raise ValueError(value)
        return value

    return decode


INT = Kind(_same, _int)
POINT = Kind(list, _coords)
POINTS = Kind(lambda points: [list(p) for p in points], _array(2))
DELTAS = Kind(list, _array(1))
BOX = Kind(_box_to_wire, _box_from_wire)
BOXES = Kind(_boxes_to_wire, _boxes_from_wire)
QUERIES = Kind(lambda qs: [[int(t1), int(t2), int(k)] for t1, t2, k in qs], _triples)
#: a served front writes in one mode; the field keeps the frames' bytes
MODE = Kind(_same, _choice(str, "fast"))
FLAG = Kind(_same, _choice(bool, True, False))
LIMIT = Kind(_same, lambda value: None if value is None else _int(value))

# result kinds: the server encodes, the client decodes
RAW = Kind(_same, _same)
PAIR = Kind(list, tuple)
RANKED = Kind(
    lambda ranked: [[[list(cell), v] for cell, v in result] for result in ranked],
    lambda ranked: [[(tuple(cell), v) for cell, v in result] for result in ranked],
)
ESTIMATES = Kind(
    lambda estimates: [[float(e), int(lo), int(hi)] for e, lo, hi in estimates],
    lambda estimates: [(float(e), int(lo), int(hi)) for e, lo, hi in estimates],
)

REQUIRED = object()


class Field(NamedTuple):
    name: str  # on the wire, and the method's parameter
    kind: Kind
    default: object = REQUIRED


Op = namedtuple("Op", "name method result fields mutates", defaults=(False,))

_POINT_DELTA = (Field("point", POINT), Field("delta", INT))
_TIME = (Field("time", INT),)
_BATCH = (
    Field("points", POINTS),
    Field("deltas", DELTAS),
    Field("mode", MODE, "fast"),
)
_TOPK = (Field("queries", QUERIES), Field("nonnegative", FLAG, False))

OPS: dict[str, Op] = {
    row.name: row
    for row in (
        Op("ping", "ping", RAW, ()),
        Op("total", "total", RAW, ()),
        Op("query", "query", RAW, (Field("box", BOX),)),
        Op("query_many", "query_many", RAW, (Field("boxes", BOXES),)),
        Op("update", "update", RAW, _POINT_DELTA, mutates=True),
        Op("update_many", "update_many", RAW, _BATCH, mutates=True),
        Op("topk", "topk_many", RANKED, _TOPK),
        Op("query_approx", "query_many_approx", ESTIMATES, (Field("boxes", BOXES),)),
        Op("drain", "drain", PAIR, (Field("limit", LIMIT, None),), mutates=True),
        Op("retire", "retire_before", RAW, _TIME, mutates=True),
        Op("demote", "demote_before", RAW, _TIME, mutates=True),
        Op("apply_out_of_order", "apply_out_of_order", RAW, _POINT_DELTA, mutates=True),
    )
}

#: cube method -> row (what ``ShardClient`` and ``ShardedCube`` look up)
BY_METHOD: dict[str, Op] = {row.method: row for row in OPS.values()}


def encode_request(op: str, *args, **kwargs) -> dict:
    """The frame for ``op`` called like its cube method (``None`` fields
    are left off)."""
    row = OPS[op]
    names = [field.name for field in row.fields]
    if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]):
        raise TypeError(f"{row.method}() takes {', '.join(names) or 'no arguments'}")
    values = dict(zip(names, args), **kwargs)
    message = {"op": op}
    for name, kind, default in row.fields:
        value = values.get(name, default)
        if value is REQUIRED:
            raise TypeError(f"{row.method}() needs {name!r}")
        if value is not None:
            message[name] = kind.encode(value)
    return message


def decode_request(request) -> tuple[Op, dict]:
    """``(row, keyword arguments for row.method)`` of a request frame."""
    if type(request) is not dict:
        raise ProtocolError("request is not a JSON object")
    op = request.get("op")
    row = OPS.get(op) if type(op) is str else None
    if row is None:
        raise ProtocolError(f"unknown op {op!r}")
    arguments = {}
    for name, kind, default in row.fields:
        if name in request:
            try:
                arguments[name] = kind.decode(request[name])
            except (LookupError, TypeError, ValueError, OverflowError):
                raise ProtocolError(f"op {op!r}: bad field {name!r}") from None
        elif default is REQUIRED:
            raise ProtocolError(f"op {op!r}: missing field {name!r}")
        else:
            arguments[name] = default
    return row, arguments
