"""Shared value types: points, boxes and time intervals.

Terminology follows Section 2.1 of the paper: a data set has ``d`` dimension
attributes and a measure attribute; dimension 0 (the paper's delta_1) is the
transaction-time (TT) dimension.  A multidimensional range query specifies an
inclusive range per dimension.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DomainError

Coordinate = tuple[int, ...]


@dataclass(frozen=True)
class Box:
    """An axis-aligned inclusive box ``[lower_i, upper_i]`` per dimension.

    This is the query shape of the paper's ``query_D(L^d, U^d)`` (Table 2):
    both corners are included in the selection.
    """

    lower: Coordinate
    upper: Coordinate

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise DomainError(
                f"corner arity mismatch: {len(self.lower)} vs {len(self.upper)}"
            )
        object.__setattr__(self, "lower", tuple(int(c) for c in self.lower))
        object.__setattr__(self, "upper", tuple(int(c) for c in self.upper))
        for low, up in zip(self.lower, self.upper):
            if low > up:
                raise DomainError(f"inverted range [{low}, {up}]")

    @property
    def ndim(self) -> int:
        return len(self.lower)

    def contains(self, point: Sequence[int]) -> bool:
        return all(
            low <= coord <= up
            for low, coord, up in zip(self.lower, point, self.upper)
        )

    def intersects(self, other: "Box") -> bool:
        return all(
            self.lower[i] <= other.upper[i] and other.lower[i] <= self.upper[i]
            for i in range(self.ndim)
        )

    def volume(self) -> int:
        result = 1
        for low, up in zip(self.lower, self.upper):
            result *= up - low + 1
        return result

    def clip_to(self, shape: Sequence[int]) -> "Box":
        """Clamp the box to array bounds ``[0, shape_i - 1]`` per dimension."""
        if len(shape) != self.ndim:
            raise DomainError(f"shape arity {len(shape)} != box arity {self.ndim}")
        lower = tuple(max(0, low) for low in self.lower)
        upper = tuple(min(int(n) - 1, up) for n, up in zip(shape, self.upper))
        for low, up in zip(lower, upper):
            if low > up:
                raise DomainError(f"box {self} is empty after clipping to {shape}")
        return Box(lower, upper)

    def drop_first(self) -> "Box":
        """Project out the TT-dimension, leaving the (d-1)-dimensional box."""
        return Box(self.lower[1:], self.upper[1:])

    @property
    def time_range(self) -> tuple[int, int]:
        """The selected range in the TT-dimension (dimension 0)."""
        return self.lower[0], self.upper[0]

    def iter_points(self) -> Iterator[Coordinate]:
        """Yield every lattice point in the box (for tests and baselines)."""

        def recurse(prefix: tuple[int, ...], dim: int) -> Iterator[Coordinate]:
            if dim == self.ndim:
                yield prefix
                return
            for coord in range(self.lower[dim], self.upper[dim] + 1):
                yield from recurse(prefix + (coord,), dim + 1)

        return recurse((), 0)


@dataclass(frozen=True)
class TimeInterval:
    """A closed interval in the TT-dimension (Section 2.4, objects w/ extent).

    ``start`` is when the object becomes valid, ``end`` when it stops being
    valid; both inclusive.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise DomainError(f"inverted interval [{self.start}, {self.end}]")

    def contains_time(self, t: int) -> bool:
        return self.start <= t <= self.end

    def intersects(self, other: "TimeInterval") -> bool:
        return self.start <= other.end and other.start <= self.end

    def contained_in(self, other: "TimeInterval") -> bool:
        return other.start <= self.start and self.end <= other.end


def box_array(boxes, ndim: int) -> np.ndarray:
    """A box batch as one ``(n, 2, d)`` int64 corner array.

    ``boxes[i, 0]`` is box ``i``'s lower corner, ``boxes[i, 1]`` its upper
    one.  Accepts such an array (any integer dtype; an int64 one is
    returned as is) or a sequence of :class:`Box` objects, converted
    once.  Raises :class:`~repro.core.errors.DomainError` for a wrong
    shape or dtype, an arity other than ``ndim`` and an inverted range,
    with the messages of the :class:`Box` path.
    """
    if not isinstance(boxes, np.ndarray):
        boxes = list(boxes)
        for box in boxes:
            if box.ndim != ndim:
                raise DomainError(f"box arity {box.ndim} != cube arity {ndim}")
        # one flat row per box: NumPy converts two nesting levels faster
        # than three, and this is the wire's per-request path
        return np.array(
            [box.lower + box.upper for box in boxes], dtype=np.int64
        ).reshape(len(boxes), 2, ndim)
    if boxes.ndim != 3 or boxes.shape[1] != 2:
        raise DomainError(f"a box array must be (n, 2, d); got {boxes.shape}")
    if boxes.dtype.kind not in "iu":
        raise DomainError(f"a box array must be integer; got {boxes.dtype}")
    if boxes.shape[2] != ndim:
        raise DomainError(f"box arity {boxes.shape[2]} != cube arity {ndim}")
    boxes = boxes.astype(np.int64, copy=False)
    inverted = boxes[:, 0] > boxes[:, 1]
    if inverted.any():
        row, axis = np.argwhere(inverted)[0]
        raise DomainError(
            f"inverted range [{boxes[row, 0, axis]}, {boxes[row, 1, axis]}]"
        )
    return boxes


def as_boxes(corners: np.ndarray) -> list[Box]:
    """The rows of a validated corner array (:func:`box_array`) as
    :class:`Box` objects, for the paths that walk boxes one at a time."""
    return [Box(tuple(lower), tuple(upper)) for lower, upper in corners.tolist()]


def clip_cells(corners: np.ndarray, shape: Sequence[int]):
    """The cell-axis corners of a box batch clamped to ``shape``.

    Returns ``(lowers, uppers)``, both ``(n, d-1)``.  A box that selects
    no cell after clamping raises the :class:`DomainError` a single
    box's :meth:`Box.clip_to` raises, whichever tier answers it.
    """
    lowers = np.maximum(corners[:, 0, 1:], 0)
    uppers = np.minimum(corners[:, 1, 1:], np.subtract(shape, 1))
    empty = lowers > uppers
    if empty.any():  # one reduction on the answering path: point reads pay it
        row = corners[int(empty.any(axis=1).argmax())].tolist()
        Box(tuple(row[0][1:]), tuple(row[1][1:])).clip_to(tuple(shape))
    return lowers, uppers


def as_point(coords: Sequence[int]) -> Coordinate:
    """Normalize a coordinate sequence to a tuple of ints."""
    return tuple(int(c) for c in coords)


def int64_sum(a: int, b: int) -> int:
    """``a + b`` in int64, a ring, as every array sum adds (a Python sum
    leaves int64 once its terms wrap)."""
    return (a + b + (1 << 63)) % (1 << 64) - (1 << 63)


def full_box(shape: Sequence[int]) -> Box:
    """The box covering an entire array of the given shape."""
    return Box(tuple(0 for _ in shape), tuple(int(n) - 1 for n in shape))
