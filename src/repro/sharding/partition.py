"""Rectangular grid partitioning of the cube's non-TT dimensions.

Sharding exploits the additivity of the paper's prefix-difference query:
a range aggregate ``query(q, [lo, hi])`` is a sum over the cells selected
by ``q`` at two time prefixes, so for *any* partition of the cell domain
into disjoint rectangles the global answer is the sum of the per-shard
answers over ``q``'s intersection with each rectangle.  The partitioner
never touches the TT-dimension: every shard sees the full timeline
(restricted to the updates that land in its rectangle), which keeps the
floor-index semantics of the time directory intact per shard.

:class:`GridPartitioner` is the default, pluggable implementation: an
axis-aligned grid with near-equal extents per axis.  Anything exposing
the same small surface (``num_shards``, ``extents``, ``shard_of_cells``,
``local_box``, ``local_boxes``, ``to_config``/``from_config``) can replace
it -- e.g. a tenant/key-space partitioner -- without touching the router.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DomainError
from repro.core.types import Box


@dataclass(frozen=True)
class ShardExtent:
    """One shard's rectangle: ``origin_i <= cell_i < origin_i + shape_i``."""

    shard_id: int
    origin: tuple[int, ...]
    shape: tuple[int, ...]

    @property
    def upper(self) -> tuple[int, ...]:
        """Inclusive upper cell corner."""
        return tuple(o + n - 1 for o, n in zip(self.origin, self.shape))

    def num_cells(self) -> int:
        return int(np.prod(self.shape))


class GridPartitioner:
    """Axis-aligned grid over the slice (cell) dimensions.

    ``grid[axis]`` gives the number of contiguous blocks that axis is cut
    into; blocks differ in size by at most one cell (``np.array_split``
    convention).  Shard ids enumerate the grid in row-major order.
    """

    def __init__(self, slice_shape: Sequence[int], grid: Sequence[int]) -> None:
        self.slice_shape = tuple(int(n) for n in slice_shape)
        self.grid = tuple(int(g) for g in grid)
        if len(self.grid) != len(self.slice_shape):
            raise DomainError(
                f"grid arity {len(self.grid)} != slice arity {len(self.slice_shape)}"
            )
        for axis, (cuts, size) in enumerate(zip(self.grid, self.slice_shape)):
            if not 1 <= cuts <= size:
                raise DomainError(
                    f"axis {axis}: cannot cut {size} cells into {cuts} blocks"
                )
        # per-axis block boundaries: blocks[axis][k] is the first cell of
        # block k; a trailing sentinel closes the last block
        self._starts: list[np.ndarray] = []
        for cuts, size in zip(self.grid, self.slice_shape):
            sizes = np.full(cuts, size // cuts, dtype=np.int64)
            sizes[: size % cuts] += 1
            self._starts.append(np.concatenate([[0], np.cumsum(sizes)]))
        self.num_shards = int(np.prod(self.grid))
        self.extents: list[ShardExtent] = []
        for shard_id in range(self.num_shards):
            blocks = np.unravel_index(shard_id, self.grid)
            origin = tuple(
                int(self._starts[axis][b]) for axis, b in enumerate(blocks)
            )
            shape = tuple(
                int(self._starts[axis][b + 1] - self._starts[axis][b])
                for axis, b in enumerate(blocks)
            )
            self.extents.append(ShardExtent(shard_id, origin, shape))
        # per shard, what local_boxes clamps a corner array to (the lower
        # corner up to the origin, the upper one down to the last cell) and
        # the shift into local coordinates
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        self._clamps = [
            np.array([[[low, *e.origin], [low] * (1 + len(e.shape))],
                      [[high] * (1 + len(e.shape)), [high, *e.upper]],
                      [[0, *e.origin]] * 2])
            for e in self.extents
        ]  # fmt: skip

    @classmethod
    def for_shards(
        cls, slice_shape: Sequence[int], num_shards: int
    ) -> "GridPartitioner":
        """Factor ``num_shards`` across the axes, widest axis first."""
        shape = tuple(int(n) for n in slice_shape)
        if num_shards < 1:
            raise DomainError(f"need at least one shard, got {num_shards}")
        if num_shards > int(np.prod(shape)):
            raise DomainError(
                f"cannot cut {shape} into {num_shards} non-empty shards"
            )
        grid = [1] * len(shape)
        remaining = num_shards
        factor = 2
        factors: list[int] = []
        n = remaining
        while factor * factor <= n:
            while n % factor == 0:
                factors.append(factor)
                n //= factor
            factor += 1
        if n > 1:
            factors.append(n)
        for f in sorted(factors, reverse=True):
            # widest remaining block count wins the next factor
            axis = max(
                range(len(shape)), key=lambda a: shape[a] / grid[a]
            )
            if grid[axis] * f > shape[axis]:
                axis = max(
                    (a for a in range(len(shape)) if grid[a] * f <= shape[a]),
                    key=lambda a: shape[a] / grid[a],
                    default=None,
                )
                if axis is None:
                    raise DomainError(
                        f"cannot cut {shape} into {num_shards} grid shards"
                    )
            grid[axis] *= f
        return cls(shape, grid)

    # -- routing ---------------------------------------------------------------

    def shard_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """Vectorized cell -> shard id (``cells``: ``(n, d-1)`` int64)."""
        cells = np.asarray(cells, dtype=np.int64)
        blocks = [
            np.searchsorted(self._starts[axis][1:], cells[:, axis], side="right")
            for axis in range(len(self.slice_shape))
        ]
        return np.ravel_multi_index(tuple(blocks), self.grid)

    def local_box(self, box: Box, extent: ShardExtent) -> Box | None:
        """``box`` (TT + cell dims) intersected with ``extent``, in the
        shard's local cell coordinates; ``None`` when disjoint."""
        lo = list(box.lower)
        up = list(box.upper)
        for axis, (origin, size) in enumerate(zip(extent.origin, extent.shape)):
            low = max(lo[1 + axis], origin) - origin
            high = min(up[1 + axis], origin + size - 1) - origin
            if low > high:
                return None
            lo[1 + axis] = low
            up[1 + axis] = high
        return Box(tuple(lo), tuple(up))

    def local_boxes(
        self, corners: np.ndarray, extent: ShardExtent
    ) -> tuple[np.ndarray, np.ndarray]:
        """The boxes of a corner array (:func:`~repro.core.types.box_array`)
        that reach ``extent``: their positions in ``corners`` and their
        :meth:`local_box` clips, as one ``(m, 2, d)`` corner array."""
        lowest, highest, origin = self._clamps[extent.shard_id]
        local = np.minimum(np.maximum(corners, lowest), highest)
        positions = (local[:, 0] <= local[:, 1]).all(axis=1).nonzero()[0]
        return positions, local[positions] - origin

    # -- durability ------------------------------------------------------------

    def to_config(self) -> dict:
        return {
            "kind": "grid",
            "slice_shape": list(self.slice_shape),
            "grid": list(self.grid),
        }

    @classmethod
    def from_config(cls, config: dict) -> "GridPartitioner":
        if config.get("kind") != "grid":
            raise DomainError(f"unknown partitioner kind {config.get('kind')!r}")
        return cls(config["slice_shape"], config["grid"])

    def __repr__(self) -> str:
        return f"GridPartitioner(shape={self.slice_shape}, grid={self.grid})"
