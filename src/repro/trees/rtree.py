"""R-tree over d-dimensional points with R*-style inserts and STR bulk load.

Role in the reproduction:

* the Figure 14 baseline: a bulk-loaded R*-tree whose *leaf page accesses*
  are compared against the DDC array (the paper bulk-loads with Berchtold
  et al.'s method; we substitute Sort-Tile-Recursive packing, which equally
  yields a fully packed, query-optimized tree -- see DESIGN.md);
* the metered reference of the general d-dimensional structure ``G_d``
  buffering out-of-order updates (Section 2.5; built by the first metered
  read, see :mod:`repro.core.out_of_order`) -- "G_d and R_{d-1} are drawn
  from the same pool of data structures, well-known examples being R-tree
  and X-tree".

The insertion path uses R*-tree subtree choice (least enlargement, ties by
area) and the R* split (choose the axis minimizing the margin sum, then the
distribution minimizing overlap, then area).  Forced reinsertion is omitted
-- bulk loading covers the query-optimized case the paper measures.

Internal entries optionally carry subtree SUM aggregates
(``with_aggregates=True``): a subtree fully contained in the query box then
contributes without descending.  The paper's baseline does *not* have this
(it must fetch every intersecting leaf); the aggregate variant feeds an
ablation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.errors import DomainError
from repro.core.types import Box

MBR = tuple[tuple[int, ...], tuple[int, ...]]


def _mbr_of_points(points: Sequence[tuple[int, ...]]) -> MBR:
    lower = tuple(min(p[i] for p in points) for i in range(len(points[0])))
    upper = tuple(max(p[i] for p in points) for i in range(len(points[0])))
    return lower, upper


def _union(a: MBR, b: MBR) -> MBR:
    return (
        tuple(min(x, y) for x, y in zip(a[0], b[0])),
        tuple(max(x, y) for x, y in zip(a[1], b[1])),
    )


def _volume(mbr: MBR) -> int:
    result = 1
    for low, up in zip(mbr[0], mbr[1]):
        result *= up - low + 1
    return result


def _margin(mbr: MBR) -> int:
    return sum(up - low + 1 for low, up in zip(mbr[0], mbr[1]))


def _intersects(mbr: MBR, box: Box) -> bool:
    return all(
        mbr[0][i] <= box.upper[i] and box.lower[i] <= mbr[1][i]
        for i in range(len(mbr[0]))
    )


def _contained(mbr: MBR, box: Box) -> bool:
    return all(
        box.lower[i] <= mbr[0][i] and mbr[1][i] <= box.upper[i]
        for i in range(len(mbr[0]))
    )


def _overlap(a: MBR, b: MBR) -> int:
    result = 1
    for i in range(len(a[0])):
        low = max(a[0][i], b[0][i])
        up = min(a[1][i], b[1][i])
        if low > up:
            return 0
        result *= up - low + 1
    return result


class _Node:
    __slots__ = ("is_leaf", "entries", "mbr", "aggregate")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        # leaf entries: (point, value); internal entries: child _Node
        self.entries: list = []
        self.mbr: MBR | None = None
        self.aggregate = 0

    def recompute(self) -> None:
        if self.is_leaf:
            if self.entries:
                self.mbr = _mbr_of_points([p for p, _ in self.entries])
                self.aggregate = sum(v for _, v in self.entries)
            else:
                self.mbr = None
                self.aggregate = 0
        else:
            mbrs = [child.mbr for child in self.entries]
            self.mbr = mbrs[0]
            for m in mbrs[1:]:
                self.mbr = _union(self.mbr, m)
            self.aggregate = sum(child.aggregate for child in self.entries)


class RTree:
    """R-tree of weighted integer points.

    Parameters
    ----------
    ndim:
        Dimensionality of the indexed points.
    leaf_capacity / fanout:
        Maximum entries per leaf / internal node.  For the paper's disk
        model, pass the capacity returned by
        :func:`repro.storage.layout.rtree_leaf_capacity`.
    with_aggregates:
        Keep subtree sums in internal nodes (ablation extension).
    """

    def __init__(
        self,
        ndim: int,
        leaf_capacity: int = 64,
        fanout: int = 32,
        with_aggregates: bool = False,
    ) -> None:
        if ndim <= 0:
            raise DomainError("ndim must be positive")
        if leaf_capacity < 2 or fanout < 2:
            raise DomainError("capacities must be at least 2")
        self.ndim = ndim
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.with_aggregates = with_aggregates
        self._root = _Node(is_leaf=True)
        self._size = 0
        self.leaf_accesses = 0
        self.node_accesses = 0
        self.height = 1

    def __len__(self) -> int:
        return self._size

    # -- construction --------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        points: Sequence[Sequence[int]],
        values: Sequence[int],
        leaf_capacity: int = 64,
        fanout: int = 32,
        with_aggregates: bool = False,
    ) -> "RTree":
        """Sort-Tile-Recursive packing of a static point set.

        Produces a fully packed tree (all leaves full except possibly the
        last) -- the query-optimized bulk-loaded comparator of Figure 14.
        """
        if len(points) != len(values):
            raise DomainError("points and values must have equal length")
        if not points:
            raise DomainError("cannot bulk load an empty point set")
        ndim = len(points[0])
        tree = cls(ndim, leaf_capacity, fanout, with_aggregates)
        items = [
            (tuple(int(c) for c in point), int(value))
            for point, value in zip(points, values)
        ]
        leaves = tree._str_pack_leaves(items)
        level = leaves
        height = 1
        while len(level) > 1:
            level = tree._pack_level(level)
            height += 1
        tree._root = level[0]
        tree._size = len(items)
        tree.height = height
        return tree

    def _str_pack_leaves(self, items: list[tuple[tuple[int, ...], int]]) -> list[_Node]:
        """Recursive STR: slab by dimension 0, recurse within each slab."""

        def pack(chunk: list, dim: int) -> list[_Node]:
            if dim == self.ndim - 1 or len(chunk) <= self.leaf_capacity:
                chunk.sort(key=lambda item: item[0][dim])
                leaves = []
                for start in range(0, len(chunk), self.leaf_capacity):
                    leaf = _Node(is_leaf=True)
                    leaf.entries = chunk[start : start + self.leaf_capacity]
                    leaf.recompute()
                    leaves.append(leaf)
                return leaves
            chunk.sort(key=lambda item: item[0][dim])
            num_leaves = -(-len(chunk) // self.leaf_capacity)
            remaining_dims = self.ndim - dim
            slabs = max(1, round(num_leaves ** (1.0 / remaining_dims)))
            # Slab sizes must be multiples of the leaf capacity so packing
            # stays tight: exactly ceil(n / capacity) leaves overall.
            slab_size = -(-len(chunk) // slabs)
            slab_size = -(-slab_size // self.leaf_capacity) * self.leaf_capacity
            leaves = []
            for start in range(0, len(chunk), slab_size):
                leaves.extend(pack(chunk[start : start + slab_size], dim + 1))
            return leaves

        return pack(items, 0)

    def _pack_level(self, nodes: list[_Node]) -> list[_Node]:
        """Group consecutive (STR-ordered) nodes into parents."""
        nodes.sort(key=lambda n: n.mbr[0])
        parents = []
        for start in range(0, len(nodes), self.fanout):
            parent = _Node(is_leaf=False)
            parent.entries = nodes[start : start + self.fanout]
            parent.recompute()
            parents.append(parent)
        return parents

    # -- dynamic inserts -------------------------------------------------------

    def insert(self, point: Sequence[int], value: int) -> None:
        """Insert a weighted point (R*-style choose-subtree and split)."""
        coords = tuple(int(c) for c in point)
        if len(coords) != self.ndim:
            raise DomainError(f"point arity {len(coords)} != {self.ndim}")
        split = self._insert(self._root, coords, int(value))
        self._size += 1
        if split is not None:
            new_root = _Node(is_leaf=False)
            new_root.entries = [self._root, split]
            new_root.recompute()
            self._root = new_root
            self.height += 1

    def _insert(self, node: _Node, point: tuple[int, ...], value: int):
        self.node_accesses += 1
        point_mbr: MBR = (point, point)
        if node.is_leaf:
            node.entries.append((point, value))
            node.recompute()
            if len(node.entries) <= self.leaf_capacity:
                return None
            return self._split(node)
        child = self._choose_subtree(node, point_mbr)
        split = self._insert(child, point, value)
        if split is not None:
            node.entries.append(split)
        node.recompute()
        if len(node.entries) <= self.fanout:
            return None
        return self._split(node)

    def _choose_subtree(self, node: _Node, mbr: MBR) -> _Node:
        best = None
        best_key = None
        for child in node.entries:
            enlarged = _union(child.mbr, mbr)
            key = (_volume(enlarged) - _volume(child.mbr), _volume(child.mbr))
            if best_key is None or key < best_key:
                best_key = key
                best = child
        return best

    def _split(self, node: _Node) -> _Node:
        """R* split: best axis by margin sum, best distribution by overlap."""
        entries = node.entries
        min_fill = max(1, len(entries) * 2 // 5)

        def entry_mbr(entry) -> MBR:
            if node.is_leaf:
                return entry[0], entry[0]
            return entry.mbr

        best = None
        best_key = None
        for axis in range(self.ndim):
            ordered = sorted(entries, key=lambda e: (entry_mbr(e)[0][axis], entry_mbr(e)[1][axis]))
            for cut in range(min_fill, len(ordered) - min_fill + 1):
                left, right = ordered[:cut], ordered[cut:]
                left_mbr = self._group_mbr(left, node.is_leaf)
                right_mbr = self._group_mbr(right, node.is_leaf)
                key = (
                    _margin(left_mbr) + _margin(right_mbr),
                    _overlap(left_mbr, right_mbr),
                    _volume(left_mbr) + _volume(right_mbr),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = (left, right)

        left_entries, right_entries = best
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.entries = list(right_entries)
        sibling.recompute()
        node.entries = list(left_entries)
        node.recompute()
        return sibling

    @staticmethod
    def _group_mbr(entries, is_leaf: bool) -> MBR:
        if is_leaf:
            return _mbr_of_points([p for p, _ in entries])
        mbr = entries[0].mbr
        for child in entries[1:]:
            mbr = _union(mbr, child.mbr)
        return mbr

    # -- queries -----------------------------------------------------------------

    def range_sum(self, box: Box) -> int:
        """SUM over points in the box, counting node and leaf accesses."""
        if box.ndim != self.ndim:
            raise DomainError(f"box arity {box.ndim} != tree arity {self.ndim}")
        return self._query(self._root, box)

    def _query(self, node: _Node, box: Box) -> int:
        self.node_accesses += 1
        if node.mbr is None or not _intersects(node.mbr, box):
            return 0
        if self.with_aggregates and _contained(node.mbr, box):
            # Aggregate-annotated variant: whole subtree answered in O(1).
            return node.aggregate
        if node.is_leaf:
            self.leaf_accesses += 1
            return sum(v for p, v in node.entries if box.contains(p))
        return sum(
            self._query(child, box)
            for child in node.entries
            if _intersects(child.mbr, box)
        )

    def total(self) -> int:
        return self._root.aggregate

    def points(self):
        """All stored (point, value) pairs (traversal order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.entries)

    def leaf_count(self) -> int:
        return sum(1 for _ in self._iter_leaves())

    def _iter_leaves(self):
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.entries)

    def reset_counters(self) -> None:
        self.leaf_accesses = 0
        self.node_accesses = 0
