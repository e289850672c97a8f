"""A pure-Python R-tree with R*-style heuristics — a test oracle.

The product's index is :class:`repro.index.flat.FlatSpatialIndex`, which packs
the same Sort-Tile-Recursive levels straight from the source rows with numpy;
this tree is what that packing and every flat query is held to (it was the
product's own index until the flat one stopped being compiled from it).

SeMiTri uses an R*-tree over the semantic places (regions, road segments,
POIs) so that Algorithm 1 (region spatial join), Algorithm 2 (candidate road
segment selection) and the POI observation model only look at objects near a
query point.  This module implements:

* one-by-one insertion with least-enlargement/least-overlap subtree choice and
  quadratic node splitting (the classic Guttman split with the R* overlap
  tie-break), and
* Sort-Tile-Recursive (STR) bulk loading, the layout of static sources.

Queries supported: bounding-box range search, point queries, nearest
neighbours (best-first with a priority queue) and "within distance" searches.

Result ordering contract
------------------------
Every query's result order is fully determined by the *structural order* of
the tree: the left-to-right order in which a depth-first walk (children in
list order) visits the leaf entries.  Entry ``i`` in that walk has **row**
``i``; rows are stable until the next :meth:`RTree.insert`.

* :meth:`RTree.search` / :meth:`RTree.query_point` return matches in
  ascending row order (the pruned DFS visits surviving leaves left to right).
* :meth:`RTree.within_distance` sorts by ``(distance, row)``: the stable sort
  over the row-ordered candidate list keeps equal-distance entries — including
  duplicate bounding boxes — in row order.
* :meth:`RTree.nearest` returns ``(distance, row)`` order too: the best-first
  heap breaks ties by expanding nodes before emitting equal-distance entries
  and by comparing entry rows, so equal-distance neighbours come out in row
  order rather than in incidental heap order.

:class:`repro.index.flat.FlatSpatialIndex` packs the same rows into
contiguous arrays and its batch queries sort by exactly these keys, which is
what makes the scalar tree and the flat index provably — not accidentally —
order-identical (see ``tests/test_index_ordering.py``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.primitives import BoundingBox, Point


@dataclass(frozen=True)
class RTreeEntry:
    """A leaf entry: a bounding box plus the user payload it indexes."""

    box: BoundingBox
    item: Any


class _Node:
    """Internal R-tree node; leaves hold :class:`RTreeEntry`, others hold nodes."""

    __slots__ = ("is_leaf", "entries", "children", "box", "row_start")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[RTreeEntry] = []
        self.children: List["_Node"] = []
        self.box: Optional[BoundingBox] = None
        #: Structural row of this leaf's first entry (-1 until assigned by
        #: :meth:`RTree._ensure_rows`); internal nodes keep -1.
        self.row_start: int = -1

    def recompute_box(self) -> None:
        boxes: List[BoundingBox]
        if self.is_leaf:
            boxes = [entry.box for entry in self.entries]
        else:
            boxes = [child.box for child in self.children if child.box is not None]
        if not boxes:
            self.box = None
            return
        box = boxes[0]
        for other in boxes[1:]:
            box = box.union(other)
        self.box = box

    def __len__(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


class RTree:
    """R-tree over (bounding box, item) pairs.

    Parameters
    ----------
    max_entries:
        Maximum fan-out of a node before it is split.
    min_entries:
        Minimum fill of a node after a split (defaults to 40 % of the maximum,
        the R* recommendation).
    """

    def __init__(self, max_entries: int = 16, min_entries: Optional[int] = None):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._max_entries = max_entries
        self._min_entries = (
            min_entries if min_entries is not None else max(2, int(max_entries * 0.4))
        )
        if self._min_entries * 2 > max_entries:
            raise ValueError("min_entries must be at most half of max_entries")
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._frozen = False
        self._rows_assigned = False

    # ------------------------------------------------------------------ build
    @classmethod
    def bulk_load(
        cls,
        entries: Iterable[RTreeEntry],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> "RTree":
        """Build a tree with Sort-Tile-Recursive packing.

        STR sorts entries by the x coordinate of their box centre, slices them
        into vertical tiles, sorts each tile by y and packs consecutive runs of
        ``max_entries`` into leaves; the process repeats on the parent level.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        entry_list = list(entries)
        tree._size = len(entry_list)
        if not entry_list:
            return tree

        leaves: List[_Node] = []
        for group in _str_pack([(e.box, e) for e in entry_list], max_entries):
            node = _Node(is_leaf=True)
            node.entries = [payload for _, payload in group]
            node.recompute_box()
            leaves.append(node)

        level = leaves
        while len(level) > 1:
            parents: List[_Node] = []
            packed = _str_pack(
                [(node.box, node) for node in level if node.box is not None], max_entries
            )
            for group in packed:
                parent = _Node(is_leaf=False)
                parent.children = [child for _, child in group]
                parent.recompute_box()
                parents.append(parent)
            level = parents

        tree._root = level[0]
        return tree

    # ----------------------------------------------------------------- freeze
    @property
    def frozen(self) -> bool:
        """Whether the tree has been sealed against further insertions."""
        return self._frozen

    def freeze(self) -> "RTree":
        """Seal the tree: subsequent :meth:`insert` calls raise.

        A frozen tree is safe to share across worker processes (fork) or
        pickle into them as part of a read-only geographic snapshot — queries
        never mutate nodes, so concurrent readers need no locking.  Structural
        rows are assigned here, eagerly, so the row-based ``nearest``
        tie-break never has to write to the shared nodes after sealing.
        """
        self._ensure_rows()
        self._frozen = True
        return self

    # ----------------------------------------------------------------- insert
    def insert(self, box: BoundingBox, item: Any) -> None:
        """Insert one (box, item) pair."""
        if self._frozen:
            raise TypeError("cannot insert into a frozen RTree")
        entry = RTreeEntry(box=box, item=item)
        leaf = self._choose_leaf(self._root, entry.box, path=[])
        node, path = leaf
        node.entries.append(entry)
        self._size += 1
        self._rows_assigned = False
        self._handle_overflow(node, path)
        self._refresh_path_boxes(node, path)

    def insert_point(self, point: Point, item: Any) -> None:
        """Insert a degenerate (point) box."""
        self.insert(BoundingBox(point.x, point.y, point.x, point.y), item)

    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> Optional[BoundingBox]:
        """Bounding box of everything in the tree (None when empty)."""
        return self._root.box

    # ---------------------------------------------------------------- queries
    def search(self, box: BoundingBox) -> List[RTreeEntry]:
        """All entries whose bounding box intersects ``box``."""
        results: List[RTreeEntry] = []
        self._search_node(self._root, box, results)
        return results

    def search_items(self, box: BoundingBox) -> List[Any]:
        """Payloads of all entries intersecting ``box``."""
        return [entry.item for entry in self.search(box)]

    def query_point(self, point: Point) -> List[RTreeEntry]:
        """All entries whose box contains ``point``."""
        box = BoundingBox(point.x, point.y, point.x, point.y)
        return [entry for entry in self.search(box) if entry.box.contains_point(point)]

    def nearest(
        self,
        point: Point,
        count: int = 1,
        distance_fn: Optional[Callable[[Point, RTreeEntry], float]] = None,
    ) -> List[Tuple[float, RTreeEntry]]:
        """The ``count`` entries nearest to ``point``, in ``(distance, row)`` order.

        The search is best-first on the minimum box distance; an optional
        ``distance_fn`` refines the distance of leaf entries (e.g. exact
        point-segment distance instead of box distance).

        Equal-distance ties are broken by structural row (see the module
        docstring): the heap pops nodes *before* entries at the same distance
        — a still-folded subtree whose box distance equals an entry's distance
        may hide a smaller-row entry at that distance, and ``distance_fn``
        never returns less than the box distance — and equal-distance entries
        compare by their row, so the emitted order is exactly the order a
        stable sort of all entries by ``(distance, row)`` would produce.
        """
        if count <= 0 or self._size == 0:
            return []
        self._ensure_rows()
        counter = itertools.count()
        # Heap key: (distance, 0 for nodes / 1 for entries, row-or-counter).
        # Rows are unique across entries and counters across nodes, so the
        # trailing payload is never compared.
        heap: List[Tuple[float, int, int, Any]] = []
        if self._root.box is not None:
            heapq.heappush(
                heap, (self._root.box.min_distance_to_point(point), 0, next(counter), self._root)
            )
        results: List[Tuple[float, RTreeEntry]] = []
        while heap and len(results) < count:
            distance, is_entry, _, payload = heapq.heappop(heap)
            if is_entry:
                results.append((distance, payload))
                continue
            node: _Node = payload
            if node.is_leaf:
                for position, entry in enumerate(node.entries):
                    if distance_fn is not None:
                        entry_distance = distance_fn(point, entry)
                    else:
                        entry_distance = entry.box.min_distance_to_point(point)
                    heapq.heappush(heap, (entry_distance, 1, node.row_start + position, entry))
            else:
                for child in node.children:
                    if child.box is None:
                        continue
                    heapq.heappush(
                        heap, (child.box.min_distance_to_point(point), 0, next(counter), child)
                    )
        return results

    def within_distance(
        self,
        point: Point,
        radius: float,
        distance_fn: Optional[Callable[[Point, RTreeEntry], float]] = None,
    ) -> List[Tuple[float, RTreeEntry]]:
        """All entries within ``radius`` of ``point``, sorted by distance."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        box = BoundingBox(point.x - radius, point.y - radius, point.x + radius, point.y + radius)
        candidates = self.search(box)
        results: List[Tuple[float, RTreeEntry]] = []
        for entry in candidates:
            if distance_fn is not None:
                distance = distance_fn(point, entry)
            else:
                distance = entry.box.min_distance_to_point(point)
            if distance <= radius:
                results.append((distance, entry))
        results.sort(key=lambda pair: pair[0])
        return results

    def all_entries(self) -> Iterator[RTreeEntry]:
        """Iterate over every leaf entry in the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    # -------------------------------------------------------------- internals
    def _ensure_rows(self) -> None:
        """Assign each leaf its structural row range (lazy, invalidated by insert)."""
        if self._rows_assigned:
            return
        next_row = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                node.row_start = next_row
                next_row += len(node.entries)
            else:
                # Reversed so the list-order DFS (the search order) pops first.
                stack.extend(reversed(node.children))
        self._rows_assigned = True

    def _search_node(self, node: _Node, box: BoundingBox, out: List[RTreeEntry]) -> None:
        if node.box is None or not node.box.intersects(box):
            return
        if node.is_leaf:
            for entry in node.entries:
                if entry.box.intersects(box):
                    out.append(entry)
            return
        for child in node.children:
            self._search_node(child, box, out)

    def _choose_leaf(
        self, node: _Node, box: BoundingBox, path: List[_Node]
    ) -> Tuple[_Node, List[_Node]]:
        current = node
        while not current.is_leaf:
            path.append(current)
            current = self._best_child(current, box)
        return current, path

    def _best_child(self, node: _Node, box: BoundingBox) -> _Node:
        best_child = None
        best_key: Tuple[float, float, float] = (math.inf, math.inf, math.inf)
        for child in node.children:
            child_box = child.box if child.box is not None else box
            enlargement = child_box.enlargement(box)
            overlap_increase = 0.0
            if child.is_leaf:
                grown = child_box.union(box)
                for sibling in node.children:
                    if sibling is child or sibling.box is None:
                        continue
                    overlap_increase += grown.overlap_area(sibling.box) - child_box.overlap_area(
                        sibling.box
                    )
            key = (overlap_increase, enlargement, child_box.area)
            if key < best_key:
                best_key = key
                best_child = child
        assert best_child is not None
        return best_child

    def _handle_overflow(self, node: _Node, path: List[_Node]) -> None:
        node.recompute_box()
        if len(node) <= self._max_entries:
            return
        sibling = self._split(node)
        if not path:
            new_root = _Node(is_leaf=False)
            new_root.children = [node, sibling]
            new_root.recompute_box()
            self._root = new_root
            return
        parent = path[-1]
        parent.children.append(sibling)
        self._handle_overflow(parent, path[:-1])

    def _split(self, node: _Node) -> _Node:
        """Quadratic split of an overflowing node; returns the new sibling."""
        if node.is_leaf:
            items: List[Tuple[BoundingBox, Any]] = [(e.box, e) for e in node.entries]
        else:
            items = [(c.box, c) for c in node.children if c.box is not None]

        seed_a, seed_b = _pick_seeds(items)
        group_a: List[Tuple[BoundingBox, Any]] = [items[seed_a]]
        group_b: List[Tuple[BoundingBox, Any]] = [items[seed_b]]
        box_a = items[seed_a][0]
        box_b = items[seed_b][0]
        remaining = [item for i, item in enumerate(items) if i not in (seed_a, seed_b)]

        while remaining:
            if len(group_a) + len(remaining) <= self._min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) <= self._min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            index, prefer_a = _pick_next(remaining, box_a, box_b)
            box, payload = remaining.pop(index)
            if prefer_a:
                group_a.append((box, payload))
                box_a = box_a.union(box)
            else:
                group_b.append((box, payload))
                box_b = box_b.union(box)

        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = [payload for _, payload in group_a]
            sibling.entries = [payload for _, payload in group_b]
        else:
            node.children = [payload for _, payload in group_a]
            sibling.children = [payload for _, payload in group_b]
        node.recompute_box()
        sibling.recompute_box()
        return sibling

    def _refresh_path_boxes(self, node: _Node, path: List[_Node]) -> None:
        node.recompute_box()
        for ancestor in reversed(path):
            ancestor.recompute_box()

    # ------------------------------------------------------------- validation
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` when structural invariants are violated.

        Used by the property-based test-suite: every node's box covers all of
        its descendants, node sizes respect the fan-out bounds (except the
        root) and every inserted entry is reachable.
        """
        def visit(node: _Node, is_root: bool) -> int:
            count = 0
            if not is_root:
                if node.is_leaf:
                    assert len(node.entries) <= self._max_entries
                else:
                    assert 1 <= len(node.children) <= self._max_entries
            if node.is_leaf:
                for entry in node.entries:
                    assert node.box is not None and node.box.contains_box(entry.box)
                count += len(node.entries)
            else:
                for child in node.children:
                    assert child.box is not None
                    assert node.box is not None and node.box.contains_box(child.box)
                    count += visit(child, is_root=False)
            return count

        total = visit(self._root, is_root=True)
        assert total == self._size, f"tree holds {total} entries, expected {self._size}"


def _pick_seeds(items: Sequence[Tuple[BoundingBox, Any]]) -> Tuple[int, int]:
    """Quadratic seed picking: the pair wasting the most area together."""
    worst = -math.inf
    seeds = (0, 1)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            union = items[i][0].union(items[j][0])
            waste = union.area - items[i][0].area - items[j][0].area
            if waste > worst:
                worst = waste
                seeds = (i, j)
    return seeds


def _pick_next(
    remaining: Sequence[Tuple[BoundingBox, Any]],
    box_a: BoundingBox,
    box_b: BoundingBox,
) -> Tuple[int, bool]:
    """Pick the entry with the strongest preference for one of the groups."""
    best_index = 0
    best_difference = -1.0
    prefer_a = True
    for index, (box, _) in enumerate(remaining):
        growth_a = box_a.enlargement(box)
        growth_b = box_b.enlargement(box)
        difference = abs(growth_a - growth_b)
        if difference > best_difference:
            best_difference = difference
            best_index = index
            prefer_a = growth_a < growth_b or (growth_a == growth_b and box_a.area <= box_b.area)
    return best_index, prefer_a


def _str_pack(
    items: List[Tuple[BoundingBox, Any]], capacity: int
) -> List[List[Tuple[BoundingBox, Any]]]:
    """Sort-Tile-Recursive packing of items into groups of at most ``capacity``."""
    if not items:
        return []
    count = len(items)
    leaf_count = math.ceil(count / capacity)
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slice_size = math.ceil(count / slice_count)

    by_x = sorted(items, key=lambda pair: pair[0].center.x)
    groups: List[List[Tuple[BoundingBox, Any]]] = []
    for start in range(0, count, slice_size):
        tile = sorted(by_x[start : start + slice_size], key=lambda pair: pair[0].center.y)
        for inner in range(0, len(tile), capacity):
            groups.append(tile[inner : inner + capacity])
    return groups
