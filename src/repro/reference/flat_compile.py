"""Compile the oracle tree and grid into the product's flat index layout.

:class:`~repro.index.flat.FlatSpatialIndex` packs its arrays straight from the
source rows.  These two functions reach the same layout the long way round —
build the pure-Python :class:`~repro.reference.rtree.RTree` /
:class:`~repro.reference.grid_index.GridIndex`, then walk its nodes or cells —
which is how the product built its indexes before it packed them directly, and
what ``tests/test_index_direct_pack.py`` holds the direct packing to: same
payload order, same level arrays, same child ranges.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, List, Optional

import numpy as np

from repro.geometry.primitives import Segment
from repro.index.flat import FlatSpatialIndex, _Level, box_columns
from repro.reference.grid_index import GridIndex
from repro.reference.rtree import RTree, _Node

__all__ = ["from_rtree", "from_grid"]


def from_rtree(
    tree: RTree, segment_of: Optional[Callable[[Any], Segment]] = None
) -> FlatSpatialIndex:
    """Compile an R-tree level by level; freezes ``tree`` if it is not already.

    Entries land in the tree's structural row order (DFS leaf order), the
    order every scalar query's results follow.  When ``segment_of`` maps a
    payload to its :class:`Segment`, distance queries refine by exact
    point-segment distance, like a scalar query with a ``distance_fn``.
    """
    tree.freeze()
    entries: List[Any] = []
    entry_boxes = box_columns([])
    levels: List[_Level] = []
    if len(tree) > 0:
        nodes: List[_Node] = [tree._root]
        while True:
            is_leaf_level = nodes[0].is_leaf
            assert all(node.is_leaf == is_leaf_level for node in nodes), "tree must be balanced"
            counts = [len(node) for node in nodes]
            levels.append(_Level(box_columns(node.box for node in nodes), np.array(counts)))
            if is_leaf_level:
                leaf_entries = [entry for node in nodes for entry in node.entries]
                entry_boxes = box_columns(entry.box for entry in leaf_entries)
                entries = [entry.item for entry in leaf_entries]
                break
            nodes = [child for node in nodes for child in node.children]
    if segment_of is None:
        return FlatSpatialIndex(levels, entry_boxes, entries, "bbox")
    segments = [segment_of(item) for item in entries]
    endpoints = [
        np.array(list(map(attrgetter(coordinate), segments)), dtype=np.float64)
        for coordinate in ("start.x", "start.y", "end.x", "end.y")
    ]
    return FlatSpatialIndex(levels, entry_boxes, entries, "segment", endpoints)


def from_grid(grid: GridIndex) -> FlatSpatialIndex:
    """Compile a hash grid cell by cell; freezes ``grid`` if it is not already.

    Rows follow the grid's structural order — occupied cells sorted
    lexicographically, buckets in insertion order — which is the order
    :meth:`GridIndex.query_box` visits them for any query rectangle.
    """
    grid.freeze()
    pairs = [pair for _cell, bucket in sorted(grid._cells.items()) for pair in bucket]
    xs = np.array([point.x for point, _ in pairs], dtype=np.float64)
    ys = np.array([point.y for point, _ in pairs], dtype=np.float64)
    items = [item for _, item in pairs]
    return FlatSpatialIndex(
        [], (xs, ys, xs.copy(), ys.copy()), items, "point", cell_size=grid.cell_size
    )
