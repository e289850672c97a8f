"""Uniform grid spatial index — a test oracle.

The product lays points out in this grid's row order directly
(:meth:`repro.index.flat.FlatSpatialIndex.from_points`); this insert-and-walk
form is what that layout and its queries are held to.

A hash-grid alternative to the R-tree for point-like payloads (POIs, GPS
samples).  The paper notes that for well-divided landuse data the region
annotation complexity drops to O(n); the grid index is what makes that true in
this reproduction: cell lookups are O(1) and range queries touch only the
cells overlapping the query window.

Result ordering contract
------------------------
The **row** of an indexed point is its position in the sequence obtained by
visiting the occupied cells in lexicographic ``(cell_x, cell_y)`` order and
each cell's bucket in insertion order.  :meth:`GridIndex.query_box` iterates
cells with ``cell_x`` as the outer loop and ``cell_y`` inner — i.e. in
exactly that lexicographic order — so box matches come out in ascending row
order; :meth:`GridIndex.query_radius` and :meth:`GridIndex.nearest` stable-sort
those candidates by distance, so equal-distance points (including coincident
points) stay in row order and every result is in ``(distance, row)`` order.
:class:`repro.index.flat.FlatSpatialIndex` lays its columns out in the same
row order and sorts by the same keys, making batch and scalar grid queries
provably order-identical.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.geometry.primitives import BoundingBox, Point


class GridIndex:
    """Hash-grid index mapping points to payloads.

    Parameters
    ----------
    cell_size:
        Edge length of each (square) cell, in the same unit as coordinates.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[Tuple[Point, Any]]] = defaultdict(list)
        self._size = 0
        self._frozen = False

    @property
    def cell_size(self) -> float:
        """Edge length of the grid cells."""
        return self._cell_size

    def __len__(self) -> int:
        return self._size

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        return (
            int(math.floor(point.x / self._cell_size)),
            int(math.floor(point.y / self._cell_size)),
        )

    @property
    def frozen(self) -> bool:
        """Whether the grid has been sealed against further insertions."""
        return self._frozen

    def freeze(self) -> "GridIndex":
        """Seal the grid: subsequent :meth:`insert` calls raise.

        Freezing converts the backing ``defaultdict`` into a plain dict so a
        stray lookup of an empty cell cannot materialise buckets — a frozen
        grid is structurally immutable and safe to share across processes.
        """
        self._cells = dict(self._cells)
        self._frozen = True
        return self

    def insert(self, point: Point, item: Any) -> None:
        """Index ``item`` at ``point``."""
        if self._frozen:
            raise TypeError("cannot insert into a frozen GridIndex")
        self._cells[self._cell_of(point)].append((point, item))
        self._size += 1

    def insert_many(self, pairs: Iterator[Tuple[Point, Any]]) -> None:
        """Index an iterable of ``(point, item)`` pairs."""
        for point, item in pairs:
            self.insert(point, item)

    def query_box(self, box: BoundingBox) -> List[Tuple[Point, Any]]:
        """All indexed points falling inside ``box``."""
        min_cx = int(math.floor(box.min_x / self._cell_size))
        max_cx = int(math.floor(box.max_x / self._cell_size))
        min_cy = int(math.floor(box.min_y / self._cell_size))
        max_cy = int(math.floor(box.max_y / self._cell_size))
        results: List[Tuple[Point, Any]] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                for point, item in self._cells.get((cx, cy), ()):
                    if box.contains_point(point):
                        results.append((point, item))
        return results

    def query_radius(self, center: Point, radius: float) -> List[Tuple[float, Point, Any]]:
        """All points within ``radius`` of ``center``, sorted by distance."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        box = BoundingBox(
            center.x - radius, center.y - radius, center.x + radius, center.y + radius
        )
        results: List[Tuple[float, Point, Any]] = []
        for point, item in self.query_box(box):
            distance = center.distance_to(point)
            if distance <= radius:
                results.append((distance, point, item))
        results.sort(key=lambda triple: triple[0])
        return results

    def nearest(self, center: Point, count: int = 1) -> List[Tuple[float, Point, Any]]:
        """The ``count`` nearest indexed points to ``center``.

        The search expands the query radius ring by ring until enough
        candidates are found or the whole index has been scanned.
        """
        if count <= 0 or self._size == 0:
            return []
        radius = self._cell_size
        seen: List[Tuple[float, Point, Any]] = []
        while True:
            seen = self.query_radius(center, radius)
            if len(seen) >= count:
                return seen[:count]
            radius *= 2.0
            if radius > self._cell_size * 1e6:
                return seen

    def all_items(self) -> Iterator[Tuple[Point, Any]]:
        """Iterate over every indexed (point, item) pair."""
        for bucket in self._cells.values():
            yield from bucket

    def cell_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of indexed points per occupied cell (useful for density maps)."""
        return {cell: len(bucket) for cell, bucket in self._cells.items()}

    def bounds(self) -> Optional[BoundingBox]:
        """Bounding box of all indexed points, or None when empty."""
        if self._size == 0:
            return None
        points = [point for point, _ in self.all_items()]
        return BoundingBox.from_points(points)
