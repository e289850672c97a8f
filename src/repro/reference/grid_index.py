"""Uniform grid spatial index — a test oracle.

The product indexes points in source order
(:meth:`repro.index.flat.FlatSpatialIndex.from_points`) and answers whole
coordinate batches; this insert-and-walk grid answers the same queries one at
a time, and the point layout's queries are held to it.

A hash-grid alternative to the R-tree for point-like payloads (POIs, GPS
samples).  The paper notes that for well-divided landuse data the region
annotation complexity drops to O(n); a grid is what makes that true: cell
lookups are O(1) and range queries touch only the cells overlapping the query
window.

Result ordering contract
------------------------
The **row** of an indexed point is its insertion order.
:meth:`GridIndex.query_box` returns matches in ascending row order, whichever
cells they fall in; :meth:`GridIndex.query_radius` and
:meth:`GridIndex.nearest` stable-sort those candidates by distance, so
equal-distance points (including coincident points) stay in row order and
every result is in ``(distance, row)`` order.
:class:`repro.index.flat.FlatSpatialIndex` keeps point ``i`` at row ``i`` and
sorts by the same keys, making batch and scalar grid queries provably
order-identical.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import itemgetter
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
        #: Per occupied cell, its ``(row, point, item)`` triples.
        self._cells: Dict[Tuple[int, int], List[Tuple[int, Point, Any]]] = defaultdict(list)
        self._size = 0

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

    def insert(self, point: Point, item: Any) -> None:
        """Index ``item`` at ``point``; its row is the number of points before it."""
        self._cells[self._cell_of(point)].append((self._size, point, item))
        self._size += 1

    def insert_many(self, pairs: Iterator[Tuple[Point, Any]]) -> None:
        """Index an iterable of ``(point, item)`` pairs."""
        for point, item in pairs:
            self.insert(point, item)

    def query_box(self, box: BoundingBox) -> List[Tuple[Point, Any]]:
        """All indexed points falling inside ``box``, in row order."""
        min_cx = int(math.floor(box.min_x / self._cell_size))
        max_cx = int(math.floor(box.max_x / self._cell_size))
        min_cy = int(math.floor(box.min_y / self._cell_size))
        max_cy = int(math.floor(box.max_y / self._cell_size))
        found: List[Tuple[int, Point, Any]] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                for row, point, item in self._cells.get((cx, cy), ()):
                    if box.contains_point(point):
                        found.append((row, point, item))
        found.sort(key=itemgetter(0))
        return [(point, item) for _, point, item in found]

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
            for _, point, item in bucket:
                yield point, item

    def cell_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of indexed points per occupied cell (useful for density maps)."""
        return {cell: len(bucket) for cell, bucket in self._cells.items()}

    def bounds(self) -> Optional[BoundingBox]:
        """Bounding box of all indexed points, or None when empty."""
        if self._size == 0:
            return None
        points = [point for point, _ in self.all_items()]
        return BoundingBox.from_points(points)
