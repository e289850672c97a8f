"""Regular grid utilities.

Two of SeMiTri's layers rely on regular grids:

* the landuse source (Swisstopo in the paper) partitions space into 100 m x
  100 m cells, each carrying a landuse category;
* the point-annotation layer discretises the POI area into grid cells and
  pre-computes, per cell, the observation probability of each POI category
  (Section 4.3 of the paper).

:class:`GridSpec` describes a grid (origin, cell size, number of rows and
columns) and maps between world coordinates and cell indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.geometry.primitives import BoundingBox, Point

CellIndex = Tuple[int, int]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a regular grid: origin, cell size and dimensions."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.n_cols <= 0 or self.n_rows <= 0:
            raise ValueError("grid dimensions must be positive")

    @classmethod
    def covering(cls, box: BoundingBox, cell_size: float) -> "GridSpec":
        """Smallest grid with cells of ``cell_size`` covering ``box``."""
        import math

        n_cols = max(1, math.ceil(box.width / cell_size))
        n_rows = max(1, math.ceil(box.height / cell_size))
        return cls(box.min_x, box.min_y, cell_size, n_cols, n_rows)

    @property
    def bounds(self) -> BoundingBox:
        """Bounding box covered by the grid."""
        return BoundingBox(
            self.origin_x,
            self.origin_y,
            self.origin_x + self.n_cols * self.cell_size,
            self.origin_y + self.n_rows * self.cell_size,
        )

    def contains(self, point: Point) -> bool:
        """True when ``point`` falls inside the gridded area."""
        return self.bounds.contains_point(point)

    def cell_of(self, point: Point) -> Optional[CellIndex]:
        """Cell index ``(col, row)`` containing ``point``, or None if outside."""
        if not self.contains(point):
            return None
        col = int((point.x - self.origin_x) / self.cell_size)
        row = int((point.y - self.origin_y) / self.cell_size)
        col = min(col, self.n_cols - 1)
        row = min(row, self.n_rows - 1)
        return (col, row)

    def cell_bounds(self, cell: CellIndex) -> BoundingBox:
        """Bounding box of cell ``(col, row)``."""
        col, row = cell
        self._check_cell(cell)
        min_x = self.origin_x + col * self.cell_size
        min_y = self.origin_y + row * self.cell_size
        return BoundingBox(min_x, min_y, min_x + self.cell_size, min_y + self.cell_size)

    def cell_center(self, cell: CellIndex) -> Point:
        """Centre point of cell ``(col, row)``."""
        return self.cell_bounds(cell).center

    def neighbors(self, cell: CellIndex, radius: int = 1) -> List[CellIndex]:
        """Cells within ``radius`` (Chebyshev) of ``cell``, including itself."""
        col, row = cell
        self._check_cell(cell)
        result: List[CellIndex] = []
        for r in range(max(0, row - radius), min(self.n_rows, row + radius + 1)):
            for c in range(max(0, col - radius), min(self.n_cols, col + radius + 1)):
                result.append((c, r))
        return result

    def all_cells(self) -> Iterator[CellIndex]:
        """Iterate over every cell index in row-major order."""
        for row in range(self.n_rows):
            for col in range(self.n_cols):
                yield (col, row)

    def _check_cell(self, cell: CellIndex) -> None:
        col, row = cell
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            raise IndexError(f"cell {cell} outside grid {self.n_cols}x{self.n_rows}")
