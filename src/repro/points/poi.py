"""POI sources: indexed collections of points of interest.

The Milan dataset of the paper has 39,772 POIs in five top-categories
(services, feedings, item sale, person life, unknown); this module provides
the indexed container (:class:`PoiSource`) the observation model and the HMM
initial probabilities are derived from.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import SourceError
from repro.core.places import PointOfInterest
from repro.geometry.primitives import BoundingBox, Point
from repro.index.flat import FlatSpatialIndex
from repro.index.grid_index import GridIndex


#: The five Milan top-categories used throughout Section 4.3 and Figure 11.
DEFAULT_POI_CATEGORIES: Tuple[str, ...] = (
    "services",
    "feedings",
    "item sale",
    "person life",
    "unknown",
)


class PoiSource:
    """An indexed third-party source of points of interest."""

    def __init__(
        self,
        pois: Iterable[PointOfInterest],
        name: str = "pois",
        index_cell_size: float = 100.0,
    ):
        self._pois: List[PointOfInterest] = list(pois)
        if not self._pois:
            raise SourceError(f"POI source {name!r} contains no points of interest")
        self.name = name
        self._index = GridIndex(cell_size=index_cell_size)
        for poi in self._pois:
            self._index.insert(poi.location, poi)
        self._flat_index: Optional[FlatSpatialIndex] = None

    def __len__(self) -> int:
        return len(self._pois)

    def freeze(self) -> "PoiSource":
        """Seal the source's grid index for read-only sharing across workers."""
        self._index.freeze()
        return self

    @property
    def pois(self) -> List[PointOfInterest]:
        """All points of interest in the source."""
        return list(self._pois)

    def categories(self) -> List[str]:
        """Distinct categories, ordered by first appearance then alphabetically.

        The category order determines the HMM state order; keeping it stable
        makes the decoded state indices reproducible.
        """
        seen: Dict[str, None] = {}
        for poi in self._pois:
            seen.setdefault(poi.category, None)
        return list(seen.keys())

    def category_counts(self) -> Dict[str, int]:
        """Number of POIs per category (used for the initial probabilities pi)."""
        return dict(Counter(poi.category for poi in self._pois))

    def initial_probabilities(self) -> Dict[str, float]:
        """pi: fraction of POIs belonging to each category (Section 4.3)."""
        counts = self.category_counts()
        total = sum(counts.values())
        return {category: count / total for category, count in counts.items()}

    def flat_index(self) -> FlatSpatialIndex:
        """The batch flat index compiled from the grid (built on first use).

        Compiling freezes the grid (the POI set never grows after
        construction); batch queries return the same POIs in the same
        ``(distance, row)`` order as :meth:`pois_within`.
        """
        if self._flat_index is None:
            self._flat_index = FlatSpatialIndex.from_grid(self._index)
        return self._flat_index

    def pois_within(self, center: Point, radius: float) -> List[Tuple[float, PointOfInterest]]:
        """POIs within ``radius`` of ``center``, sorted by distance."""
        return [
            (distance, poi) for distance, _, poi in self._index.query_radius(center, radius)
        ]

    def pois_within_batch(
        self, centers: Sequence[Point], radius: float
    ) -> List[List[Tuple[float, PointOfInterest]]]:
        """Batch :meth:`pois_within`: one flat-index query for all centres."""
        return self.flat_index().within_distance_pairs(centers, radius)

    def pois_in_box(self, box: BoundingBox) -> List[PointOfInterest]:
        """POIs falling inside a query rectangle."""
        return [poi for _, poi in self._index.query_box(box)]

    def nearest(self, center: Point, count: int = 1) -> List[Tuple[float, PointOfInterest]]:
        """The ``count`` POIs nearest to ``center``."""
        return [
            (distance, poi) for distance, _, poi in self._index.nearest(center, count=count)
        ]

    def bounds(self) -> BoundingBox:
        """Bounding box of all POIs."""
        box = self._index.bounds()
        assert box is not None
        return box

    def density_per_category(self, box: Optional[BoundingBox] = None) -> Dict[str, float]:
        """POIs per square kilometre for each category over ``box`` (or the full extent)."""
        extent = box if box is not None else self.bounds()
        area_km2 = max(extent.area / 1e6, 1e-9)
        counts: Dict[str, int] = {}
        pois = self.pois_in_box(extent) if box is not None else self._pois
        for poi in pois:
            counts[poi.category] = counts.get(poi.category, 0) + 1
        return {category: count / area_km2 for category, count in counts.items()}


def category_counts(pois: Sequence[PointOfInterest]) -> Dict[str, int]:
    """Number of POIs per category for a plain sequence of POIs."""
    return dict(Counter(poi.category for poi in pois))
