"""POI sources: indexed collections of points of interest.

The Milan dataset of the paper has 39,772 POIs in five top-categories
(services, feedings, item sale, person life, unknown); this module provides
the indexed container (:class:`PoiSource`) the observation model and the HMM
initial probabilities are derived from.

The index is one :class:`~repro.index.flat.FlatSpatialIndex` in its point
layout — the POI coordinates as columns sorted by the cells of a uniform grid
— built when the source is constructed; the source never changes afterwards.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import SourceError
from repro.core.places import PointOfInterest
from repro.geometry.primitives import BoundingBox, Point
from repro.index.flat import FlatSpatialIndex, point_columns


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
        self._index = FlatSpatialIndex.from_points(
            *point_columns([poi.location for poi in self._pois]),
            self._pois,
            cell_size=index_cell_size,
        )

    def __len__(self) -> int:
        return len(self._pois)

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
        """The source's spatial index (read-only arrays; workers share them zero-copy)."""
        return self._index

    def pois_within(self, center: Point, radius: float) -> List[Tuple[float, PointOfInterest]]:
        """POIs within ``radius`` of ``center``, in ``(distance, row)`` order."""
        return self._index.within_distance_point(center, radius)

    def pois_within_batch(
        self, centers: Sequence[Point], radius: float
    ) -> List[List[Tuple[float, PointOfInterest]]]:
        """:meth:`pois_within` of every centre after one index query for all."""
        return self._index.within_distance_pairs(centers, radius)

    def pois_in_box(self, box: BoundingBox) -> List[PointOfInterest]:
        """POIs falling inside a query rectangle."""
        return self._index.query_box_payloads(box)

    def nearest(self, center: Point, count: int = 1) -> List[Tuple[float, PointOfInterest]]:
        """The ``count`` POIs nearest to ``center``."""
        return self._index.nearest_point(center, count)

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
