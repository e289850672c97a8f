"""Region sources: indexed collections of regions of interest.

A :class:`RegionSource` wraps a set of :class:`~repro.core.places.RegionOfInterest`
objects behind a spatial index so the spatial join of Algorithm 1 only examines
the regions whose bounding box is near a query point or rectangle.  This plays
the role of the PostGIS tables + R*-tree index of the paper's implementation.

The index is one :class:`~repro.index.flat.FlatSpatialIndex`, STR-packed from
the regions' bounding-box columns when the source is constructed; the source
never changes afterwards.  Every lookup is a flat query: the batch methods ask
about whole position lists — or coordinate columns, which is what the
annotator hands over — at once, the single-point methods are the same queries
with one row.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.errors import SourceError
from repro.core.places import RegionOfInterest
from repro.geometry.predicates import polygon_intersects_bbox
from repro.geometry.primitives import BoundingBox, Point, Polygon
from repro.index.flat import FlatSpatialIndex, box_columns


class RegionSource:
    """An indexed third-party source of regions of interest."""

    def __init__(self, regions: Iterable[RegionOfInterest], name: str = "regions"):
        self._regions: List[RegionOfInterest] = list(regions)
        if not self._regions:
            raise SourceError(f"region source {name!r} contains no regions")
        self.name = name
        self._index = FlatSpatialIndex.from_boxes(
            box_columns(region.bounding_box() for region in self._regions), self._regions
        )

    def __len__(self) -> int:
        return len(self._regions)

    def flat_index(self) -> FlatSpatialIndex:
        """The source's spatial index (read-only arrays; workers share them zero-copy)."""
        return self._index

    @property
    def regions(self) -> List[RegionOfInterest]:
        """All regions in the source."""
        return list(self._regions)

    def regions_containing(self, point: Point) -> List[RegionOfInterest]:
        """Regions whose extent contains ``point`` (exact test after index filter)."""
        return self.regions_containing_batch([point])[0]

    def regions_intersecting(self, box: BoundingBox) -> List[RegionOfInterest]:
        """Regions whose extent intersects the query rectangle."""
        results: List[RegionOfInterest] = []
        for region in self._index.query_box_payloads(box):
            extent = region.extent
            if isinstance(extent, BoundingBox):
                if extent.intersects(box):
                    results.append(region)
            elif isinstance(extent, Polygon):
                if polygon_intersects_bbox(extent, box):
                    results.append(region)
        return results

    def first_region_containing(self, point: Point) -> Optional[RegionOfInterest]:
        """Smallest region containing ``point`` (ties broken by identifier).

        Overlapping region sources (a campus polygon on top of landuse cells)
        are resolved by preferring the most specific — smallest — region, which
        is how the paper's example annotates a stop with "EPFL campus" rather
        than the enclosing landuse cell.
        """
        return self.first_regions_containing_batch([point])[0]

    # ------------------------------------------------------------ batch paths
    def regions_containing_batch(self, points: Sequence[Point]) -> List[List[RegionOfInterest]]:
        """:meth:`regions_containing` of every point after one index query for all.

        Index-filter candidates in row order, then the exact containment test.
        """
        candidate_lists = self._index.query_point_payloads(points)
        return [
            [region for region in candidates if region.contains(point)]
            for point, candidates in zip(points, candidate_lists)
        ]

    def first_regions_containing_batch(
        self, points: Sequence[Point]
    ) -> List[Optional[RegionOfInterest]]:
        """:meth:`first_region_containing` of every point of a position list."""
        return self.first_regions_containing_columns(
            [point.x for point in points], [point.y for point in points]
        )

    def first_regions_containing_columns(
        self, xs: Sequence[float], ys: Sequence[float]
    ) -> List[Optional[RegionOfInterest]]:
        """:meth:`first_region_containing` of every position of two coordinate columns.

        What the annotator calls: one index query for all positions, then per
        position the exact test on its floats — the inclusive box test of
        :meth:`BoundingBox.contains_point` for a rectangle extent, a
        :class:`Point` only for a polygon's — over the candidates in row
        order, keeping the first with the smallest ``(area, place_id)``.
        """
        if not len(xs):
            return []
        offsets, rows = self._index.query_points_batch(xs, ys)
        payloads = self._index.payloads
        bounds = offsets.tolist()
        row_list = rows.tolist()
        found: List[Optional[RegionOfInterest]] = []
        for index, (x, y) in enumerate(zip(xs, ys)):
            best: Optional[RegionOfInterest] = None
            best_key = None
            for row in row_list[bounds[index] : bounds[index + 1]]:
                region = payloads[row]
                extent = region.extent
                if isinstance(extent, BoundingBox):
                    inside = extent.min_x <= x <= extent.max_x and extent.min_y <= y <= extent.max_y
                else:
                    inside = extent.contains(Point(x, y))
                if inside:
                    key = (region.area, region.place_id)
                    if best_key is None or key < best_key:
                        best, best_key = region, key
            found.append(best)
        return found

    def categories(self) -> List[str]:
        """Distinct categories appearing in the source, sorted."""
        return sorted({region.category for region in self._regions})


def merge_sources(sources: Sequence[RegionSource], name: str = "merged") -> RegionSource:
    """Concatenate several region sources into one indexed source."""
    regions: List[RegionOfInterest] = []
    for source in sources:
        regions.extend(source.regions)
    return RegionSource(regions, name=name)
