"""Region sources: indexed collections of regions of interest.

A :class:`RegionSource` wraps a set of :class:`~repro.core.places.RegionOfInterest`
objects behind a spatial index so the spatial join of Algorithm 1 only examines
the regions whose bounding box is near a query point or rectangle.  This plays
the role of the PostGIS tables + R*-tree index of the paper's implementation.

The index is one :class:`~repro.index.flat.FlatSpatialIndex` over the
regions' bounding-box columns, taken when the source is constructed (index row
``i`` is region ``i``); the source never changes afterwards.  Every lookup is
a flat query: the containment join asks about a whole coordinate column pair
at once
(:meth:`RegionSource.first_regions_containing_columns`, what the annotator
hands over), and the single-point :meth:`RegionSource.first_region_containing`
is the same query with one row.

The join is an array join: each position's candidates come from one cell of
the index's cell table, already box-tested; only candidates whose extent is a
polygon get :meth:`Polygon.contains` on their own floats; and the region of a
position is the candidate of least rank in a per-row ``(area, place_id,
row)`` order (:class:`_RankTable`, built on the first join) — a minimum over
integers, with no loop per position or per candidate.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Sequence

import numpy as np

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
        #: Index rows (region positions) whose extent is a polygon: a rank
        #: table reads the area of these only, a join tests them exactly.
        self._polygon_rows = [
            row for row, region in enumerate(self._regions) if isinstance(region.extent, Polygon)
        ]
        self._ranks: Optional[_RankTable] = None

    def __len__(self) -> int:
        return len(self._regions)

    def __getstate__(self) -> dict:
        # The rank table is rebuilt lazily by whoever joins against the copy.
        state = self.__dict__.copy()
        state["_ranks"] = None
        return state

    def flat_index(self) -> FlatSpatialIndex:
        """The source's spatial index (read-only arrays; workers share them zero-copy)."""
        return self._index

    @property
    def regions(self) -> List[RegionOfInterest]:
        """All regions in the source."""
        return list(self._regions)

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
        return self.first_regions_containing_columns([point.x], [point.y])[0]

    # ------------------------------------------------------------ batch paths
    def first_regions_containing_columns(
        self, xs: Sequence[float], ys: Sequence[float]
    ) -> List[Optional[RegionOfInterest]]:
        """:meth:`first_region_containing` of every position of two coordinate columns.

        What the annotator calls: one index query for all positions — whose
        inclusive box test is :meth:`BoundingBox.contains_point` of a
        rectangle extent — then :meth:`Polygon.contains` on the candidates
        whose extent is a polygon, and per position the candidate of least
        rank (:class:`_RankTable`): the first with the smallest
        ``(area, place_id)``.
        """
        if not len(xs):
            return []
        column_xs = np.asarray(xs, dtype=np.float64)
        column_ys = np.asarray(ys, dtype=np.float64)
        offsets, rows = self._index.query_points_batch(column_xs, column_ys)
        table = self._rank_table()
        counts = np.diff(offsets)
        if table.polygon_rows is not None:
            checked = np.flatnonzero(table.polygon_rows[rows])
            if len(checked):
                positions = np.repeat(np.arange(len(xs)), counts)
                at = positions[checked]
                payloads = self._index.payloads
                inside = [
                    payloads[row].extent.contains(Point(x, y))
                    for row, x, y in zip(
                        rows[checked].tolist(), column_xs[at].tolist(), column_ys[at].tolist()
                    )
                ]
                outside = checked[~np.array(inside, dtype=bool)]
                if len(outside):
                    positions = np.delete(positions, outside)
                    rows = np.delete(rows, outside)
                    counts = np.bincount(positions, minlength=len(xs))
        best = np.full(len(xs), len(table.by_rank) - 1, dtype=np.intp)
        if len(rows):
            found = counts > 0
            firsts = (np.cumsum(counts) - counts)[found]
            best[found] = np.minimum.reduceat(table.rank_of_row[rows], firsts)
        return table.by_rank[best].tolist()

    def _rank_table(self) -> "_RankTable":
        """The source's rank table, built on the first join."""
        table = self._ranks
        if table is None:
            table = self._ranks = _RankTable(self._index, self._polygon_rows)
        return table

    def categories(self) -> List[str]:
        """Distinct categories appearing in the source, sorted."""
        return sorted({region.category for region in self._regions})


class _RankTable:
    """Every row of a region index ranked by ``(area, place_id, row)``.

    The least-ranked candidate containing a position is the first with the
    smallest ``(area, place_id)``, so a join takes a minimum of integers.  A
    rectangle's area is ``width * height`` of the index's own box columns;
    only a polygon (a row of ``polygon_rows``) reads its
    :attr:`~RegionOfInterest.area`.  Rows are sorted by place id, then stably
    by area, so equal keys stay in row order.
    """

    __slots__ = ("polygon_rows", "rank_of_row", "by_rank")

    def __init__(self, index: FlatSpatialIndex, polygon_rows: List[int]):
        regions = index.payloads
        count = len(regions)
        min_xs, min_ys, max_xs, max_ys = index.entry_columns
        areas = (max_xs - min_xs) * (max_ys - min_ys)
        for row in polygon_rows:
            areas[row] = regions[row].area
        place_ids = list(map(attrgetter("place_id"), regions))
        by_place_id = np.array(sorted(range(count), key=place_ids.__getitem__), dtype=np.intp)
        row_of_rank = by_place_id[np.argsort(areas[by_place_id], kind="stable")]
        #: Rows whose extent is a polygon, as a mask (``None`` when there are none).
        self.polygon_rows = None
        if polygon_rows:
            self.polygon_rows = np.zeros(count, dtype=bool)
            self.polygon_rows[polygon_rows] = True
        #: Rank of every row.
        self.rank_of_row = np.empty(count, dtype=np.int32)
        self.rank_of_row[row_of_rank] = np.arange(count, dtype=np.int32)
        #: Region of every rank, then ``None`` (the rank of "no region").
        self.by_rank = np.append(np.fromiter(regions, dtype=object, count=count)[row_of_rank], None)
