"""Road network model: indexed road segments with connectivity.

A road network is a collection of :class:`~repro.core.places.LineOfInterest`
segments behind a spatial index (for candidate selection in Algorithm 2) plus
an adjacency structure over segment endpoints (used by the incremental and
Viterbi baseline matchers, which prefer topologically connected candidates).
The index is one :class:`~repro.index.flat.FlatSpatialIndex` with segment
geometry, STR-packed from the endpoint columns when the network is
constructed; the network never changes afterwards.

Road types carry the information the transportation-mode inference needs: a
``metro_line`` only serves metro trips, a ``path_way`` only walking and
cycling, a plain ``road`` serves walking, cycling, bus and car travel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.errors import SourceError
from repro.core.places import LineOfInterest
from repro.geometry.primitives import BoundingBox, Point, Segment
from repro.index.flat import FlatSpatialIndex


@dataclass(frozen=True)
class SegmentArrays:
    """Per-segment columns of a road network, in :meth:`RoadNetwork.flat_index` row order.

    Everything the columnar map-matching kernel reads per network beside the
    flat index itself: the endpoint columns (the flat index's own arrays, not
    copies) for re-scoring under the perpendicular metric, and the rank of
    each row's ``place_id`` among all ids in string order, which turns the
    matcher's "largest id wins an exact score tie" rule into an integer sort
    key.  Built once per network, with its index (so workers share the pages
    and no timed match pays for it), and treated as read-only.
    """

    start_xs: np.ndarray
    start_ys: np.ndarray
    end_xs: np.ndarray
    end_ys: np.ndarray
    id_ranks: np.ndarray


#: Default permissions and speed limits per road type.
ROAD_TYPE_PROFILES: Dict[str, Dict[str, object]] = {
    "road": {"allowed_modes": ("walk", "bicycle", "bus", "car"), "speed_limit": 13.9},
    "highway": {"allowed_modes": ("car", "bus"), "speed_limit": 33.3},
    "path_way": {"allowed_modes": ("walk", "bicycle"), "speed_limit": 4.0},
    "metro_line": {"allowed_modes": ("metro",), "speed_limit": 22.0},
    "rail": {"allowed_modes": ("train",), "speed_limit": 44.0},
}


def make_road_segment(
    place_id: str,
    name: str,
    start: Point,
    end: Point,
    road_type: str = "road",
) -> LineOfInterest:
    """Build a :class:`LineOfInterest` with the defaults of its road type."""
    profile = ROAD_TYPE_PROFILES.get(road_type, ROAD_TYPE_PROFILES["road"])
    return LineOfInterest(
        place_id=place_id,
        name=name,
        category=road_type,
        segment=Segment(start, end),
        road_type=road_type,
        allowed_modes=tuple(profile["allowed_modes"]),  # type: ignore[arg-type]
        speed_limit=float(profile["speed_limit"]),  # type: ignore[arg-type]
    )


class RoadNetwork:
    """An indexed, connected collection of road segments."""

    def __init__(self, segments: Iterable[LineOfInterest], name: str = "road-network"):
        self._segments: List[LineOfInterest] = list(segments)
        if not self._segments:
            raise SourceError(f"road network {name!r} contains no segments")
        self.name = name
        self._by_id: Dict[str, LineOfInterest] = {}
        for segment in self._segments:
            if segment.place_id in self._by_id:
                raise SourceError(f"duplicate road segment id {segment.place_id!r}")
            self._by_id[segment.place_id] = segment
        lines = [segment.segment for segment in self._segments]
        start_xs, start_ys, end_xs, end_ys = (
            np.fromiter(map(attrgetter(coordinate), lines), np.float64, len(lines))
            for coordinate in ("start.x", "start.y", "end.x", "end.y")
        )
        self._index = FlatSpatialIndex.from_boxes(
            # Segment.bounding_box(): the endpoints' min and max corner.
            (
                np.minimum(start_xs, end_xs),
                np.minimum(start_ys, end_ys),
                np.maximum(start_xs, end_xs),
                np.maximum(start_ys, end_ys),
            ),
            self._segments,
            segments=(start_xs, start_ys, end_xs, end_ys),
        )
        self._adjacency = self._build_adjacency()
        columns = self._index.segment_columns
        assert columns is not None  # the index is packed with segment geometry
        ids = [segment.place_id for segment in self._index.payloads]
        id_ranks = np.empty(len(ids), dtype=np.intp)
        id_ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        self._segment_arrays = SegmentArrays(*columns, id_ranks=id_ranks)

    # ----------------------------------------------------------- basic access
    def __len__(self) -> int:
        return len(self._segments)

    def segment_arrays(self) -> SegmentArrays:
        """Per-row columns for the columnar map matcher (built with the index)."""
        return self._segment_arrays

    @property
    def segments(self) -> List[LineOfInterest]:
        """All road segments."""
        return list(self._segments)

    def segment(self, place_id: str) -> LineOfInterest:
        """Look up a segment by identifier."""
        try:
            return self._by_id[place_id]
        except KeyError as error:
            raise SourceError(f"unknown road segment {place_id!r}") from error

    def bounds(self) -> BoundingBox:
        """Bounding box of the whole network."""
        box = self._index.bounds()
        assert box is not None
        return box

    def total_length(self) -> float:
        """Sum of all segment lengths."""
        return sum(segment.length for segment in self._segments)

    def road_types(self) -> List[str]:
        """Distinct road types present in the network, sorted."""
        return sorted({segment.road_type for segment in self._segments})

    # ------------------------------------------------------------- candidates
    def candidate_segments(
        self, point: Point, radius: float, max_candidates: Optional[int] = None
    ) -> List[Tuple[float, LineOfInterest]]:
        """Segments within ``radius`` of ``point`` sorted by point-segment distance.

        This is the ``candidateSegs(Q)`` selection of Algorithm 2: only
        neighbouring segments, found through the index, are considered.  One
        point's worth of the query the map matcher makes for whole episodes.
        """
        return self._index.within_distance_point(point, radius)[:max_candidates]

    def flat_index(self) -> FlatSpatialIndex:
        """The network's spatial index (read-only arrays; workers share them zero-copy).

        Distance queries refine by the exact point-segment distance of
        Equation 1.
        """
        return self._index

    def nearest_segment(self, point: Point) -> Tuple[float, LineOfInterest]:
        """The single nearest segment to ``point`` (exact point-segment distance)."""
        return self._index.nearest_point(point)[0]

    # ------------------------------------------------------------ connectivity
    def _build_adjacency(self) -> Dict[str, Set[str]]:
        """Connect segments that share an endpoint (snapped to a small grid)."""
        def key_of(point: Point) -> Tuple[int, int]:
            return (round(point.x * 10), round(point.y * 10))

        by_endpoint: Dict[Tuple[int, int], Set[str]] = defaultdict(set)
        for segment in self._segments:
            by_endpoint[key_of(segment.segment.start)].add(segment.place_id)
            by_endpoint[key_of(segment.segment.end)].add(segment.place_id)

        adjacency: Dict[str, Set[str]] = defaultdict(set)
        for connected in by_endpoint.values():
            for a in connected:
                for b in connected:
                    if a != b:
                        adjacency[a].add(b)
        return adjacency

    def neighbors(self, place_id: str) -> List[str]:
        """Identifiers of segments sharing an endpoint with ``place_id``."""
        self.segment(place_id)
        return sorted(self._adjacency.get(place_id, ()))

    def are_connected(self, a: str, b: str) -> bool:
        """True when the two segments share an endpoint (or are the same segment)."""
        if a == b:
            return True
        return b in self._adjacency.get(a, ())

    def connectivity_distance(self, a: str, b: str, max_hops: int = 3) -> Optional[int]:
        """Number of hops between two segments in the adjacency graph.

        Returns None when ``b`` is farther than ``max_hops`` from ``a``; used by
        the Viterbi baseline matcher to penalise topologically implausible
        transitions.
        """
        if a == b:
            return 0
        frontier: Set[str] = {a}
        visited: Set[str] = {a}
        for hops in range(1, max_hops + 1):
            next_frontier: Set[str] = set()
            for node in frontier:
                for neighbor in self._adjacency.get(node, ()):
                    if neighbor == b:
                        return hops
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
            if not frontier:
                return None
        return None
