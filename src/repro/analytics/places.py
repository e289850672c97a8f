"""Frequent-place discovery from stop episodes.

The Semantic Trajectory Analytics Layer of Figure 2 lists clustering among its
methodologies ("frequent stops, trajectory patterns").  This module clusters
stop centres into *frequent places* — the personally meaningful locations
(home, office, favourite shop) that recur across the daily trajectories of one
moving object — with a simple density-based (DBSCAN-style) clustering over
stop centres.

The discovered places can then be named from the annotations the semantic
layers attached to their member stops (dominant landuse category, dominant
activity), which is how "home" / "office" style labels emerge without any
application database.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.annotations import AnnotationKind, GeographicReferenceAnnotation
from repro.core.episodes import Episode
from repro.geometry.primitives import BoundingBox, Point
from repro.index.flat import FlatSpatialIndex, point_columns


@dataclass
class FrequentPlace:
    """A cluster of stop episodes that recur at (roughly) the same location."""

    place_index: int
    center: Point
    stops: List[Episode] = field(default_factory=list)

    @property
    def visit_count(self) -> int:
        """Number of stop episodes in the cluster."""
        return len(self.stops)

    @property
    def total_dwell_time(self) -> float:
        """Total time (seconds) spent at this place across all visits."""
        return sum(stop.duration for stop in self.stops)

    def bounding_box(self) -> BoundingBox:
        """Bounding box of the member stop centres."""
        return BoundingBox.from_points([stop.center() for stop in self.stops])

    def dominant_region_category(self) -> Optional[str]:
        """The most frequent landuse category among member stops, if any."""
        labels: List[str] = []
        for stop in self.stops:
            for annotation in stop.annotations_of_kind(AnnotationKind.REGION):
                if isinstance(annotation, GeographicReferenceAnnotation):
                    labels.append(annotation.category)
        if not labels:
            return None
        return Counter(labels).most_common(1)[0][0]


class FrequentPlaceMiner:
    """Density-based clustering of stop centres into frequent places.

    Parameters
    ----------
    radius:
        Two stops closer than this (centre to centre) belong to the same place.
    min_visits:
        Clusters with fewer stops than this are discarded as one-off visits.
    """

    def __init__(self, radius: float = 100.0, min_visits: int = 2):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if min_visits < 1:
            raise ValueError("min_visits must be at least 1")
        self._radius = radius
        self._min_visits = min_visits

    def mine(self, stops: Sequence[Episode]) -> List[FrequentPlace]:
        """Cluster ``stops`` and return the frequent places, most visited first."""
        stop_list = [stop for stop in stops if stop.is_stop]
        if not stop_list:
            return []

        # Every stop's neighbours within the radius, nearest first: one query
        # of an index over the stop centres (payload: position in stop_list).
        stop_centers = [stop.center() for stop in stop_list]
        index = FlatSpatialIndex.from_points(*point_columns(stop_centers), range(len(stop_list)))
        neighbor_lists = index.within_distance_pairs(stop_centers, self._radius)

        labels: Dict[int, int] = {}
        next_label = 0
        for position, stop in enumerate(stop_list):
            if position in labels:
                continue
            # Grow the cluster from this seed by breadth-first expansion.
            labels[position] = next_label
            frontier = [position]
            while frontier:
                current = frontier.pop()
                for _, neighbor in neighbor_lists[current]:
                    if neighbor not in labels:
                        labels[neighbor] = next_label
                        frontier.append(neighbor)
            next_label += 1

        clusters: Dict[int, List[Episode]] = {}
        for position, label in labels.items():
            clusters.setdefault(label, []).append(stop_list[position])

        places: List[FrequentPlace] = []
        for label, members in clusters.items():
            if len(members) < self._min_visits:
                continue
            centers = [stop.center() for stop in members]
            centroid = Point(
                sum(point.x for point in centers) / len(centers),
                sum(point.y for point in centers) / len(centers),
            )
            places.append(FrequentPlace(place_index=label, center=centroid, stops=members))

        places.sort(key=lambda place: (-place.visit_count, -place.total_dwell_time))
        for rank, place in enumerate(places):
            place.place_index = rank
        return places


def label_home_and_work(places: Sequence[FrequentPlace]) -> Dict[int, str]:
    """Heuristically label the discovered places as home / work / other.

    The place with the largest total dwell time whose visits centre on night
    hours is labelled ``"home"``; the largest remaining daytime place is
    labelled ``"work"``; everything else is ``"other"``.  Returns a mapping
    from place index to label.
    """
    labels: Dict[int, str] = {place.place_index: "other" for place in places}
    if not places:
        return labels

    def night_fraction(place: FrequentPlace) -> float:
        night = 0.0
        total = 0.0
        for stop in place.stops:
            hour = (stop.time_in % 86_400.0) / 3600.0
            total += stop.duration
            if hour >= 20.0 or hour < 8.0:
                night += stop.duration
        return night / total if total > 0 else 0.0

    by_dwell = sorted(places, key=lambda place: -place.total_dwell_time)
    home = max(by_dwell, key=lambda place: (night_fraction(place), place.total_dwell_time))
    labels[home.place_index] = "home"
    for place in by_dwell:
        if place.place_index != home.place_index:
            labels[place.place_index] = "work"
            break
    return labels
