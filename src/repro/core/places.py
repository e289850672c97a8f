"""Semantic places (Definition 2): regions, lines and points of interest.

A semantic place is a meaningful geographic object taken from a third-party
source and used to annotate trajectory data.  The set of places is partitioned
by the geometric shape of their extent: regions (ROIs, e.g. landuse cells and
campus polygons), lines (LOIs, road segments) and points (POIs, shops and
restaurants).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Union

from repro.geometry.primitives import BoundingBox, Point, Polygon, Segment


class PlaceKind(str, enum.Enum):
    """Geometric kind of a semantic place's extent."""

    REGION = "region"
    LINE = "line"
    POINT = "point"


@dataclass(frozen=True)
class SemanticPlace:
    """Base class for all semantic places.

    Attributes
    ----------
    place_id:
        Source-unique identifier of the place.
    name:
        Human-readable label ("EPFL campus", "Ch. Veilloud", "Cafe Milano").
    category:
        Source-specific category code, e.g. a landuse sub-category ("1.2"),
        a road type ("metro_line") or a POI top-category ("feedings").
    attributes:
        Free-form metadata copied from the source record.
    """

    place_id: str
    name: str
    category: str
    attributes: Dict[str, str] = field(default_factory=dict)

    @property
    def kind(self) -> PlaceKind:
        """Geometric kind of the extent; overridden by subclasses."""
        raise NotImplementedError

    def bounding_box(self) -> BoundingBox:
        """Axis-aligned bounding box of the extent; overridden by subclasses."""
        raise NotImplementedError


@dataclass(frozen=True)
class RegionOfInterest(SemanticPlace):
    """A semantic place whose extent is a region (polygon or rectangle)."""

    extent: Union[Polygon, BoundingBox] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.extent is None:
            raise ValueError("a region of interest needs an extent")

    @property
    def kind(self) -> PlaceKind:
        return PlaceKind.REGION

    def bounding_box(self) -> BoundingBox:
        if isinstance(self.extent, BoundingBox):
            return self.extent
        return self.extent.bounding_box

    def contains(self, point: Point) -> bool:
        """True when ``point`` lies inside the region's extent."""
        if isinstance(self.extent, BoundingBox):
            return self.extent.contains_point(point)
        return self.extent.contains(point)

    @property
    def area(self) -> float:
        """Area of the region's extent."""
        if isinstance(self.extent, BoundingBox):
            return self.extent.area
        return self.extent.area

    @property
    def center(self) -> Point:
        """Centroid of the region's extent."""
        if isinstance(self.extent, BoundingBox):
            return self.extent.center
        return self.extent.centroid


@dataclass(frozen=True)
class LineOfInterest(SemanticPlace):
    """A semantic place whose extent is a line: one road segment.

    Road networks are modelled as collections of :class:`LineOfInterest`
    segments; the :mod:`repro.lines.road_network` module adds connectivity on
    top of them.
    """

    segment: Segment = None  # type: ignore[assignment]
    road_type: str = "road"
    allowed_modes: tuple = ("walk", "bicycle", "bus")
    speed_limit: float = 13.9  # metres per second (~50 km/h)

    def __post_init__(self) -> None:
        if self.segment is None:
            raise ValueError("a line of interest needs a segment")

    @property
    def kind(self) -> PlaceKind:
        return PlaceKind.LINE

    def bounding_box(self) -> BoundingBox:
        return self.segment.bounding_box()

    @property
    def length(self) -> float:
        """Length of the road segment."""
        return self.segment.length


@dataclass(frozen=True)
class PointOfInterest(SemanticPlace):
    """A semantic place whose extent is a point: a shop, restaurant, office..."""

    location: Point = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.location is None:
            raise ValueError("a point of interest needs a location")

    @property
    def kind(self) -> PlaceKind:
        return PlaceKind.POINT

    def bounding_box(self) -> BoundingBox:
        return BoundingBox(self.location.x, self.location.y, self.location.x, self.location.y)

    def distance_to(self, point: Point) -> float:
        """Planar distance from the POI to ``point``."""
        return self.location.distance_to(point)
