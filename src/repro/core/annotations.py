"""Annotations attached to trajectory points and episodes (Definition 3).

The paper distinguishes two kinds of annotation:

* **geographic reference annotations** link a position or episode to a
  semantic place (the landuse cell it falls in, the road segment it was
  matched to, the POI category inferred for a stop);
* **additional value annotations** carry extra semantic values that are not a
  place, e.g. the activity behind a stop ("shopping") or the transportation
  mode of a move ("metro").

Annotations are values.  The layer annotators build each distinct one once
per snapshot and share that object between every episode and record that
links the same place or carries the same value; the factories below build a
fresh one per call, for tests, examples and outside callers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.places import SemanticPlace


class AnnotationKind(str, enum.Enum):
    """Which layer produced an annotation and what it refers to."""

    REGION = "region"
    LINE = "line"
    POINT = "point"
    TRANSPORT_MODE = "transport_mode"
    ACTIVITY = "activity"
    VALUE = "value"


@dataclass(frozen=True)
class Annotation:
    """Base annotation: a kind, a confidence and free-form details.

    An annotation is an immutable value, and one object is shared by every
    result that links the same place or carries the same value (the layer
    annotators intern them per snapshot).  The dataclass is frozen, but
    ``details`` is a plain ``dict``: it is read-only by contract, and
    mutating it would change every result that shares the annotation.
    Equality is by value, so a shared annotation equals the one its factory
    builds.
    """

    kind: AnnotationKind
    confidence: float = 1.0
    details: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class GeographicReferenceAnnotation(Annotation):
    """An annotation that links to a semantic place object."""

    place: Optional[SemanticPlace] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.place is None:
            raise ValueError("a geographic reference annotation needs a place")

    @property
    def place_id(self) -> str:
        """Identifier of the referenced place."""
        assert self.place is not None
        return self.place.place_id

    @property
    def category(self) -> str:
        """Category of the referenced place (landuse code, road type, POI category)."""
        assert self.place is not None
        return self.place.category


@dataclass(frozen=True)
class ValueAnnotation(Annotation):
    """An annotation carrying a plain semantic value (activity, mode, speed...)."""

    label: str = ""
    value: Any = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.label:
            raise ValueError("a value annotation needs a non-empty label")


def region_annotation(
    place: SemanticPlace, confidence: float = 1.0, **details: Any
) -> GeographicReferenceAnnotation:
    """Build a region-layer geographic reference annotation."""
    return GeographicReferenceAnnotation(
        kind=AnnotationKind.REGION, confidence=confidence, details=dict(details), place=place
    )


def line_annotation(
    place: SemanticPlace, confidence: float = 1.0, **details: Any
) -> GeographicReferenceAnnotation:
    """Build a line-layer (map matching) geographic reference annotation."""
    return GeographicReferenceAnnotation(
        kind=AnnotationKind.LINE, confidence=confidence, details=dict(details), place=place
    )


def poi_annotation(
    place: SemanticPlace, confidence: float = 1.0, **details: Any
) -> GeographicReferenceAnnotation:
    """Build a point-layer (POI) geographic reference annotation."""
    return GeographicReferenceAnnotation(
        kind=AnnotationKind.POINT, confidence=confidence, details=dict(details), place=place
    )


def transport_mode_annotation(
    mode: str, confidence: float = 1.0, **details: Any
) -> ValueAnnotation:
    """Build a transportation-mode value annotation ("walk", "bus", ...)."""
    return ValueAnnotation(
        kind=AnnotationKind.TRANSPORT_MODE,
        confidence=confidence,
        details=dict(details),
        label="transport_mode",
        value=mode,
    )


def activity_annotation(activity: str, confidence: float = 1.0, **details: Any) -> ValueAnnotation:
    """Build an activity value annotation ("shopping", "work", ...)."""
    return ValueAnnotation(
        kind=AnnotationKind.ACTIVITY,
        confidence=confidence,
        details=dict(details),
        label="activity",
        value=activity,
    )
