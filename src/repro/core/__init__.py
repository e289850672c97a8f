"""Core data model and pipeline façade for SeMiTri.

This package implements the conceptual model of Section 3 of the paper:

* :class:`~repro.core.points.SpatioTemporalPoint` and
  :class:`~repro.core.points.RawTrajectory` — Definition 1;
* :class:`~repro.core.places.SemanticPlace` and its region/line/point
  specialisations — Definition 2;
* :class:`~repro.core.annotations.Annotation` and
  :class:`~repro.core.trajectory.SemanticTrajectory` — Definition 3;
* :class:`~repro.core.episodes.Episode` and
  :class:`~repro.core.trajectory.StructuredSemanticTrajectory` — Definition 4;
* :class:`~repro.core.pipeline.SeMiTriPipeline` — the layered architecture of
  Figure 2, wiring the trajectory-computation layer and the three annotation
  layers together.
"""

from repro.core.annotations import (
    Annotation,
    AnnotationKind,
    GeographicReferenceAnnotation,
    ValueAnnotation,
)
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import (
    ConfigurationError,
    DataQualityError,
    SemitriError,
    SourceError,
)
from repro.core.places import (
    LineOfInterest,
    PlaceKind,
    PointOfInterest,
    RegionOfInterest,
    SemanticPlace,
)
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.core.cpu import effective_cpu_count
from repro.core.trajectory import SemanticTrajectory, StructuredSemanticTrajectory
from repro.core.config import (
    MapMatchingConfig,
    ObservabilityConfig,
    ParallelConfig,
    PipelineConfig,
    PointAnnotationConfig,
    RegionAnnotationConfig,
    StopMoveConfig,
    StreamingConfig,
)
from repro.core.pipeline import (
    AnnotationSources,
    LayerAnnotators,
    PipelineResult,
    SeMiTriPipeline,
)

__all__ = [
    "Annotation",
    "AnnotationKind",
    "GeographicReferenceAnnotation",
    "ValueAnnotation",
    "Episode",
    "EpisodeKind",
    "SemitriError",
    "ConfigurationError",
    "DataQualityError",
    "SourceError",
    "SemanticPlace",
    "PlaceKind",
    "RegionOfInterest",
    "LineOfInterest",
    "PointOfInterest",
    "RawTrajectory",
    "SpatioTemporalPoint",
    "effective_cpu_count",
    "SemanticTrajectory",
    "StructuredSemanticTrajectory",
    "ObservabilityConfig",
    "ParallelConfig",
    "PipelineConfig",
    "StopMoveConfig",
    "RegionAnnotationConfig",
    "MapMatchingConfig",
    "PointAnnotationConfig",
    "StreamingConfig",
    "AnnotationSources",
    "LayerAnnotators",
    "PipelineResult",
    "SeMiTriPipeline",
]
