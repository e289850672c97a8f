"""SeMiTri reproduction: semantic annotation of heterogeneous trajectories.

A from-scratch Python implementation of the SeMiTri framework (Yan et al.,
EDBT 2011): the semantic trajectory model, the trajectory-computation layer
(cleaning, identification, stop/move segmentation), the three semantic
annotation layers (regions via spatial join, lines via global map matching and
transportation-mode inference, points via an HMM over POI categories), the
semantic trajectory store and analytics, and deterministic synthetic datasets
standing in for the paper's proprietary GPS and geographic sources.

The public API is the handful of functions in :mod:`repro.api`, re-exported
here::

    import repro
    from repro import AnnotationSources, PipelineConfig
    from repro.datasets import SyntheticWorld, TaxiFleetSimulator

    world = SyntheticWorld()
    taxis = TaxiFleetSimulator(world).generate()
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    results = repro.annotate_many(
        taxis.trajectories, sources, config=PipelineConfig.for_vehicles()
    )

plus :func:`repro.annotate` for one trajectory, :func:`repro.stream` for
online feeds, :func:`repro.serve` for the asyncio multi-stream ingestion
service, :func:`repro.compile_plan` for custom stage plans and
:func:`repro.open_pipeline` for the trajectory computation layer (clean a raw
GPS stream, split it into trajectories).  Each job has that one entry point.
Classes live in their own packages: the paper's pipeline object is
:class:`repro.core.SeMiTriPipeline` (preprocessing only) and the executors
are in :mod:`repro.engine`.
"""

from repro.core import (
    Annotation,
    AnnotationKind,
    AnnotationSources,
    Episode,
    EpisodeKind,
    LineOfInterest,
    MapMatchingConfig,
    PipelineConfig,
    PipelineResult,
    PointAnnotationConfig,
    PointOfInterest,
    RawTrajectory,
    RegionAnnotationConfig,
    RegionOfInterest,
    SemanticPlace,
    SpatioTemporalPoint,
    StopMoveConfig,
    StreamingConfig,
    StructuredSemanticTrajectory,
)
from repro.api import (
    annotate,
    annotate_many,
    compile_plan,
    open_pipeline,
    serve,
    stream,
)

__version__ = "2.0.0"

__all__ = [
    "Annotation",
    "AnnotationKind",
    "AnnotationSources",
    "Episode",
    "EpisodeKind",
    "LineOfInterest",
    "MapMatchingConfig",
    "PipelineConfig",
    "PipelineResult",
    "PointAnnotationConfig",
    "PointOfInterest",
    "RawTrajectory",
    "RegionAnnotationConfig",
    "RegionOfInterest",
    "SemanticPlace",
    "SpatioTemporalPoint",
    "StopMoveConfig",
    "StreamingConfig",
    "StructuredSemanticTrajectory",
    "__version__",
    "annotate",
    "annotate_many",
    "compile_plan",
    "open_pipeline",
    "serve",
    "stream",
]
