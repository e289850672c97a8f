"""The paper's pipeline vocabulary (Figure 2).

:class:`SeMiTriPipeline` is the trajectory computation layer: it cleans a
raw GPS stream and splits it into raw trajectories (``ingest_stream``).
Everything after that — stop/move computation, the region / line / point
annotation layers, store write-back and the per-stage latencies of
Figure 17 — is the stage graph of :mod:`repro.engine`, and
:mod:`repro.api` is the one way to run it (``annotate``, ``annotate_many``,
``stream``, ``serve``).

This module also holds the values every entry point shares:
:class:`AnnotationSources` (layers whose source is missing are simply
skipped, producing the partial annotations the paper mentions for scenarios
where third-party data is not available, e.g. the sparse Lausanne POI set),
the :class:`LayerAnnotators` bundle built from them and the per-trajectory
:class:`PipelineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.analytics.latency import LatencyProfile
from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.core.trajectory import StructuredSemanticTrajectory
from repro.lines.annotator import LineAnnotator
from repro.lines.road_network import RoadNetwork
from repro.points.annotator import PointAnnotator
from repro.points.poi import PoiSource
from repro.regions.annotator import RegionAnnotator
from repro.regions.sources import RegionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.faults.failures import FailureEvent
    from repro.obs.trace import Span


@dataclass
class AnnotationSources:
    """Third-party geographic sources available for annotation."""

    regions: Optional[RegionSource] = None
    road_network: Optional[RoadNetwork] = None
    pois: Optional[PoiSource] = None

    def available_layers(self) -> List[str]:
        """Names of the annotation layers that can run with these sources."""
        layers: List[str] = []
        if self.regions is not None:
            layers.append("region")
        if self.road_network is not None:
            layers.append("line")
        if self.pois is not None:
            layers.append("point")
        return layers


#: The configuration sections :meth:`LayerAnnotators.build` reads: a snapshot's
#: annotators are only valid for a config that agrees with its own on these.
ANNOTATOR_SECTIONS: Tuple[str, ...] = ("region", "map_matching", "transport", "point")


@dataclass
class LayerAnnotators:
    """The three layer annotators built once for a batch or stream of work.

    Building an annotator prepares its models (observation grid, HMM), so both
    batch runs and the streaming engine construct this bundle once and reuse
    it for every trajectory.
    """

    region: Optional[RegionAnnotator] = None
    line: Optional[LineAnnotator] = None
    point: Optional[PointAnnotator] = None

    @classmethod
    def build(cls, sources: AnnotationSources, config: PipelineConfig) -> "LayerAnnotators":
        """Construct the annotators for every source that is available."""
        return cls(
            region=(
                RegionAnnotator(sources.regions, config.region)
                if sources.regions is not None
                else None
            ),
            line=(
                LineAnnotator(
                    sources.road_network,
                    matching_config=config.map_matching,
                    transport_config=config.transport,
                )
                if sources.road_network is not None
                else None
            ),
            point=(
                PointAnnotator(sources.pois, config.point) if sources.pois is not None else None
            ),
        )


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one raw trajectory."""

    trajectory: RawTrajectory
    episodes: List[Episode]
    region_trajectory: Optional[StructuredSemanticTrajectory] = None
    line_trajectories: List[StructuredSemanticTrajectory] = field(default_factory=list)
    point_trajectory: Optional[StructuredSemanticTrajectory] = None
    trajectory_category: Optional[str] = None
    latency: LatencyProfile = field(default_factory=LatencyProfile)
    spans: List["Span"] = field(default_factory=list)
    """Trace spans emitted for this trajectory (empty unless tracing is on).

    Spans are plain picklable dataclasses, so a result produced inside a
    pool worker carries its spans back to the parent process, where the
    plan's tracer adopts them (see :meth:`repro.obs.runtime.Telemetry.collect`).
    Like ``latency``, spans are telemetry — excluded from canonical bytes.
    """
    fault_events: List["FailureEvent"] = field(default_factory=list)
    """Failure history of a retried-then-successful trajectory.

    Empty on the happy path.  Under ``FailurePolicy(mode="retry")`` a
    trajectory that failed and then succeeded carries one
    :class:`~repro.faults.failures.FailureEvent` per failed attempt, which the
    parent-side collection points fold into the run's failure log.  Like
    ``latency`` and ``spans``, this is bookkeeping — excluded from canonical
    bytes, so a retried result stays byte-identical to a fault-free one.
    """

    @property
    def stops(self) -> List[Episode]:
        """Stop episodes of the trajectory."""
        return [episode for episode in self.episodes if episode.is_stop]

    @property
    def moves(self) -> List[Episode]:
        """Move episodes of the trajectory."""
        return [episode for episode in self.episodes if episode.is_move]

    def transport_modes(self) -> List[str]:
        """Transportation modes inferred for the move episodes, in order."""
        modes: List[str] = []
        for structured in self.line_trajectories:
            modes.extend(structured.mode_sequence())
        return modes


class SeMiTriPipeline:
    """The trajectory computation layer: clean a GPS stream, split it into
    raw trajectories.  Annotation is :func:`repro.api.annotate` /
    :func:`repro.api.annotate_many`."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        from repro.engine import CleanStage, IdentifyStage

        if config is None:
            # Built per call: the default reads SEMITRI_OBSERVABILITY now,
            # not whatever the environment held when this module was imported.
            config = PipelineConfig()
        self._config = config
        self._clean_stage = CleanStage(config)
        self._identify_stage = IdentifyStage(config)

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration."""
        return self._config

    def ingest_stream(
        self, points: Sequence[SpatioTemporalPoint], object_id: str = "unknown"
    ) -> List[RawTrajectory]:
        """Clean a GPS stream and split it into raw trajectories.

        The fixes are read off ``points`` once; cleaning and splitting run on
        their ``x`` / ``y`` / ``t`` columns and build no point object.
        """
        cleaned = self._clean_stage.apply(points)
        return self._identify_stage.apply(cleaned, object_id=object_id)

    @staticmethod
    def merge_latencies(results: Sequence[PipelineResult]) -> LatencyProfile:
        """Combine the latency profiles of several pipeline results."""
        merged = LatencyProfile()
        for result in results:
            merged.merge(result.latency)
        return merged
