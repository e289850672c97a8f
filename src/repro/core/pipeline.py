"""The SeMiTri pipeline façade (Figure 2).

:class:`SeMiTriPipeline` wires the layers together: GPS cleaning, trajectory
identification, stop/move computation, and the three semantic annotation
layers (region, line, point), optionally persisting results in the semantic
trajectory store and recording per-stage latencies for the Figure 17
benchmark.

Stage orchestration itself lives in :mod:`repro.engine`: the pipeline
compiles a :class:`~repro.engine.plan.Plan` from its configuration and the
supplied sources and hands it to a
:class:`~repro.engine.executors.SequentialExecutor`, so batch, streaming and
parallel execution all run the exact same stage graph.

Annotation sources are supplied per call through :class:`AnnotationSources`;
layers whose source is missing are simply skipped, producing the partial
annotations the paper mentions for scenarios where third-party data is not
available (e.g. the sparse Lausanne POI set).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.analytics.latency import LatencyProfile
from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.errors import ConfigurationError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.core.trajectory import StructuredSemanticTrajectory
from repro.lines.annotator import LineAnnotator
from repro.lines.road_network import RoadNetwork
from repro.points.annotator import PointAnnotator
from repro.points.poi import PoiSource
from repro.regions.annotator import RegionAnnotator
from repro.regions.sources import RegionSource
from repro.store.store import SemanticTrajectoryStore

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.engine.plan import Plan
    from repro.faults.failures import FailureEvent
    from repro.obs.trace import Span

    #: One compiled-plan cache entry: the id-anchoring objects plus the plan.
    _CachedPlan = Tuple["LayerAnnotators", Optional["AnnotationSources"], "Plan"]


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
    """End-to-end semantic annotation pipeline."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        store: Optional[SemanticTrajectoryStore] = None,
    ):
        from repro.engine import CleanStage, ComputeEpisodesStage, IdentifyStage

        if config is None:
            # Built per call: the default reads SEMITRI_OBSERVABILITY now,
            # not whatever the environment held when this module was imported.
            config = PipelineConfig()
        self._config = config
        self._store = store
        self._clean_stage = CleanStage(config)
        self._identify_stage = IdentifyStage(config)
        self._episode_stage = ComputeEpisodesStage(config)
        # Compiled plans for caller-supplied annotator bundles, keyed by
        # (bundle id, sources id, persist) with both objects kept alive so
        # the ids stay unambiguous; bounded FIFO so long-lived pipelines
        # cannot pin an unbounded number of bundles.
        self._plans: "OrderedDict[Tuple[int, Optional[int], bool], _CachedPlan]" = (
            OrderedDict()
        )

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration."""
        return self._config

    @property
    def store(self) -> Optional[SemanticTrajectoryStore]:
        """The semantic trajectory store, when persistence is enabled."""
        return self._store

    # --------------------------------------------------------------- ingestion
    def ingest_stream(
        self, points: Sequence[SpatioTemporalPoint], object_id: str = "unknown"
    ) -> List[RawTrajectory]:
        """Clean a GPS stream and split it into raw trajectories.

        The fixes are read off ``points`` once; cleaning and splitting run on
        their ``x`` / ``y`` / ``t`` columns and build no point object.
        """
        cleaned = self._clean_stage.apply(points)
        return self._identify_stage.apply(cleaned, object_id=object_id)

    def compute_episodes(self, trajectory: RawTrajectory) -> List[Episode]:
        """Segment one trajectory into stop/move episodes."""
        return self._episode_stage.detector.segment(trajectory)

    # -------------------------------------------------------------- annotation
    def build_annotators(self, sources: AnnotationSources) -> LayerAnnotators:
        """Construct the layer annotators for the available sources."""
        return LayerAnnotators.build(sources, self._config)

    #: Bounded size of the per-bundle compiled-plan cache.
    _PLAN_CACHE_LIMIT = 8

    def compile_plan(
        self,
        sources: Optional[AnnotationSources] = None,
        annotators: Optional[LayerAnnotators] = None,
        persist: bool = False,
    ) -> "Plan":
        """The compiled stage plan for the given sources/annotators.

        When only ``sources`` are given the annotator bundle (and the plan)
        is built fresh per call — sources may change between calls, so their
        indexes are re-derived each time, exactly like the pre-engine
        pipeline.  Plans for caller-supplied ``annotators`` bundles are
        cached (bounded), so per-trajectory entry points like
        :meth:`annotate_prepared` reuse the compiled stage graph.
        """
        from repro.engine import Plan

        if annotators is None:
            if sources is None:
                raise ConfigurationError("compile_plan needs annotation sources or annotators")
            return Plan.compile(
                sources=sources, config=self._config, store=self._store, persist=persist
            )
        key = (id(annotators), None if sources is None else id(sources), persist)
        cached = self._plans.get(key)
        if cached is not None and cached[0] is annotators and cached[1] is sources:
            self._plans.move_to_end(key)
            return cached[2]
        plan = Plan.compile(
            sources=sources,
            config=self._config,
            annotators=annotators,
            store=self._store,
            persist=persist,
        )
        self._plans[key] = (annotators, sources, plan)
        while len(self._plans) > self._PLAN_CACHE_LIMIT:
            self._plans.popitem(last=False)
        return plan

    def annotate(
        self,
        trajectory: RawTrajectory,
        sources: AnnotationSources,
        persist: bool = False,
    ) -> PipelineResult:
        """Run the full annotation pipeline on one raw trajectory.

        The region layer annotates both stops and moves, the line layer
        processes move episodes, the point layer processes stop episodes;
        layers without an available source are skipped.  When ``persist`` is
        true (and a store was supplied) the trajectory, its episodes and their
        annotations are written to the semantic trajectory store, and the
        storage time is included in the latency profile.
        """
        from repro.engine import SequentialExecutor

        plan = self.compile_plan(sources, persist=persist)
        return SequentialExecutor().run_one(plan, trajectory)

    def annotate_many(
        self,
        trajectories: Sequence[RawTrajectory],
        sources: AnnotationSources,
        persist: bool = False,
        annotators: Optional[LayerAnnotators] = None,
    ) -> List[PipelineResult]:
        """Annotate several trajectories, reusing layer state across calls.

        Layer annotators are constructed once (building them involves indexing
        the sources), then applied to every trajectory; this is the batch mode
        the experiments of Section 5 use.  Passing a prebuilt ``annotators``
        bundle (e.g. from a :class:`~repro.parallel.GeoContext` snapshot)
        skips even that one-time construction, which is how repeated batch
        calls amortise index building.
        """
        from repro.engine import SequentialExecutor

        plan = self.compile_plan(sources, annotators=annotators, persist=persist)
        return SequentialExecutor().run(plan, trajectories)

    def annotate_prepared(
        self,
        trajectory: RawTrajectory,
        annotators: LayerAnnotators,
        persist: bool = False,
    ) -> PipelineResult:
        """Annotate one trajectory with an already-built annotator bundle.

        The entry point prebuilt-bundle consumers use (e.g. a
        :class:`~repro.parallel.GeoContext` snapshot): no per-call index
        construction happens, only stage execution.
        """
        from repro.engine import SequentialExecutor

        plan = self.compile_plan(annotators=annotators, persist=persist)
        return SequentialExecutor().run_one(plan, trajectory)

    # ---------------------------------------------------------------- analysis
    @staticmethod
    def merge_latencies(results: Sequence[PipelineResult]) -> LatencyProfile:
        """Combine the latency profiles of several pipeline results."""
        merged = LatencyProfile()
        for result in results:
            merged.merge(result.latency)
        return merged
