"""Typed pipeline stages: the Figure 2 dataflow as first-class objects.

The SeMiTri pipeline is one dataflow — clean, identify, compute episodes,
then the region / line / point annotation layers, with optional store
write-back — but the repo used to re-encode that sequence separately in the
batch pipeline, the streaming engine and the parallel runner.  This module
makes every step an explicit :class:`Stage` with declared inputs and outputs,
so a :class:`~repro.engine.plan.Plan` can describe the dataflow once and any
executor (sequential, process-pool, micro-batch) can run it.

Each stage carries two faces of the same computation, and both take a
*group*, because the annotation layers are joins whose kernels cost the same
~150 numpy dispatches for one episode as for a hundred:

* :meth:`Stage.run_many` — the **batch** body, applied to the ready items of
  a chunk of trajectories at once (what :func:`repro.api.annotate_many`
  needs); :meth:`Stage.run` is the same body for one item;
* the **streaming** protocol — :meth:`Stage.wants_episode` /
  :meth:`Stage.absorb_episodes` for stages that can process sealed episodes
  without waiting for their trajectory to close (every episode queued since
  the executor's last annotate-queue flush, in one call), plus
  :meth:`Stage.finishes` / :meth:`Stage.finish` / :meth:`Stage.close_out` for
  work that must wait until the trajectory closes (the HMM point layer, store
  write-back, result assembly).

The region and line stages have one annotation body each:
``absorb_episodes``, which hands the group's episodes to one grouped
annotator call; their ``run_many`` is that body over every episode of the
chunk.

Executors — not the stages — own the per-stage :class:`StageTimer` samples,
so the Figure 17 latency breakdown is emitted from exactly one place and is
identical in shape across the batch and streaming runtimes.

The stage ``name`` doubles as the latency-profile stage name, which keeps
the Figure 17 vocabulary (``compute_episode``, ``store_episode``,
``landuse_join``, ``map_match``, ``store_match_result``, plus
``poi_annotation``) stable across every runtime.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.analytics.latency import StageTimer
from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.points import Columns, RawTrajectory, SpatioTemporalPoint, point_columns
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.lines.annotator import LineAnnotator
from repro.points.annotator import PointAnnotator
from repro.preprocessing.cleaning import GpsCleaner
from repro.preprocessing.identification import TrajectoryIdentifier
from repro.preprocessing.stops import StopMoveDetector
from repro.regions.annotator import RegionAnnotator
from repro.store.store import SemanticTrajectoryStore

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.pipeline import PipelineResult
    from repro.obs.runtime import Telemetry
    from repro.obs.trace import TrajectoryTrace


#: One sealed episode on its way through a stage, with the item it belongs to.
SealedEpisode = Tuple["WorkItem", Episode]


@dataclass
class WorkItem:
    """One trajectory moving through the stages of a plan.

    Wraps the growing :class:`~repro.core.pipeline.PipelineResult` together
    with the latency timer and the scratch state streaming stages accumulate
    between episode seals (region records).
    When the plan's telemetry has tracing enabled the item also carries the
    trajectory's open :class:`~repro.obs.trace.TrajectoryTrace`; with the
    default no-op telemetry ``trace`` stays ``None`` and every hook below
    collapses to the plain timer path.
    """

    trajectory: RawTrajectory
    result: "PipelineResult"
    timer: StageTimer
    region_records: List[SemanticEpisodeRecord] = field(default_factory=list)
    trace: Optional["TrajectoryTrace"] = None
    """Open trace when the plan's telemetry has tracing enabled."""
    episode_seconds: float = 0.0
    """Incremental segmentation time the streaming executor adds up over its
    passes; recorded as one ``compute_episode`` sample when the trajectory seals."""

    @classmethod
    def start(
        cls, trajectory: RawTrajectory, telemetry: Optional["Telemetry"] = None
    ) -> "WorkItem":
        """Fresh work item whose result shares the timer's latency profile."""
        from repro.core.pipeline import PipelineResult  # deferred: import cycle

        timer = StageTimer()
        result = PipelineResult(trajectory=trajectory, episodes=[], latency=timer.profile)
        trace = telemetry.start_trace(trajectory.trajectory_id) if telemetry else None
        return cls(trajectory=trajectory, result=result, timer=timer, trace=trace)

    def record_stage(self, name: str, seconds: float) -> None:
        """Record a stage duration the executor measured (plus span if tracing).

        Sample and span carry the same number, so enabling tracing adds a span
        without perturbing the Figure 17 samples.
        """
        self.timer.record(name, seconds)
        if self.trace is not None:
            self.trace.record(name, seconds)

    def finish_trace(self) -> None:
        """Seal the trace and attach its spans to the result (no-op untraced)."""
        if self.trace is not None:
            self.result.spans = self.trace.close()
            self.trace = None


class Stage(abc.ABC):
    """One step of the annotation dataflow with declared inputs and outputs.

    ``inputs`` and ``outputs`` name the :class:`WorkItem` /
    :class:`~repro.core.pipeline.PipelineResult` fields the stage reads and
    writes; they are documentation-grade metadata used by
    :meth:`Plan.describe` and the plan compiler's wiring check, not a runtime
    dispatch mechanism.
    """

    #: Latency-profile stage name (Figure 17 vocabulary).
    name: str = ""
    #: Result fields the stage reads.
    inputs: Tuple[str, ...] = ()
    #: Result fields the stage writes.
    outputs: Tuple[str, ...] = ()
    #: True for store write-back stages, which sharded executors defer to a
    #: single merged transaction instead of running inline.
    writes_back: bool = False

    # ------------------------------------------------------------------ batch
    def ready(self, item: WorkItem) -> bool:
        """Whether the batch body should run (and be timed) for this item."""
        return True

    @abc.abstractmethod
    def run(self, item: WorkItem) -> None:
        """Batch body: consume ``inputs`` on the item, produce ``outputs``."""

    def run_many(self, items: Sequence[WorkItem]) -> None:
        """Batch body over a chunk of ready items (timed once per chunk).

        What the stage-major batch loop calls.  Item by item unless the stage
        has a kernel whose fixed cost a group shares.
        """
        for item in items:
            self.run(item)

    # -------------------------------------------------------------- streaming
    def wants_episode(self, item: WorkItem, episode: Episode) -> bool:
        """Whether the stage processes this sealed episode incrementally."""
        return False

    def absorb_episodes(self, sealed: Sequence[SealedEpisode]) -> None:
        """Incremental body: process a group of wanted sealed episodes.

        The group is whatever the executor holds at once — every episode in
        the streaming executor's annotate queue at a flush, sealed by several
        passes and closes across its sessions — and is timed once.
        """
        raise NotImplementedError(f"stage {self.name!r} does not absorb episodes")

    def close_out(self, item: WorkItem) -> None:
        """Untimed bookkeeping when the trajectory closes (result assembly)."""

    def finishes(self, item: WorkItem) -> bool:
        """Whether :meth:`finish` should run (and be timed) at close."""
        return False

    def finish(self, item: WorkItem) -> None:
        """Close-time body for work that needs the complete trajectory."""
        raise NotImplementedError(f"stage {self.name!r} has no close-time work")

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"inputs={list(self.inputs)} outputs={list(self.outputs)}>"
        )


# --------------------------------------------------------------------- ingest
class PreprocessingStage(abc.ABC):
    """A stage of the raw-stream preprocessing chain (before episodes exist)."""

    name: str = ""
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"inputs={list(self.inputs)} outputs={list(self.outputs)}>"
        )


class CleanStage(PreprocessingStage):
    """GPS cleaning: outlier removal + smoothing over a raw point stream."""

    name = "clean"
    inputs = ("raw_points",)
    outputs = ("cleaned_columns",)

    def __init__(self, config: PipelineConfig):
        self._cleaner = GpsCleaner(config.cleaning)

    def apply(self, points: Sequence[SpatioTemporalPoint]) -> Columns:
        """The cleaned stream as ``(xs, ys, ts)`` columns, read off the points once."""
        return self._cleaner.clean_columns(*point_columns(points))


class IdentifyStage(PreprocessingStage):
    """Trajectory identification: gap-based splitting of a cleaned stream."""

    name = "identify"
    inputs = ("cleaned_columns",)
    outputs = ("trajectories",)

    def __init__(self, config: PipelineConfig):
        self._identifier = TrajectoryIdentifier(config.identification)

    def apply(self, columns: Columns, object_id: str = "unknown") -> List[RawTrajectory]:
        """Raw trajectories split out of the cleaned columns :meth:`CleanStage.apply` returns."""
        return self._identifier.split_columns(*columns, object_id=object_id)


# ----------------------------------------------------------------- annotation
class ComputeEpisodesStage(Stage):
    """Stop/move segmentation of one raw trajectory.

    The streaming runtime never calls this stage's body: sessions segment
    incrementally with an
    :class:`~repro.streaming.stops.IncrementalStopMoveDetector` and the
    micro-batch executor records their measured time under this stage's
    ``name`` so both runtimes report the same latency vocabulary.
    """

    name = "compute_episode"
    inputs = ("trajectory",)
    outputs = ("episodes",)

    def __init__(self, config: PipelineConfig):
        self._detector = StopMoveDetector(config.stop_move)

    @property
    def detector(self) -> StopMoveDetector:
        """The underlying stop/move detector."""
        return self._detector

    def run(self, item: WorkItem) -> None:
        item.result.episodes = self._detector.segment(item.trajectory)


class StoreTrajectoryStage(Stage):
    """Persist the raw trajectory (and its GPS records) into the store."""

    name = "store_episode"
    inputs = ("trajectory",)
    writes_back = True

    def __init__(self, store: SemanticTrajectoryStore):
        self._store = store

    @property
    def store(self) -> SemanticTrajectoryStore:
        """The semantic trajectory store written to."""
        return self._store

    def run(self, item: WorkItem) -> None:
        self._store.save_trajectory(item.trajectory)

    def finishes(self, item: WorkItem) -> bool:
        return True

    def finish(self, item: WorkItem) -> None:
        self.run(item)


class RegionJoinStage(Stage):
    """Region annotation layer: landuse spatial join over episodes."""

    name = "landuse_join"
    inputs = ("episodes",)
    outputs = ("region_trajectory",)

    def __init__(self, annotator: RegionAnnotator):
        self._annotator = annotator

    @property
    def annotator(self) -> RegionAnnotator:
        """The underlying region annotator."""
        return self._annotator

    def run(self, item: WorkItem) -> None:
        self.run_many([item])

    def run_many(self, items: Sequence[WorkItem]) -> None:
        for item in items:
            item.region_records = []
        self.absorb_episodes(
            [(item, episode) for item in items for episode in item.result.episodes]
        )
        for item in items:
            self.close_out(item)

    def wants_episode(self, item: WorkItem, episode: Episode) -> bool:
        return True

    def absorb_episodes(self, sealed: Sequence[SealedEpisode]) -> None:
        records = self._annotator.annotate_episode_group([episode for _, episode in sealed])
        for (item, _), record in zip(sealed, records):
            item.region_records.append(record)

    def close_out(self, item: WorkItem) -> None:
        # The records were buffered in start order: this is what
        # RegionAnnotator.annotate_episodes() assembles for one trajectory.
        trajectory = item.trajectory
        item.result.region_trajectory = StructuredSemanticTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}:region-episodes",
            object_id=trajectory.object_id,
            records=item.region_records,
        )


class MapMatchStage(Stage):
    """Line annotation layer: global map matching + transport modes on moves."""

    name = "map_match"
    inputs = ("episodes",)
    outputs = ("line_trajectories",)

    def __init__(self, annotator: LineAnnotator):
        self._annotator = annotator

    @property
    def annotator(self) -> LineAnnotator:
        """The underlying line annotator."""
        return self._annotator

    def run(self, item: WorkItem) -> None:
        self.run_many([item])

    def run_many(self, items: Sequence[WorkItem]) -> None:
        for item in items:
            item.result.line_trajectories = []
        self.absorb_episodes(
            [
                (item, episode)
                for item in items
                for episode in item.result.episodes
                if episode.is_move
            ]
        )

    def wants_episode(self, item: WorkItem, episode: Episode) -> bool:
        return episode.is_move

    def absorb_episodes(self, sealed: Sequence[SealedEpisode]) -> None:
        # A sealed episode is complete, so it is matched exactly like a batch
        # episode; there is no per-point streaming matcher.
        lines = self._annotator.annotate_episodes([episode for _, episode in sealed])
        for (item, _), line in zip(sealed, lines):
            item.result.line_trajectories.append(line)


class PoiAnnotationStage(Stage):
    """Point annotation layer: HMM decoding of the stop sequence.

    Viterbi is a sequence-level maximum-a-posteriori decoder, so this stage
    has no incremental body: in the streaming runtime it runs at trajectory
    close over the full stop sequence, exactly like the batch body.
    """

    name = "poi_annotation"
    inputs = ("episodes",)
    outputs = ("point_trajectory", "trajectory_category")

    def __init__(self, annotator: PointAnnotator):
        self._annotator = annotator

    @property
    def annotator(self) -> PointAnnotator:
        """The underlying point annotator."""
        return self._annotator

    def ready(self, item: WorkItem) -> bool:
        return any(episode.is_stop for episode in item.result.episodes)

    def run(self, item: WorkItem) -> None:
        stops = [episode for episode in item.result.episodes if episode.is_stop]
        item.result.point_trajectory = self._annotator.annotate_stops(stops)
        item.result.trajectory_category = self._annotator.classify_trajectory(stops)

    def finishes(self, item: WorkItem) -> bool:
        return self.ready(item)

    def finish(self, item: WorkItem) -> None:
        self.run(item)


class StoreEpisodesStage(Stage):
    """Persist the annotated episodes (and their annotations) into the store."""

    name = "store_match_result"
    inputs = ("episodes",)
    writes_back = True

    def __init__(self, store: SemanticTrajectoryStore):
        self._store = store

    @property
    def store(self) -> SemanticTrajectoryStore:
        """The semantic trajectory store written to."""
        return self._store

    def run(self, item: WorkItem) -> None:
        self._store.save_episodes(item.result.episodes)

    def finishes(self, item: WorkItem) -> bool:
        return True

    def finish(self, item: WorkItem) -> None:
        self.run(item)
