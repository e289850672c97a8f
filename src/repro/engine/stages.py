"""Typed pipeline stages: the Figure 2 dataflow as first-class objects.

The SeMiTri pipeline is one dataflow — clean, identify, compute episodes,
then the region / line / point annotation layers, with optional store
write-back — but the repo used to re-encode that sequence separately in the
batch pipeline, the streaming engine and the parallel runner.  This module
makes every step an explicit :class:`Stage` with declared inputs and outputs,
so a :class:`~repro.engine.plan.Plan` can describe the dataflow once and any
executor (sequential, process-pool, micro-batch) can run it.

Every stage has one face, which batch chunks and streaming flushes drive
alike:

* :meth:`Stage.wants_episode` / :meth:`Stage.absorb_episodes` — the body of
  an *episode stage* (``absorbs``: the region, line and point layers), applied to a
  group of sealed episodes at once: every episode of a chunk of trajectories
  in batch, every episode queued since the last annotate-queue flush in
  streaming.  A group, because the annotation layers are joins whose kernels
  cost the same ~150 numpy dispatches for one episode as for a hundred;
* :meth:`Stage.close_out` / :meth:`Stage.finishes` / :meth:`Stage.finish` —
  work that must wait until the trajectory closes (result assembly, the
  point layer's Viterbi decoding, store write-back);
* :meth:`ComputeEpisodesStage.run` — segmentation of a closed trajectory;
  streaming sessions segment incrementally instead.

:meth:`Stage.run` composes that face for one closed item, untimed, for
callers that walk a plan stage by stage.

Executors — not the stages — record the per-stage latency samples (into
each result's :class:`~repro.analytics.latency.LatencyProfile`, through
:meth:`WorkItem.record_stage`), so the Figure 17 latency breakdown is
emitted from exactly one place and is identical in shape across the batch and
streaming runtimes.

The point layer is both: an episode stage whose group body makes one
neighbour query for every stop of the group (the cells of the observation
model and each stop's representative-POI candidates), and a close-time
:meth:`~PoiAnnotationStage.finish` that decodes the trajectory's stop
sequence once, because Viterbi is a sequence-level decoder.  Its two
measured parts are recorded as the trajectory's one ``poi_annotation``
sample: every episode stage's time is held on the item and recorded when
the trajectory closes (:meth:`WorkItem.hold_stage`), so each stage has one
sample per trajectory however many groups its episodes arrived in.

The stage ``name`` doubles as the latency-profile stage name, which keeps
the Figure 17 vocabulary (``compute_episode``, ``store_episode``,
``landuse_join``, ``map_match``, ``store_match_result``, plus
``poi_annotation``) stable across every runtime.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.points import Columns, RawTrajectory, SpatioTemporalPoint, point_columns
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.lines.annotator import LineAnnotator
from repro.points.annotator import PointAnnotator, StopLookup
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

    Wraps the growing :class:`~repro.core.pipeline.PipelineResult` (whose
    ``latency`` profile the executors record into) together with the scratch
    state episode stages accumulate until the trajectory closes (region
    records, the point layer's stop lookups, stage time held for one
    close-time sample).
    When the plan's telemetry has tracing enabled the item also carries the
    trajectory's open :class:`~repro.obs.trace.TrajectoryTrace`; with the
    default no-op telemetry ``trace`` stays ``None`` and every hook below
    collapses to the plain latency sample.
    """

    trajectory: RawTrajectory
    result: "PipelineResult"
    region_records: List[SemanticEpisodeRecord] = field(default_factory=list)
    stop_lookups: List[StopLookup] = field(default_factory=list)
    held: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    """Episode stages (:attr:`Stage.absorbs`) not recorded yet: the wall-clock
    start of each one's first run for the item, and its measured time so far."""
    trace: Optional["TrajectoryTrace"] = None
    """Open trace when the plan's telemetry has tracing enabled."""
    episode_seconds: float = 0.0
    """Incremental segmentation time the streaming executor adds up over its
    passes; recorded as one ``compute_episode`` sample when the trajectory seals."""

    @classmethod
    def start(
        cls, trajectory: RawTrajectory, telemetry: Optional["Telemetry"] = None
    ) -> "WorkItem":
        """Fresh work item with an empty result (and latency profile)."""
        from repro.core.pipeline import PipelineResult  # deferred: import cycle

        result = PipelineResult(trajectory=trajectory, episodes=[])
        trace = telemetry.start_trace(trajectory.trajectory_id) if telemetry else None
        return cls(trajectory=trajectory, result=result, trace=trace)

    def record_stage(self, name: str, seconds: float) -> None:
        """Record a stage duration the executor measured (plus span if tracing).

        Sample and span carry the same number, so enabling tracing adds a span
        without perturbing the Figure 17 samples.
        """
        self.result.latency.add(name, seconds)
        if self.trace is not None:
            self.trace.record(name, seconds)

    def hold_stage(self, name: str, seconds: float) -> None:
        """Add a measured duration to the stage's sample still to be recorded."""
        started, held = self.held.get(name, (time.time() - seconds, 0.0))
        self.held[name] = (started, held + seconds)

    def release_stage(self, name: str) -> None:
        """Record the stage's held time as one sample, and as one span when tracing.

        The span starts when the stage first ran for the item and lasts the
        summed time of its runs.  A stage that never ran for the item (a
        streamed trajectory none of whose episodes it wanted) records a
        ``0.0`` sample and no span.
        """
        started, seconds = self.held.pop(name, (None, 0.0))
        self.result.latency.add(name, seconds)
        if self.trace is not None and started is not None:
            self.trace.record(name, seconds, start=started)

    def finish_trace(self) -> None:
        """Seal the trace and attach its spans to the result (no-op untraced)."""
        if self.trace is not None:
            self.result.spans = self.trace.close()
            self.trace = None


class Stage:
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
    #: True for episode stages, whose body is :meth:`absorb_episodes`.  Batch
    #: runs (and times) that body for every item of a chunk, whether or not
    #: the item has a wanted episode.  Executors hold an episode stage's
    #: measured time (body and :meth:`finish`) on the item and record it when
    #: the trajectory closes, as its one sample of the stage.
    absorbs: bool = False

    # ------------------------------------------------------------- episodes
    def wants_episode(self, item: WorkItem, episode: Episode) -> bool:
        """Whether the stage processes this sealed episode."""
        return False

    def absorb_episodes(self, sealed: Sequence[SealedEpisode]) -> None:
        """Episode body: process a group of wanted sealed episodes.

        The group is whatever the executor holds at once — every episode of a
        batch chunk, or every episode in the streaming executor's annotate
        queue at a flush, sealed by several passes and closes across its
        sessions — and is timed once.
        """
        raise NotImplementedError(f"stage {self.name!r} does not absorb episodes")

    # ---------------------------------------------------------------- close
    def close_out(self, item: WorkItem) -> None:
        """Untimed bookkeeping when the trajectory closes (result assembly)."""

    def finishes(self, item: WorkItem) -> bool:
        """Whether :meth:`finish` should run (and be timed) at close."""
        return False

    def finish(self, item: WorkItem) -> None:
        """Close-time body for work that needs the complete trajectory."""
        raise NotImplementedError(f"stage {self.name!r} has no close-time work")

    # ---------------------------------------------------------- one item
    def ready(self, item: WorkItem) -> bool:
        """Whether :meth:`run` has work for the item: every stage has, at close."""
        return True

    def run(self, item: WorkItem) -> None:
        """The whole face for one closed item, untimed and outside any store scope.

        The item's wanted episodes go through :meth:`absorb_episodes` as one
        group, then :meth:`close_out` and, where :meth:`finishes`,
        :meth:`finish` — what an executor does to a chunk of one, without its
        fault hooks, timing and transaction scope.
        """
        if self.absorbs:
            self.absorb_episodes(
                [
                    (item, episode)
                    for episode in item.result.episodes
                    if self.wants_episode(item, episode)
                ]
            )
        self.close_out(item)
        if self.finishes(item):
            self.finish(item)

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

    def finishes(self, item: WorkItem) -> bool:
        return True

    def finish(self, item: WorkItem) -> None:
        self._store.save_trajectory(item.trajectory)


class RegionJoinStage(Stage):
    """Region annotation layer: landuse spatial join over episodes."""

    name = "landuse_join"
    inputs = ("episodes",)
    outputs = ("region_trajectory",)
    absorbs = True

    def __init__(self, annotator: RegionAnnotator):
        self._annotator = annotator

    @property
    def annotator(self) -> RegionAnnotator:
        """The underlying region annotator."""
        return self._annotator

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
    absorbs = True

    def __init__(self, annotator: LineAnnotator):
        self._annotator = annotator

    @property
    def annotator(self) -> LineAnnotator:
        """The underlying line annotator."""
        return self._annotator

    def wants_episode(self, item: WorkItem, episode: Episode) -> bool:
        return episode.is_move

    def absorb_episodes(self, sealed: Sequence[SealedEpisode]) -> None:
        # A sealed episode is complete, so it is matched exactly like a batch
        # episode; there is no per-point streaming matcher.
        lines = self._annotator.annotate_episodes([episode for _, episode in sealed])
        for (item, _), line in zip(sealed, lines):
            item.result.line_trajectories.append(line)


class PoiAnnotationStage(Stage):
    """Point annotation layer: neighbour lookups per group, HMM decoding at close.

    The episode body looks up the neighbours of every stop of the group with
    one index query and keeps each stop's lookup on its item.  Viterbi is a
    sequence-level maximum-a-posteriori decoder, so the decoding waits until
    the trajectory closes and runs once, over the full stop sequence, in batch
    and streaming alike.
    """

    name = "poi_annotation"
    inputs = ("episodes",)
    outputs = ("point_trajectory", "trajectory_category")
    absorbs = True

    def __init__(self, annotator: PointAnnotator):
        self._annotator = annotator

    @property
    def annotator(self) -> PointAnnotator:
        """The underlying point annotator."""
        return self._annotator

    def wants_episode(self, item: WorkItem, episode: Episode) -> bool:
        return episode.is_stop

    def absorb_episodes(self, sealed: Sequence[SealedEpisode]) -> None:
        lookups = self._annotator.look_up([episode for _, episode in sealed])
        for (item, _), lookup in zip(sealed, lookups):
            item.stop_lookups.append(lookup)

    def finishes(self, item: WorkItem) -> bool:
        return bool(item.stop_lookups)

    def finish(self, item: WorkItem) -> None:
        result = item.result
        result.point_trajectory, result.trajectory_category = self._annotator.annotate_lookups(
            item.stop_lookups
        )


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

    def finishes(self, item: WorkItem) -> bool:
        return True

    def finish(self, item: WorkItem) -> None:
        self._store.save_episodes(item.result.episodes)
