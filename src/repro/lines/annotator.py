"""Line annotation layer façade: map matching + transportation-mode inference.

Implements the full Algorithm 2 output: for each move episode, a structured
semantic trajectory ``T_line`` whose records are the matched road segments,
each carrying the time interval travelled on it and a transportation-mode
annotation.

:meth:`LineAnnotator.annotate_episodes` is the one body: it takes the move
episodes of any number of trajectories and matches them in one kernel call
(episode boundaries are context-window barriers), so the executors hand it the
largest group they hold — a chunk of trajectories in batch, the episodes one
processing pass sealed in streaming.

Annotations are values: the annotator keeps one table of line annotations
keyed by the segment's ``place_id`` and one of transport-mode annotations
keyed by mode, filled on first use, and every record and episode takes its
annotations from them.  Each mode segment is added to ``T_line`` through
Algorithm 1's merge rule, so the records come out merged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.annotations import (
    Annotation,
    GeographicReferenceAnnotation,
    ValueAnnotation,
    line_annotation,
    transport_mode_annotation,
)
from repro.core.config import MapMatchingConfig, TransportModeConfig
from repro.core.episodes import Episode
from repro.core.errors import DataQualityError
from repro.core.places import LineOfInterest
from repro.core.trajectory import StructuredSemanticTrajectory
from repro.lines.map_matching import GlobalMapMatcher, MatchedPoint
from repro.lines.road_network import RoadNetwork
from repro.lines.transport_mode import ModeSegment, TransportModeClassifier, pair_motion


class LineAnnotator:
    """Annotates move episodes with road segments and transportation modes."""

    def __init__(
        self,
        network: RoadNetwork,
        matching_config: MapMatchingConfig = MapMatchingConfig(),
        transport_config: TransportModeConfig = TransportModeConfig(),
    ):
        self._matcher = GlobalMapMatcher(network, matching_config)
        self._classifier = TransportModeClassifier(transport_config)
        self._line_annotations: Dict[str, GeographicReferenceAnnotation] = {}
        self._mode_annotations: Dict[str, ValueAnnotation] = {}

    @property
    def matcher(self) -> GlobalMapMatcher:
        """The underlying global map matcher."""
        return self._matcher

    @property
    def classifier(self) -> TransportModeClassifier:
        """The underlying transport-mode classifier."""
        return self._classifier

    # ---------------------------------------------------------------- episodes
    def annotate_episode(self, episode: Episode) -> StructuredSemanticTrajectory:
        """Annotate one move episode (Algorithm 2)."""
        if not episode.is_move:
            raise DataQualityError("the line annotation layer only processes move episodes")
        return self.annotate_episodes([episode])[0]

    def annotate_episodes(self, episodes: Sequence[Episode]) -> List[StructuredSemanticTrajectory]:
        """Annotate every move episode in ``episodes`` (non-moves are skipped).

        The episodes may belong to different trajectories.  All of them go to
        the matcher in one call — one ``xs`` / ``ys`` column pair for the
        group, read off the episodes' column slices — which shares the fixed
        cost of the kernel's array operations between episodes.  The group's
        pair speeds and accelerations are computed once over the same columns
        plus ``ts``, and each run's transport mode is folded from them.
        """
        moves = [episode for episode in episodes if episode.is_move]
        columns = [(episode.xs, episode.ys, episode.ts) for episode in moves]
        xs = np.array([x for episode_xs, _, _ in columns for x in episode_xs], dtype=np.float64)
        ys = np.array([y for _, episode_ys, _ in columns for y in episode_ys], dtype=np.float64)
        ts = np.array([t for _, _, episode_ts in columns for t in episode_ts], dtype=np.float64)
        runs = self._matcher.match_runs_columns(
            np.fromiter((len(episode) for episode in moves), np.intp, len(moves)), xs, ys
        )
        speeds, accelerations = pair_motion(xs, ys, ts)
        classifier = self._classifier
        structured: List[StructuredSemanticTrajectory] = []
        base = 0
        for episode, (_, _, episode_ts), episode_runs in zip(moves, columns, runs):
            modes = classifier.fold_modes(episode_ts, episode_runs, speeds, accelerations, base)
            structured.append(self._to_structured(episode, modes))
            base += len(episode_ts)
        return structured

    def match_episode(self, episode: Episode) -> List[MatchedPoint]:
        """Raw per-point matching result for a move episode (used by analytics)."""
        if not episode.is_move:
            raise DataQualityError("the line annotation layer only processes move episodes")
        return self._matcher.match(episode.points)

    # --------------------------------------------------------------- assembly
    def _line_annotation(self, place: LineOfInterest) -> GeographicReferenceAnnotation:
        """The one annotation linking road segment ``place``, built on first use."""
        annotation = self._line_annotations.get(place.place_id)
        if annotation is None:
            annotation = self._line_annotations[place.place_id] = line_annotation(place)
        return annotation

    def _mode_annotation(self, mode: str) -> ValueAnnotation:
        """The one transport-mode annotation carrying ``mode``, built on first use."""
        annotation = self._mode_annotations.get(mode)
        if annotation is None:
            annotation = self._mode_annotations[mode] = transport_mode_annotation(mode)
        return annotation

    def _to_structured(
        self, episode: Episode, mode_segments: Sequence[ModeSegment]
    ) -> StructuredSemanticTrajectory:
        trajectory = episode.trajectory
        result = StructuredSemanticTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}:line",
            object_id=trajectory.object_id,
        )
        dominant_mode: Optional[str] = None
        if mode_segments:
            durations = {}
            for segment_info in mode_segments:
                weight = max(segment_info.duration, float(segment_info.point_count))
                durations[segment_info.mode] = durations.get(segment_info.mode, 0.0) + weight
            dominant_mode = max(durations.items(), key=lambda pair: (pair[1], pair[0]))[0]

        network = self._matcher.network
        kind = episode.kind
        for segment_info in mode_segments:
            mode = self._mode_annotation(segment_info.mode)
            place: Optional[LineOfInterest] = None
            annotations: Sequence[Annotation] = (mode,)
            if segment_info.segment_id is not None:
                place = network.segment(segment_info.segment_id)
                annotations = (self._line_annotation(place), mode)
            result.append_or_merge(
                place, segment_info.time_in, segment_info.time_out, kind, annotations, episode
            )

        if dominant_mode is not None:
            episode.add_annotation(self._mode_annotation(dominant_mode))
        return result
