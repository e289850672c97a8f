"""Trajectory annotation with regions of interest (Algorithm 1).

The annotator spatial-joins a raw trajectory (or its episodes) against a
:class:`~repro.regions.sources.RegionSource`, groups consecutive GPS points
falling in the same region, approximates entry/exit times and merges adjacent
tuples that reference the same region — producing the coarse-grained
structured semantic trajectory ``T_region`` of Section 4.1.

The episode join has one body, :meth:`RegionAnnotator.annotate_episode_group`:
the episodes of any number of trajectories in, one record each out, after a
single lookup of all their query positions.  The executors call it with the
largest group they hold (a chunk of trajectories, the episodes one streaming
pass sealed); the per-trajectory and per-episode methods are that body over a
smaller group.

Every path takes its region annotations from one table per annotator, keyed
by the region's ``place_id`` and filled on first use: an annotation is a value
(Definition 3), so the episode and the record that link a region hold the same
object, and each distinct one is built once for the snapshot's lifetime.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.annotations import Annotation, GeographicReferenceAnnotation, region_annotation
from repro.core.config import RegionAnnotationConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.places import RegionOfInterest
from repro.core.points import RawTrajectory
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.regions.sources import RegionSource


class RegionAnnotator:
    """Implements Algorithm 1: trajectory annotation with ROIs."""

    def __init__(
        self, source: RegionSource, config: RegionAnnotationConfig = RegionAnnotationConfig()
    ):
        self._source = source
        self._config = config
        self._annotations: Dict[str, GeographicReferenceAnnotation] = {}

    @property
    def source(self) -> RegionSource:
        """The region source used for the spatial join."""
        return self._source

    @property
    def config(self) -> RegionAnnotationConfig:
        """The active region-annotation configuration."""
        return self._config

    def _annotation(self, region: RegionOfInterest) -> GeographicReferenceAnnotation:
        """The one annotation linking ``region``, built on first use."""
        annotation = self._annotations.get(region.place_id)
        if annotation is None:
            annotation = self._annotations[region.place_id] = region_annotation(region)
        return annotation

    def _regions_for_fixes(self, trajectory: RawTrajectory) -> List[Optional[RegionOfInterest]]:
        """Region of every GPS fix of ``trajectory``, after one index query for all of them."""
        return self._source.first_regions_containing_columns(trajectory.xs, trajectory.ys)

    # ------------------------------------------------------------ Algorithm 1
    def annotate_trajectory(self, trajectory: RawTrajectory) -> StructuredSemanticTrajectory:
        """Annotate every GPS record of ``trajectory`` with its region.

        Consecutive points falling in the same region are grouped into a single
        tuple ``(region, t_in, t_out)``; each tuple is added through
        :meth:`~repro.core.trajectory.StructuredSemanticTrajectory.append_or_merge`,
        which merges adjacent tuples with the same region exactly as the
        pseudocode of Algorithm 1 does.
        """
        result = StructuredSemanticTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}:region",
            object_id=trajectory.object_id,
        )
        current_region: Optional[RegionOfInterest] = None
        group_start: Optional[int] = None

        ts = trajectory.ts
        regions: List[Optional[RegionOfInterest]] = self._regions_for_fixes(trajectory)

        for index in range(len(ts) + 1):
            region = regions[index] if index < len(ts) else None
            boundary = index == len(ts)
            same_group = (
                not boundary
                and group_start is not None
                and _same_region(current_region, region)
            )
            if same_group:
                continue
            if group_start is not None:
                result.append_or_merge(
                    current_region,
                    ts[group_start],
                    ts[index - 1],
                    EpisodeKind.MOVE,
                    (self._annotation(current_region),) if current_region is not None else (),
                )
            if boundary:
                break
            current_region = region
            group_start = index

        return result

    def annotate_episodes(self, episodes: Sequence[Episode]) -> StructuredSemanticTrajectory:
        """Annotate one trajectory's episodes (instead of every GPS record).

        Stops are joined by their centre point and moves by the region
        containing each point, keeping the dominant region; this is the
        "spatial join computed only for selected episodes" variant the paper
        mentions.
        """
        if not episodes:
            raise ValueError("annotate_episodes requires at least one episode")
        trajectory = episodes[0].trajectory
        return StructuredSemanticTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}:region-episodes",
            object_id=trajectory.object_id,
            records=self.annotate_episode_group(sorted(episodes, key=lambda ep: ep.start_index)),
        )

    def annotate_episode_group(self, episodes: Sequence[Episode]) -> List[SemanticEpisodeRecord]:
        """One tuple of ``T_region`` per episode, after one lookup for all of them.

        The episodes may belong to any number of trajectories: the batch
        executor hands over those of a chunk of trajectories, the streaming
        engine those sealed by one processing pass.  Each episode gets its
        region annotation attached and its structured record returned, in
        input order.
        """
        records: List[SemanticEpisodeRecord] = []
        for episode, region in zip(episodes, self._regions_for_episodes(episodes)):
            annotations: List[Annotation] = []
            if region is not None:
                annotation = self._annotation(region)
                annotations.append(annotation)
                episode.add_annotation(annotation)
            records.append(
                SemanticEpisodeRecord(
                    place=region,
                    time_in=episode.time_in,
                    time_out=episode.time_out,
                    kind=episode.kind,
                    annotations=annotations,
                    source_episode=episode,
                )
            )
        return records

    def _regions_for_episodes(
        self, episodes: Sequence[Episode]
    ) -> List[Optional[RegionOfInterest]]:
        """The joined region of every episode.

        A stop is joined by its centre, one position (Algorithm 1); a move asks
        about each of its fixes, read off its column slices; all of them go
        through one index query, as two coordinate columns.
        Under the ``intersects`` predicate a move is joined on its own, against
        the regions its bounding box meets.
        """
        intersects = self._config.join_predicate == "intersects"
        xs: List[float] = []
        ys: List[float] = []
        counts: List[Optional[int]] = []
        for episode in episodes:
            if episode.is_stop:
                center = episode.center()
                xs.append(center.x)
                ys.append(center.y)
                counts.append(1)
            elif intersects:
                counts.append(None)
            else:
                xs.extend(episode.xs)
                ys.extend(episode.ys)
                counts.append(len(episode))
        found = self._source.first_regions_containing_columns(xs, ys)
        regions: List[Optional[RegionOfInterest]] = []
        low = 0
        for episode, count in zip(episodes, counts):
            if count is None:
                candidates = self._source.regions_intersecting(episode.bounding_box())
                regions.append(
                    _dominant_region(
                        next((region for region in candidates if region.contains(position)), None)
                        for position in episode.positions
                    )
                )
            else:
                # (A centre is one position: its region is the dominant one.)
                regions.append(_dominant_region(found[low : low + count]))
                low += count
        return regions

    # --------------------------------------------------------------- metrics
    def point_category_distribution(self, trajectories: Sequence[RawTrajectory]) -> Dict[str, int]:
        """Number of GPS points per region category across ``trajectories``.

        This is the per-point distribution plotted in Figure 9 (the
        "trajectory" column) and Figure 14.
        """
        counts: Dict[str, int] = {}
        for trajectory in trajectories:
            for region in self._regions_for_fixes(trajectory):
                if region is None:
                    continue
                counts[region.category] = counts.get(region.category, 0) + 1
        return counts

    def episode_category_distribution(self, episodes: Sequence[Episode]) -> Dict[str, int]:
        """Number of episodes per region category (Figure 9 move/stop columns)."""
        counts: Dict[str, int] = {}
        for region in self._regions_for_episodes(episodes):
            if region is None:
                continue
            counts[region.category] = counts.get(region.category, 0) + 1
        return counts


def _dominant_region(
    point_regions: Iterable[Optional[RegionOfInterest]],
) -> Optional[RegionOfInterest]:
    """The region covering the most GPS points of an episode (ties: largest id)."""
    counts: Dict[str, int] = {}
    by_id: Dict[str, RegionOfInterest] = {}
    for region in point_regions:
        if region is None:
            continue
        counts[region.place_id] = counts.get(region.place_id, 0) + 1
        by_id[region.place_id] = region
    if not counts:
        return None
    best_id = max(counts.items(), key=lambda pair: (pair[1], pair[0]))[0]
    return by_id[best_id]


def _same_region(a: Optional[RegionOfInterest], b: Optional[RegionOfInterest]) -> bool:
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a.place_id == b.place_id
