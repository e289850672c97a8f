"""Trajectory episodes: maximal sub-sequences satisfying a predicate.

The trajectory-computation layer segments every raw trajectory into *stop*
and *move* episodes (the two predicates of Section 3.1).  Each episode keeps a
reference to its parent trajectory, the index range of the GPS points it
covers, its time interval and the annotations the semantic layers attach to
it.  Its geometry — times, centre, positions, path length — is read off slices
of the trajectory's coordinate columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.annotations import Annotation, AnnotationKind
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint, path_length
from repro.geometry.primitives import BoundingBox, Point


class EpisodeKind(str, enum.Enum):
    """The two episode predicates used throughout the paper."""

    STOP = "stop"
    MOVE = "move"


@dataclass
class Episode:
    """A maximal trajectory sub-sequence of a single kind (stop or move).

    Attributes
    ----------
    kind:
        Stop or move.
    trajectory:
        The parent raw trajectory.
    start_index / end_index:
        Index range ``[start_index, end_index)`` of the covered GPS points.
    annotations:
        Annotations attached by the semantic layers (mutable list).
    """

    kind: EpisodeKind
    trajectory: RawTrajectory
    start_index: int
    end_index: int
    annotations: List[Annotation] = field(default_factory=list)
    _center: Optional[Point] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.start_index < 0 or self.end_index > len(self.trajectory):
            raise DataQualityError(
                f"episode range [{self.start_index}, {self.end_index}) outside "
                f"trajectory of length {len(self.trajectory)}"
            )
        if self.start_index >= self.end_index:
            raise DataQualityError("an episode must cover at least one GPS point")

    # ----------------------------------------------------------- basic stats
    @property
    def points(self) -> Sequence[SpatioTemporalPoint]:
        """GPS points covered by the episode (point objects: for callers that index them)."""
        return self.trajectory.points[self.start_index : self.end_index]

    @property
    def xs(self) -> List[float]:
        """The x column of the covered points (a slice of the trajectory's)."""
        return self.trajectory.xs[self.start_index : self.end_index]

    @property
    def ys(self) -> List[float]:
        """The y column of the covered points (a slice of the trajectory's)."""
        return self.trajectory.ys[self.start_index : self.end_index]

    @property
    def ts(self) -> List[float]:
        """The timestamps of the covered points (a slice of the trajectory's)."""
        return self.trajectory.ts[self.start_index : self.end_index]

    @property
    def positions(self) -> List[Point]:
        """Spatial components of the covered points."""
        return list(map(Point, self.xs, self.ys))

    def __len__(self) -> int:
        return self.end_index - self.start_index

    @property
    def time_in(self) -> float:
        """Entry time of the episode."""
        return self.trajectory.ts[self.start_index]

    @property
    def time_out(self) -> float:
        """Exit time of the episode."""
        return self.trajectory.ts[self.end_index - 1]

    @property
    def duration(self) -> float:
        """Episode duration in seconds."""
        return self.time_out - self.time_in

    @property
    def is_stop(self) -> bool:
        """True for stop episodes."""
        return self.kind is EpisodeKind.STOP

    @property
    def is_move(self) -> bool:
        """True for move episodes."""
        return self.kind is EpisodeKind.MOVE

    def center(self) -> Point:
        """Mean position of the covered points (used for stop spatial joins).

        Memoised (an episode's index range never changes once built): the
        region join, the point layer and the store each ask a stop for it.
        """
        if self._center is None:
            count = len(self)
            self._center = Point(sum(self.xs) / count, sum(self.ys) / count)
        return self._center

    def bounding_box(self, padding: float = 0.0) -> BoundingBox:
        """Spatial bounding rectangle of the episode."""
        xs, ys = self.xs, self.ys
        return BoundingBox(
            min(xs) - padding, min(ys) - padding, max(xs) + padding, max(ys) + padding
        )

    def path_length(self) -> float:
        """Travelled distance within the episode."""
        return path_length(self.xs, self.ys)

    # ----------------------------------------------------------- annotations
    def add_annotation(self, annotation: Annotation) -> None:
        """Attach an annotation to the episode."""
        self.annotations.append(annotation)

    def annotations_of_kind(self, kind: AnnotationKind) -> List[Annotation]:
        """All annotations of the given kind."""
        return [annotation for annotation in self.annotations if annotation.kind is kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Episode({self.kind.value}, traj={self.trajectory.trajectory_id!r}, "
            f"points={len(self)}, duration={self.duration:.0f}s)"
        )


def validate_episode_partition(trajectory: RawTrajectory, episodes: Sequence[Episode]) -> None:
    """Check that ``episodes`` form a partition of ``trajectory``.

    Raises :class:`DataQualityError` when the episodes are not contiguous, do
    not start at the first point or do not end at the last point.  Used by the
    test-suite and by the pipeline in strict mode.
    """
    if not episodes:
        raise DataQualityError("an episode partition must contain at least one episode")
    ordered = sorted(episodes, key=lambda episode: episode.start_index)
    if ordered[0].start_index != 0:
        raise DataQualityError("episode partition must start at the first GPS point")
    if ordered[-1].end_index != len(trajectory):
        raise DataQualityError("episode partition must end at the last GPS point")
    for previous, current in zip(ordered, ordered[1:]):
        if previous.end_index != current.start_index:
            raise DataQualityError(
                "episodes must be contiguous: "
                f"[{previous.start_index}, {previous.end_index}) then "
                f"[{current.start_index}, {current.end_index})"
            )
