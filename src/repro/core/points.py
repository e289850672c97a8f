"""Raw spatio-temporal data: GPS points and raw trajectories (Definition 1).

A :class:`SpatioTemporalPoint` is the (longitude/x, latitude/y, timestamp)
triple the paper calls Q_i; a :class:`RawTrajectory` is a finite, time-ordered
sequence of such points produced by the trajectory-identification step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import DataQualityError
from repro.geometry.primitives import BoundingBox, Point


@dataclass(frozen=True)
class SpatioTemporalPoint:
    """A single GPS fix: planar/geographic position plus a timestamp in seconds."""

    x: float
    y: float
    t: float

    @property
    def position(self) -> Point:
        """Spatial component as a geometry point."""
        return Point(self.x, self.y)

    def time_delta(self, other: "SpatioTemporalPoint") -> float:
        """Signed time difference ``other.t - self.t`` in seconds."""
        return other.t - self.t

    def distance_to(self, other: "SpatioTemporalPoint") -> float:
        """Planar distance to ``other`` in coordinate units.

        :meth:`Point.distance_to`'s exact operation sequence on the fix's own
        floats, so the per-fix loops build no geometry object and still agree
        bit-for-bit with the geometry layer and its numpy kernels.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def speed_to(self, other: "SpatioTemporalPoint") -> float:
        """Average speed between the two fixes (units per second).

        Returns 0 when the fixes share the same timestamp, which happens with
        duplicated GPS records.
        """
        dt = abs(self.time_delta(other))
        if dt <= 0:
            return 0.0
        return self.distance_to(other) / dt

    def as_tuple(self) -> Tuple[float, float, float]:
        """The raw ``(x, y, t)`` triple."""
        return (self.x, self.y, self.t)


class RawTrajectory:
    """A time-ordered sequence of GPS points for one moving object (Definition 1).

    Parameters
    ----------
    points:
        GPS fixes ordered by non-decreasing timestamp.
    object_id:
        Identifier of the moving object (taxi id, user id, ...).
    trajectory_id:
        Identifier of this trajectory; the dataset generators use
        ``"<object>-<day>"`` style identifiers.
    """

    def __init__(
        self,
        points: Sequence[SpatioTemporalPoint],
        object_id: str = "unknown",
        trajectory_id: Optional[str] = None,
    ):
        point_list = list(points)
        if not point_list:
            raise DataQualityError("a raw trajectory must contain at least one point")
        for previous, current in zip(point_list, point_list[1:]):
            if current.t < previous.t:
                raise DataQualityError(
                    "raw trajectory timestamps must be non-decreasing "
                    f"({previous.t} followed by {current.t})"
                )
        self._points: Tuple[SpatioTemporalPoint, ...] = tuple(point_list)
        self.object_id = object_id
        self.trajectory_id = trajectory_id if trajectory_id is not None else f"{object_id}-0"

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[SpatioTemporalPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> SpatioTemporalPoint:
        return self._points[index]

    @property
    def points(self) -> Tuple[SpatioTemporalPoint, ...]:
        """The underlying GPS fixes."""
        return self._points

    # ------------------------------------------------------------ accessors
    @property
    def start_time(self) -> float:
        """Timestamp of the first fix."""
        return self._points[0].t

    @property
    def end_time(self) -> float:
        """Timestamp of the last fix."""
        return self._points[-1].t

    @property
    def duration(self) -> float:
        """Tracking time in seconds."""
        return self.end_time - self.start_time

    @property
    def positions(self) -> List[Point]:
        """Spatial components of every fix."""
        return [point.position for point in self._points]

    def bounding_box(self, padding: float = 0.0) -> BoundingBox:
        """Spatial bounding rectangle of the trajectory."""
        return BoundingBox.from_points(self.positions, padding=padding)

    def length(self) -> float:
        """Travelled path length (sum of consecutive point distances)."""
        total = 0.0
        for previous, current in zip(self._points, self._points[1:]):
            total += previous.distance_to(current)
        return total

    def average_sampling_period(self) -> float:
        """Mean time between consecutive fixes, in seconds (0 for single-point)."""
        if len(self._points) < 2:
            return 0.0
        return self.duration / (len(self._points) - 1)

    def slice(self, start_index: int, end_index: int) -> "RawTrajectory":
        """Sub-trajectory covering points ``[start_index, end_index)``."""
        if start_index < 0 or end_index > len(self._points) or start_index >= end_index:
            raise IndexError(
                f"invalid slice [{start_index}, {end_index}) for trajectory of "
                f"length {len(self._points)}"
            )
        return RawTrajectory(
            self._points[start_index:end_index],
            object_id=self.object_id,
            trajectory_id=f"{self.trajectory_id}[{start_index}:{end_index}]",
        )

    def points_between(self, time_in: float, time_out: float) -> List[SpatioTemporalPoint]:
        """GPS fixes whose timestamp falls within ``[time_in, time_out]``."""
        return [point for point in self._points if time_in <= point.t <= time_out]

    def __reduce__(self) -> Tuple[object, ...]:
        """Pickle (and copy) as three coordinate columns plus the two ids.

        Three lists of numbers cost a fraction of one point object per fix,
        in bytes and in time on both sides.  The numbers travel as the Python
        objects they are, so the copy holds exactly the points this one does.
        A subclass comes back as a plain, closed :class:`RawTrajectory`.
        """
        points = self._points
        return (
            _trajectory_from_columns,
            (
                [point.x for point in points],
                [point.y for point in points],
                [point.t for point in points],
                self.object_id,
                self.trajectory_id,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawTrajectory(id={self.trajectory_id!r}, object={self.object_id!r}, "
            f"points={len(self._points)}, duration={self.duration:.0f}s)"
        )


def _trajectory_from_columns(
    xs: List[float], ys: List[float], ts: List[float], object_id: str, trajectory_id: str
) -> RawTrajectory:
    """Rebuild what :meth:`RawTrajectory.__reduce__` took apart (already validated)."""
    trajectory = RawTrajectory.__new__(RawTrajectory)
    trajectory._points = tuple(map(SpatioTemporalPoint, xs, ys, ts))
    trajectory.object_id = object_id
    trajectory.trajectory_id = trajectory_id
    return trajectory


def build_trajectory(
    triples: Iterable[Tuple[float, float, float]],
    object_id: str = "unknown",
    trajectory_id: Optional[str] = None,
) -> RawTrajectory:
    """Convenience constructor from raw ``(x, y, t)`` triples."""
    points = [SpatioTemporalPoint(x, y, t) for x, y, t in triples]
    return RawTrajectory(points, object_id=object_id, trajectory_id=trajectory_id)
