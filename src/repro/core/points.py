"""Raw spatio-temporal data: GPS points and raw trajectories (Definition 1).

A :class:`SpatioTemporalPoint` is the (longitude/x, latitude/y, timestamp)
triple the paper calls Q_i; a :class:`RawTrajectory` is a finite, time-ordered
sequence of such points produced by the trajectory-identification step.

A trajectory *is* its three coordinate columns: ``xs``, ``ys`` and ``ts``, one
Python float list each.  Everything on the per-fix path — the streaming
session, the stop/move detectors, the annotation kernels, the store, the
canonical bytes and the pickle — reads the columns, so no point object is
built between ingest and the result.  Point objects exist for the callers
that index a trajectory: :attr:`RawTrajectory.points`, iteration and ``[i]``
build them on first use, at most once per fix (the cache is a prefix that an
open trajectory extends as it grows).
"""

from __future__ import annotations

import math
import operator
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

    def distance_to(self, other: "SpatioTemporalPoint") -> float:
        """Planar distance to ``other`` in coordinate units.

        :meth:`Point.distance_to`'s exact operation sequence on the fix's own
        floats, so the per-fix loops build no geometry object and still agree
        bit-for-bit with the geometry layer and its numpy kernels.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def as_tuple(self) -> Tuple[float, float, float]:
        """The raw ``(x, y, t)`` triple."""
        return (self.x, self.y, self.t)


#: A GPS stream as its three coordinate columns: ``(xs, ys, ts)``.
Columns = Tuple[List[float], List[float], List[float]]


def point_columns(points: Sequence[SpatioTemporalPoint]) -> Columns:
    """The ``(xs, ys, ts)`` columns of a point sequence: the fixes' own numbers."""
    xs = [point.x for point in points]
    ys = [point.y for point in points]
    ts = [point.t for point in points]
    return xs, ys, ts


def _check_lengths(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float]) -> None:
    """Raise unless the three coordinate columns have equal lengths."""
    if not len(xs) == len(ys) == len(ts):
        raise DataQualityError(
            f"coordinate columns must have equal lengths ({len(xs)}, {len(ys)}, {len(ts)})"
        )


def _check_order(ts: Sequence[float]) -> None:
    """Raise unless ``ts`` is non-empty and non-decreasing."""
    if not ts:
        raise DataQualityError("a raw trajectory must contain at least one point")
    if any(map(operator.lt, ts[1:], ts)):
        index = next(i for i in range(1, len(ts)) if ts[i] < ts[i - 1])
        raise DataQualityError(
            "raw trajectory timestamps must be non-decreasing "
            f"({ts[index - 1]} followed by {ts[index]})"
        )


def path_length(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sum of consecutive fix distances over two coordinate columns.

    :meth:`SpatioTemporalPoint.distance_to` of each consecutive pair, same
    operand order, accumulated left to right.
    """
    total = 0.0
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        dx = x0 - x1
        dy = y0 - y1
        total += math.sqrt(dx * dx + dy * dy)
    return total


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

    The fixes are stored as the columns :attr:`xs`, :attr:`ys` and :attr:`ts`;
    :meth:`from_columns` builds a trajectory from columns directly.
    """

    def __init__(
        self,
        points: Sequence[SpatioTemporalPoint],
        object_id: str = "unknown",
        trajectory_id: Optional[str] = None,
    ):
        point_tuple = tuple(points)
        xs, ys, ts = point_columns(point_tuple)
        _check_order(ts)
        self._xs: List[float] = xs
        self._ys: List[float] = ys
        self._ts: List[float] = ts
        # The caller's points are already built: they are the cache.
        self._points: Optional[Sequence[SpatioTemporalPoint]] = point_tuple
        self.object_id = object_id
        self.trajectory_id = trajectory_id if trajectory_id is not None else f"{object_id}-0"

    @classmethod
    def from_columns(
        cls,
        xs: Iterable[float],
        ys: Iterable[float],
        ts: Iterable[float],
        object_id: str = "unknown",
        trajectory_id: Optional[str] = None,
    ) -> "RawTrajectory":
        """A trajectory from its three coordinate columns (copied), validated like the points."""
        xs, ys, ts = list(xs), list(ys), list(ts)
        _check_lengths(xs, ys, ts)
        _check_order(ts)
        if trajectory_id is None:
            trajectory_id = f"{object_id}-0"
        return _trajectory_from_columns(xs, ys, ts, object_id, trajectory_id)

    # -------------------------------------------------------------- columns
    @property
    def xs(self) -> List[float]:
        """The x (longitude/easting) column.  Read it; never mutate it."""
        return self._xs

    @property
    def ys(self) -> List[float]:
        """The y (latitude/northing) column.  Read it; never mutate it."""
        return self._ys

    @property
    def ts(self) -> List[float]:
        """The timestamp column, non-decreasing.  Read it; never mutate it."""
        return self._ts

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._ts)

    def __iter__(self) -> Iterator[SpatioTemporalPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> SpatioTemporalPoint:
        return self.points[index]

    @property
    def points(self) -> Sequence[SpatioTemporalPoint]:
        """The GPS fixes as point objects (a tuple), built on first use."""
        points = self._points
        if points is None:
            points = self._points = tuple(
                map(SpatioTemporalPoint, self._xs, self._ys, self._ts)
            )
        return points

    # ------------------------------------------------------------ accessors
    @property
    def start_time(self) -> float:
        """Timestamp of the first fix."""
        return self._ts[0]

    @property
    def end_time(self) -> float:
        """Timestamp of the last fix."""
        return self._ts[-1]

    @property
    def duration(self) -> float:
        """Tracking time in seconds."""
        return self.end_time - self.start_time

    @property
    def positions(self) -> List[Point]:
        """Spatial components of every fix."""
        return list(map(Point, self._xs, self._ys))

    def bounding_box(self, padding: float = 0.0) -> BoundingBox:
        """Spatial bounding rectangle of the trajectory."""
        xs, ys = self._xs, self._ys
        return BoundingBox(
            min(xs) - padding, min(ys) - padding, max(xs) + padding, max(ys) + padding
        )

    def length(self) -> float:
        """Travelled path length (sum of consecutive point distances)."""
        return path_length(self._xs, self._ys)

    def average_sampling_period(self) -> float:
        """Mean time between consecutive fixes, in seconds (0 for single-point)."""
        if len(self) < 2:
            return 0.0
        return self.duration / (len(self) - 1)

    def __reduce__(self) -> Tuple[object, ...]:
        """Pickle (and copy) as the three coordinate columns plus the two ids.

        Three lists of numbers cost a fraction of one point object per fix,
        in bytes and in time on both sides, and the receiver builds no point.
        The numbers travel as the Python objects they are, so the copy holds
        exactly the fixes this one does.  A subclass comes back as a plain,
        closed :class:`RawTrajectory`.
        """
        return (
            _trajectory_from_columns,
            (self._xs, self._ys, self._ts, self.object_id, self.trajectory_id),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawTrajectory(id={self.trajectory_id!r}, object={self.object_id!r}, "
            f"points={len(self)}, duration={self.duration:.0f}s)"
        )


def _trajectory_from_columns(
    xs: List[float], ys: List[float], ts: List[float], object_id: str, trajectory_id: str
) -> RawTrajectory:
    """A closed trajectory holding these (already validated) columns; builds no point."""
    trajectory = RawTrajectory.__new__(RawTrajectory)
    trajectory._xs = xs
    trajectory._ys = ys
    trajectory._ts = ts
    trajectory._points = None
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
