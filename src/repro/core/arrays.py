"""Columnar trajectory data: contiguous coordinate arrays for batch kernels.

:class:`TrajectoryArrays` is the structure-of-arrays twin of
:class:`~repro.core.points.RawTrajectory`: one contiguous float64 array per
column (x/longitude, y/latitude, timestamp, and lazily the per-point speeds)
so the vectorized kernels of :mod:`repro.geometry.vectorized` can sweep whole
trajectories per call instead of iterating ``Point`` objects.  The round trip
``from_trajectory`` → ``to_trajectory`` is lossless: every float (including
NaN payloads and signed zeros, via bit-pattern-preserving float64 storage)
and both identifiers survive unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.geometry.primitives import BoundingBox
from repro.geometry.vectorized import consecutive_speeds


class TrajectoryArrays:
    """Columnar (structure-of-arrays) view of one trajectory's GPS fixes."""

    __slots__ = ("xs", "ys", "ts", "object_id", "trajectory_id", "_speeds")

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ts: np.ndarray,
        object_id: str = "unknown",
        trajectory_id: Optional[str] = None,
    ):
        self.xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(ys, dtype=np.float64)
        self.ts = np.ascontiguousarray(ts, dtype=np.float64)
        if not (len(self.xs) == len(self.ys) == len(self.ts)):
            raise DataQualityError(
                "coordinate columns must have equal lengths "
                f"({len(self.xs)}, {len(self.ys)}, {len(self.ts)})"
            )
        self.object_id = object_id
        self.trajectory_id = trajectory_id
        self._speeds: Optional[np.ndarray] = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_points(
        cls,
        points: Sequence[SpatioTemporalPoint],
        object_id: str = "unknown",
        trajectory_id: Optional[str] = None,
    ) -> "TrajectoryArrays":
        """Columnarise a point sequence (empty sequences are allowed)."""
        n = len(points)
        xs = np.fromiter((point.x for point in points), dtype=np.float64, count=n)
        ys = np.fromiter((point.y for point in points), dtype=np.float64, count=n)
        ts = np.fromiter((point.t for point in points), dtype=np.float64, count=n)
        return cls(xs, ys, ts, object_id=object_id, trajectory_id=trajectory_id)

    @classmethod
    def from_trajectory(cls, trajectory: RawTrajectory) -> "TrajectoryArrays":
        """Columnarise a raw trajectory, carrying both identifiers along."""
        return cls.from_points(
            trajectory.points,
            object_id=trajectory.object_id,
            trajectory_id=trajectory.trajectory_id,
        )

    # -------------------------------------------------------------- round trip
    def to_points(self) -> List[SpatioTemporalPoint]:
        """Materialise the columns back into point objects."""
        return [
            SpatioTemporalPoint(float(x), float(y), float(t))
            for x, y, t in zip(self.xs, self.ys, self.ts)
        ]

    def to_trajectory(self) -> RawTrajectory:
        """Rebuild the row-oriented :class:`RawTrajectory`.

        Raises :class:`~repro.core.errors.DataQualityError` for empty columns,
        mirroring the ``RawTrajectory`` constructor's contract (a trajectory
        has at least one point).
        """
        if len(self) == 0:
            raise DataQualityError("cannot build a trajectory from empty coordinate arrays")
        return RawTrajectory(
            self.to_points(), object_id=self.object_id, trajectory_id=self.trajectory_id
        )

    # ---------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.xs)

    @property
    def speeds(self) -> np.ndarray:
        """Per-point speeds (paper alignment: pairwise, last value repeated).

        Computed lazily with the vectorized kernel and cached; bit-for-bit
        equal to :func:`repro.preprocessing.features.compute_motion_features`
        speeds.
        """
        if self._speeds is None:
            self._speeds = consecutive_speeds(self.xs, self.ys, self.ts)
        return self._speeds

    @property
    def duration(self) -> float:
        """Tracking time in seconds (0 for fewer than two points)."""
        if len(self) < 2:
            return 0.0
        return float(self.ts[-1] - self.ts[0])

    def bounding_box(self, padding: float = 0.0) -> BoundingBox:
        """Spatial bounding rectangle of the trajectory (must be non-empty)."""
        if len(self) == 0:
            raise DataQualityError("cannot build a bounding box from empty coordinate arrays")
        return BoundingBox(
            float(self.xs.min()) - padding,
            float(self.ys.min()) - padding,
            float(self.xs.max()) + padding,
            float(self.ys.max()) + padding,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryArrays(id={self.trajectory_id!r}, object={self.object_id!r}, "
            f"points={len(self)})"
        )
