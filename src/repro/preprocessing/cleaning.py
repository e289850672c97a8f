"""GPS cleaning: outlier removal and smoothing of random errors.

The Trajectory Computation Layer first removes GPS outliers (fixes that imply
a physically impossible speed) and smooths the remaining random error with a
small sliding-window filter.  Both operations preserve timestamps; only the
spatial coordinates change.

Each pass has one implementation:

* outlier removal is the greedy anchor scan — inherently sequential once a
  fix is dropped, and on float-only distances cheaper than any array
  precheck in front of it;
* median smoothing (the default method) runs over coordinate columns at every
  stream length: a median is a selection, not a sum, so the sliding-window
  sort is bit-for-bit the per-point loop :meth:`GpsCleaner._smooth_scalar`,
  which the tests keep as its oracle;
* mean smoothing *is* that per-point loop: ``statistics.fmean`` is exactly
  rounded while ``numpy.mean`` is not, and the cleaning contract is
  byte-equality.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

import numpy as np

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint


def window_median(values: List[float]) -> float:
    """Median of one smoothing window — what ``statistics.median`` selects.

    The middle of the sorted values, or the mean of the middle two when the
    stream edge clips the window to an even length.  Sorts ``values`` in place:
    callers pass a fresh slice.
    """
    values.sort()
    middle = len(values) >> 1
    if len(values) & 1:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2


class GpsCleaner:
    """Removes speed outliers and smooths GPS noise.

    Parameters
    ----------
    config:
        Cleaning thresholds; see :class:`repro.core.config.CleaningConfig`.
    """

    def __init__(self, config: CleaningConfig = CleaningConfig()):
        self._config = config

    @property
    def config(self) -> CleaningConfig:
        """The active cleaning configuration."""
        return self._config

    # ------------------------------------------------------------- outliers
    def remove_outliers(
        self, points: Sequence[SpatioTemporalPoint]
    ) -> List[SpatioTemporalPoint]:
        """Drop fixes that imply a speed above ``max_speed`` from their predecessor.

        The filter is greedy: it walks the stream keeping an anchor at the last
        accepted fix, so a single wild fix is dropped without discarding the
        valid fixes that follow it.
        """
        if not points:
            return []
        cleaned: List[SpatioTemporalPoint] = [points[0]]
        for candidate in points[1:]:
            anchor = cleaned[-1]
            dt = candidate.t - anchor.t
            if dt < 0:
                raise DataQualityError("GPS stream timestamps must be non-decreasing")
            if dt == 0:
                # Duplicate timestamp: keep the first fix, drop the duplicate.
                continue
            speed = anchor.distance_to(candidate) / dt
            if speed <= self._config.max_speed:
                cleaned.append(candidate)
        return cleaned

    # ------------------------------------------------------------ smoothing
    def smooth(self, points: Sequence[SpatioTemporalPoint]) -> List[SpatioTemporalPoint]:
        """Smooth coordinates with a centred sliding-window filter.

        The window size and method (median or mean) come from the
        configuration; timestamps are untouched and the first/last fixes keep
        their original position so trajectory endpoints stay anchored.
        """
        window = self._config.smoothing_window
        method = self._config.smoothing_method
        if window <= 1 or method == "none" or len(points) < 3:
            return list(points)
        if method == "median":
            return self._smooth_median_arrays(points, window)
        return self._smooth_scalar(points, window, method)

    def _smooth_scalar(
        self, points: Sequence[SpatioTemporalPoint], window: int, method: str
    ) -> List[SpatioTemporalPoint]:
        half = window // 2
        aggregate = statistics.median if method == "median" else statistics.fmean
        smoothed: List[SpatioTemporalPoint] = []
        for index, point in enumerate(points):
            if index == 0 or index == len(points) - 1:
                smoothed.append(point)
                continue
            lo = max(0, index - half)
            hi = min(len(points), index + half + 1)
            xs = [p.x for p in points[lo:hi]]
            ys = [p.y for p in points[lo:hi]]
            smoothed.append(SpatioTemporalPoint(aggregate(xs), aggregate(ys), point.t))
        return smoothed

    def _smooth_median_arrays(
        self, points: Sequence[SpatioTemporalPoint], window: int
    ) -> List[SpatioTemporalPoint]:
        """Vectorized sliding-window median over columnar coordinates.

        Interior points whose window is not clipped by the stream boundary
        take the middle column of one ``np.sort`` over a strided window view
        and are materialised in one pass over plain-float columns; the at most
        ``2 * half`` points whose window the stream edge clips follow the
        scalar rule.  A median is a selection (or the mean of two selected
        values), so the result is bit-for-bit the scalar loop's; timestamps
        are carried through as the original objects.
        """
        n = len(points)
        half = window // 2
        xs = np.fromiter((point.x for point in points), dtype=np.float64, count=n)
        ys = np.fromiter((point.y for point in points), dtype=np.float64, count=n)
        smoothed: List[SpatioTemporalPoint] = list(points)
        # Indices with a full, unclipped window that are not stream endpoints.
        full_lo = half
        full_hi = n - half
        if full_hi > full_lo:
            span = 2 * half + 1
            view = np.lib.stride_tricks.sliding_window_view
            smoothed[full_lo:full_hi] = map(
                SpatioTemporalPoint,
                np.sort(view(xs, span), axis=1)[:, half].tolist(),
                np.sort(view(ys, span), axis=1)[:, half].tolist(),
                [point.t for point in points[full_lo:full_hi]],
            )
        # Interior points whose window the stream edge clips.
        left_stop = min(half, n - 1)
        for index in (*range(1, left_stop), *range(max(full_hi, left_stop), n - 1)):
            lo = max(0, index - half)
            hi = min(n, index + half + 1)
            smoothed[index] = SpatioTemporalPoint(
                window_median(xs[lo:hi].tolist()),
                window_median(ys[lo:hi].tolist()),
                points[index].t,
            )
        return smoothed

    # ---------------------------------------------------------------- pipeline
    def clean(self, points: Sequence[SpatioTemporalPoint]) -> List[SpatioTemporalPoint]:
        """Full cleaning pass: outlier removal followed by smoothing."""
        return self.smooth(self.remove_outliers(points))
