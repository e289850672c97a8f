"""GPS cleaning: outlier removal and smoothing of random errors.

The Trajectory Computation Layer first removes GPS outliers (fixes that imply
a physically impossible speed) and smooths the remaining random error with a
small sliding-window filter.  Both operations preserve timestamps; only the
spatial coordinates change.

The cleaner works on a stream's ``(xs, ys, ts)`` float columns
(:meth:`GpsCleaner.clean_columns`) and builds no point object; each pass has
one implementation:

* outlier removal is the greedy anchor scan on the anchor's own floats — the
  arithmetic of :class:`~repro.streaming.cleaning.StreamingGpsCleaner` —
  inherently sequential once a fix is dropped, and cheaper than any array
  precheck in front of it;
* median smoothing (the default method) takes the middle column of one
  stable ``np.argsort`` over a sliding-window view of each coordinate column
  and reads the input's own value at that position, and :func:`window_median`
  of a list slice where the stream edge clips the window.  A median is a
  selection, not a sum, and a stable sort selects the same zero as
  ``list.sort`` when a window holds both ``0.0`` and ``-0.0``; reading the
  selected input value keeps an ``int`` coordinate an ``int``.  So the result
  is the per-point loop's, value and type;
* mean smoothing is ``statistics.fmean`` over column slices: ``fmean`` is
  exactly rounded while ``numpy.mean`` is not, and the cleaning contract is
  byte-equality.

:meth:`~GpsCleaner.remove_outliers`, :meth:`~GpsCleaner.smooth` and
:meth:`~GpsCleaner.clean` are the same passes over point sequences, for
callers that hold points.  The per-point loops they must equal live in
:mod:`repro.reference.cleaning`.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

import numpy as np

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import Columns, SpatioTemporalPoint, point_columns


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


def _median_column(values: List[float], half: int) -> List[float]:
    """One coordinate column smoothed by the centred median of ``2 * half + 1`` fixes.

    The first and last fixes keep their value.  Interior fixes whose window
    the stream does not clip take the input value at the middle column of one
    stable argsort over a strided window view; the at most ``2 * half`` whose
    window the stream edge clips take :func:`window_median` of their list slice.
    """
    n = len(values)
    smoothed = list(values)
    # Indices with a full, unclipped window (never a stream endpoint).
    full_lo = half
    full_hi = n - half
    if full_hi > full_lo:
        windows = np.lib.stride_tricks.sliding_window_view(
            np.array(values, dtype=np.float64), 2 * half + 1
        )
        # Window ``w`` starts at fix ``w``; its median is the input's own value
        # there, so an ``int`` coordinate stays an ``int`` as in the per-point loop.
        picks = np.argsort(windows, axis=1, kind="stable")[:, half]
        picks += np.arange(len(picks))
        smoothed[full_lo:full_hi] = map(values.__getitem__, picks.tolist())
    left_stop = min(half, n - 1)
    for index in (*range(1, left_stop), *range(max(full_hi, left_stop), n - 1)):
        smoothed[index] = window_median(values[max(0, index - half) : index + half + 1])
    return smoothed


def _mean_column(values: List[float], half: int) -> List[float]:
    """One coordinate column smoothed by the centred ``fmean``; endpoints keep their value."""
    fmean = statistics.fmean
    interior = range(1, len(values) - 1)
    smoothed = [fmean(values[max(0, index - half) : index + half + 1]) for index in interior]
    return [values[0], *smoothed, values[-1]]


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

    # ---------------------------------------------------------------- columns
    def clean_columns(self, xs: List[float], ys: List[float], ts: List[float]) -> Columns:
        """Full cleaning pass over a stream's columns: outlier removal, then smoothing.

        Returns new ``(xs, ys, ts)`` lists; the timestamps are the input's own
        objects, in order, minus the dropped fixes.
        """
        return self._smooth_columns(*self._filter_columns(xs, ys, ts))

    def _filter_columns(self, xs: List[float], ys: List[float], ts: List[float]) -> Columns:
        """Drop fixes that imply a speed above ``max_speed`` from the last kept fix.

        The filter is greedy: it walks the stream keeping an anchor at the last
        accepted fix, so a single wild fix is dropped without discarding the
        valid fixes that follow it.  A duplicate timestamp keeps the first fix;
        a step back in time raises.  A NaN speed fails ``speed <= max_speed``
        and is dropped.
        """
        if not ts:
            return [], [], []
        max_speed = self._config.max_speed
        sqrt = math.sqrt
        ax, ay, at = xs[0], ys[0], ts[0]
        kept_xs, kept_ys, kept_ts = [ax], [ay], [at]
        for x, y, t in zip(xs[1:], ys[1:], ts[1:]):
            dt = t - at
            if dt < 0:
                raise DataQualityError("GPS stream timestamps must be non-decreasing")
            if dt == 0:
                continue
            # SpatioTemporalPoint.distance_to from the anchor, on its own floats.
            dx = ax - x
            dy = ay - y
            if sqrt(dx * dx + dy * dy) / dt <= max_speed:
                kept_xs.append(x)
                kept_ys.append(y)
                kept_ts.append(t)
                ax, ay, at = x, y, t
        return kept_xs, kept_ys, kept_ts

    def _smooth_columns(self, xs: List[float], ys: List[float], ts: List[float]) -> Columns:
        """Smooth the coordinate columns with the configured centred window.

        Timestamps are untouched, and the first/last fixes keep their original
        position so trajectory endpoints stay anchored.  Streams of fewer than
        three fixes come back unchanged.
        """
        window = self._config.smoothing_window
        method = self._config.smoothing_method
        if window <= 1 or method == "none" or len(ts) < 3:
            return xs, ys, ts
        smooth_column = _median_column if method == "median" else _mean_column
        half = window // 2
        return smooth_column(xs, half), smooth_column(ys, half), ts

    # ----------------------------------------------------------------- points
    def remove_outliers(
        self, points: Sequence[SpatioTemporalPoint]
    ) -> List[SpatioTemporalPoint]:
        """The outlier filter over a point sequence (see :meth:`clean_columns`)."""
        return _points(self._filter_columns(*point_columns(points)))

    def smooth(self, points: Sequence[SpatioTemporalPoint]) -> List[SpatioTemporalPoint]:
        """The smoothing pass over a point sequence (see :meth:`clean_columns`)."""
        return _points(self._smooth_columns(*point_columns(points)))

    def clean(self, points: Sequence[SpatioTemporalPoint]) -> List[SpatioTemporalPoint]:
        """Full cleaning pass over a point sequence: outlier removal followed by smoothing."""
        return _points(self.clean_columns(*point_columns(points)))


def _points(columns: Columns) -> List[SpatioTemporalPoint]:
    xs, ys, ts = columns
    return list(map(SpatioTemporalPoint, xs, ys, ts))
