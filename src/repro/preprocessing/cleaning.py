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
* median smoothing (the default method) stacks a stream's two coordinate
  columns into one ``(2, n)`` array and takes, for every window, the middle
  position of one stable ``np.argsort`` over a ``(2, n - 2h, 2h + 1)``
  strided view of it (``h`` is half the window), then reads the input's own
  value at that position; :func:`window_median` of a list slice serves the
  fixes where the stream edge clips the window.  One numpy pipeline per
  stream, not one per column: at ~96 fixes a stream, numpy's fixed cost per
  call is most of the smoother's time.  A median is a selection, not a sum,
  and a stable sort selects the same zero as ``list.sort`` when a window
  holds both ``0.0`` and ``-0.0``; reading the selected input value keeps an
  ``int`` coordinate an ``int``.  So the result is the per-point loop's,
  value and type;
* mean smoothing is ``statistics.fmean`` over column slices: ``fmean`` is
  exactly rounded while ``numpy.mean`` is not, and the cleaning contract is
  byte-equality.

The columns are the only entry: a caller holding points passes
:func:`~repro.core.points.point_columns` of them.  The per-point loops the
passes must equal live with the test suite's oracles, outside the product.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Tuple

import numpy as np

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import Columns, _check_lengths


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


def _median_columns(
    xs: List[float], ys: List[float], half: int
) -> Tuple[List[float], List[float]]:
    """Both coordinate columns smoothed by the centred median of ``2 * half + 1`` fixes.

    The first and last fixes keep their value.  Interior fixes whose window
    the stream does not clip take the input value at the middle position of
    one stable argsort over a ``(2, n - 2 * half, 2 * half + 1)`` strided view
    of the stacked columns; the at most ``2 * half`` whose window the stream
    edge clips take :func:`window_median` of their list slices.
    """
    n = len(xs)
    smoothed_xs, smoothed_ys = list(xs), list(ys)
    # Fixes ``half .. n - half - 1`` have a full, unclipped window (never an endpoint).
    full = n - 2 * half
    if full > 0:
        columns = np.array((xs, ys), dtype=np.float64)
        row, step = columns.strides
        # The constructor checks that the view fits its buffer (``as_strided``
        # does not) and costs less per call; nothing writes through it.
        windows = np.ndarray((2, full, 2 * half + 1), np.float64, columns, 0, (row, step, step))
        # Window ``w`` starts at fix ``w``; its median is the input's own value
        # there, so an ``int`` coordinate stays an ``int`` as in the per-point loop.
        picks = np.argsort(windows, axis=2, kind="stable")[:, :, half]
        picks += np.arange(full)
        picks_x, picks_y = picks.tolist()
        smoothed_xs[half : n - half] = map(xs.__getitem__, picks_x)
        smoothed_ys[half : n - half] = map(ys.__getitem__, picks_y)
    left_stop = min(half, n - 1)
    for index in (*range(1, left_stop), *range(max(n - half, left_stop), n - 1)):
        lo, hi = max(0, index - half), index + half + 1
        smoothed_xs[index] = window_median(xs[lo:hi])
        smoothed_ys[index] = window_median(ys[lo:hi])
    return smoothed_xs, smoothed_ys


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
        objects, in order, minus the dropped fixes.  Columns of unequal
        lengths raise :class:`~repro.core.errors.DataQualityError`.
        """
        _check_lengths(xs, ys, ts)
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
        half = window // 2
        if method == "median":
            return (*_median_columns(xs, ys, half), ts)
        return _mean_column(xs, half), _mean_column(ys, half), ts
