"""Streaming GPS cleaning with bounded lookahead.

Reproduces :meth:`repro.preprocessing.cleaning.GpsCleaner.clean_columns` over
a live stream: outlier removal is causal (the greedy anchor filter only looks
backwards), while the centred smoothing window needs ``window // 2`` future
fixes before a point's smoothed position is final — so the cleaner emits
fixes with that bounded lag and flushes the tail on :meth:`finish`.

The batch cleaner keeps the first and last fixes of the stream unsmoothed and
leaves streams of fewer than three fixes untouched; both rules depend on
knowing where the stream ends, which is exactly what :meth:`finish` signals.
The emitted sequence is bit-for-bit identical to the batch
``clean_columns(xs, ys, ts)`` on the same input (parity tested, hostile
coordinates and timestamps included: a fix whose speed is NaN is rejected,
as the batch filter's ``speed <= max_speed`` rejects it).

This is the per-fix path of every online workload, so it is one float step
per fix: :meth:`~StreamingGpsCleaner.step` takes a fix's ``x`` / ``y`` / ``t``
and, in one frame, runs the outlier test, appends to the lookahead window
(parallel ``x`` / ``y`` / ``t`` lists), prunes it and smooths the one fix the
step finalizes: the emit bound rises by exactly one per accepted fix, so a
step returns one ``(x, y, t)`` triple or ``None``, never a list.  A median is
an in-place sort of one fresh slice per coordinate.  :meth:`finish` returns
the tail as a list.  No point object is built.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Tuple

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.preprocessing.cleaning import window_median

#: One cleaned fix: ``(x, y, t)``.
Fix = Tuple[float, float, float]


class StreamingGpsCleaner:
    """Online outlier removal + smoothing for one GPS stream.

    Feed raw fixes with :meth:`step`, which returns the cleaned fix that
    became final, if any; call :meth:`finish` at end of stream to flush the
    pending tail.  One instance cleans exactly one stream.
    """

    def __init__(self, config: CleaningConfig = CleaningConfig()):
        self._config = config
        self._max_speed = config.max_speed
        passthrough = config.smoothing_window <= 1 or config.smoothing_method == "none"
        # Fixes of lookahead a smoothed position waits for (none when nothing
        # is smoothed).
        self._half = 0 if passthrough else config.smoothing_window // 2
        self._median = config.smoothing_method == "median"
        # Accepted (outlier-filtered) fixes still inside a future smoothing
        # window, as parallel float columns: at most ``2 * half`` between
        # calls.  The outlier anchor is kept separately because pruning may
        # drop the last accepted fix from the window.
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._ts: List[float] = []
        self._anchor_x = 0.0
        self._anchor_y = 0.0
        self._anchor_t = 0.0
        self._count = 0
        self._finished = False

    @property
    def config(self) -> CleaningConfig:
        """The active cleaning configuration."""
        return self._config

    @property
    def pending_count(self) -> int:
        """Accepted fixes whose smoothed position is not yet final."""
        return self._count - self._emitted()

    # ------------------------------------------------------------------ feed
    def step(self, x: float, y: float, t: float) -> Optional[Fix]:
        """Feed one raw fix; returns the cleaned ``(x, y, t)`` fix it finalized, if any.

        Accepting a fix finalizes exactly one fix once ``half`` fixes of
        lookahead have arrived (the emit bound ``count - half`` rises by one),
        and a rejected fix finalizes none.
        """
        if self._finished:
            raise DataQualityError("cannot feed a finished cleaning stream")
        # The greedy outlier filter of GpsCleaner.clean_columns.
        index = self._count
        if index:
            dt = t - self._anchor_t
            if dt < 0:
                raise DataQualityError("GPS stream timestamps must be non-decreasing")
            if dt == 0:
                return None
            # SpatioTemporalPoint.distance_to on the anchor's own floats.  The
            # batch filter keeps ``speed <= max_speed``, so a NaN speed (a NaN
            # coordinate or timestamp, or inf - inf) is rejected here too.
            dx = self._anchor_x - x
            dy = self._anchor_y - y
            if not math.sqrt(dx * dx + dy * dy) / dt <= self._max_speed:
                return None
        self._anchor_x = x
        self._anchor_y = y
        self._anchor_t = t
        self._count = index + 1
        half = self._half
        if not half:
            return (x, y, t)
        xs, ys, ts = self._xs, self._ys, self._ts
        xs.append(x)
        ys.append(y)
        ts.append(t)
        # The stream index this fix finalizes.  Its centred window ends at
        # this fix and starts at the window's first element: everything
        # before it was pruned, so the window is the whole buffer.
        index -= half
        if index < 0:
            return None
        if index == 0:
            return (xs[0], ys[0], ts[0])  # the stream's first fix keeps its position
        if index < half:
            # The stream start clips the window: the buffer is the stream so far.
            at, size = index, index + half + 1
        else:
            at, size = half, half + half + 1
        if self._median:
            # window_median of a fresh slice per coordinate, sorted in place.
            wx = xs[:]
            wy = ys[:]
            wx.sort()
            wy.sort()
            middle = size >> 1
            if size & 1:
                fix = (wx[middle], wy[middle], ts[at])
            else:
                fix = (
                    (wx[middle - 1] + wx[middle]) / 2,
                    (wy[middle - 1] + wy[middle]) / 2,
                    ts[at],
                )
        else:
            fix = (statistics.fmean(xs), statistics.fmean(ys), ts[at])
        if index >= half:
            # No future window reaches back to the buffer's first fix.
            del xs[0], ys[0], ts[0]
        return fix

    def finish(self) -> List[Fix]:
        """Signal end of stream and flush the remaining cleaned ``(x, y, t)`` fixes."""
        if self._finished:
            return []
        index = self._emitted()
        self._finished = True
        n = self._count
        half = self._half
        xs, ys, ts = self._xs, self._ys, self._ts
        # Stream index of the buffer's first element.
        base = index - half if index > half else 0
        aggregate = window_median if self._median else statistics.fmean
        # The batch cleaner leaves a stream of fewer than three fixes, and the
        # first and last fixes of any stream, unsmoothed.
        emitted: List[Fix] = []
        while index < n:
            at = index - base
            if n < 3 or index == 0 or index == n - 1:
                emitted.append((xs[at], ys[at], ts[at]))
            else:
                # The centred window, clipped to the stream, as buffer positions.
                lo = index - half
                lo = (lo if lo > 0 else 0) - base
                hi = index + half + 1
                hi = (hi if hi < n else n) - base
                emitted.append((aggregate(xs[lo:hi]), aggregate(ys[lo:hi]), ts[at]))
            index += 1
        return emitted

    # ------------------------------------------------------------- internals
    def _emitted(self) -> int:
        """Fixes :meth:`step` has finalized: all but the ``half`` of lookahead."""
        if self._finished:
            return self._count
        emitted = self._count - self._half
        return emitted if emitted > 0 else 0
