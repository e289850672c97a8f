"""Streaming GPS cleaning with bounded lookahead.

Reproduces :meth:`repro.preprocessing.cleaning.GpsCleaner.clean` over a live
stream: outlier removal is causal (the greedy anchor filter only looks
backwards), while the centred smoothing window needs ``window // 2`` future
fixes before a point's smoothed position is final — so the cleaner emits
fixes with that bounded lag and flushes the tail on :meth:`finish`.

The batch cleaner keeps the first and last fixes of the stream unsmoothed and
leaves streams of fewer than three fixes untouched; both rules depend on
knowing where the stream ends, which is exactly what :meth:`finish` signals.
The emitted sequence is bit-for-bit identical to the batch
``smooth(remove_outliers(points))`` on the same input (parity tested, hostile
coordinates and timestamps included: a fix whose speed is NaN is rejected,
as the batch filter's ``speed <= max_speed`` rejects it).

This is the per-fix path of every online workload, so it is floats end to
end: the lookahead window is kept as parallel ``x`` / ``y`` / ``t`` lists, the
speed filter works on the anchor's own coordinates, and what :meth:`push` and
:meth:`finish` emit are ``(x, y, t)`` triples, which the session appends to its
trajectory's columns.  No point object is built; :func:`clean_stream` builds
them for the callers that want points.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint
from repro.preprocessing.cleaning import window_median

#: One cleaned fix: ``(x, y, t)``.
Fix = Tuple[float, float, float]


class StreamingGpsCleaner:
    """Online outlier removal + smoothing for one GPS stream.

    Feed raw fixes with :meth:`push`, which returns the cleaned fixes that
    became final; call :meth:`finish` at end of stream to flush the pending
    tail.  One instance cleans exactly one stream.
    """

    def __init__(self, config: CleaningConfig = CleaningConfig()):
        self._config = config
        self._max_speed = config.max_speed
        self._passthrough = (
            config.smoothing_window <= 1 or config.smoothing_method == "none"
        )
        # Fixes of lookahead a smoothed position waits for (none when nothing
        # is smoothed).
        self._half = 0 if self._passthrough else config.smoothing_window // 2
        self._aggregate = (
            window_median if config.smoothing_method == "median" else statistics.fmean
        )
        # Accepted (outlier-filtered) fixes not yet pruned, as parallel float
        # columns; _base is the stream index of element 0.  The outlier anchor
        # is kept separately because pruning may drop the last accepted fix
        # from the window.
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._ts: List[float] = []
        self._base = 0
        self._anchor_x = 0.0
        self._anchor_y = 0.0
        self._anchor_t = 0.0
        self._count = 0
        self._emitted = 0
        self._finished = False

    @property
    def config(self) -> CleaningConfig:
        """The active cleaning configuration."""
        return self._config

    @property
    def pending_count(self) -> int:
        """Accepted fixes whose smoothed position is not yet final."""
        return self._count - self._emitted

    # ------------------------------------------------------------------ feed
    def push(self, point: SpatioTemporalPoint) -> List[Fix]:
        """Feed one raw fix; returns the cleaned ``(x, y, t)`` fixes finalized by it."""
        if self._finished:
            raise DataQualityError("cannot push into a finished cleaning stream")
        if not self._accept(point.x, point.y, point.t):
            return []
        return self._drain(closed=False)

    def finish(self) -> List[Fix]:
        """Signal end of stream and flush the remaining cleaned ``(x, y, t)`` fixes."""
        if self._finished:
            return []
        self._finished = True
        return self._drain(closed=True)

    # ------------------------------------------------------------- internals
    def _accept(self, x: float, y: float, t: float) -> bool:
        """The greedy outlier filter of :meth:`GpsCleaner.remove_outliers`."""
        if self._count > 0:
            dt = t - self._anchor_t
            if dt < 0:
                raise DataQualityError("GPS stream timestamps must be non-decreasing")
            if dt == 0:
                return False
            # SpatioTemporalPoint.distance_to on the anchor's own floats.  The
            # batch filter keeps ``speed <= max_speed``, so a NaN speed (a NaN
            # coordinate or timestamp, or inf - inf) is rejected here too.
            dx = self._anchor_x - x
            dy = self._anchor_y - y
            if not math.sqrt(dx * dx + dy * dy) / dt <= self._max_speed:
                return False
        self._anchor_x, self._anchor_y, self._anchor_t = x, y, t
        self._xs.append(x)
        self._ys.append(y)
        self._ts.append(t)
        self._count += 1
        return True

    def _drain(self, closed: bool) -> List[Fix]:
        """Emit every fix whose cleaned position is final, then prune the window."""
        n = self._count
        half = self._half
        base = self._base
        xs, ys, ts = self._xs, self._ys, self._ts
        aggregate = self._aggregate
        # A smoothed position is final once its window's right edge has
        # arrived; the end of the stream finalizes everything left.
        bound = n if closed else n - half
        # Unsmoothed: everything when smoothing is off or the whole stream has
        # fewer than three fixes; otherwise the two stream endpoints, which
        # keep their original position (the last is known only once closed).
        raw = self._passthrough or (closed and n < 3)
        last = n - 1 if closed else -1
        emitted: List[Fix] = []
        index = self._emitted
        while index < bound:
            at = index - base
            if raw or index == 0 or index == last:
                emitted.append((xs[at], ys[at], ts[at]))
            else:
                # The centred window, clipped to the stream, as buffer positions.
                lo = index - half
                hi = index + half + 1
                lo = (lo if lo > 0 else 0) - base
                hi = (hi if hi < n else n) - base
                emitted.append((aggregate(xs[lo:hi]), aggregate(ys[lo:hi]), ts[at]))
            index += 1
        self._emitted = index
        # Drop what no future smoothing window can reference.
        drop = index - half - base
        if drop > 0:
            del xs[:drop], ys[:drop], ts[:drop]
            self._base = base + drop
        return emitted


def clean_stream(
    points: Sequence[SpatioTemporalPoint], config: CleaningConfig = CleaningConfig()
) -> List[SpatioTemporalPoint]:
    """Convenience helper: stream every point through a fresh cleaner, as points."""
    cleaner = StreamingGpsCleaner(config)
    cleaned: List[Fix] = []
    for point in points:
        cleaned.extend(cleaner.push(point))
    cleaned.extend(cleaner.finish())
    return [SpatioTemporalPoint(x, y, t) for x, y, t in cleaned]
