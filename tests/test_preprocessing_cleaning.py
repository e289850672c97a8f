"""Unit tests for GPS cleaning (outlier removal and smoothing)."""

from __future__ import annotations

import math
import random
import warnings
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint, point_columns
from repro.preprocessing import cleaning
from repro.preprocessing.cleaning import GpsCleaner, window_median
from repro.reference.cleaning import ScalarGpsCleaner, smooth_per_point
from repro.streaming import StreamingGpsCleaner


def _columns(*triples):
    """The ``(xs, ys, ts)`` columns of ``(x, y, t)`` fixes."""
    return tuple(list(column) for column in zip(*triples)) if triples else ([], [], [])


def _fixes(columns):
    """Cleaned columns as ``(x, y, t)`` fixes."""
    return list(zip(*columns))


def _outlier_filter(**fields):
    """A cleaner that only removes outliers: its smoothing is off."""
    return GpsCleaner(CleaningConfig(smoothing_method="none", **fields))


class TestOutlierRemoval:
    def test_keeps_plausible_stream(self):
        cleaner = _outlier_filter(max_speed=10)
        fixes = [(0, 0, 0), (5, 0, 1), (10, 0, 2)]
        assert _fixes(cleaner.clean_columns(*_columns(*fixes))) == fixes

    def test_drops_single_wild_fix(self):
        cleaner = _outlier_filter(max_speed=10)
        xs, _, _ = cleaner.clean_columns(*_columns((0, 0, 0), (5000, 0, 1), (10, 0, 2)))
        assert xs == [0, 10]

    def test_drops_duplicate_timestamps(self):
        cleaner = _outlier_filter()
        _, _, ts = cleaner.clean_columns(*_columns((0, 0, 0), (1, 0, 0), (2, 0, 1)))
        assert ts == [0, 1]

    def test_rejects_decreasing_timestamps(self):
        cleaner = _outlier_filter()
        with pytest.raises(DataQualityError):
            cleaner.clean_columns(*_columns((0, 0, 10), (1, 0, 5)))

    def test_empty_stream(self):
        assert _outlier_filter().clean_columns([], [], []) == ([], [], [])

    def test_consecutive_outliers_all_dropped(self):
        cleaner = _outlier_filter(max_speed=10)
        columns = _columns((0, 0, 0), (5000, 0, 1), (5100, 0, 2), (10, 0, 3))
        xs, _, _ = cleaner.clean_columns(*columns)
        assert xs == [0, 10]


class TestSmoothing:
    def test_smoothing_reduces_jitter(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=3, smoothing_method="mean"))
        xs, _, _ = cleaner.clean_columns(
            *_columns((0, 0, 0), (10, 0, 1), (0, 0, 2), (10, 0, 3), (0, 0, 4))
        )
        # Interior points are pulled towards the local mean.
        assert xs[1] != 10
        assert 0 < xs[2] < 10

    def test_endpoints_are_preserved(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=3))
        fixes = [(0, 0, 0), (5, 5, 1), (10, 10, 2)]
        smoothed = _fixes(cleaner.clean_columns(*_columns(*fixes)))
        assert smoothed[0] == fixes[0]
        assert smoothed[-1] == fixes[-1]

    def test_timestamps_are_preserved(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=5))
        xs, ys, ts = _columns(*[(i * 3.0, 0, i) for i in range(10)])
        assert cleaner.clean_columns(xs, ys, ts)[2] == ts

    @pytest.mark.parametrize("n", [10, 50])  # scalar pass, array pass
    def test_integer_timestamps_survive_as_the_same_objects(self, n):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=5))
        xs, ys, ts = _columns(*[(i * 3.0, float(i % 4), 10_000 + i * 7) for i in range(n)])
        _, _, smoothed_ts = cleaner.clean_columns(xs, ys, ts)
        assert len(smoothed_ts) == n
        assert all(ours is theirs for ours, theirs in zip(smoothed_ts, ts))
        assert all(type(t) is int for t in smoothed_ts)

    def test_window_one_disables_smoothing(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=1))
        fixes = [(0, 0, 0), (10, 0, 1), (0, 0, 2)]
        assert _fixes(cleaner.clean_columns(*_columns(*fixes))) == fixes

    def test_method_none_disables_smoothing(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=5, smoothing_method="none"))
        fixes = [(0, 0, 0), (10, 0, 1), (0, 0, 2)]
        assert _fixes(cleaner.clean_columns(*_columns(*fixes))) == fixes

    def test_short_streams_returned_unchanged(self):
        cleaner = GpsCleaner()
        fixes = [(0, 0, 0), (1, 1, 1)]
        assert _fixes(cleaner.clean_columns(*_columns(*fixes))) == fixes


class TestFullClean:
    def test_clean_combines_both_steps(self):
        cleaner = GpsCleaner(CleaningConfig(max_speed=10, smoothing_window=3))
        xs, _, _ = cleaner.clean_columns(
            *_columns((0, 0, 0), (5000, 0, 1), (2, 0, 2), (4, 0, 3), (6, 0, 4))
        )
        assert len(xs) == 4
        assert all(x < 100 for x in xs)


# One generated step: (time advance, x, y).  The small sampled sets make
# duplicate timestamps, zero-length steps and exact coordinate ties common;
# x and y are drawn apart, so a fix may mix an ``int`` with a ``float``.
_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 5.0, 5.0, 10.0, 25.0, 50_000.0]),
    st.floats(-500.0, 500.0),
    st.sampled_from([0, 5, 50_000, 10**6]),
    st.integers(-(10**6), 10**6),
)


def _steps(advances, coordinate=_coordinate, max_size=40):
    return st.lists(
        st.tuples(st.sampled_from(advances), coordinate, coordinate), max_size=max_size
    )


def _fresh(value):
    """An equal number that is a new object: picks among equal values differ by identity."""
    return type(value)(repr(value))


def _walk(steps):
    points, t = [], 100.0
    for advance, x, y in steps:
        t += advance
        points.append(SpatioTemporalPoint(_fresh(x), _fresh(y), t))
    return points


def _argsort_median_column(values: List[float], half: int) -> List[float]:
    """The per-column smoother the two-column kernel replaced: its oracle.

    One stable argsort over a sliding-window view per coordinate column, the
    input's own value at the middle position, :func:`window_median` where the
    stream edge clips the window; endpoints keep their value.
    """
    n = len(values)
    smoothed = list(values)
    full_lo = half
    full_hi = n - half
    if full_hi > full_lo:
        windows = np.lib.stride_tricks.sliding_window_view(
            np.array(values, dtype=np.float64), 2 * half + 1
        )
        picks = np.argsort(windows, axis=1, kind="stable")[:, half]
        picks += np.arange(len(picks))
        smoothed[full_lo:full_hi] = map(values.__getitem__, picks.tolist())
    left_stop = min(half, n - 1)
    for index in (*range(1, left_stop), *range(max(full_hi, left_stop), n - 1)):
        smoothed[index] = window_median(values[max(0, index - half) : index + half + 1])
    return smoothed


def _assert_same_picks(got, want, inputs):
    """Where ``want`` selected an input, ``got`` holds that very object; elsewhere
    (the mean of a clipped even window) an equal number of the same type."""
    selected = {id(value) for value in inputs}
    assert len(got) == len(want)
    for index, (value, expected) in enumerate(zip(got, want)):
        if id(expected) in selected:
            assert value is expected, (index, value, expected)
        else:
            assert (type(value), repr(value)) == (type(expected), repr(expected)), index


def _triples(points):
    """Each fix as the reprs of its numbers: ``-0.0`` differs from ``0.0``, NaN equals NaN."""
    return [(repr(point.x), repr(point.y), repr(point.t)) for point in points]


def _column_triples(columns):
    """:func:`_triples` of a stream's ``(xs, ys, ts)`` columns."""
    return [tuple(map(repr, fix)) for fix in zip(*columns)]


def _streamed(config, points):
    """The columns of every fix stepped through one fresh streaming cleaner, tail included."""
    cleaner = StreamingGpsCleaner(config)
    fixes = [cleaner.step(point.x, point.y, point.t) for point in points]
    return _columns(*[fix for fix in fixes if fix is not None], *cleaner.finish())


class TestShortAndDegenerateStreams:
    """Streams of 0-40 fixes: no size cut-off keeps them off the array kernel."""

    @given(
        steps=st.one_of(
            _steps([0.0, 1.0, 2.5, 10.0, 40.0], max_size=12),
            _steps([0.0, 1.0, 2.5, 10.0, 40.0]),
        ),
        window=st.integers(1, 9),
    )
    @settings(max_examples=400, deadline=None)
    def test_median_smoothing_equals_the_per_point_loop(self, steps, window):
        # No speed is an outlier: only duplicate timestamps leave before smoothing.
        config = CleaningConfig(
            max_speed=math.inf, smoothing_window=window, smoothing_method="median"
        )
        points = _walk(steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on any input
            cleaned = GpsCleaner(config).clean_columns(*point_columns(points))
        kept = ScalarGpsCleaner(config).remove_outliers(points)
        assert _column_triples(cleaned) == _triples(smooth_per_point(kept, window, "median"))
        # The two-column kernel picks the very objects the per-column argsort picked.
        kept_xs, kept_ys, _ = point_columns(kept)
        for got, column in zip(cleaned, (kept_xs, kept_ys)):
            want = column
            if window > 1 and len(column) >= 3:
                want = _argsort_median_column(column, window // 2)
            _assert_same_picks(got, want, column)

    @given(
        steps=_steps(
            [0.0, 1.0, 2.5, 40.0],
            st.one_of(
                _coordinate,
                st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
            ),
            max_size=12,
        ),
        max_speed=st.sampled_from([70.0, 1e300, math.inf]),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_column_the_smoother_sees_is_finite(self, steps, max_speed):
        """The outlier filter drops every NaN or infinite speed, so a stream of
        three or more fixes reaches the median smoother finite; only an infinite
        ``max_speed`` lets an infinity through, and a NaN never passes."""
        seen = []
        median_columns = cleaning._median_columns

        def recording(xs, ys, half):
            seen.append(xs + ys)
            return median_columns(xs, ys, half)

        config = CleaningConfig(max_speed=max_speed, smoothing_window=3)
        points = _walk(steps)
        with mock.patch.object(cleaning, "_median_columns", recording):
            cleaned = GpsCleaner(config).clean_columns(*point_columns(points))
        assert len(seen) == int(len(cleaned[0]) >= 3)
        for values in seen:
            if math.isfinite(max_speed):
                assert all(map(math.isfinite, values)), values
            else:
                assert not any(map(math.isnan, values)), values

    @given(steps=_steps([0.0, 0.0, 1.0, 2.5, 40.0, -1.0]))
    @settings(max_examples=200, deadline=None)
    def test_outlier_filter_keeps_its_drop_and_raise_semantics(self, steps):
        """The greedy anchor scan, spelled out on plain floats."""
        max_speed = 70.0
        points = _walk(steps)
        kept, decreasing = points[:1], False
        for point in points[1:]:
            anchor = kept[-1]
            if point.t < anchor.t:
                decreasing = True  # behind the last *accepted* fix: the stream is refused
                break
            if point.t == anchor.t:
                continue  # duplicate timestamp: the first fix stays
            distance = math.sqrt((anchor.x - point.x) ** 2 + (anchor.y - point.y) ** 2)
            if distance / (point.t - anchor.t) <= max_speed:
                kept.append(point)
        cleaner = _outlier_filter(max_speed=max_speed)
        if decreasing:
            with pytest.raises(DataQualityError):
                cleaner.clean_columns(*point_columns(points))
        else:
            assert _column_triples(cleaner.clean_columns(*point_columns(points))) == _triples(kept)


class TestSignedZeroMedians:
    """A window holding both ``0.0`` and ``-0.0`` has two medians that compare
    equal; the batch smoother must select the one the stable ``list.sort`` of
    the per-point loop and of the streaming cleaner selects."""

    @pytest.mark.parametrize("window", [7, 9])
    def test_the_median_zero_is_the_per_point_loops(self, window):
        xs = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 0.0)
        points = [SpatioTemporalPoint(x, -x, float(t)) for t, x in enumerate(xs)]
        config = CleaningConfig(smoothing_window=window)
        expected = _triples(smooth_per_point(points, window, "median"))
        assert _column_triples(GpsCleaner(config).clean_columns(*point_columns(points))) == expected
        assert _column_triples(_streamed(config, points)) == expected
        if window == 7:
            assert expected[5][0] == "-0.0"

    @pytest.mark.parametrize("window", [3, 5, 7, 9])
    def test_every_sampled_zero_stream_agrees(self, window):
        rng = random.Random(window)
        config = CleaningConfig(smoothing_window=window)
        cleaner = GpsCleaner(config)
        for _ in range(300):
            xs = [rng.choice((0.0, -0.0, 1.0)) for _ in range(9)]
            points = [SpatioTemporalPoint(x, 0.0, float(t)) for t, x in enumerate(xs)]
            expected = _triples(smooth_per_point(points, window, "median"))
            assert _column_triples(cleaner.clean_columns(*point_columns(points))) == expected, xs
            assert _column_triples(_streamed(config, points)) == expected, xs
