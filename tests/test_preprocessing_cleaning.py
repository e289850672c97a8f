"""Unit tests for GPS cleaning (outlier removal and smoothing)."""

from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint
from repro.preprocessing.cleaning import GpsCleaner
from repro.reference.cleaning import smooth_per_point
from repro.streaming import clean_stream


def _stream(*triples):
    return [SpatioTemporalPoint(x, y, t) for x, y, t in triples]


class TestOutlierRemoval:
    def test_keeps_plausible_stream(self):
        cleaner = GpsCleaner(CleaningConfig(max_speed=10))
        points = _stream((0, 0, 0), (5, 0, 1), (10, 0, 2))
        assert cleaner.remove_outliers(points) == points

    def test_drops_single_wild_fix(self):
        cleaner = GpsCleaner(CleaningConfig(max_speed=10))
        points = _stream((0, 0, 0), (5000, 0, 1), (10, 0, 2))
        cleaned = cleaner.remove_outliers(points)
        assert len(cleaned) == 2
        assert cleaned[1].x == 10

    def test_drops_duplicate_timestamps(self):
        cleaner = GpsCleaner()
        points = _stream((0, 0, 0), (1, 0, 0), (2, 0, 1))
        cleaned = cleaner.remove_outliers(points)
        assert [p.t for p in cleaned] == [0, 1]

    def test_rejects_decreasing_timestamps(self):
        cleaner = GpsCleaner()
        points = _stream((0, 0, 10), (1, 0, 5))
        with pytest.raises(DataQualityError):
            cleaner.remove_outliers(points)

    def test_empty_stream(self):
        assert GpsCleaner().remove_outliers([]) == []

    def test_consecutive_outliers_all_dropped(self):
        cleaner = GpsCleaner(CleaningConfig(max_speed=10))
        points = _stream((0, 0, 0), (5000, 0, 1), (5100, 0, 2), (10, 0, 3))
        cleaned = cleaner.remove_outliers(points)
        assert [p.x for p in cleaned] == [0, 10]


class TestSmoothing:
    def test_smoothing_reduces_jitter(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=3, smoothing_method="mean"))
        points = _stream((0, 0, 0), (10, 0, 1), (0, 0, 2), (10, 0, 3), (0, 0, 4))
        smoothed = cleaner.smooth(points)
        # Interior points are pulled towards the local mean.
        assert smoothed[1].x != points[1].x
        assert 0 < smoothed[2].x < 10

    def test_endpoints_are_preserved(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=3))
        points = _stream((0, 0, 0), (5, 5, 1), (10, 10, 2))
        smoothed = cleaner.smooth(points)
        assert smoothed[0] == points[0]
        assert smoothed[-1] == points[-1]

    def test_timestamps_are_preserved(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=5))
        points = _stream(*[(i * 3.0, 0, i) for i in range(10)])
        smoothed = cleaner.smooth(points)
        assert [p.t for p in smoothed] == [p.t for p in points]

    @pytest.mark.parametrize("n", [10, 50])  # scalar pass, array pass
    def test_integer_timestamps_survive_as_the_same_objects(self, n):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=5))
        points = _stream(*[(i * 3.0, float(i % 4), 10_000 + i * 7) for i in range(n)])
        smoothed = cleaner.smooth(points)
        assert all(ours.t is theirs.t for ours, theirs in zip(smoothed, points))
        assert all(type(point.t) is int for point in smoothed)

    def test_window_one_disables_smoothing(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=1))
        points = _stream((0, 0, 0), (10, 0, 1), (0, 0, 2))
        assert cleaner.smooth(points) == points

    def test_method_none_disables_smoothing(self):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=5, smoothing_method="none"))
        points = _stream((0, 0, 0), (10, 0, 1), (0, 0, 2))
        assert cleaner.smooth(points) == points

    def test_short_streams_returned_unchanged(self):
        cleaner = GpsCleaner()
        points = _stream((0, 0, 0), (1, 1, 1))
        assert cleaner.smooth(points) == points


class TestFullClean:
    def test_clean_combines_both_steps(self):
        cleaner = GpsCleaner(CleaningConfig(max_speed=10, smoothing_window=3))
        points = _stream((0, 0, 0), (5000, 0, 1), (2, 0, 2), (4, 0, 3), (6, 0, 4))
        cleaned = cleaner.clean(points)
        assert len(cleaned) == 4
        assert all(p.x < 100 for p in cleaned)


# One generated step: (time advance, x, y).  The small sampled sets make
# duplicate timestamps, zero-length steps and exact coordinate ties common.
_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 5.0, 5.0, 10.0, 25.0, 50_000.0]), st.floats(-500.0, 500.0)
)


def _steps(advances):
    return st.lists(st.tuples(st.sampled_from(advances), _coordinate, _coordinate), max_size=40)


def _walk(steps):
    points, t = [], 100.0
    for advance, x, y in steps:
        t += advance
        points.append(SpatioTemporalPoint(x, y, t))
    return points


def _triples(points):
    """Each fix as the reprs of its numbers: ``-0.0`` differs from ``0.0``, NaN equals NaN."""
    return [(repr(point.x), repr(point.y), repr(point.t)) for point in points]


class TestShortAndDegenerateStreams:
    """Streams of 0-40 fixes: no size cut-off keeps them off the array kernel."""

    @given(steps=_steps([0.0, 1.0, 2.5, 10.0, 40.0]), window=st.sampled_from([3, 4, 5, 7, 9]))
    @settings(max_examples=200, deadline=None)
    def test_median_smoothing_equals_the_per_point_loop(self, steps, window):
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=window, smoothing_method="median"))
        points = _walk(steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on any input
            smoothed = cleaner.smooth(points)
        assert _triples(smoothed) == _triples(smooth_per_point(points, window, "median"))

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
        cleaner = GpsCleaner(CleaningConfig(max_speed=max_speed))
        if decreasing:
            with pytest.raises(DataQualityError):
                cleaner.remove_outliers(points)
        else:
            assert _triples(cleaner.remove_outliers(points)) == _triples(kept)


class TestSignedZeroMedians:
    """A window holding both ``0.0`` and ``-0.0`` has two medians that compare
    equal; the batch smoother must select the one the stable ``list.sort`` of
    the per-point loop and of the streaming cleaner selects."""

    @pytest.mark.parametrize("window", [7, 9])
    def test_the_median_zero_is_the_per_point_loops(self, window):
        xs = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 0.0)
        points = [SpatioTemporalPoint(x, -x, float(t)) for t, x in enumerate(xs)]
        cleaner = GpsCleaner(CleaningConfig(smoothing_window=window))
        expected = _triples(smooth_per_point(points, window, "median"))
        assert _triples(cleaner.smooth(points)) == expected
        assert _triples(clean_stream(points, cleaner.config)) == expected
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
            assert _triples(cleaner.clean(points)) == expected, xs
            assert _triples(clean_stream(points, config)) == expected, xs
