"""Streaming GPS cleaner: exact parity with the batch cleaner."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint
from repro.preprocessing.cleaning import GpsCleaner
from repro.streaming import StreamingGpsCleaner, clean_stream


def _reprs(fixes):
    """Each ``(x, y, t)`` fix as the reprs of its numbers: ``-0.0`` differs from ``0.0``."""
    return [tuple(map(repr, fix)) for fix in fixes]


def _random_stream(seed: int, n: int, outlier_rate: float = 0.1):
    rng = np.random.default_rng(seed)
    points = []
    t = 0.0
    x, y = 0.0, 0.0
    for _ in range(n):
        t += float(rng.uniform(1.0, 30.0))
        x += float(rng.normal(0.0, 20.0))
        y += float(rng.normal(0.0, 20.0))
        if rng.random() < outlier_rate:
            points.append(SpatioTemporalPoint(x + 50_000.0, y, t))
        elif rng.random() < 0.05:
            points.append(SpatioTemporalPoint(x, y, t))  # duplicate timestamp later
        else:
            points.append(SpatioTemporalPoint(x, y, t))
    return points


@pytest.mark.parametrize(
    "config",
    [
        CleaningConfig(),
        CleaningConfig(smoothing_window=5, smoothing_method="mean"),
        CleaningConfig(smoothing_window=1),
        CleaningConfig(smoothing_method="none"),
        CleaningConfig(max_speed=5.0, smoothing_window=7),
    ],
)
def test_streaming_clean_matches_batch(config):
    points = _random_stream(seed=3, n=300)
    batch = GpsCleaner(config).clean(points)
    streamed = clean_stream(points, config)
    assert _reprs(p.as_tuple() for p in streamed) == _reprs(p.as_tuple() for p in batch)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_streaming_clean_tiny_streams(n):
    config = CleaningConfig(smoothing_window=3)
    points = _random_stream(seed=9, n=n, outlier_rate=0.0)
    batch = GpsCleaner(config).clean(points)
    streamed = clean_stream(points, config)
    assert _reprs(p.as_tuple() for p in streamed) == _reprs(p.as_tuple() for p in batch)


def test_duplicate_timestamps_are_dropped_like_batch():
    config = CleaningConfig()
    points = [
        SpatioTemporalPoint(0.0, 0.0, 0.0),
        SpatioTemporalPoint(5.0, 0.0, 0.0),  # duplicate timestamp
        SpatioTemporalPoint(10.0, 0.0, 10.0),
        SpatioTemporalPoint(20.0, 0.0, 20.0),
    ]
    batch = GpsCleaner(config).clean(points)
    streamed = clean_stream(points, config)
    assert _reprs(p.as_tuple() for p in streamed) == _reprs(p.as_tuple() for p in batch)


def test_emission_lag_is_bounded_by_half_window():
    config = CleaningConfig(smoothing_window=5)
    cleaner = StreamingGpsCleaner(config)
    for index in range(50):
        cleaner.push(SpatioTemporalPoint(float(index), 0.0, float(index)))
        assert cleaner.pending_count <= config.smoothing_window // 2
    assert cleaner.finish()
    assert cleaner.pending_count == 0


def test_decreasing_timestamps_raise():
    cleaner = StreamingGpsCleaner(CleaningConfig())
    cleaner.push(SpatioTemporalPoint(0, 0, 10.0))
    with pytest.raises(DataQualityError):
        cleaner.push(SpatioTemporalPoint(1, 0, 5.0))


def test_push_after_finish_raises():
    cleaner = StreamingGpsCleaner(CleaningConfig())
    cleaner.push(SpatioTemporalPoint(0, 0, 0.0))
    cleaner.finish()
    with pytest.raises(DataQualityError):
        cleaner.push(SpatioTemporalPoint(1, 0, 1.0))


def _same_fixes(streamed, batch) -> bool:
    """The same numbers by ``repr``: NaN equals NaN, ``-0.0`` differs from ``0.0``."""
    return _reprs(streamed) == _reprs(point.as_tuple() for point in batch)


# One generated step: (time advance, x, y).  The small sampled sets make
# duplicate timestamps and exact coordinate ties common; the far-away x values
# are over-speed fixes at every time advance on offer, and NaN / ±inf are the
# hostile coordinates a fix may carry (their speed is inf or NaN).
_hostile = [math.nan, math.inf, -math.inf]
_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.5, 10.0, 40.0]),
        st.one_of(
            st.sampled_from([0.0, -0.0, 10.0, 10.0, 25.0, 50_000.0, -80_000.0, *_hostile]),
            st.floats(-500.0, 500.0),
        ),
        st.one_of(st.sampled_from([0.0, 5.0, 5.0, -5.0, *_hostile]), st.floats(-500.0, 500.0)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    steps=_steps,
    window=st.sampled_from([1, 3, 4, 5, 7, 9]),
    method=st.sampled_from(["median", "mean", "none"]),
)
def test_streaming_clean_equals_batch_on_generated_streams(steps, window, method):
    config = CleaningConfig(smoothing_window=window, smoothing_method=method)
    points = []
    t = 100.0
    for advance, x, y in steps:
        t += advance
        points.append(SpatioTemporalPoint(x, y, t))
    batch = GpsCleaner(config).clean(points)
    lag = 0 if window == 1 or method == "none" else window // 2

    cleaner = StreamingGpsCleaner(config)
    streamed = []
    for pushed, point in enumerate(points, start=1):
        streamed.extend(cleaner.push(point))
        accepted = len(GpsCleaner(config).remove_outliers(points[:pushed]))
        assert cleaner.pending_count == min(accepted, lag)
        assert len(streamed) == accepted - cleaner.pending_count
    streamed.extend(cleaner.finish())

    assert cleaner.pending_count == 0
    assert cleaner.finish() == []
    assert _same_fixes(streamed, batch)


@pytest.mark.parametrize(
    "hostile",
    [(math.nan, 1.0, 20.0), (1.5, math.nan, 20.0), (1.5, 1.0, math.nan), (math.inf, 1.0, 20.0)],
)
def test_a_fix_whose_speed_is_nan_or_infinite_is_dropped_like_batch(hostile):
    """The batch filter keeps ``speed <= max_speed``; a NaN speed fails it, so
    the streaming filter must reject the fix too instead of keeping it."""
    triples = [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0), hostile, (2.0, 2.0, 30.0), (3.0, 3.0, 40.0)]
    points = [SpatioTemporalPoint(*triple) for triple in triples]
    config = CleaningConfig()
    batch = GpsCleaner(config).clean(points)
    assert len(batch) == 4
    cleaner = StreamingGpsCleaner(config)
    streamed = [fix for point in points for fix in cleaner.push(point)] + cleaner.finish()
    assert _same_fixes(streamed, batch)
