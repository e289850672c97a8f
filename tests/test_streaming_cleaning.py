"""Streaming GPS cleaner: exact parity with the batch cleaner."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CleaningConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint, point_columns
from repro.preprocessing.cleaning import GpsCleaner
from repro.streaming import StreamingGpsCleaner


def _reprs(fixes):
    """Each ``(x, y, t)`` fix as the reprs of its numbers: ``-0.0`` differs from ``0.0``."""
    return [tuple(map(repr, fix)) for fix in fixes]


def _batch(config, xs, ys, ts):
    """The batch cleaner's fixes of a stream's columns, as ``(x, y, t)`` triples."""
    return list(zip(*GpsCleaner(config).clean_columns(xs, ys, ts)))


def _streamed(config, xs, ys, ts):
    """Every fix stepped through one fresh streaming cleaner, then its flushed tail."""
    cleaner = StreamingGpsCleaner(config)
    return [fix for fix in map(cleaner.step, xs, ys, ts) if fix is not None] + cleaner.finish()


def _random_stream(seed: int, n: int, outlier_rate: float = 0.1):
    """The ``(xs, ys, ts)`` columns of a random walk with 50 km outliers."""
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
    return point_columns(points)


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
    columns = _random_stream(seed=3, n=300)
    assert _reprs(_streamed(config, *columns)) == _reprs(_batch(config, *columns))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_streaming_clean_tiny_streams(n):
    config = CleaningConfig(smoothing_window=3)
    columns = _random_stream(seed=9, n=n, outlier_rate=0.0)
    assert _reprs(_streamed(config, *columns)) == _reprs(_batch(config, *columns))


def test_duplicate_timestamps_are_dropped_like_batch():
    config = CleaningConfig()
    # The second fix repeats the first one's timestamp.
    columns = ([0.0, 5.0, 10.0, 20.0], [0.0] * 4, [0.0, 0.0, 10.0, 20.0])
    batch = _batch(config, *columns)
    assert [t for _, _, t in batch] == [0.0, 10.0, 20.0]
    assert _reprs(_streamed(config, *columns)) == _reprs(batch)


def test_emission_lag_is_bounded_by_half_window():
    config = CleaningConfig(smoothing_window=5)
    cleaner = StreamingGpsCleaner(config)
    for index in range(50):
        cleaner.step(float(index), 0.0, float(index))
        assert cleaner.pending_count <= config.smoothing_window // 2
    assert cleaner.finish()
    assert cleaner.pending_count == 0


def test_decreasing_timestamps_raise():
    cleaner = StreamingGpsCleaner(CleaningConfig())
    cleaner.step(0, 0, 10.0)
    with pytest.raises(DataQualityError):
        cleaner.step(1, 0, 5.0)


def test_push_after_finish_raises():
    cleaner = StreamingGpsCleaner(CleaningConfig())
    cleaner.step(0, 0, 0.0)
    cleaner.finish()
    with pytest.raises(DataQualityError):
        cleaner.step(1, 0, 1.0)


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
    xs, ys, ts = [], [], []
    t = 100.0
    for advance, x, y in steps:
        t += advance
        xs.append(x)
        ys.append(y)
        ts.append(t)
    lag = 0 if window == 1 or method == "none" else window // 2
    outlier_filter = CleaningConfig(smoothing_method="none")

    cleaner = StreamingGpsCleaner(config)
    streamed = []
    for pushed, fix in enumerate(zip(xs, ys, ts), start=1):
        fix = cleaner.step(*fix)
        if fix is not None:
            streamed.append(fix)
        accepted = len(_batch(outlier_filter, xs[:pushed], ys[:pushed], ts[:pushed]))
        assert cleaner.pending_count == min(accepted, lag)
        assert len(streamed) == accepted - cleaner.pending_count
    streamed.extend(cleaner.finish())

    assert cleaner.pending_count == 0
    assert cleaner.finish() == []
    # The same numbers by repr: NaN equals NaN, -0.0 differs from 0.0.
    assert _reprs(streamed) == _reprs(_batch(config, xs, ys, ts))


@pytest.mark.parametrize(
    "hostile",
    [(math.nan, 1.0, 20.0), (1.5, math.nan, 20.0), (1.5, 1.0, math.nan), (math.inf, 1.0, 20.0)],
)
def test_a_fix_whose_speed_is_nan_or_infinite_is_dropped_like_batch(hostile):
    """The batch filter keeps ``speed <= max_speed``; a NaN speed fails it, so
    the streaming filter must reject the fix too instead of keeping it."""
    triples = [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0), hostile, (2.0, 2.0, 30.0), (3.0, 3.0, 40.0)]
    columns = tuple(map(list, zip(*triples)))
    config = CleaningConfig()
    batch = _batch(config, *columns)
    assert len(batch) == 4
    assert _reprs(_streamed(config, *columns)) == _reprs(batch)


# A generated step for the one-fix contract: (time advance, x, y).  Advances
# include duplicates (0), a rare step back in time (-3) and a NaN timestamp
# (that one fix's, the clock runs on); the coordinates mix ±0.0, ints, NaN /
# ±inf and over-speed jumps.
_step_fixes = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 2.5, 10.0, 10.0, 40.0, 40.0, -3.0, math.nan]),
        st.one_of(
            st.sampled_from([0.0, -0.0, 10.0, 25.0, 50_000.0, *_hostile]),
            st.floats(-500.0, 500.0),
            st.integers(-500, 500),
        ),
        st.one_of(st.sampled_from([0.0, -0.0, 5.0, *_hostile]), st.integers(-50, 50)),
    ),
    max_size=40,
)


def _cleaned(clean):
    """``clean()``'s fixes by ``repr``, or the ``repr`` of the error it raised."""
    try:
        return _reprs(clean())
    except DataQualityError as error:
        return repr(error)


@settings(max_examples=300, deadline=None)
@given(
    steps=_step_fixes,
    window=st.sampled_from([1, 3, 4, 5, 7, 9]),
    method=st.sampled_from(["median", "mean", "none"]),
)
def test_a_step_finalizes_at_most_one_fix_and_the_steps_equal_batch_columns(
    steps, window, method
):
    config = CleaningConfig(smoothing_window=window, smoothing_method=method)
    xs, ys, ts = [], [], []
    t = 100.0
    for advance, x, y in steps:
        t += 0.0 if math.isnan(advance) else advance
        xs.append(x)
        ys.append(y)
        ts.append(advance if math.isnan(advance) else t)

    def streamed():
        cleaner = StreamingGpsCleaner(config)
        fixes = []
        for fix in map(cleaner.step, xs, ys, ts):
            if fix is not None:
                assert type(fix) is tuple and len(fix) == 3  # one fix, never a list
                fixes.append(fix)
        return fixes + cleaner.finish()

    def batch():
        return zip(*GpsCleaner(config).clean_columns(xs, ys, ts))

    assert _cleaned(streamed) == _cleaned(batch)
