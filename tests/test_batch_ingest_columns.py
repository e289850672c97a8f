"""Batch ingest on columns: ``ingest_stream`` equals the point loop and a session replay.

``SeMiTriPipeline.ingest_stream`` cleans and splits a stream's ``x`` / ``y`` /
``t`` columns.  On generated hostile streams — duplicate and over-speed fixes,
NaN / ±inf numbers, mixed ``±0.0``, gaps at exactly the thresholds, fragments
below ``min_points`` — it must give, float for float (compared by ``repr``,
so ``-0.0`` is not ``0.0``) and id for id, the trajectories of

* :func:`repro.reference.cleaning.ingest_points`, the per-point oracle, and
* a streaming :class:`~repro.streaming.session.Session` fed the same points
  (streaming cleaner, gap split, ``min_points`` and numbering),

or raise the same error.  Integer coordinates, alone or mixed with floats,
come back as the same Python numbers from all three: a median is one of the
input's own values.  A batch pass over the benchmark fleet builds no point
object.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.config import CleaningConfig, PipelineConfig, TrajectoryIdentificationConfig
from repro.core.errors import DataQualityError
from repro.core.pipeline import SeMiTriPipeline
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.preprocessing.cleaning import GpsCleaner
from repro.reference.cleaning import ScalarGpsCleaner, ingest_points
from repro.streaming.cleaning import clean_stream
from repro.streaming.session import Session

# The benchmark fleet (bench/fleet.py) lives beside src/ at the checkout root.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench import fleet  # noqa: E402

_MAX_SPEED = 70.0
_TIME_GAP = 40.0
_DISTANCE_GAP = 100.0

# One generated step: (time advance, x, y), or a hostile timestamp in place of
# the advance.  Advances of exactly _TIME_GAP and jumps of exactly
# _DISTANCE_GAP sit on the split thresholds (kept together); 41 s and 200 m
# are just over.  50 km is an over-speed fix at any advance on offer, and a
# zero advance is a duplicate timestamp.
_ADVANCE = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0, _TIME_GAP, 41.0]),
    st.sampled_from([("at", math.nan), ("at", math.inf), ("at", -math.inf)]),
)
_COORDINATE = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0.0, 5.0, _DISTANCE_GAP, 200.0, 50_000.0, math.nan, math.inf, -math.inf]
    ),
    st.floats(-300.0, 300.0),
    st.integers(-300, 300),
)
_STEPS = st.lists(st.tuples(_ADVANCE, _COORDINATE, _COORDINATE), max_size=60)


def _config(window: int, method: str, min_points: int) -> PipelineConfig:
    return PipelineConfig(
        cleaning=CleaningConfig(
            max_speed=_MAX_SPEED, smoothing_window=window, smoothing_method=method
        ),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=_TIME_GAP, max_distance_gap=_DISTANCE_GAP, min_points=min_points
        ),
    )


def _walk(steps) -> List[SpatioTemporalPoint]:
    points, t = [], 1000.0
    for advance, x, y in steps:
        if isinstance(advance, tuple):
            points.append(SpatioTemporalPoint(x, y, advance[1]))
        else:
            t += advance
            points.append(SpatioTemporalPoint(x, y, t))
    return points


Trajectories = List[Tuple[str, List[str], List[str], List[str]]]


def _summary(trajectories: List[RawTrajectory]) -> Trajectories:
    """Id and every column float's ``repr``, per trajectory."""
    return [
        (
            trajectory.trajectory_id,
            [repr(x) for x in trajectory.xs],
            [repr(y) for y in trajectory.ys],
            [repr(t) for t in trajectory.ts],
        )
        for trajectory in trajectories
    ]


def _session_replay(points, config: PipelineConfig, object_id: str) -> List[RawTrajectory]:
    session = Session(object_id, config, apply_cleaning=True)
    sealed = []
    for point in points:
        sealed.extend(session.push(point).sealed)
    sealed.extend(session.close().sealed)
    return [item.trajectory for item in sealed if not item.discarded]


def _outcome(ingest, *args):
    try:
        return _summary(ingest(*args))
    except DataQualityError:
        return DataQualityError


@settings(max_examples=300, deadline=None)
@given(
    steps=_STEPS,
    window=st.sampled_from([1, 3, 4, 5, 7, 9]),
    method=st.sampled_from(["median", "mean", "none"]),
    min_points=st.sampled_from([1, 2, 5]),
)
def test_column_ingest_equals_the_point_loop_and_a_session_replay(
    steps, window, method, min_points
):
    config = _config(window, method, min_points)
    points = _walk(steps)
    product = _outcome(SeMiTriPipeline(config).ingest_stream, points, "u")
    assert product == _outcome(ingest_points, points, config, "u")
    assert product == _outcome(_session_replay, points, config, "u")


def test_a_gap_of_exactly_the_threshold_does_not_split():
    config = _config(1, "none", 1)
    triples = [(0.0, 0.0, 0.0), (_DISTANCE_GAP, 0.0, _TIME_GAP), (0.0, 0.0, 2 * _TIME_GAP + 1)]
    points = [SpatioTemporalPoint(*triple) for triple in triples]
    trajectories = SeMiTriPipeline(config).ingest_stream(points, object_id="u")
    assert [(t.trajectory_id, len(t)) for t in trajectories] == [("u-t0", 2), ("u-t1", 1)]


def test_discarded_fragments_keep_their_number():
    config = _config(1, "none", 2)
    ts = [0.0, 100.0, 101.0, 200.0, 300.0, 301.0]
    points = [SpatioTemporalPoint(0.0, 0.0, t) for t in ts]
    trajectories = SeMiTriPipeline(config).ingest_stream(points, object_id="u")
    assert [t.trajectory_id for t in trajectories] == ["u-t1", "u-t3"]


def _fixes(points: List[SpatioTemporalPoint]) -> List[Tuple[str, str, str]]:
    return [(repr(p.x), repr(p.y), repr(p.t)) for p in points]


@pytest.mark.parametrize("window", [3, 5, 7])
@pytest.mark.parametrize(
    "stream",
    [
        pytest.param([(10 * i, 5 * i + i % 3, 10.0 * i) for i in range(12)], id="int"),
        pytest.param(
            [(10 * i if i % 2 else 10.0 * i + 0.5, -(i % 4), 10.0 * i) for i in range(15)],
            id="mixed",
        ),
        pytest.param(
            [((0, -0.0, 0.0)[i % 3], (0.0, 0)[i % 2], 1.0 * i) for i in range(12)], id="zeros"
        ),
    ],
)
def test_integer_coordinates_stay_integers(stream, window):
    points = [SpatioTemporalPoint(*fix) for fix in stream]
    config = CleaningConfig(max_speed=_MAX_SPEED, smoothing_window=window)
    batch = _fixes(GpsCleaner(config).clean(points))
    assert batch == _fixes(clean_stream(points, config))
    assert batch == _fixes(ScalarGpsCleaner(config).clean(points))
    assert any(isinstance(x, int) for x, _, _ in stream)
    assert any("." not in x for x, _, _ in batch[1:-1])  # an interior int survived


@pytest.fixture()
def built(monkeypatch) -> List[int]:
    """``built[0]`` counts the ``SpatioTemporalPoint``s this process makes from now on."""
    count = [0]
    init = SpatioTemporalPoint.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpatioTemporalPoint, "__init__", counting)
    return count


def test_a_batch_pass_of_the_fleet_builds_no_point(built):
    inputs = fleet.generate(1, fleet.FULL)
    context = fleet.build_context(inputs, fleet.pipeline_config())
    built[0] = 0
    pipeline = api.open_pipeline(context.config)
    raws = []
    for object_id in inputs.order:
        raws.extend(pipeline.ingest_stream(inputs.streams[object_id], object_id=object_id))
    results = api.annotate_many(raws, context=context)
    assert built[0] == 0
    assert len(results) == 132
    assert sum(len(result.trajectory) for result in results) > 11_000
