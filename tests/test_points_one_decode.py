"""The point layer decodes each trajectory once, in every runtime.

Viterbi is a sequence-level decoder, so the point-annotation stage runs it at
close, once per trajectory with stops; the stop annotations and the
Equation 8 trajectory category both come from that one decoding.  A spy on
:meth:`HiddenMarkovModel.viterbi` counts the calls of a batch run, a
streaming run and a thread-transport service run against the trajectories
that have stops.  The decoder reads the log transitions from a table built
once; its ``delta`` tables must equal the recurrence that takes the logarithm
of ``A`` at every step.
"""

from __future__ import annotations

import asyncio
import math
from typing import Callable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import PipelineConfig, PipelineResult
from repro.points.hmm import HiddenMarkovModel


@pytest.fixture()
def viterbi_calls(monkeypatch) -> List[int]:
    calls: List[int] = []
    decode = HiddenMarkovModel.viterbi

    def spy(self, *args, **kwargs):
        calls.append(1)
        return decode(self, *args, **kwargs)

    monkeypatch.setattr(HiddenMarkovModel, "viterbi", spy)
    return calls


def _batch(trajectories, sources, config) -> List[PipelineResult]:
    return repro.annotate_many(trajectories, sources, config=config, workers=1)


def _stream(trajectories, sources, config) -> List[PipelineResult]:
    engine = repro.stream(sources, config=config)
    results: List[PipelineResult] = []
    for trajectory in trajectories:
        for point in trajectory.points:
            results.extend(engine.ingest(trajectory.object_id, point))
        results.extend(engine.close_object(trajectory.object_id))
    return results + engine.flush()


def _serve(trajectories, sources, config) -> List[PipelineResult]:
    config = config.with_overrides({"service.transport": "thread", "service.shards": 1})
    results: List[PipelineResult] = []

    async def run() -> None:
        async with repro.serve(sources, config=config, on_result=results.append) as service:
            for trajectory in trajectories:
                for point in trajectory.points:
                    await service.ingest(trajectory.object_id, point)
                await service.close_object(trajectory.object_id)
            await service.drain()

    asyncio.run(run())
    return results


@pytest.mark.parametrize("run", [_batch, _stream, _serve], ids=["batch", "stream", "serve"])
def test_one_viterbi_per_trajectory_with_stops(
    run: Callable, viterbi_calls, people_dataset, annotation_sources
):
    results = run(people_dataset.all_trajectories, annotation_sources, PipelineConfig.for_people())
    with_stops = [result for result in results if any(e.is_stop for e in result.episodes)]
    assert with_stops, "the dataset must exercise the point layer"
    assert len(viterbi_calls) == len(with_stops)
    for result in with_stops:
        assert result.point_trajectory is not None
        assert result.trajectory_category is not None
        assert result.latency.count("poi_annotation") == 1


_FLOOR = 1e-12


def _untabulated_deltas(hmm: HiddenMarkovModel, observations, observation_fn):
    """Equations 5-6 with ``log A_ij`` taken at every step (the decoder's former loop)."""

    def log(probability: float) -> float:
        return math.log(max(probability, _FLOOR))

    states, initial, transitions = hmm.states, hmm.initial, hmm.transitions
    deltas = [
        {s: log(initial[s]) + log(observation_fn(s, observations[0])) for s in states}
    ]
    for observation in observations[1:]:
        previous, current = deltas[-1], {}
        for target in states:
            best = -math.inf
            for source in states:
                best = max(best, previous[source] + log(transitions[source][target]))
            current[target] = best + log(observation_fn(target, observation))
        deltas.append(current)
    return deltas


_PROBABILITY = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_states=st.integers(1, 5), length=st.integers(1, 6))
def test_tabulated_transitions_leave_the_deltas_unchanged(data, n_states, length):
    states = [f"s{i}" for i in range(n_states)]
    weights = st.lists(_PROBABILITY, min_size=n_states, max_size=n_states).filter(any)
    initial = dict(zip(states, data.draw(weights)))
    transitions = {state: dict(zip(states, data.draw(weights))) for state in states}
    hmm = HiddenMarkovModel(states, initial, transitions, min_probability=_FLOOR)
    rows = [
        dict(zip(states, data.draw(st.lists(_PROBABILITY, min_size=n_states, max_size=n_states))))
        for _ in range(length)
    ]

    def emission(state, row):
        return row[state]

    expected = _untabulated_deltas(hmm, rows, emission)
    assert hmm.viterbi(rows).deltas == expected
    assert hmm.viterbi(rows, emission).deltas == expected
