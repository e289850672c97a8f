"""Unit and property-based tests for the HMM and Viterbi decoding."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.points.hmm import (
    HiddenMarkovModel,
    diagonal_transitions,
    uniform_transitions,
)

# A classic two-state weather HMM used as a known-answer test.
WEATHER_STATES = ["rainy", "sunny"]
WEATHER_INITIAL = {"rainy": 0.6, "sunny": 0.4}
WEATHER_TRANSITIONS = {
    "rainy": {"rainy": 0.7, "sunny": 0.3},
    "sunny": {"rainy": 0.4, "sunny": 0.6},
}
WEATHER_EMISSIONS = {
    "rainy": {"walk": 0.1, "shop": 0.4, "clean": 0.5},
    "sunny": {"walk": 0.6, "shop": 0.3, "clean": 0.1},
}


def weather_observation_fn(state, observation):
    return WEATHER_EMISSIONS[state][observation]


@pytest.fixture()
def weather_hmm() -> HiddenMarkovModel:
    return HiddenMarkovModel(WEATHER_STATES, WEATHER_INITIAL, WEATHER_TRANSITIONS)


class TestConstruction:
    def test_requires_states(self):
        with pytest.raises(ConfigurationError):
            HiddenMarkovModel([], {}, {})

    def test_requires_unique_states(self):
        with pytest.raises(ConfigurationError):
            HiddenMarkovModel(["a", "a"], {"a": 1.0}, {"a": {"a": 1.0}})

    def test_missing_initial_state_rejected(self):
        with pytest.raises(ConfigurationError):
            HiddenMarkovModel(["a", "b"], {"a": 1.0}, uniform_transitions(["a", "b"]))

    def test_missing_transition_row_rejected(self):
        with pytest.raises(ConfigurationError):
            HiddenMarkovModel(["a", "b"], {"a": 0.5, "b": 0.5}, {"a": {"a": 0.5, "b": 0.5}})

    def test_negative_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            HiddenMarkovModel(
                ["a", "b"], {"a": -0.5, "b": 1.5}, uniform_transitions(["a", "b"])
            )

    def test_distributions_are_normalised(self):
        hmm = HiddenMarkovModel(
            ["a", "b"], {"a": 2.0, "b": 2.0}, {"a": {"a": 3.0, "b": 1.0}, "b": {"a": 1.0, "b": 1.0}}
        )
        assert hmm.initial["a"] == pytest.approx(0.5)
        assert hmm.transitions["a"]["a"] == pytest.approx(0.75)


class TestTransitionHelpers:
    def test_uniform_transitions(self):
        transitions = uniform_transitions(["a", "b", "c"])
        assert transitions["a"]["b"] == pytest.approx(1 / 3)

    def test_diagonal_transitions(self):
        transitions = diagonal_transitions(["a", "b", "c"], self_probability=0.8)
        assert transitions["a"]["a"] == pytest.approx(0.8)
        assert transitions["a"]["b"] == pytest.approx(0.1)
        assert sum(transitions["a"].values()) == pytest.approx(1.0)

    def test_diagonal_single_state(self):
        assert diagonal_transitions(["only"], 0.5) == {"only": {"only": 1.0}}

    def test_diagonal_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            diagonal_transitions(["a", "b"], self_probability=1.2)


class TestViterbi:
    def test_known_answer_weather_example(self, weather_hmm):
        result = weather_hmm.viterbi(["walk", "shop", "clean"], weather_observation_fn)
        assert result.states == ["sunny", "rainy", "rainy"]

    def test_empty_observations(self, weather_hmm):
        result = weather_hmm.viterbi([], weather_observation_fn)
        assert result.states == []
        assert result.log_probability == 0.0

    def test_single_observation_picks_best_initial_emission(self, weather_hmm):
        result = weather_hmm.viterbi(["walk"], weather_observation_fn)
        assert result.states == ["sunny"]

    def test_path_probability_not_above_total_likelihood(self, weather_hmm):
        observations = ["walk", "shop", "clean", "walk", "walk"]
        viterbi = weather_hmm.viterbi(observations, weather_observation_fn)
        forward = weather_hmm.forward_log_likelihood(observations, weather_observation_fn)
        assert viterbi.log_probability <= forward + 1e-9

    def test_matches_brute_force_on_weather_example(self, weather_hmm):
        observations = ["walk", "clean", "shop", "walk"]
        viterbi = weather_hmm.viterbi(observations, weather_observation_fn)
        brute_path, brute_value = weather_hmm.brute_force_best_path(
            observations, weather_observation_fn
        )
        assert viterbi.states == brute_path
        assert viterbi.log_probability == pytest.approx(brute_value)

    def test_deltas_have_one_entry_per_observation(self, weather_hmm):
        result = weather_hmm.viterbi(["walk", "shop"], weather_observation_fn)
        assert len(result.deltas) == 2
        assert set(result.deltas[0]) == set(WEATHER_STATES)

    def test_termination_tie_break_prefers_greater_state_name(self):
        """Symmetric model: every path ties, so the name tie-break decides."""
        states = ["alpha", "zeta", "mid"]
        hmm = HiddenMarkovModel(
            states,
            {state: 1.0 / 3.0 for state in states},
            uniform_transitions(states),
        )
        result = hmm.viterbi(["o", "o"], lambda s, o: 0.5)
        # Final state: lexicographically greatest among the tied; predecessors
        # follow the first-maximum backpointer (state order).
        assert result.states == ["alpha", "zeta"]


class TestViterbiProperties:
    @given(
        st.lists(st.sampled_from(["walk", "shop", "clean"]), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_viterbi_equals_brute_force(self, observations, self_probability):
        states = ["s0", "s1", "s2"]
        emissions = {
            "s0": {"walk": 0.7, "shop": 0.2, "clean": 0.1},
            "s1": {"walk": 0.1, "shop": 0.7, "clean": 0.2},
            "s2": {"walk": 0.2, "shop": 0.1, "clean": 0.7},
        }
        hmm = HiddenMarkovModel(
            states,
            {"s0": 0.5, "s1": 0.3, "s2": 0.2},
            diagonal_transitions(states, self_probability),
        )
        observation_fn = lambda state, o: emissions[state][o]
        viterbi = hmm.viterbi(observations, observation_fn)
        brute_path, brute_value = hmm.brute_force_best_path(observations, observation_fn)
        assert viterbi.log_probability == pytest.approx(brute_value)
        # The decoded path must achieve the optimal probability (ties allowed).
        path_value = 0.0
        for index, (state, observation) in enumerate(zip(viterbi.states, observations)):
            if index == 0:
                path_value += math.log(max(hmm.initial[state], 1e-12))
            else:
                previous = viterbi.states[index - 1]
                path_value += math.log(max(hmm.transitions[previous][state], 1e-12))
            path_value += math.log(max(observation_fn(state, observation), 1e-12))
        assert path_value == pytest.approx(brute_value)

    @given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_viterbi_path_length_matches_observations(self, observations):
        states = ["x", "y"]
        hmm = HiddenMarkovModel(states, {"x": 0.5, "y": 0.5}, uniform_transitions(states))
        result = hmm.viterbi(observations, lambda s, o: 0.9 if s[0] == o[0] else 0.1)
        assert len(result.states) == len(observations)
        assert all(state in states for state in result.states)
