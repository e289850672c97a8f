"""A generic discrete-state Hidden Markov Model with Viterbi decoding.

The semantic-point annotation layer models the sequence of stops of a
trajectory as observations of an HMM whose hidden states are POI categories
(Figure 5).  This module implements the model container ``lambda = (pi, A, B)``
and the dynamic-programming decoder of Algorithm 3 (Equations 5-7), plus the
forward algorithm used by tests to cross-check likelihoods.

Observation probabilities are supplied either by a callable
``B(state, observation)`` (the unit tests' small discrete alphabets) or, for
:meth:`HiddenMarkovModel.viterbi`, as one emission row per observation — a
mapping ``state -> Pr(o | state)``, which is what the POI observation model
holds per grid cell.

The decoder has one implementation, the dict-based recurrence: a trajectory
has a handful of stops (median 1, at most 5 on the benchmark fleet) over five
categories, and at that size a matrix form of the same recurrence was measured
slower.  What it does not redo per call is the logarithm of ``A``: the model
takes it once, when it is built, into a table the recurrence reads.
:meth:`HiddenMarkovModel.brute_force_best_path` is the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError

#: Type of the observation-probability callable B: (state, observation) -> probability.
ObservationFn = Callable[[str, object], float]


@dataclass(frozen=True)
class ViterbiResult:
    """Output of Viterbi decoding: state sequence, its log-probability, per-step deltas."""

    states: List[str]
    log_probability: float
    deltas: List[Dict[str, float]]


class HiddenMarkovModel:
    """Discrete-state HMM ``lambda = (pi, A, B)`` over named states.

    Parameters
    ----------
    states:
        Ordered state names (POI categories in the paper).
    initial:
        Mapping state -> initial probability ``pi``; must sum to ~1.
    transitions:
        Mapping state -> {state -> probability}; each row must sum to ~1.
    min_probability:
        Floor applied to probabilities before taking logarithms.
    """

    def __init__(
        self,
        states: Sequence[str],
        initial: Dict[str, float],
        transitions: Dict[str, Dict[str, float]],
        min_probability: float = 1e-12,
    ):
        if not states:
            raise ConfigurationError("an HMM needs at least one state")
        if len(set(states)) != len(states):
            raise ConfigurationError("HMM state names must be unique")
        self._states: List[str] = list(states)
        self._min_probability = min_probability
        self._initial = self._validated_distribution(initial, "initial")
        self._transitions: Dict[str, Dict[str, float]] = {}
        for state in self._states:
            row = transitions.get(state)
            if row is None:
                raise ConfigurationError(f"missing transition row for state {state!r}")
            self._transitions[state] = self._validated_distribution(row, f"transitions[{state}]")
        # log A_ij per target j, sources in state order: the recursion's inner loop.
        self._log_into: Dict[str, List[Tuple[str, float]]] = {
            target: [
                (source, self._log(self._transitions[source][target])) for source in self._states
            ]
            for target in self._states
        }

    # -------------------------------------------------------------- accessors
    @property
    def states(self) -> List[str]:
        """Ordered state names."""
        return list(self._states)

    @property
    def initial(self) -> Dict[str, float]:
        """Initial state distribution pi."""
        return dict(self._initial)

    @property
    def transitions(self) -> Dict[str, Dict[str, float]]:
        """State-transition matrix A as nested dictionaries."""
        return {state: dict(row) for state, row in self._transitions.items()}

    # --------------------------------------------------------------- decoding
    def viterbi(
        self, observations: Sequence[object], observation_fn: Optional[ObservationFn] = None
    ) -> ViterbiResult:
        """Most probable hidden state sequence for ``observations`` (Algorithm 3).

        ``observation_fn(state, observation)`` must return ``Pr(o | state)``;
        without it every observation is its own emission row, a mapping
        ``state -> Pr(o | state)`` (a state it lacks has probability 0, floored
        like any other).  Computation is carried out in log space; the per-step
        ``delta`` tables of Equation 5/6 are returned (as log-probabilities)
        for inspection.
        """
        if not observations:
            return ViterbiResult(states=[], log_probability=0.0, deltas=[])
        log = self._log
        if observation_fn is None:
            rows: Sequence[Mapping[str, float]] = observations  # type: ignore[assignment]
        else:
            rows = [
                {state: observation_fn(state, observation) for state in self._states}
                for observation in observations
            ]

        log_delta: List[Dict[str, float]] = []
        psi: List[Dict[str, str]] = []

        # Initialisation: delta_1(i) = pi_i * B_i(o_1).
        first: Dict[str, float] = {}
        row = rows[0]
        for state in self._states:
            first[state] = log(self._initial[state]) + log(row.get(state, 0.0))
        log_delta.append(first)
        psi.append({})

        # Recursion: delta_t(j) = max_i [delta_{t-1}(i) A_ij] * B_j(o_t).
        for row in rows[1:]:
            current: Dict[str, float] = {}
            pointers: Dict[str, str] = {}
            previous = log_delta[-1]
            for target in self._states:
                best_state = self._states[0]
                best_value = -math.inf
                for source, log_transition in self._log_into[target]:
                    value = previous[source] + log_transition
                    if value > best_value:
                        best_value = value
                        best_state = source
                current[target] = best_value + log(row.get(target, 0.0))
                pointers[target] = best_state
            log_delta.append(current)
            psi.append(pointers)

        # Termination and backtracking: q*_T = argmax_i delta_T(i).
        last = log_delta[-1]
        best_final = max(last.items(), key=lambda pair: (pair[1], pair[0]))
        states = [best_final[0]]
        for pointers in reversed(psi[1:]):
            states.append(pointers[states[-1]])
        states.reverse()
        return ViterbiResult(states=states, log_probability=best_final[1], deltas=log_delta)

    def forward_log_likelihood(
        self, observations: Sequence[object], observation_fn: ObservationFn
    ) -> float:
        """Log-likelihood of ``observations`` under the model (forward algorithm).

        Not needed by Algorithm 3 itself but used by the tests to verify that
        the Viterbi path's probability never exceeds the total observation
        likelihood.
        """
        if not observations:
            return 0.0
        alpha = {
            state: self._log(self._initial[state])
            + self._log(observation_fn(state, observations[0]))
            for state in self._states
        }
        for observation in observations[1:]:
            new_alpha: Dict[str, float] = {}
            for target in self._states:
                terms = [
                    alpha[source] + self._log(self._transitions[source][target])
                    for source in self._states
                ]
                new_alpha[target] = _log_sum_exp(terms) + self._log(
                    observation_fn(target, observation)
                )
            alpha = new_alpha
        return _log_sum_exp(list(alpha.values()))

    def brute_force_best_path(
        self, observations: Sequence[object], observation_fn: ObservationFn
    ) -> Tuple[List[str], float]:
        """Exhaustive search over all state sequences (test oracle only)."""
        if not observations:
            return [], 0.0
        best_path: List[str] = []
        best_value = -math.inf

        def recurse(index: int, path: List[str], value: float) -> None:
            nonlocal best_path, best_value
            if index == len(observations):
                if value > best_value:
                    best_value = value
                    best_path = list(path)
                return
            for state in self._states:
                if index == 0:
                    step = self._log(self._initial[state])
                else:
                    step = self._log(self._transitions[path[-1]][state])
                step += self._log(observation_fn(state, observations[index]))
                path.append(state)
                recurse(index + 1, path, value + step)
                path.pop()

        recurse(0, [], 0.0)
        return best_path, best_value

    # -------------------------------------------------------------- internals
    def _log(self, probability: float) -> float:
        return math.log(max(probability, self._min_probability))

    def _validated_distribution(self, raw: Dict[str, float], label: str) -> Dict[str, float]:
        distribution: Dict[str, float] = {}
        for state in self._states:
            if state not in raw:
                raise ConfigurationError(f"{label} is missing state {state!r}")
            value = float(raw[state])
            if value < 0:
                raise ConfigurationError(f"{label}[{state}] is negative")
            distribution[state] = value
        total = sum(distribution.values())
        if total <= 0:
            raise ConfigurationError(f"{label} must contain at least one positive probability")
        if abs(total - 1.0) > 1e-6:
            distribution = {state: value / total for state, value in distribution.items()}
        return distribution


def uniform_transitions(states: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """A fully uniform transition matrix over ``states``."""
    probability = 1.0 / len(states)
    return {source: {target: probability for target in states} for source in states}


def diagonal_transitions(
    states: Sequence[str], self_probability: float = 0.8
) -> Dict[str, Dict[str, float]]:
    """The default transition structure of Figure 6.

    Each state keeps ``self_probability`` on the diagonal and spreads the rest
    uniformly over the other states; this encodes "a moving object tends to
    keep performing activities of the same category" without any history.
    """
    if not (0.0 < self_probability < 1.0):
        raise ConfigurationError("self_probability must lie strictly between 0 and 1")
    if len(states) == 1:
        return {states[0]: {states[0]: 1.0}}
    off_probability = (1.0 - self_probability) / (len(states) - 1)
    return {
        source: {
            target: (self_probability if source == target else off_probability)
            for target in states
        }
        for source in states
    }


def _log_sum_exp(values: Sequence[float]) -> float:
    """Numerically stable log(sum(exp(values)))."""
    peak = max(values)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(sum(math.exp(value - peak) for value in values))
