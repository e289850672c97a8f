"""Semantic point annotation of stop episodes (Algorithm 3).

Builds the HMM ``lambda = (pi, A, B)`` from a POI source, decodes the hidden
POI-category sequence for the stop observations of a trajectory with Viterbi,
and attaches a POI-category and activity annotation to every stop episode.

One path: before decoding, one batch flat-index query primes the observation
model with the neighbour sets of every cell the stops fall in.

Annotations are values: the annotator keeps one table of POI annotations keyed
by the POI's ``place_id`` and one of activity annotations keyed by POI
category (the activity is a function of the category), filled on first use;
a stop's episode and record hold the same objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.annotations import (
    Annotation,
    GeographicReferenceAnnotation,
    ValueAnnotation,
    activity_annotation,
    poi_annotation,
)
from repro.core.config import PointAnnotationConfig
from repro.core.episodes import Episode
from repro.core.errors import DataQualityError
from repro.core.places import PointOfInterest
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.points.activity import activity_for_category, trajectory_category
from repro.points.hmm import HiddenMarkovModel, diagonal_transitions
from repro.points.observation import PoiObservationModel
from repro.points.poi import PoiSource


class PointAnnotator:
    """Implements Algorithm 3: stop annotation with POI categories."""

    def __init__(
        self,
        source: PoiSource,
        config: PointAnnotationConfig = PointAnnotationConfig(),
        transitions: Optional[Dict[str, Dict[str, float]]] = None,
    ):
        self._source = source
        self._config = config
        self._observation_model = PoiObservationModel(source, config)
        categories = self._observation_model.categories
        self._hmm = HiddenMarkovModel(
            states=categories,
            initial=source.initial_probabilities(),
            transitions=transitions
            if transitions is not None
            else diagonal_transitions(categories, config.self_transition),
            min_probability=config.min_probability,
        )
        self._poi_annotations: Dict[str, GeographicReferenceAnnotation] = {}
        self._activity_annotations: Dict[str, ValueAnnotation] = {}

    @property
    def source(self) -> PoiSource:
        """The POI source the model was learned from."""
        return self._source

    @property
    def hmm(self) -> HiddenMarkovModel:
        """The underlying hidden Markov model lambda = (pi, A, B)."""
        return self._hmm

    # ------------------------------------------------------------ Algorithm 3
    def infer_stop_categories(self, stops: Sequence[Episode]) -> List[str]:
        """Hidden POI-category sequence for an ordered sequence of stop episodes."""
        for stop in stops:
            if not stop.is_stop:
                raise DataQualityError("the point annotation layer only processes stop episodes")
        if not stops:
            return []
        observations = [stop.center() for stop in stops]
        # One batch index query fills the cell cache for every stop the
        # Viterbi recurrence is about to score (n_states lookups each).
        self._observation_model.prime(observations)
        result = self._hmm.viterbi(
            observations,
            observation_fn=lambda state, observation: self._observation_model.probability(
                state, observation
            ),
        )
        return result.states

    def annotate_stops(self, stops: Sequence[Episode]) -> StructuredSemanticTrajectory:
        """Annotate stop episodes with POI category and activity (T_point).

        Each stop record links to the most probable *individual* POI of the
        inferred category near the stop (when one exists within the
        neighbourhood radius) and carries the category and activity as
        annotations.
        """
        if not stops:
            raise DataQualityError("annotate_stops requires at least one stop episode")
        ordered = sorted(stops, key=lambda stop: stop.time_in)
        categories = self.infer_stop_categories(ordered)
        trajectory = ordered[0].trajectory
        result = StructuredSemanticTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}:point",
            object_id=trajectory.object_id,
        )
        for stop, category in zip(ordered, categories):
            place = self._representative_poi(stop, category)
            activity = self._activity_annotation(category)
            annotations: List[Annotation] = [activity]
            stop.add_annotation(activity)
            if place is not None:
                poi = self._poi_annotation(place)
                annotations.insert(0, poi)
                stop.add_annotation(poi)
            result.append(
                SemanticEpisodeRecord(
                    place=place,
                    time_in=stop.time_in,
                    time_out=stop.time_out,
                    kind=stop.kind,
                    annotations=annotations,
                    source_episode=stop,
                )
            )
        return result

    def classify_trajectory(self, stops: Sequence[Episode]) -> Optional[str]:
        """Equation 8: the trajectory category from its stop categories and durations."""
        if not stops:
            return None
        ordered = sorted(stops, key=lambda stop: stop.time_in)
        categories = self.infer_stop_categories(ordered)
        durations = [stop.duration for stop in ordered]
        return trajectory_category(categories, durations)

    # -------------------------------------------------------------- internals
    def _poi_annotation(self, place: PointOfInterest) -> GeographicReferenceAnnotation:
        """The one annotation linking ``place``, built on first use."""
        annotation = self._poi_annotations.get(place.place_id)
        if annotation is None:
            annotation = self._poi_annotations[place.place_id] = poi_annotation(place)
        return annotation

    def _activity_annotation(self, category: str) -> ValueAnnotation:
        """The one activity annotation of POI ``category``, built on first use."""
        annotation = self._activity_annotations.get(category)
        if annotation is None:
            annotation = self._activity_annotations[category] = activity_annotation(
                activity_for_category(category), category=category
            )
        return annotation

    def _representative_poi(self, stop: Episode, category: str) -> Optional[PointOfInterest]:
        """The nearest POI of the inferred category, within the neighbour radius."""
        center = stop.center()
        neighbors = self._source.pois_within(center, self._config.neighbor_radius)
        for _, poi in neighbors:
            if poi.category == category:
                return poi
        return None
