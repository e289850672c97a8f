"""Semantic point annotation of stop episodes (Algorithm 3).

Builds the HMM ``lambda = (pi, A, B)`` from a POI source, decodes the hidden
POI-category sequence for the stop observations of a trajectory with Viterbi,
and attaches a POI-category and activity annotation to every stop episode.

Two steps, which the point-annotation stage runs at different times:
:meth:`PointAnnotator.look_up` takes the stops of a whole annotate group (a
batch chunk, a streaming flush) and makes **one** batch flat-index query for
all of them — the neighbour sets of the grid cells not cached yet, and each
stop's own neighbours, kept as its :class:`StopLookup`;
:meth:`PointAnnotator.annotate_lookups` runs when the trajectory closes, sorts
its stops once, decodes them with **one** Viterbi call and derives both the
stop annotations and the Equation 8 trajectory category from that decoding.
The representative POI of a stop is read from its stored neighbour list.

Annotations are values: the annotator keeps one table of POI annotations keyed
by the POI's ``place_id`` and one of activity annotations keyed by POI
category (the activity is a function of the category), filled on first use;
a stop's episode and record hold the same objects.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from repro.points.observation import Neighbors, PoiObservationModel
from repro.points.poi import PoiSource


class StopLookup(NamedTuple):
    """A stop episode with its own neighbour list, fetched with its annotate group."""

    stop: Episode
    neighbors: Neighbors


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
    def look_up(self, stops: Sequence[Episode]) -> List[StopLookup]:
        """The neighbour lookups of a group of stops, from one index query.

        Fills the observation model's cell cache for every cell the stops
        fall in and returns each stop with its own neighbour list, in order.
        """
        for stop in stops:
            if not stop.is_stop:
                raise DataQualityError("the point annotation layer only processes stop episodes")
        neighbor_lists = self._observation_model.prime([stop.center() for stop in stops])
        return [StopLookup(stop, neighbors) for stop, neighbors in zip(stops, neighbor_lists)]

    def annotate_lookups(
        self, lookups: Sequence[StopLookup]
    ) -> Tuple[StructuredSemanticTrajectory, Optional[str]]:
        """One trajectory's ``T_point`` and Equation 8 category, from one decoding.

        ``lookups`` are :meth:`look_up` results for every stop of the
        trajectory, in any order.  Each stop record links to the nearest POI
        of its inferred category within the neighbourhood radius (when there
        is one) and carries the category and activity as annotations.
        """
        if not lookups:
            raise DataQualityError("annotate_stops requires at least one stop episode")
        ordered = sorted(lookups, key=lambda lookup: lookup.stop.time_in)
        categories = self._decode(ordered)
        trajectory = ordered[0].stop.trajectory
        result = StructuredSemanticTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}:point",
            object_id=trajectory.object_id,
        )
        for (stop, neighbors), category in zip(ordered, categories):
            place = _nearest_of(neighbors, category)
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
        durations = [lookup.stop.duration for lookup in ordered]
        return result, trajectory_category(categories, durations)

    def infer_stop_categories(self, stops: Sequence[Episode]) -> List[str]:
        """Hidden POI-category sequence for an ordered sequence of stop episodes."""
        return self._decode(self.look_up(stops)) if stops else []

    def annotate_stops(self, stops: Sequence[Episode]) -> StructuredSemanticTrajectory:
        """Annotate stop episodes with POI category and activity (T_point)."""
        return self.annotate_lookups(self.look_up(stops))[0]

    def classify_trajectory(self, stops: Sequence[Episode]) -> Optional[str]:
        """Equation 8: the trajectory category from its stop categories and durations."""
        return self.annotate_lookups(self.look_up(stops))[1] if stops else None

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

    def _decode(self, ordered: Sequence[StopLookup]) -> List[str]:
        """Viterbi over the stops' emission rows, one row per stop."""
        model = self._observation_model
        rows = [model.emissions(stop.center(), neighbors) for stop, neighbors in ordered]
        return self._hmm.viterbi(rows).states


def _nearest_of(neighbors: Neighbors, category: str) -> Optional[PointOfInterest]:
    """The nearest POI of ``category`` in a ``(distance, poi)`` neighbour list."""
    for _, poi in neighbors:
        if poi.category == category:
            return poi
    return None
