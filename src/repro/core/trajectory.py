"""Semantic and structured semantic trajectories (Definitions 3 and 4).

A :class:`SemanticTrajectory` keeps per-point annotation sets (Definition 3);
a :class:`StructuredSemanticTrajectory` is the episode-level representation
the annotation layers produce (Definition 4): a sequence of tuples
``(semantic place, time_in, time_out, annotations)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.annotations import Annotation, ValueAnnotation
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import DataQualityError
from repro.core.places import SemanticPlace
from repro.core.points import RawTrajectory, SpatioTemporalPoint


@dataclass
class AnnotatedPoint:
    """A GPS point plus its (possibly empty) set of annotations."""

    point: SpatioTemporalPoint
    annotations: List[Annotation] = field(default_factory=list)

    def add(self, annotation: Annotation) -> None:
        """Attach an annotation to this point."""
        self.annotations.append(annotation)


class SemanticTrajectory:
    """Definition 3: a trajectory whose points carry annotation sets."""

    def __init__(self, raw: RawTrajectory):
        self._raw = raw
        self._annotated = [AnnotatedPoint(point) for point in raw]

    @property
    def raw(self) -> RawTrajectory:
        """The underlying raw trajectory."""
        return self._raw

    def __len__(self) -> int:
        return len(self._annotated)

    def __iter__(self) -> Iterator[AnnotatedPoint]:
        return iter(self._annotated)

    def __getitem__(self, index: int) -> AnnotatedPoint:
        return self._annotated[index]

    def annotate_point(self, index: int, annotation: Annotation) -> None:
        """Attach ``annotation`` to the point at ``index``."""
        self._annotated[index].add(annotation)

    def annotate_range(self, start: int, end: int, annotation: Annotation) -> None:
        """Attach ``annotation`` to every point in ``[start, end)``."""
        if start < 0 or end > len(self._annotated) or start >= end:
            raise DataQualityError(f"invalid annotation range [{start}, {end})")
        for index in range(start, end):
            self._annotated[index].add(annotation)

    def annotation_count(self) -> int:
        """Total number of annotations attached to points."""
        return sum(len(annotated.annotations) for annotated in self._annotated)


@dataclass
class SemanticEpisodeRecord:
    """One tuple of a structured semantic trajectory (Definition 4).

    Attributes
    ----------
    place:
        The semantic place the episode is linked to, or None when no suitable
        place was found (partial annotation).
    time_in / time_out:
        Entry and exit times of the moving object.
    kind:
        Stop or move (copied from the source episode).
    annotations:
        Additional annotations (activity, transportation mode, ...).
    source_episode:
        The computation-layer episode this record summarises, when available.
    """

    place: Optional[SemanticPlace]
    time_in: float
    time_out: float
    kind: EpisodeKind
    annotations: List[Annotation] = field(default_factory=list)
    source_episode: Optional[Episode] = None

    def __post_init__(self) -> None:
        _check_interval(self.time_in, self.time_out)

    @property
    def duration(self) -> float:
        """Duration of the record in seconds."""
        return self.time_out - self.time_in

    @property
    def place_category(self) -> Optional[str]:
        """Category of the linked place, or None."""
        return self.place.category if self.place is not None else None

    def value_of(self, label: str) -> Optional[object]:
        """Value of the first :class:`ValueAnnotation` with the given label."""
        for annotation in self.annotations:
            if isinstance(annotation, ValueAnnotation) and annotation.label == label:
                return annotation.value
        return None

    @property
    def transport_mode(self) -> Optional[str]:
        """Transportation-mode value when present."""
        value = self.value_of("transport_mode")
        return str(value) if value is not None else None

    @property
    def activity(self) -> Optional[str]:
        """Activity value when present."""
        value = self.value_of("activity")
        return str(value) if value is not None else None


def _check_interval(time_in: float, time_out: float) -> None:
    if time_out < time_in:
        raise DataQualityError(
            f"episode record has inverted time interval [{time_in}, {time_out}]"
        )


class StructuredSemanticTrajectory:
    """Definition 4: a sequence of semantic episode records.

    Records must be time-ordered.  :meth:`append_or_merge` holds Algorithm 1's
    merge rule — a tuple on the same place and kind as the last record
    extends it — and the annotation layers build their records through it, so
    they come out merged; :meth:`merged` is the same rule over copies of an
    existing trajectory's records.

    The records' annotation lists hold shared immutable values: the layer
    annotators hand the same annotation object to every record and episode
    that links the same place or carries the same value.
    """

    def __init__(
        self,
        trajectory_id: str,
        object_id: str,
        records: Sequence[SemanticEpisodeRecord] = (),
    ):
        self.trajectory_id = trajectory_id
        self.object_id = object_id
        self._records: List[SemanticEpisodeRecord] = []
        # ``time_in`` of the last tuple added, merged or not: what the next one
        # may not start before.
        self._last_time_in = -math.inf
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SemanticEpisodeRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> SemanticEpisodeRecord:
        return self._records[index]

    @property
    def records(self) -> List[SemanticEpisodeRecord]:
        """The episode records, in time order."""
        return list(self._records)

    def _check_order(self, time_in: float) -> None:
        if time_in < self._last_time_in:
            raise DataQualityError("structured trajectory records must be time-ordered")
        self._last_time_in = time_in

    def append(self, record: SemanticEpisodeRecord) -> None:
        """Append a record; its time interval must not start before the last one."""
        self._check_order(record.time_in)
        self._records.append(record)

    def append_or_merge(
        self,
        place: Optional[SemanticPlace],
        time_in: float,
        time_out: float,
        kind: EpisodeKind,
        annotations: Sequence[Annotation],
        source_episode: Optional[Episode] = None,
    ) -> None:
        """Add the tuple ``(place, time_in, time_out)`` under Algorithm 1's merge rule.

        The ``if current regtype = previous regtype then merge`` step: when
        the last record has the same place (``None`` counts as the same place
        as ``None``) and the same kind, that record is extended in place — it
        keeps its place, ``time_in`` and source episode, takes the later
        ``time_out`` and appends ``annotations``.  Otherwise a new record
        holding a copy of ``annotations`` is appended.  Either way the tuple's
        own interval must not be inverted, and it may not start before the
        previous tuple (merged or not) started.
        """
        self._check_order(time_in)
        if self._records:
            last = self._records[-1]
            previous = last.place
            if last.kind is kind and (
                previous is place
                or (
                    previous is not None
                    and place is not None
                    and previous.place_id == place.place_id
                )
            ):
                _check_interval(time_in, time_out)
                if time_out > last.time_out:
                    last.time_out = time_out
                last.annotations.extend(annotations)
                return
        self._records.append(
            SemanticEpisodeRecord(place, time_in, time_out, kind, list(annotations), source_episode)
        )

    def merged(self) -> "StructuredSemanticTrajectory":
        """Merge consecutive records with the same place and kind.

        :meth:`append_or_merge` over copies of the records: annotations of
        merged records are concatenated, and this trajectory is left as it is.
        """
        merged = StructuredSemanticTrajectory(self.trajectory_id, self.object_id)
        for record in self._records:
            merged.append_or_merge(
                record.place,
                record.time_in,
                record.time_out,
                record.kind,
                record.annotations,
                record.source_episode,
            )
        return merged

    # -------------------------------------------------------------- analysis
    @property
    def duration(self) -> float:
        """Time span covered by the records."""
        if not self._records:
            return 0.0
        return self._records[-1].time_out - self._records[0].time_in

    def stops(self) -> List[SemanticEpisodeRecord]:
        """Records of kind stop."""
        return [record for record in self._records if record.kind is EpisodeKind.STOP]

    def moves(self) -> List[SemanticEpisodeRecord]:
        """Records of kind move."""
        return [record for record in self._records if record.kind is EpisodeKind.MOVE]

    def category_durations(self) -> Dict[str, float]:
        """Total time spent per place category (ignores records without a place)."""
        durations: Dict[str, float] = {}
        for record in self._records:
            category = record.place_category
            if category is None:
                continue
            durations[category] = durations.get(category, 0.0) + record.duration
        return durations

    def dominant_category(self) -> Optional[str]:
        """Equation 8: the category with maximum total stop time.

        Only stop records enter the computation, as in the paper's trajectory
        classification; returns None when no stop record has a place.
        """
        durations: Dict[str, float] = {}
        for record in self.stops():
            category = record.place_category
            if category is None:
                continue
            durations[category] = durations.get(category, 0.0) + record.duration
        if not durations:
            return None
        return max(durations.items(), key=lambda pair: (pair[1], pair[0]))[0]

    def mode_sequence(self) -> List[str]:
        """Transportation modes of the move records, in order (gaps skipped)."""
        modes: List[str] = []
        for record in self.moves():
            mode = record.transport_mode
            if mode is not None:
                modes.append(mode)
        return modes

    def place_sequence(self) -> List[str]:
        """Sequence of referenced place identifiers (records without place skipped)."""
        return [record.place.place_id for record in self._records if record.place is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StructuredSemanticTrajectory(id={self.trajectory_id!r}, "
            f"records={len(self._records)})"
        )
