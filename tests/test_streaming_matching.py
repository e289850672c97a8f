"""Streaming map matching: an absorbed move episode is matched like a batch one.

The micro-batch executor hands every sealed move episode to the line layer's
one matcher, so the line trajectory it records must be what
:meth:`LineAnnotator.annotate_episode` gives for the same episode.
"""

from __future__ import annotations

from repro import api
from repro.core.annotations import AnnotationKind
from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.pipeline import LayerAnnotators


def _records(line_trajectory):
    """A line trajectory as comparable tuples (places, times, mode annotations)."""
    return [
        (
            record.place.place_id if record.place is not None else None,
            record.time_in,
            record.time_out,
            record.value_of("transport_mode"),
        )
        for record in line_trajectory
    ]


def _dominant_modes(episode):
    return [a.value for a in episode.annotations_of_kind(AnnotationKind.TRANSPORT_MODE)]


def test_absorbed_move_episode_equals_annotate_episode(annotation_sources, taxi_dataset):
    config = PipelineConfig.for_vehicles()
    absorbed_moves = []
    engine = api.stream(
        annotation_sources,
        config=config,
        on_episode=lambda episode: absorbed_moves.append(episode) if episode.is_move else None,
    )
    results = []
    for trajectory in taxi_dataset.trajectories:
        for point in trajectory.points:
            results.extend(engine.ingest(trajectory.object_id, point))
        results.extend(engine.close_object(trajectory.object_id))
    results.extend(engine.flush())

    line_annotator = LayerAnnotators.build(annotation_sources, config).line
    compared = 0
    for result in results:
        moves = [episode for episode in result.episodes if episode.is_move]
        assert len(result.line_trajectories) == len(moves)
        for episode, streamed in zip(moves, result.line_trajectories):
            # A fresh episode: annotating attaches the dominant mode to it.
            fresh = Episode(
                episode.kind, episode.trajectory, episode.start_index, episode.end_index
            )
            expected = line_annotator.annotate_episode(fresh)
            assert streamed.trajectory_id == expected.trajectory_id
            assert _records(streamed) == _records(expected)
            assert _dominant_modes(episode) == _dominant_modes(fresh) != []
            compared += 1
    # Each move was absorbed when it was sealed, not at trajectory close.
    assert compared == len(absorbed_moves) > 0
