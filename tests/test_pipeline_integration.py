"""Integration tests: the full SeMiTri pipeline across layers.

Batch annotations pass ``workers=pipeline_workers`` (see
``tests/conftest.py``), so ``SEMITRI_TEST_PIPELINE_EXECUTOR=4`` runs them
through a 4-worker process pool.
"""

from __future__ import annotations

import repro
from repro.core import AnnotationSources, PipelineConfig, SeMiTriPipeline
from repro.core.episodes import validate_episode_partition
from repro.core.points import SpatioTemporalPoint
from repro.lines.transport_mode import TRANSPORT_MODES
from repro.regions.landuse import LANDUSE_CATEGORIES
from repro.store.store import SemanticTrajectoryStore


class TestIngestion:
    def test_ingest_stream_cleans_and_splits(self, vehicle_config):
        points = [SpatioTemporalPoint(float(i), 0.0, float(i * 10)) for i in range(50)]
        # Inject an outlier and a large temporal gap.
        points[10] = SpatioTemporalPoint(1e6, 0.0, 100.0)
        points = points[:25] + [
            SpatioTemporalPoint(30.0 + i, 0.0, 10_000.0 + i * 10) for i in range(25)
        ]
        trajectories = repro.open_pipeline(vehicle_config).ingest_stream(points, object_id="obj")
        assert len(trajectories) == 2
        assert all(len(t) >= 5 for t in trajectories)

    def test_compute_episodes_partitions(self, vehicle_config, taxi_dataset):
        trajectory = taxi_dataset.trajectories[0]
        result = repro.annotate(trajectory, AnnotationSources(), vehicle_config)
        validate_episode_partition(trajectory, result.episodes)


class TestAnnotateSingle:
    def test_full_annotation_of_taxi_day(self, vehicle_config, taxi_dataset, annotation_sources):
        trajectory = taxi_dataset.trajectories[0]
        result = repro.annotate(trajectory, annotation_sources, vehicle_config)
        assert result.episodes
        assert result.stops and result.moves
        assert result.region_trajectory is not None
        assert len(result.region_trajectory) == len(result.episodes)
        assert result.line_trajectories
        assert result.point_trajectory is not None
        assert len(result.point_trajectory) == len(result.stops)
        # Region categories are valid landuse codes.
        for record in result.region_trajectory:
            if record.place is not None:
                assert record.place.category in LANDUSE_CATEGORIES
        # Transport modes are valid labels.
        assert all(mode in TRANSPORT_MODES for mode in result.transport_modes())

    def test_partial_annotation_without_sources(self, vehicle_config, taxi_dataset):
        trajectory = taxi_dataset.trajectories[0]
        result = repro.annotate(trajectory, AnnotationSources(), vehicle_config)
        assert result.episodes
        assert result.region_trajectory is None
        assert result.line_trajectories == []
        assert result.point_trajectory is None
        assert result.trajectory_category is None

    def test_region_only_annotation(self, vehicle_config, taxi_dataset, region_source):
        trajectory = taxi_dataset.trajectories[0]
        sources = AnnotationSources(regions=region_source)
        result = repro.annotate(trajectory, sources, vehicle_config)
        assert result.region_trajectory is not None
        assert result.line_trajectories == []

    def test_latency_profile_populated(self, vehicle_config, taxi_dataset, annotation_sources):
        trajectory = taxi_dataset.trajectories[0]
        result = repro.annotate(trajectory, annotation_sources, vehicle_config)
        stages = result.latency.stages()
        assert "compute_episode" in stages
        assert "landuse_join" in stages
        assert "map_match" in stages


class TestAnnotateMany:
    def test_batch_annotation_of_people(
        self, people_config, people_dataset, annotation_sources, pipeline_workers
    ):
        results = repro.annotate_many(
            people_dataset.all_trajectories,
            annotation_sources,
            people_config,
            workers=pipeline_workers,
        )
        assert len(results) == len(people_dataset.all_trajectories)
        # Every trajectory has stops and moves and the people commute modes appear.
        all_modes = set()
        for result in results:
            assert result.stops
            assert result.moves
            all_modes.update(result.transport_modes())
        assert "walk" in all_modes
        assert all_modes & {"metro", "bus", "bicycle"}

    def test_trajectory_categories_assigned(
        self, vehicle_config, car_dataset, annotation_sources, pipeline_workers
    ):
        results = repro.annotate_many(
            car_dataset.trajectories[:4],
            annotation_sources,
            vehicle_config,
            workers=pipeline_workers,
        )
        categories = [r.trajectory_category for r in results if r.trajectory_category]
        assert categories

    def test_merge_latencies(
        self, vehicle_config, taxi_dataset, annotation_sources, pipeline_workers
    ):
        results = repro.annotate_many(
            taxi_dataset.trajectories,
            annotation_sources,
            vehicle_config,
            workers=pipeline_workers,
        )
        merged = SeMiTriPipeline.merge_latencies(results)
        assert merged.count("compute_episode") == len(results)


class TestPersistence:
    def test_annotation_results_persisted(self, taxi_dataset, annotation_sources):
        store = SemanticTrajectoryStore()
        trajectory = taxi_dataset.trajectories[0]
        result = repro.annotate(
            trajectory, annotation_sources, PipelineConfig.for_vehicles(), store, persist=True
        )
        summary = store.stop_move_summary()
        assert summary["trajectories"] == 1
        assert summary["gps_records"] == len(trajectory)
        assert summary["stops"] == len(result.stops)
        assert summary["moves"] == len(result.moves)
        assert store.annotation_count() > 0
        assert "store_episode" in result.latency.stages()
        assert "store_match_result" in result.latency.stages()
        store.close()

    def test_persist_flag_without_store_is_noop(
        self, vehicle_config, taxi_dataset, annotation_sources
    ):
        result = repro.annotate(
            taxi_dataset.trajectories[0],
            annotation_sources,
            vehicle_config,
            persist=True,
        )
        assert "store_episode" not in result.latency.stages()
