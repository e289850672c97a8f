"""Tests for the single public API surface (:mod:`repro.api`) and the
removal of the legacy top-level entry points."""

from __future__ import annotations

import asyncio
import importlib
import inspect

import pytest

import repro
import repro.api
from repro.core import AnnotationSources, PipelineConfig
from repro.core.errors import ConfigurationError
from repro.parallel.canonical import canonical_bytes
from repro.parallel.context import GeoContext


DOCUMENTED_ENTRY_POINTS = (
    "open_pipeline",
    "annotate",
    "annotate_many",
    "stream",
    "serve",
    "compile_plan",
)


class TestSurface:
    def test_api_module_exports_every_documented_entry_point(self):
        assert sorted(repro.api.__all__) == sorted(DOCUMENTED_ENTRY_POINTS)
        for name in DOCUMENTED_ENTRY_POINTS:
            assert callable(getattr(repro.api, name))

    def test_package_root_reexports_the_api(self):
        for name in DOCUMENTED_ENTRY_POINTS:
            assert getattr(repro, name) is getattr(repro.api, name)
            assert name in repro.__all__

    def test_removed_names_raise(self):
        """The façade classes and the deprecated-alias layer are gone, not aliased."""
        assert not hasattr(repro, "__getattr__")
        for name in ("SeMiTriPipeline", "StreamingAnnotationEngine", "NoSuchThing"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
        for module, name in (
            ("repro.streaming", "StreamingAnnotationEngine"),
            ("repro.parallel", "ParallelAnnotationRunner"),
            ("repro.parallel", "ShardedStoreWriter"),
        ):
            assert not hasattr(importlib.import_module(module), name)
        for module in (
            "repro.streaming.engine",
            "repro.parallel.runner",
            "repro.parallel.store_writer",
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        # The paper's pipeline object stays, in its own package.
        from repro.core import SeMiTriPipeline

        assert isinstance(repro.open_pipeline(), SeMiTriPipeline)

    def test_version_is_single_sourced(self):
        import pathlib
        import re

        pyproject = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "repro.__version__"}' in pyproject
        assert not re.search(r'^version\s*=\s*"', pyproject, flags=re.MULTILINE)
        assert int(repro.__version__.split(".")[0]) >= 2


class TestEntryPoints:
    def test_open_pipeline_takes_a_pipeline_config(self):
        """One spelling: plain data becomes a config before it reaches the API."""
        config = PipelineConfig.from_dict({"stop_move": {"speed_threshold": 1.5}})
        assert repro.open_pipeline(config).config is config
        configured = repro.open_pipeline(PipelineConfig.for_people())
        assert configured.config == PipelineConfig.for_people()
        for name in DOCUMENTED_ENTRY_POINTS:
            assert "overrides" not in inspect.signature(getattr(repro.api, name)).parameters

    def test_annotate_one_matches_pipeline(self, car_dataset, annotation_sources):
        """One trajectory through ``annotate`` gives the batch pipeline's bytes."""
        trajectory = car_dataset.trajectories[0]
        config = PipelineConfig.for_vehicles()
        one = repro.annotate(trajectory, annotation_sources, config=config)
        batch = repro.annotate_many([trajectory], annotation_sources, config=config)
        assert canonical_bytes([one]) == canonical_bytes(batch)

    def test_annotate_takes_a_context_snapshot(self, car_dataset, annotation_sources):
        """``annotate(t, context)`` runs on the snapshot's own config and gives
        the bytes of ``annotate(t, sources, config)``; a config pairs with the
        snapshot by the one rule."""
        config = PipelineConfig.for_vehicles()
        context = GeoContext(annotation_sources, config)
        for trajectory in car_dataset.trajectories[:3]:
            from_sources = canonical_bytes([repro.annotate(trajectory, annotation_sources, config)])
            from_context = repro.annotate(trajectory, context)
            assert from_context.trajectory is trajectory
            assert canonical_bytes([from_context]) == from_sources
            assert canonical_bytes([repro.annotate(trajectory, context, config)]) == from_sources
        with pytest.raises(ConfigurationError, match="map_matching"):
            repro.annotate(
                car_dataset.trajectories[0],
                context,
                config.with_overrides({"map_matching.candidate_radius": 10.0}),
            )

    def test_annotate_many_parallel_routing_is_byte_identical(
        self, car_dataset, annotation_sources
    ):
        config = PipelineConfig.for_vehicles()
        trajectories = car_dataset.trajectories[:6]
        sequential = repro.annotate_many(trajectories, annotation_sources, config=config)
        sharded = repro.annotate_many(trajectories, annotation_sources, config=config, workers=2)
        assert canonical_bytes(sequential) == canonical_bytes(sharded)

    def test_annotate_many_accepts_a_context_snapshot(self, car_dataset, annotation_sources):
        config = PipelineConfig.for_vehicles()
        context = GeoContext.build(annotation_sources, config)
        trajectories = car_dataset.trajectories[:3]
        from_context = repro.annotate_many(trajectories, context=context)
        from_sources = repro.annotate_many(trajectories, annotation_sources, config=config)
        assert canonical_bytes(from_context) == canonical_bytes(from_sources)

    def test_annotate_many_without_geodata_raises(self, car_dataset):
        with pytest.raises(ConfigurationError):
            repro.annotate_many(car_dataset.trajectories[:1])

    def test_stream_returns_the_micro_batch_executor(self, car_dataset, annotation_sources):
        from repro.engine import MicroBatchExecutor

        config = PipelineConfig.for_vehicles()
        engine = repro.stream(annotation_sources, config=config)
        assert type(engine) is MicroBatchExecutor
        assert engine.plan.config == config
        trajectory = car_dataset.trajectories[0]
        results = []
        for point in trajectory.points:
            results.extend(engine.ingest(trajectory.object_id, point))
        results.extend(engine.close_all())
        assert results and results[0].trajectory.object_id == trajectory.object_id

    def test_serve_returns_an_unstarted_service(self, car_dataset, annotation_sources):
        config = PipelineConfig.for_vehicles().with_overrides({"service.shards": 2})
        service = repro.serve(annotation_sources, config=config)
        assert service.shard_count == 2
        trajectory = car_dataset.trajectories[0]

        async def run():
            async with service:
                for point in trajectory.points[:30]:
                    await service.ingest(trajectory.object_id, point)
                return await service.drain()

        results = asyncio.run(run())
        assert results and service.dropped_events == 0

    def test_compile_plan_layer_restriction(self, annotation_sources):
        plan = repro.compile_plan(
            annotation_sources, config=PipelineConfig.for_vehicles(), layers=["region"]
        )
        names = [type(stage).__name__ for stage in plan.stages]
        assert any("Region" in name for name in names)
        assert not any("Line" in name or "Point" in name for name in names)

    def test_compile_plan_from_context_reuses_annotators(self, annotation_sources):
        config = PipelineConfig.for_vehicles()
        context = GeoContext.build(annotation_sources, config)
        plan = repro.compile_plan(context=context)
        assert plan.context is context

    def test_a_snapshot_refuses_an_override_of_its_annotators(
        self, car_dataset, annotation_sources
    ):
        """A snapshot's annotators were built from its config: an override of
        their sections must raise, not run the snapshot's settings silently."""
        context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
        with pytest.raises(ConfigurationError, match="map_matching"):
            repro.annotate_many(
                car_dataset.trajectories[:2],
                context=context,
                config=context.config.with_overrides({"map_matching.candidate_radius": 10.0}),
            )
        with pytest.raises(ConfigurationError, match="point"):
            repro.compile_plan(
                context=context,
                config=context.config.with_overrides({"point.default_sigma": 5.0}),
            )

    def test_compile_plan_refuses_sources_and_a_context(self, annotation_sources, region_source):
        context = GeoContext.build(AnnotationSources(regions=region_source))
        with pytest.raises(ConfigurationError, match="not both"):
            repro.compile_plan(annotation_sources, context=context)

    def test_one_snapshot_per_plan(self):
        """A plan is compiled from a GeoContext only: the second paths are gone."""
        from repro.core import SeMiTriPipeline
        from repro.engine import Plan

        for name in ("from_context", "geo_context"):
            assert not hasattr(Plan, name)
        for name in ("compile_plan", "annotate_prepared", "build_annotators"):
            assert not hasattr(SeMiTriPipeline, name)

    def test_one_door_per_job(self):
        """Annotation runs through repro.api only: the pipeline object keeps
        the paper's preprocessing, a plan has no second ingest, the service
        takes a snapshot and a replayed record is counted once."""
        from repro.analytics import latency
        from repro.core import SeMiTriPipeline
        from repro.engine import Plan
        from repro.service import AnnotationService, ServiceStats

        for name in ("annotate", "annotate_many", "_plan", "compute_episodes", "store"):
            assert not hasattr(SeMiTriPipeline, name)
        assert {"config", "ingest_stream", "merge_latencies"} <= set(dir(SeMiTriPipeline))
        assert not hasattr(Plan, "ingest")
        assert list(inspect.signature(repro.open_pipeline).parameters) == ["config"]
        parameters = list(inspect.signature(AnnotationService).parameters)
        assert parameters[0] == "context" and "config" not in parameters
        assert "wal_replayed" not in ServiceStats.__dataclass_fields__
        assert not hasattr(latency, "StageTimer")
