"""Tests for the single public API surface (:mod:`repro.api`) and the
removal of the legacy top-level entry points."""

from __future__ import annotations

import asyncio
import importlib

import pytest

import repro
import repro.api
from repro.core import PipelineConfig
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
        for module in ("repro.streaming.engine", "repro.parallel.runner", "repro.parallel.store_writer"):
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
    def test_open_pipeline_accepts_config_dicts_and_overrides(self):
        pipeline = repro.open_pipeline(
            {"stop_move": {"speed_threshold": 1.5}},
            overrides={"parallel.workers": 3},
        )
        assert pipeline.config.stop_move.speed_threshold == 1.5
        assert pipeline.config.parallel.workers == 3
        configured = repro.open_pipeline(PipelineConfig.for_people())
        assert configured.config == PipelineConfig.for_people()

    def test_annotate_one_matches_pipeline(self, car_dataset, annotation_sources):
        trajectory = car_dataset.trajectories[0]
        config = PipelineConfig.for_vehicles()
        via_api = repro.annotate(trajectory, annotation_sources, config=config)
        via_pipeline = repro.open_pipeline(config).annotate(trajectory, annotation_sources)
        assert canonical_bytes([via_api]) == canonical_bytes([via_pipeline])

    def test_annotate_many_parallel_routing_is_byte_identical(
        self, car_dataset, annotation_sources
    ):
        config = PipelineConfig.for_vehicles()
        trajectories = car_dataset.trajectories[:6]
        sequential = repro.annotate_many(trajectories, annotation_sources, config=config)
        sharded = repro.annotate_many(trajectories, annotation_sources, config=config, workers=2)
        assert canonical_bytes(sequential) == canonical_bytes(sharded)
        from_config = repro.annotate_many(
            trajectories, annotation_sources, config=config, overrides={"parallel.workers": 2}
        )
        assert canonical_bytes(sequential) == canonical_bytes(from_config)

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
        assert plan.geo_context() is context
