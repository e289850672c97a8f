"""Unit tests for configuration objects and their validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import (
    CleaningConfig,
    ParallelConfig,
    ServiceConfig,
    MapMatchingConfig,
    PipelineConfig,
    PointAnnotationConfig,
    RegionAnnotationConfig,
    StopMoveConfig,
    TrajectoryIdentificationConfig,
    TransportModeConfig,
)
from repro.core.errors import ConfigurationError


class TestCleaningConfig:
    def test_defaults_are_valid(self):
        config = CleaningConfig()
        assert config.max_speed > 0

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            CleaningConfig(max_speed=0)
        with pytest.raises(ConfigurationError):
            CleaningConfig(smoothing_window=0)
        with pytest.raises(ConfigurationError):
            CleaningConfig(smoothing_method="spline")


class TestIdentificationConfig:
    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            TrajectoryIdentificationConfig(max_time_gap=0)
        with pytest.raises(ConfigurationError):
            TrajectoryIdentificationConfig(min_points=0)


class TestStopMoveConfig:
    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            StopMoveConfig(policy="magic")

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            StopMoveConfig(speed_threshold=0)
        with pytest.raises(ConfigurationError):
            StopMoveConfig(min_stop_duration=-1)
        with pytest.raises(ConfigurationError):
            StopMoveConfig(density_radius=0)
        with pytest.raises(ConfigurationError):
            StopMoveConfig(min_move_points=0)


class TestRegionConfig:
    def test_unknown_predicate(self):
        with pytest.raises(ConfigurationError):
            RegionAnnotationConfig(join_predicate="touches")


class TestMapMatchingConfig:
    def test_derived_radii(self):
        config = MapMatchingConfig(view_radius=2.0, kernel_width_factor=0.5, candidate_radius=50.0)
        assert config.context_radius == pytest.approx(100.0)
        assert config.kernel_width == pytest.approx(50.0)

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            MapMatchingConfig(view_radius=0)
        with pytest.raises(ConfigurationError):
            MapMatchingConfig(kernel_width_factor=0)
        with pytest.raises(ConfigurationError):
            MapMatchingConfig(candidate_radius=0)
        with pytest.raises(ConfigurationError):
            MapMatchingConfig(max_candidates=0)
        with pytest.raises(ConfigurationError):
            MapMatchingConfig(distance_metric="manhattan")


class TestTransportConfig:
    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            TransportModeConfig(walk_speed_max=8.0, bicycle_speed_max=7.0)
        with pytest.raises(ConfigurationError):
            TransportModeConfig(bus_acceleration_min=-1)


class TestPointConfig:
    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            PointAnnotationConfig(grid_cell_size=0)
        with pytest.raises(ConfigurationError):
            PointAnnotationConfig(neighbor_radius=0)
        with pytest.raises(ConfigurationError):
            PointAnnotationConfig(default_sigma=0)
        with pytest.raises(ConfigurationError):
            PointAnnotationConfig(self_transition=1.0)
        with pytest.raises(ConfigurationError):
            PointAnnotationConfig(min_probability=0)


class TestPipelineConfig:
    def test_default_bundle(self):
        config = PipelineConfig()
        assert config.stop_move.policy == "velocity"

    def test_vehicle_profile(self):
        config = PipelineConfig.for_vehicles()
        assert config.stop_move.policy == "hybrid"
        assert config.map_matching.candidate_radius == pytest.approx(40.0)

    def test_people_profile(self):
        config = PipelineConfig.for_people()
        assert config.cleaning.max_speed < CleaningConfig().max_speed
        assert config.identification.max_time_gap == pytest.approx(3600.0)
        assert config.stop_move.policy == "hybrid"

    def test_configs_are_immutable(self):
        config = PipelineConfig()
        with pytest.raises(AttributeError):
            config.stop_move = StopMoveConfig()  # type: ignore[misc]


class TestParallelConfig:
    def test_defaults_are_valid(self):
        config = ParallelConfig()
        assert [f.name for f in dataclasses.fields(config)] == ["workers"]
        assert config.workers == 1
        assert config.resolved_workers == 1

    def test_zero_workers_resolve_to_effective_cores(self):
        from repro.core.cpu import effective_cpu_count

        config = ParallelConfig(workers=0)
        assert config.resolved_workers == effective_cpu_count()
        assert ParallelConfig(workers=3).resolved_workers == 3

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=-1)

    @pytest.mark.parametrize(
        "removed", ["dispatch", "shared_memory", "shards_per_worker", "executor"]
    )
    def test_removed_knobs_are_unknown_fields(self, removed):
        """The migration message: the rejection names the field that went away."""
        with pytest.raises(ConfigurationError, match=f"unknown field '{removed}'"):
            PipelineConfig().with_overrides({f"parallel.{removed}": "stealing"})
        with pytest.raises(ConfigurationError, match=f"unknown field '{removed}'"):
            PipelineConfig.from_dict({"parallel": {removed: 2}})


class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.queue_depth >= 1
        assert config.resolved_shards >= 1

    def test_zero_shards_resolve_to_effective_cores(self):
        from repro.core.cpu import effective_cpu_count

        assert ServiceConfig(shards=0).resolved_shards == effective_cpu_count()
        assert ServiceConfig(shards=5).resolved_shards == 5

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(shards=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(session_budget=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(ring_replicas=0)

    def test_unknown_transport_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(transport="fiber")

    def test_process_transport_rejects_gross_shard_oversubscription(self, monkeypatch):
        import repro.core.cpu as cpu

        monkeypatch.setattr(cpu, "effective_cpu_count", lambda: 2)
        # 4x the cores is the documented ceiling; one past it is rejected.
        assert ServiceConfig(transport="process", shards=8).shards == 8
        with pytest.raises(ConfigurationError):
            ServiceConfig(transport="process", shards=9)
        # shards=0 defers to the core count, which can never oversubscribe.
        assert ServiceConfig(transport="process", shards=0).resolved_shards == 2

    def test_explicit_transport_resolves_to_itself(self):
        assert ServiceConfig(transport="thread").resolved_transport == "thread"

    def test_auto_transport_follows_effective_cores(self, monkeypatch):
        import repro.core.cpu as cpu

        monkeypatch.setattr(cpu, "effective_cpu_count", lambda: 1)
        assert ServiceConfig(transport="auto").resolved_transport == "thread"
        monkeypatch.setattr(cpu, "effective_cpu_count", lambda: 8)
        assert ServiceConfig(transport="auto").resolved_transport == "process"
        assert ServiceConfig(transport="process").resolved_transport == "process"


class TestConfigDictConstruction:
    def test_to_dict_from_dict_round_trip(self):
        config = PipelineConfig.for_vehicles()
        rendered = config.to_dict()
        assert rendered["stop_move"]["policy"] == "hybrid"
        assert PipelineConfig.from_dict(rendered) == config

    def test_partial_data_keeps_base_defaults(self):
        config = PipelineConfig.from_dict({"stop_move": {"speed_threshold": 2.5}})
        assert config.stop_move.speed_threshold == 2.5
        assert config.stop_move.policy == PipelineConfig().stop_move.policy
        assert config.cleaning == PipelineConfig().cleaning

    def test_dotted_overrides(self):
        config = PipelineConfig.from_dict(
            overrides={"parallel.workers": 4, "service.shards": 3}
        )
        assert config.parallel.workers == 4
        assert config.service.shards == 3

    def test_with_overrides_returns_a_new_validated_copy(self):
        base = PipelineConfig.for_people()
        derived = base.with_overrides({"streaming.micro_batch_size": 9})
        assert derived.streaming.micro_batch_size == 9
        assert base.streaming.micro_batch_size == PipelineConfig().streaming.micro_batch_size
        assert derived.cleaning == base.cleaning

    def test_string_values_are_coerced_to_field_types(self):
        config = PipelineConfig.from_dict(
            overrides={
                "service.queue_depth": "128",
                "streaming.apply_cleaning": "false",
                "stop_move.speed_threshold": "1.25",
            }
        )
        assert config.service.queue_depth == 128
        assert config.streaming.apply_cleaning is False
        assert config.stop_move.speed_threshold == pytest.approx(1.25)

    def test_unknown_section_field_and_path_raise(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"teleport": {}})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"stop_move": {"warp_speed": 1}})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict(overrides={"speed_threshold": 1.0})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict(overrides={"stop_move.speed_threshold": "fast"})

    def test_the_removed_compute_section_is_refused_as_unknown(self):
        """Every kernel has one implementation; a stored ``compute`` section must go."""
        assert "compute" not in PipelineConfig().to_dict()
        with pytest.raises(ConfigurationError, match="'compute.backend'.*section among"):
            PipelineConfig.from_dict(overrides={"compute.backend": "python"})
        with pytest.raises(ConfigurationError, match="unknown configuration section 'compute'"):
            PipelineConfig.from_dict({"compute": {"backend": "numpy", "index_backend": "auto"}})

    def test_transport_round_trips_through_dict_and_overrides(self, monkeypatch):
        import repro.core.cpu as cpu

        monkeypatch.setattr(cpu, "effective_cpu_count", lambda: 8)
        config = PipelineConfig.from_dict(overrides={"service.transport": "process"})
        assert config.service.transport == "process"
        assert PipelineConfig.from_dict(config.to_dict()) == config
        threaded = config.with_overrides({"service.transport": "thread"})
        assert threaded.service.transport == "thread"
        assert config.service.transport == "process"

    def test_values_still_pass_dataclass_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"service": {"queue_depth": 0}})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict(overrides={"parallel.workers": -1})

    def test_default_config_reads_the_environment_at_call_time(self, monkeypatch):
        """``config=None`` defaults are built per call, not frozen at import."""
        from repro.core import AnnotationSources, SeMiTriPipeline
        from repro.parallel import GeoContext

        monkeypatch.setenv("SEMITRI_OBSERVABILITY", "trace")
        assert SeMiTriPipeline().config.observability.enabled
        assert GeoContext.build(AnnotationSources()).config.observability.enabled
        monkeypatch.setenv("SEMITRI_OBSERVABILITY", "off")
        assert not SeMiTriPipeline().config.observability.enabled
        assert not GeoContext(AnnotationSources()).config.observability.enabled
