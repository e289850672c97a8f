"""Unit tests for configuration objects and their validation."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro import api
from repro.core.config import (
    CleaningConfig,
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
from repro.engine import ProcessPoolExecutor
from repro.parallel import GeoContext, canonical_bytes


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

    @pytest.mark.parametrize("sigma", [0.0, -5.0, "wide", float("nan"), None, True], ids=repr)
    def test_category_sigmas_must_be_positive_numbers(self, sigma):
        with pytest.raises(ConfigurationError, match=r"category_sigmas\['shop'\]"):
            PointAnnotationConfig(category_sigmas={"restaurant": 30.0, "shop": sigma})
        with pytest.raises(ConfigurationError, match=r"category_sigmas\['shop'\]"):
            PipelineConfig.from_dict({"point": {"category_sigmas": {"shop": sigma}}})

    def test_positive_category_sigmas_are_kept(self):
        config = PipelineConfig.from_dict({"point": {"category_sigmas": {"shop": 40, "bar": 2.5}}})
        assert config.point.category_sigmas == {"shop": 40, "bar": 2.5}


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
    """The worker count is no config section: ``annotate_many(workers=)`` is
    its one spelling, with the rules the removed ``parallel`` section had."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []
        real_init = ProcessPoolExecutor.__init__

        def spy(self, workers=2):
            started.append(workers)
            real_init(self, workers)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
        return started

    def test_defaults_are_valid(self):
        for config in (
            PipelineConfig(),
            PipelineConfig.for_vehicles(),
            PipelineConfig.for_people(),
        ):
            assert "parallel" not in config.to_dict()
        assert inspect.signature(api.annotate_many).parameters["workers"].default == 1

    def test_zero_workers_resolve_to_effective_cores(
        self, monkeypatch, pools, annotation_sources, car_dataset
    ):
        batch = car_dataset.trajectories[:4]
        context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
        reference = canonical_bytes(api.annotate_many(batch, context=context))
        # 0 is "auto": the effective core count, in process when that is 1.
        for cores in (1, 2):
            monkeypatch.setattr(api, "effective_cpu_count", lambda cores=cores: cores)
            result = api.annotate_many(batch, context=context, workers=0)
            assert canonical_bytes(result) == reference
        assert pools == [2]

    def test_invalid_values(self, pools, annotation_sources, car_dataset):
        context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
        with pytest.raises(ConfigurationError, match="workers"):
            api.annotate_many(car_dataset.trajectories[:4], context=context, workers=-1)
        assert pools == []

    @pytest.mark.parametrize(
        "removed", ["dispatch", "shared_memory", "shards_per_worker", "executor"]
    )
    def test_removed_knobs_are_unknown_fields(self, removed):
        """The migration message: the rejection names the section that went away."""
        with pytest.raises(ConfigurationError, match=rf"'parallel\.{removed}'.*section among"):
            PipelineConfig().with_overrides({f"parallel.{removed}": "stealing"})
        with pytest.raises(ConfigurationError, match="unknown configuration section 'parallel'"):
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
            overrides={"streaming.micro_batch_size": 4, "service.shards": 3}
        )
        assert config.streaming.micro_batch_size == 4
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

    @pytest.mark.parametrize(
        "path, value",
        [
            ("service.shards", 2.7),
            ("streaming.micro_batch_size", True),
            ("point.category_sigmas", 5),
            ("stop_move.speed_threshold", True),
            ("service.journal_dir", 5),
        ],
    )
    def test_non_string_values_must_have_the_field_type(self, path, value):
        """Only strings are parsed: any other value must already be a bool for a
        bool field, an int (not a bool) for an int field, an int or float (not a
        bool) for a float field, a mapping for a dict field, a str for a str
        field — nothing is truncated or stored as the wrong type."""
        with pytest.raises(ConfigurationError, match=rf"{path}: cannot interpret"):
            PipelineConfig.from_dict(overrides={path: value})
        section, _, name = path.partition(".")
        with pytest.raises(ConfigurationError, match=rf"{path}: cannot interpret"):
            PipelineConfig.from_dict({section: {name: value}})

    def test_values_of_the_field_type_are_kept(self):
        config = PipelineConfig.from_dict(
            overrides={
                "stop_move.speed_threshold": 2,
                "point.category_sigmas": {"feedings": 10.0},
                "service.journal_dir": "wal",
                "streaming.apply_cleaning": True,
            }
        )
        assert config.stop_move.speed_threshold == 2.0
        assert type(config.stop_move.speed_threshold) is float
        assert config.point.category_sigmas == {"feedings": 10.0}
        assert config.service.journal_dir == "wal"
        assert config.streaming.apply_cleaning is True

    def test_unknown_section_field_and_path_raise(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"teleport": {}})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"stop_move": {"warp_speed": 1}})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict(overrides={"speed_threshold": 1.0})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict(overrides={"stop_move.speed_threshold": "fast"})

    @pytest.mark.parametrize(
        "path",
        [
            "compute.backend",
            "parallel.workers",
        ],
    )
    def test_removed_sections_are_refused_as_unknown(self, path):
        """Every kernel has one implementation (no ``compute`` section) and the
        worker count is ``annotate_many(workers=)`` (no ``parallel`` section):
        a stored section of either must go, and the refusal names it."""
        section, _, name = path.partition(".")
        assert section not in PipelineConfig().to_dict()
        with pytest.raises(ConfigurationError, match=rf"'{path}'.*section among"):
            PipelineConfig.from_dict(overrides={path: "python"})
        with pytest.raises(ConfigurationError, match=rf"'{path}'.*section among"):
            PipelineConfig().with_overrides({path: 2})
        with pytest.raises(ConfigurationError, match=f"unknown configuration section '{section}'"):
            PipelineConfig.from_dict({section: {name: 2}})

    @pytest.mark.parametrize(
        "path", ["observability.exporters", "failure.backoff_factor", "failure.max_shard_retries"]
    )
    def test_removed_knobs_are_unknown_fields(self, path):
        """The migration message: the rejection names the field that went away
        and its section (exporters are called directly; the retry backoff
        doubles; a lost worker's work is resubmitted whole once)."""
        section, _, name = path.partition(".")
        assert name not in PipelineConfig().to_dict()[section]
        message = f"unknown field '{name}' in section '{section}'"
        with pytest.raises(ConfigurationError, match=message):
            PipelineConfig().with_overrides({path: "2"})
        with pytest.raises(ConfigurationError, match=message):
            PipelineConfig.from_dict({section: {name: 2}})

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
            PipelineConfig.from_dict(overrides={"service.shards": -1})

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


def _float_fields():
    """``(section, field)`` of every float setting of the default config."""
    config = PipelineConfig()
    return [
        (section.name, setting.name)
        for section in dataclasses.fields(config)
        for setting in dataclasses.fields(getattr(config, section.name))
        if isinstance(getattr(getattr(config, section.name), setting.name), float)
    ]


_FLOAT_FIELDS = _float_fields()
_FLOAT_IDS = [f"{section}.{name}" for section, name in _FLOAT_FIELDS]

#: Float settings whose bound is an ordering that infinity cannot satisfy.
_INF_REFUSED = {
    ("transport", "walk_speed_max"),
    ("transport", "bicycle_speed_max"),
    ("point", "self_transition"),
}


class TestFloatBounds:
    """Every float bound refuses NaN, which no ``<=`` / ``<`` comparison catches."""

    def test_every_float_field_is_covered(self):
        assert len(_FLOAT_FIELDS) == 19

    @pytest.mark.parametrize("section, name", _FLOAT_FIELDS, ids=_FLOAT_IDS)
    def test_nan_is_refused_by_the_constructor(self, section, name):
        current = getattr(PipelineConfig(), section)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(current, **{name: float("nan")})

    @pytest.mark.parametrize("section, name", _FLOAT_FIELDS, ids=_FLOAT_IDS)
    @pytest.mark.parametrize("nan", [float("nan"), "nan"], ids=["float", "string"])
    def test_nan_is_refused_by_from_dict(self, section, name, nan):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({section: {name: nan}})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict(overrides={f"{section}.{name}": nan})

    @pytest.mark.parametrize("section, name", _FLOAT_FIELDS, ids=_FLOAT_IDS)
    def test_infinity_keeps_its_reading(self, section, name):
        current = getattr(PipelineConfig(), section)
        if (section, name) in _INF_REFUSED:
            with pytest.raises(ConfigurationError):
                dataclasses.replace(current, **{name: float("inf")})
        else:
            replaced = dataclasses.replace(current, **{name: float("inf")})
            assert getattr(replaced, name) == float("inf")

    def test_a_nan_max_speed_no_longer_builds_a_cleaner(self):
        with pytest.raises(ConfigurationError, match="max_speed"):
            PipelineConfig.from_dict({"cleaning": {"max_speed": float("nan")}})
