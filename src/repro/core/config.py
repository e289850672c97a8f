"""Configuration objects for the SeMiTri pipeline and its layers.

Every layer takes an explicit configuration dataclass so that the "trajectory
computing policies" of Figure 2 (velocity threshold, temporal/spatial
separations, density threshold) and the algorithm parameters of Section 4
(global view radius R, kernel width sigma, POI grid size, HMM transition
structure) live in one place and are easy to sweep in the benchmarks.

What is configured is *what* to compute, never *how*: every kernel has one
implementation, so there is no compute or index selection here (the former
``compute`` section is refused like any unknown section).  Each setting has
one spelling: the batch worker count is the ``workers`` argument of
:func:`repro.api.annotate_many`, not a config section (a stored ``parallel``
section is refused the same way).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class CleaningConfig:
    """Parameters of the GPS cleaning step (outlier removal + smoothing)."""

    max_speed: float = 70.0
    """Speed (units/s) above which a fix is considered an outlier (~250 km/h)."""

    smoothing_window: int = 3
    """Window size of the median/mean smoother; 1 disables smoothing.

    The centred window holds ``2 * (w // 2) + 1`` fixes (``w // 2`` on each
    side, clipped at the stream ends), so an even ``w`` acts as ``w + 1``.
    """

    smoothing_method: str = "median"
    """Either ``"median"``, ``"mean"`` or ``"none"``."""

    def __post_init__(self) -> None:
        if not self.max_speed > 0:
            raise ConfigurationError("max_speed must be positive")
        if self.smoothing_window < 1:
            raise ConfigurationError("smoothing_window must be at least 1")
        if self.smoothing_method not in ("median", "mean", "none"):
            raise ConfigurationError(
                f"unknown smoothing method {self.smoothing_method!r}; "
                "expected 'median', 'mean' or 'none'"
            )


@dataclass(frozen=True)
class TrajectoryIdentificationConfig:
    """Parameters of the raw-trajectory identification (gap-based splitting)."""

    max_time_gap: float = 1800.0
    """Temporal separation (seconds) above which the stream is split."""

    max_distance_gap: float = 3000.0
    """Spatial separation (coordinate units) above which the stream is split."""

    min_points: int = 5
    """Trajectories with fewer points than this are discarded as noise."""

    def __post_init__(self) -> None:
        if not (self.max_time_gap > 0 and self.max_distance_gap > 0):
            raise ConfigurationError("gap thresholds must be positive")
        if self.min_points < 1:
            raise ConfigurationError("min_points must be at least 1")


@dataclass(frozen=True)
class StopMoveConfig:
    """Parameters of stop/move episode detection."""

    policy: str = "velocity"
    """Detection policy: ``"velocity"``, ``"density"`` or ``"hybrid"``."""

    speed_threshold: float = 1.0
    """Speed (units/s) below which a point is a stop candidate (velocity policy)."""

    min_stop_duration: float = 120.0
    """Minimum duration (seconds) for a candidate run to become a stop."""

    density_radius: float = 50.0
    """Spatial radius (units) of the density policy's neighbourhood."""

    min_move_points: int = 2
    """Move episodes shorter than this are merged into the surrounding stops."""

    def __post_init__(self) -> None:
        if self.policy not in ("velocity", "density", "hybrid"):
            raise ConfigurationError(
                f"unknown stop/move policy {self.policy!r}; expected "
                "'velocity', 'density' or 'hybrid'"
            )
        if not self.speed_threshold > 0:
            raise ConfigurationError("speed_threshold must be positive")
        if not self.min_stop_duration >= 0:
            raise ConfigurationError("min_stop_duration must be non-negative")
        if not self.density_radius > 0:
            raise ConfigurationError("density_radius must be positive")
        if self.min_move_points < 1:
            raise ConfigurationError("min_move_points must be at least 1")


@dataclass(frozen=True)
class RegionAnnotationConfig:
    """Parameters of the semantic-region annotation layer (Algorithm 1)."""

    join_predicate: str = "contains"
    """Spatial predicate: ``"contains"`` (point-in-region) or ``"intersects"``."""

    def __post_init__(self) -> None:
        if self.join_predicate not in ("contains", "intersects"):
            raise ConfigurationError(
                f"unknown join predicate {self.join_predicate!r}; "
                "expected 'contains' or 'intersects'"
            )


@dataclass(frozen=True)
class MapMatchingConfig:
    """Parameters of the global map-matching algorithm (Algorithm 2)."""

    view_radius: float = 2.0
    """Global view radius R, expressed as a multiple of the candidate radius."""

    kernel_width_factor: float = 0.5
    """Kernel width sigma expressed as a fraction of the view radius (sigma = f*R)."""

    candidate_radius: float = 50.0
    """Radius (coordinate units) used to pull candidate segments from the index."""

    max_candidates: int = 8
    """Maximum number of candidate segments considered per GPS point."""

    use_global_score: bool = True
    """When False the matcher falls back to the pure localScore (ablation)."""

    distance_metric: str = "point_segment"
    """Distance of Equation 1 (``"point_segment"``) or ``"perpendicular"`` baseline."""

    def __post_init__(self) -> None:
        if not self.view_radius > 0:
            raise ConfigurationError("view_radius must be positive")
        if not self.kernel_width_factor > 0:
            raise ConfigurationError("kernel_width_factor must be positive")
        if not self.candidate_radius > 0:
            raise ConfigurationError("candidate_radius must be positive")
        if self.max_candidates < 1:
            raise ConfigurationError("max_candidates must be at least 1")
        if self.distance_metric not in ("point_segment", "perpendicular"):
            raise ConfigurationError(
                f"unknown distance metric {self.distance_metric!r}; "
                "expected 'point_segment' or 'perpendicular'"
            )

    @property
    def context_radius(self) -> float:
        """The view radius R in coordinate units (R * candidate_radius)."""
        return self.view_radius * self.candidate_radius

    @property
    def kernel_width(self) -> float:
        """The kernel width sigma in coordinate units."""
        return self.kernel_width_factor * self.context_radius


@dataclass(frozen=True)
class TransportModeConfig:
    """Parameters of the transportation-mode inference."""

    walk_speed_max: float = 2.5
    """Upper bound of mean walking speed (m/s)."""

    bicycle_speed_max: float = 7.0
    """Upper bound of mean cycling speed (m/s)."""

    bus_speed_max: float = 12.0
    """Upper bound of mean bus speed (m/s); faster moves on rail default to metro."""

    bus_acceleration_min: float = 0.25
    """Mean absolute acceleration (m/s^2) above which road travel is motorised."""

    def __post_init__(self) -> None:
        if not (0 < self.walk_speed_max < self.bicycle_speed_max < self.bus_speed_max):
            raise ConfigurationError(
                "speed thresholds must satisfy 0 < walk < bicycle < bus"
            )
        if not self.bus_acceleration_min >= 0:
            raise ConfigurationError("bus_acceleration_min must be non-negative")


@dataclass(frozen=True)
class PointAnnotationConfig:
    """Parameters of the HMM-based semantic-point annotation layer (Algorithm 3)."""

    grid_cell_size: float = 100.0
    """Edge length of the discretisation grid used for Pr(grid | category)."""

    neighbor_radius: float = 200.0
    """Only POIs within this radius of a cell contribute to its probability."""

    default_sigma: float = 60.0
    """Default Gaussian influence radius for categories without a specific sigma."""

    category_sigmas: Dict[str, float] = field(default_factory=dict)
    """Category-specific Gaussian sigmas (sigma_c in the paper)."""

    self_transition: float = 0.8
    """Diagonal weight of the default state-transition matrix (Figure 6)."""

    min_probability: float = 1e-12
    """Floor applied to observation probabilities to keep Viterbi numerically safe."""

    def __post_init__(self) -> None:
        if not self.grid_cell_size > 0:
            raise ConfigurationError("grid_cell_size must be positive")
        if not self.neighbor_radius > 0:
            raise ConfigurationError("neighbor_radius must be positive")
        if not self.default_sigma > 0:
            raise ConfigurationError("default_sigma must be positive")
        for category, sigma in self.category_sigmas.items():
            if isinstance(sigma, bool) or not isinstance(sigma, (int, float)) or not sigma > 0:
                raise ConfigurationError(
                    f"category_sigmas[{category!r}] must be a positive number, got {sigma!r}"
                )
        if not (0.0 < self.self_transition < 1.0):
            raise ConfigurationError("self_transition must lie strictly between 0 and 1")
        if not self.min_probability > 0:
            raise ConfigurationError("min_probability must be positive")


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of the streaming annotation engine.

    The engine micro-batches incoming ``(object_id, point)`` events, keeps one
    session per moving object and seals episodes/trajectories online; these
    knobs bound its memory and control the batching trade-off between
    per-event latency and throughput.
    """

    micro_batch_size: int = 32
    """Events buffered before the engine runs a processing pass; 1 processes
    every event immediately (lowest latency, most recomputation)."""

    max_sessions: int = 10_000
    """Maximum number of simultaneously open per-object sessions; the least
    recently active session is closed (sealing its open trajectory) when a new
    object would exceed the capacity."""

    apply_cleaning: bool = False
    """Run the streaming GPS cleaner (outlier removal + smoothing) on incoming
    points, mirroring :meth:`SeMiTriPipeline.ingest_stream`.  Off by default
    so that the engine reproduces :func:`repro.api.annotate_many` on
    already-cleaned trajectories."""

    def __post_init__(self) -> None:
        if self.micro_batch_size < 1:
            raise ConfigurationError("micro_batch_size must be at least 1")
        if self.max_sessions < 1:
            raise ConfigurationError("max_sessions must be at least 1")


@dataclass(frozen=True)
class ObservabilityConfig:
    """Selection of the telemetry subsystem (:mod:`repro.obs`).

    Disabled by default: every executor then runs the exact pre-telemetry
    code path (no tracer, no registry, no per-event bookkeeping), so the
    disabled overhead is unmeasurable.  When ``enabled`` is true the compiled
    :class:`~repro.engine.plan.Plan` carries a
    :class:`~repro.obs.runtime.Telemetry` runtime whose tracer emits one
    per-trajectory span tree (trace id = trajectory id, one span per stage,
    surviving the process-pool boundary) and whose
    :class:`~repro.obs.metrics.MetricsRegistry` collects engine, streaming
    and store metrics with the existing latency profiles as the stage-latency
    histograms.
    """

    enabled: bool = False
    """Master switch; off keeps the zero-overhead no-op path."""

    tracing: bool = True
    """Emit per-trajectory spans (only meaningful when ``enabled``)."""

    @classmethod
    def from_env(cls) -> "ObservabilityConfig":
        """The default observability block, overridable via the environment.

        ``SEMITRI_OBSERVABILITY`` set to ``trace``/``on``/``1`` enables full
        telemetry, ``metrics`` enables the registry without spans; unset (or
        ``off``/``0``) keeps the disabled default.  This is how the CI parity
        leg reruns the whole suite with tracing enabled without touching any
        test.
        """
        value = os.environ.get("SEMITRI_OBSERVABILITY", "").strip().lower()
        if value in ("", "0", "off", "false"):
            return cls()
        if value in ("1", "on", "true", "trace", "full"):
            return cls(enabled=True)
        if value == "metrics":
            return cls(enabled=True, tracing=False)
        raise ConfigurationError(
            f"unknown SEMITRI_OBSERVABILITY value {value!r}; "
            "expected 'trace', 'metrics', 'on' or 'off'"
        )


#: The failure-handling modes a :class:`FailurePolicy` can select.
FAILURE_MODES: Tuple[str, ...] = ("fail_fast", "skip", "retry")


@dataclass(frozen=True)
class FailurePolicy:
    """How executors treat a per-trajectory stage failure (:mod:`repro.faults`).

    The default ``fail_fast`` reproduces the historical behaviour exactly: the
    first stage exception propagates and aborts the run.  ``skip`` isolates
    the failure to the one trajectory (it is quarantined, the rest of the
    batch survives); ``retry`` additionally re-runs the failed trajectory with
    deterministic exponential backoff before quarantining it.  The policy also
    arms worker-loss recovery in the process-pool executor: lost shards are
    resubmitted (and bisected down to the poison trajectory) instead of
    aborting the batch.
    """

    mode: str = "fail_fast"
    """``"fail_fast"``, ``"skip"`` or ``"retry"``."""

    max_retries: int = 2
    """Re-attempts per failed trajectory before quarantine (``retry`` mode)."""

    backoff_base: float = 0.05
    """Seconds slept before the first retry, doubling for each further one;
    deterministic, never jittered."""

    def __post_init__(self) -> None:
        if self.mode not in FAILURE_MODES:
            raise ConfigurationError(
                f"unknown failure mode {self.mode!r}; expected one of {list(FAILURE_MODES)}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if not self.backoff_base >= 0:
            raise ConfigurationError("backoff_base must be non-negative")

    @property
    def isolates(self) -> bool:
        """Whether a stage failure is contained to its trajectory."""
        return self.mode != "fail_fast"

    @property
    def retries(self) -> int:
        """Effective per-trajectory retry budget (0 outside ``retry`` mode)."""
        return self.max_retries if self.mode == "retry" else 0

    def backoff(self, attempt: int) -> float:
        """Deterministic backoff (seconds) before re-attempt ``attempt + 1``."""
        return self.backoff_base * 2 ** max(0, attempt - 1)


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of the asyncio ingestion service (:mod:`repro.service`).

    The service multiplexes many concurrent object streams into sharded
    :class:`~repro.engine.executors.MicroBatchExecutor` instances: events are
    routed to a shard by consistent-hashing the object id, buffered in a
    bounded per-shard queue (slow producers are *awaited*, never dropped) and
    absorbed by the shard's streaming session loop.  These knobs bound the
    service's memory (queues + open sessions) and control the shard fan-out.
    """

    shards: int = 0
    """Number of executor shards; 0 means "auto": the affinity-aware core
    count of :func:`repro.core.cpu.effective_cpu_count`."""

    queue_depth: int = 256
    """Capacity of each shard's bounded event queue; a full queue makes
    ``ingest`` await (explicit backpressure) instead of dropping events."""

    max_batch: int = 64
    """Maximum events handed to a shard executor per processing step; larger
    batches amortise per-batch costs, smaller ones bound added latency."""

    session_budget: int = 10_000
    """Total open per-object sessions allowed across all shards (the memory
    budget); each shard's LRU session capacity is the per-shard share, and
    the least recently active sessions are gracefully closed through the gap
    close-out path when a shard exceeds it."""

    ring_replicas: int = 64
    """Virtual nodes per shard on the consistent-hash ring; more replicas
    smooth the key distribution at a small routing-table cost."""

    journal_dir: str = ""
    """Directory of the crash-safe ingest journal (per-shard write-ahead
    logs).  Empty (the default) disables journaling; when set, every accepted
    event and close is appended before it is enqueued, a killed service
    replays the un-drained tail on its next :meth:`start`, and a successful
    drain rotates the segments away."""

    journal_fsync_batch: int = 1024
    """Appends between journal ``fdatasync`` calls (group commit).  Appends
    are unbuffered, so a crash of the service process loses none; the batch
    bounds only what an OS crash or power loss can take — well under 100 ms
    of events at sustained rates.  1 syncs every record (slowest); drain
    always syncs."""

    transport: str = "auto"
    """Where shard executors run: ``"thread"`` runs every shard's
    :class:`~repro.engine.executors.MicroBatchExecutor` on the service's
    event loop (one thread, blocked for each micro-batch), ``"process"``
    gives each shard its own worker process, handed the service's
    :class:`~repro.parallel.context.GeoContext` (events cross in batched
    pre-encoded frames over pipes).  ``"auto"`` — the default — resolves to
    ``"process"`` when :func:`repro.core.cpu.effective_cpu_count` sees more
    than one core and to ``"thread"`` on a single-core allowance, where
    worker processes would only add IPC cost (see
    :attr:`resolved_transport`)."""

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ConfigurationError("shards must be at least 1 (or 0 for auto)")
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be at least 1")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if self.session_budget < 1:
            raise ConfigurationError("session_budget must be at least 1")
        if self.ring_replicas < 1:
            raise ConfigurationError("ring_replicas must be at least 1")
        if self.journal_fsync_batch < 1:
            raise ConfigurationError("journal_fsync_batch must be at least 1")
        if self.transport not in ("thread", "process", "auto"):
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; expected 'thread', 'process' or 'auto'"
            )
        if self.transport == "process" and self.shards > 0:
            from repro.core.cpu import effective_cpu_count

            cores = effective_cpu_count()
            if self.shards > 4 * cores:
                raise ConfigurationError(
                    f"transport='process' with {self.shards} shards oversubscribes "
                    f"{cores} effective cores by more than 4x; lower shards or use "
                    "transport='thread'"
                )

    @property
    def resolved_shards(self) -> int:
        """The effective shard count: ``shards``, or the affinity-aware core
        count when ``shards`` is 0 (auto)."""
        if self.shards == 0:
            from repro.core.cpu import effective_cpu_count

            return effective_cpu_count()
        return self.shards

    @property
    def resolved_transport(self) -> str:
        """The effective transport: ``transport``, with ``"auto"`` resolved.

        ``auto`` picks ``"process"`` exactly when the affinity-aware core
        count is greater than one — that is where per-shard worker processes
        beat the GIL — and falls back to ``"thread"`` on a single-core
        allowance, where the thread transport has the same parallelism (none)
        without the IPC and spawn cost.
        """
        if self.transport != "auto":
            return self.transport
        from repro.core.cpu import effective_cpu_count

        return "process" if effective_cpu_count() > 1 else "thread"


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level configuration bundling every layer's parameters."""

    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    identification: TrajectoryIdentificationConfig = field(
        default_factory=TrajectoryIdentificationConfig
    )
    stop_move: StopMoveConfig = field(default_factory=StopMoveConfig)
    region: RegionAnnotationConfig = field(default_factory=RegionAnnotationConfig)
    map_matching: MapMatchingConfig = field(default_factory=MapMatchingConfig)
    transport: TransportModeConfig = field(default_factory=TransportModeConfig)
    point: PointAnnotationConfig = field(default_factory=PointAnnotationConfig)
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig.from_env)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    failure: FailurePolicy = field(default_factory=FailurePolicy)

    # ------------------------------------------------------- dict construction
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-data rendering of every section (JSON-serialisable).

        Round-trips through :meth:`from_dict`:
        ``PipelineConfig.from_dict(config.to_dict()) == config``.
        """
        return {
            section.name: dataclasses.asdict(getattr(self, section.name))
            for section in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(
        cls,
        data: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        base: Optional["PipelineConfig"] = None,
    ) -> "PipelineConfig":
        """Build a validated configuration from nested plain data.

        The **one** construction path the service, the benchmarks and the
        environment knobs share: ``data`` is a (possibly partial) nested
        mapping like :meth:`to_dict` produces, ``overrides`` maps dotted
        keyword paths to values (``{"service.shards": 4}``), and
        ``base`` supplies the defaults for everything left unspecified.
        Unknown sections or fields raise :class:`ConfigurationError`; every
        value passes through the owning dataclass's own ``__post_init__``
        validation, and string values (e.g. from ``SEMITRI_*`` environment
        variables or CLI flags) are coerced to the field's type first.
        """
        if base is None:
            base = cls()
        sections = {section.name: section for section in dataclasses.fields(cls)}
        merged: Dict[str, Dict[str, Any]] = {}
        if data:
            for section_name, section_data in data.items():
                if section_name not in sections:
                    raise ConfigurationError(
                        f"unknown configuration section {section_name!r}; "
                        f"expected one of {sorted(sections)}"
                    )
                if not isinstance(section_data, Mapping):
                    raise ConfigurationError(
                        f"section {section_name!r} must be a mapping of field values"
                    )
                merged[section_name] = dict(section_data)
        if overrides:
            for path, value in overrides.items():
                section_name, _, field_name = path.partition(".")
                if not field_name or section_name not in sections:
                    raise ConfigurationError(
                        f"override path {path!r} must look like '<section>.<field>' "
                        f"with a section among {sorted(sections)}"
                    )
                merged.setdefault(section_name, {})[field_name] = value

        built: Dict[str, Any] = {}
        for section_name, values in merged.items():
            current = getattr(base, section_name)
            built[section_name] = _replace_section(current, values, section_name)
        return dataclasses.replace(base, **built)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "PipelineConfig":
        """A copy of this configuration with dotted-path overrides applied."""
        return type(self).from_dict(overrides=overrides, base=self)

    @classmethod
    def for_vehicles(cls) -> "PipelineConfig":
        """Defaults suited to vehicle (taxi / private car) trajectories."""
        return cls(
            stop_move=StopMoveConfig(
                policy="hybrid", speed_threshold=1.5, min_stop_duration=150.0, density_radius=60.0
            ),
            map_matching=MapMatchingConfig(candidate_radius=40.0),
            point=PointAnnotationConfig(
                default_sigma=25.0, neighbor_radius=120.0, grid_cell_size=25.0
            ),
        )

    @classmethod
    def for_people(cls) -> "PipelineConfig":
        """Defaults suited to smartphone people trajectories (noisier, gappier)."""
        return cls(
            cleaning=CleaningConfig(max_speed=45.0),
            identification=TrajectoryIdentificationConfig(max_time_gap=3600.0),
            stop_move=StopMoveConfig(
                policy="hybrid", speed_threshold=0.8, min_stop_duration=240.0, density_radius=80.0
            ),
            map_matching=MapMatchingConfig(candidate_radius=60.0),
        )


def _replace_section(current: Any, values: Mapping[str, Any], section_name: str) -> Any:
    """One section dataclass with ``values`` applied (validated, type-coerced)."""
    known = {section_field.name for section_field in dataclasses.fields(current)}
    coerced: Dict[str, Any] = {}
    for field_name, value in values.items():
        if field_name not in known:
            raise ConfigurationError(
                f"unknown field {field_name!r} in section {section_name!r}; "
                f"expected one of {sorted(known)}"
            )
        coerced[field_name] = _coerce_value(
            value, getattr(current, field_name), f"{section_name}.{field_name}"
        )
    return dataclasses.replace(current, **coerced)


def _coerce_value(value: Any, current: Any, path: str) -> Any:
    """Check a raw override value against the type of the field's current value.

    Strings arriving from ``SEMITRI_*`` environment variables or CLI flags
    are parsed into the int/float/bool the field holds.  Any other value must
    already have the field's type — a bool for a bool field, an int (not a
    bool) for an int field, an int or float (not a bool) for a float field, a
    mapping for a dict field, a str for a str field — and a value that does
    not, or a string that does not parse, raises :class:`ConfigurationError`
    naming the field and the offending value.
    """
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("1", "true", "on", "yes"):
                return True
            if lowered in ("0", "false", "off", "no"):
                return False
        raise ConfigurationError(f"{path}: cannot interpret {value!r} as a boolean")
    if isinstance(current, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        raise ConfigurationError(f"{path}: cannot interpret {value!r} as an integer")
    if isinstance(current, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise ConfigurationError(f"{path}: cannot interpret {value!r} as a number")
    if isinstance(current, dict):
        if isinstance(value, Mapping):
            return dict(value)
        raise ConfigurationError(f"{path}: cannot interpret {value!r} as a mapping")
    if isinstance(current, str) and not isinstance(value, str):
        raise ConfigurationError(f"{path}: cannot interpret {value!r} as a string")
    return value
