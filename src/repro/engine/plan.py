"""Compilation of pipeline configuration + sources into an executable plan.

A :class:`Plan` is the explicit form of the Figure 2 dataflow: an ordered
tuple of typed :class:`~repro.engine.stages.Stage` objects (plus the raw
stream preprocessing chain), compiled once from a
:class:`~repro.parallel.context.GeoContext` snapshot — the
:class:`~repro.core.config.PipelineConfig`, the available
:class:`~repro.core.pipeline.AnnotationSources` and the annotators built from
them, which the plan reads through the snapshot it holds.  Layers whose source
is missing are simply not compiled in — the "skipped layer" behaviour the
paper describes for partially available third-party data — and the compiler
checks that every stage's declared inputs are produced by an earlier stage, so
an ill-wired custom plan fails at compile time instead of mid-run.

The same plan can be handed to any executor in
:mod:`repro.engine.executors`: the sequential in-process executor, the
sharded process-pool executor or the streaming micro-batch executor.  All
three produce canonically byte-identical results (see
:mod:`repro.parallel.canonical`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import FailurePolicy, PipelineConfig
from repro.core.errors import ConfigurationError
from repro.core.pipeline import AnnotationSources, LayerAnnotators
from repro.faults.failures import FailureLog
from repro.faults.inject import DISABLED_FAULTS, FaultInjector
from repro.engine.stages import (
    CleanStage,
    ComputeEpisodesStage,
    IdentifyStage,
    MapMatchStage,
    PoiAnnotationStage,
    PreprocessingStage,
    RegionJoinStage,
    Stage,
    StoreEpisodesStage,
    StoreTrajectoryStage,
)
from repro.obs.runtime import DISABLED, Telemetry
from repro.parallel.context import GeoContext
from repro.store.store import SemanticTrajectoryStore

#: The annotation layers a plan can compile, in dataflow order.
ANNOTATION_LAYERS: Tuple[str, ...] = ("region", "line", "point")


@dataclass
class Plan:
    """An executable description of the annotation dataflow.

    ``context`` is the snapshot the plan was compiled from (a process-pool
    executor primes its workers with it); ``stages`` is the per-trajectory
    dataflow every executor runs; ``preprocessing`` is the raw-stream chain
    (clean, identify) that turns a GPS point stream into the raw trajectories
    the stages consume.  ``store`` and ``persist`` describe the write-back
    target; when ``persist`` is false the compiled stages contain no
    write-back at all.
    """

    context: GeoContext
    stages: Tuple[Stage, ...]
    store: Optional[SemanticTrajectoryStore] = None
    persist: bool = False
    telemetry: Telemetry = field(default=DISABLED, repr=False, compare=False)
    """Observability runtime selected by ``config.observability``.

    The shared no-op :data:`~repro.obs.runtime.DISABLED` singleton unless the
    configuration enables observability, in which case :meth:`compile` builds
    a live :class:`~repro.obs.runtime.Telemetry` and (when the plan persists)
    binds the store's transaction metrics to its registry.
    """
    faults: FaultInjector = field(default=DISABLED_FAULTS, repr=False, compare=False)
    """Deterministic fault injector consulted at the engine's chaos points.

    The shared no-op :data:`~repro.faults.inject.DISABLED_FAULTS` singleton
    unless ``SEMITRI_FAULTS`` (or an explicit injector handed to
    :meth:`compile`) arms a plan — production plans pay one attribute read
    per hook.
    """
    failure_log: Optional[FailureLog] = field(default=None, repr=False, compare=False)
    """Run-scoped failure reconciliation (counters, metrics, quarantine).

    Built by :meth:`compile` (bound to the plan's store and metrics registry)
    or shared across plans by callers that own the run — the annotation
    service passes its own.
    """

    # ------------------------------------------------------------ compilation
    @classmethod
    def compile(
        cls,
        context: GeoContext,
        store: Optional[SemanticTrajectoryStore] = None,
        persist: bool = False,
        layers: Optional[Sequence[str]] = None,
        faults: Optional[FaultInjector] = None,
        failure_log: Optional[FailureLog] = None,
    ) -> "Plan":
        """Compile a plan around a :class:`GeoContext` snapshot.

        The snapshot's configuration and prebuilt annotators are used as-is
        (pair a snapshot with another configuration through
        :meth:`GeoContext.with_config`).  ``layers`` restricts which
        annotation layers are compiled in (default: every layer whose
        annotator is available), which is how custom plans — e.g. a
        region-only pass — are expressed.
        """
        config = context.config
        annotators = context.annotators
        if layers is None:
            selected = set(ANNOTATION_LAYERS)
        else:
            selected = set(layers)
            unknown = selected.difference(ANNOTATION_LAYERS)
            if unknown:
                raise ConfigurationError(
                    f"unknown annotation layers {sorted(unknown)!r}; "
                    f"expected a subset of {list(ANNOTATION_LAYERS)}"
                )

        persist_enabled = persist and store is not None
        stages: List[Stage] = [ComputeEpisodesStage(config)]
        if persist_enabled:
            assert store is not None
            stages.append(StoreTrajectoryStage(store))
        if "region" in selected and annotators.region is not None:
            stages.append(RegionJoinStage(annotators.region))
        if "line" in selected and annotators.line is not None:
            stages.append(MapMatchStage(annotators.line))
        if "point" in selected and annotators.point is not None:
            stages.append(PoiAnnotationStage(annotators.point))
        if persist_enabled:
            assert store is not None
            stages.append(StoreEpisodesStage(store))

        telemetry = Telemetry.from_config(config.observability)
        if store is not None and telemetry.metrics is not None:
            store.bind_metrics(telemetry.metrics)
        if faults is None:
            faults = FaultInjector.from_env()
        if store is not None and faults.enabled:
            store.bind_faults(faults)
        if failure_log is None:
            failure_log = FailureLog(config.failure, store=store, registry=telemetry.metrics)
        plan = cls(
            context=context,
            stages=tuple(stages),
            store=store,
            persist=persist_enabled,
            telemetry=telemetry,
            faults=faults,
            failure_log=failure_log,
        )
        plan.validate()
        return plan

    def validate(self) -> None:
        """Check the stage wiring: every declared input must be produced.

        ``trajectory`` is intrinsic (every work item starts with one); all
        other inputs must appear among the outputs of an earlier stage.
        """
        available = {"trajectory"}
        for stage in self.stages:
            missing = [name for name in stage.inputs if name not in available]
            if missing:
                raise ConfigurationError(
                    f"stage {stage.name!r} reads {missing!r} but no earlier "
                    f"stage produces it; stage order: {self.stage_names()}"
                )
            available.update(stage.outputs)

    # ---------------------------------------------------------- the snapshot
    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration (the snapshot's)."""
        return self.context.config

    @property
    def sources(self) -> AnnotationSources:
        """The annotation sources (the snapshot's)."""
        return self.context.sources

    @property
    def annotators(self) -> LayerAnnotators:
        """The prebuilt layer annotators (the snapshot's)."""
        return self.context.annotators

    @property
    def preprocessing(self) -> Tuple[PreprocessingStage, ...]:
        """The raw-stream chain ``(clean, identify)``, built for each read.

        No executor runs it (batch callers clean with ``ingest_stream``, the
        streaming runtime per fix), so a plan compiles without it.
        """
        return (CleanStage(self.config), IdentifyStage(self.config))

    # -------------------------------------------------------------- failures
    @property
    def failure_policy(self) -> FailurePolicy:
        """The failure policy this plan runs under (``config.failure``)."""
        return self.config.failure

    def ensure_failure_log(self) -> FailureLog:
        """The plan's failure log, created lazily for hand-built plans."""
        if self.failure_log is None:
            self.failure_log = FailureLog(self.config.failure, store=self.store)
        return self.failure_log

    # ------------------------------------------------------------- inspection
    def stage_names(self) -> List[str]:
        """The per-trajectory stage names, in execution order."""
        return [stage.name for stage in self.stages]

    def stage(self, name: str) -> Optional[Stage]:
        """The stage with the given name, if the plan contains one."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def annotation_layers(self) -> List[str]:
        """Names of the annotation layers compiled into this plan."""
        layers = []
        if self.stage("landuse_join") is not None:
            layers.append("region")
        if self.stage("map_match") is not None:
            layers.append("line")
        if self.stage("poi_annotation") is not None:
            layers.append("point")
        return layers

    def describe(self) -> str:
        """Human-readable rendering of the compiled dataflow."""
        lines = ["preprocessing:"]
        for pre in self.preprocessing:
            lines.append(
                f"  {pre.name:<18} {', '.join(pre.inputs) or '-'} -> "
                f"{', '.join(pre.outputs) or '-'}"
            )
        lines.append("stages:")
        for stage in self.stages:
            marker = " [write-back]" if stage.writes_back else ""
            lines.append(
                f"  {stage.name:<18} {', '.join(stage.inputs) or '-'} -> "
                f"{', '.join(stage.outputs) or '-'}{marker}"
            )
        return "\n".join(lines)
