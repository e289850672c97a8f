"""The per-plan telemetry runtime: tracer + metrics registry.

A :class:`Telemetry` instance is what a compiled
:class:`~repro.engine.plan.Plan` carries: executors ask it for trajectory
traces and its metrics registry, and hand every finished
:class:`~repro.core.pipeline.PipelineResult` to :meth:`Telemetry.collect`,
which folds the result's latency samples into the registry's stage-latency
backend and *adopts* its spans into the parent-process tracer — including
spans that were emitted inside pool workers and rode back attached to the
result.

The disabled path is a single module-level :data:`DISABLED` singleton whose
every hook returns ``None`` immediately — no tracer, no registry, no
allocation — so plans compiled with the default configuration behave exactly
like the pre-telemetry engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.config import ObservabilityConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, TrajectoryTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.pipeline import PipelineResult


class Telemetry:
    """Observability runtime selected by ``PipelineConfig.observability``."""

    def __init__(self, config: ObservabilityConfig):
        self.config = config
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry() if config.enabled else None
        self.tracer: Optional[Tracer] = (
            Tracer() if config.enabled and config.tracing else None
        )

    @classmethod
    def from_config(cls, config: ObservabilityConfig) -> "Telemetry":
        """The runtime for a configuration — the shared no-op when disabled."""
        if not config.enabled:
            return DISABLED
        return cls(config)

    # -------------------------------------------------------------- selection
    @property
    def enabled(self) -> bool:
        """Whether any telemetry is collected at all."""
        return self.metrics is not None

    @property
    def tracing_enabled(self) -> bool:
        """Whether per-trajectory spans are emitted."""
        return self.tracer is not None

    # ------------------------------------------------------------------ hooks
    def start_trace(self, trace_id: str) -> Optional[TrajectoryTrace]:
        """Open a trajectory trace, or ``None`` when tracing is off."""
        if self.tracer is None:
            return None
        return self.tracer.start_trace(trace_id)

    def collect(self, result: "PipelineResult") -> None:
        """Absorb one finished trajectory: latency samples and spans.

        Called exactly once per result, always in the parent process — the
        sequential executor per trajectory, the shard merge per merged
        result, the micro-batch executor per sealed trajectory.  Spans
        produced by a worker-side tracer are re-parented here: ids are
        remapped into this tracer's id space with the root/stage links
        preserved, and ``result.spans`` is replaced with the adopted copies
        so exports and results tell one consistent story.
        """
        if self.metrics is not None:
            self.metrics.observe_latency(result.latency)
        if self.tracer is not None and result.spans:
            result.spans = self.tracer.adopt(result.spans)

    # -------------------------------------------------------------- exporting
    def summary(self) -> str:
        """Human-readable metrics + span summary (empty string when disabled)."""
        parts = []
        if self.metrics is not None:
            parts.append(self.metrics.summary())
        if self.tracer is not None:
            parts.append(
                f"tracing: {len(self.tracer.spans)} spans across "
                f"{len(self.tracer.traces())} traces"
            )
        return "\n\n".join(parts)


#: The shared zero-overhead runtime plans carry when observability is off.
DISABLED = Telemetry(ObservabilityConfig())
