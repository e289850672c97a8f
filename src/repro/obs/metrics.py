"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per telemetry runtime collects every runtime
signal the engine emits — executor throughput counters (the
:class:`~repro.engine.executors.EngineStats` vocabulary, for *all three*
executors), streaming session-manager events (evictions, gap close-outs,
open-session and queue-depth gauges) and
:class:`~repro.store.store.SemanticTrajectoryStore` transaction counters
(commits, rollbacks, rows written, write-batch sizes).

Per-stage latency is special: the registry's histogram backend for it **is**
the existing :class:`~repro.analytics.latency.LatencyProfile` — executors
keep recording through :class:`~repro.analytics.latency.StageTimer` exactly
as before, finished profiles are folded in via :meth:`MetricsRegistry.\
observe_latency`, and means/percentiles are computed by the profile itself
over the raw samples.  Fixed buckets are derived views over those samples, so
the Figure 17 numbers stay **bitwise identical** to the pre-registry path.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytics.latency import LatencyProfile
from repro.core.errors import ConfigurationError

#: Default fixed buckets (seconds) for stage-latency histograms: 100 us to 5 s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default fixed buckets for row-count histograms (store write batches).
DEFAULT_BATCH_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: A label set, normalised to a sorted tuple so lookups are order-insensitive.
Labels = Tuple[Tuple[str, str], ...]


def _labels(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only increase; use a gauge instead")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, open sessions)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative-friendly per-bucket counts.

    ``buckets`` are inclusive upper bounds; one implicit ``+Inf`` bucket
    catches everything above the last bound.  ``counts`` are per-bucket (not
    cumulative); the Prometheus renderer accumulates them on the way out.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(bound) for bound in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self.max_value: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        if value > self.max_value:
            self.max_value = value

    def mean(self) -> float:
        """Mean of the observed values (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Bucket-resolution percentile estimate (0 when empty).

        Returns the upper bound of the first bucket whose cumulative count
        reaches the requested rank — an over-estimate by at most one bucket
        width, which is the usual fixed-bucket trade-off; observations above
        the last bound report the tracked maximum instead of ``+Inf``.
        """
        if not (0.0 <= percentile <= 100.0):
            raise ConfigurationError("percentile must lie between 0 and 100")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil((percentile / 100.0) * self.count))
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return bound
        return self.max_value


def bucket_counts(samples: Sequence[float], buckets: Sequence[float]) -> List[int]:
    """Per-bucket counts of ``samples`` under the fixed ``buckets`` bounds.

    The derived-view helper behind the stage-latency histograms: the raw
    samples stay in the :class:`LatencyProfile` backend and bucket counts are
    computed on demand, so bucketing can never perturb the exact means.
    """
    counts = [0] * (len(buckets) + 1)
    bounds = [float(bound) for bound in buckets]
    for value in samples:
        counts[bisect.bisect_left(bounds, value)] += 1
    return counts


class MetricsRegistry:
    """Get-or-create registry of named metrics plus the stage-latency backend."""

    def __init__(self) -> None:
        self._metrics: "OrderedDict[Tuple[str, Labels], object]" = OrderedDict()
        #: The stage-latency histogram backend: the raw per-stage samples,
        #: absorbed from every finished trajectory's latency profile.  Means,
        #: totals and percentiles are the profile's own — bitwise identical
        #: to what the Figure 17 benchmark computed before the registry
        #: existed.
        self.stage_latency = LatencyProfile()

    # ------------------------------------------------------------- get-or-create
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter with this name and label set (created on first use)."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge with this name and label set (created on first use)."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        """The histogram with this name and label set (created on first use)."""
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets=buckets, help=help)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise ConfigurationError(
                f"metric {name!r} is already registered as a {metric.kind}"  # type: ignore[attr-defined]
            )
        return metric

    def _get_or_create(self, cls: type, name: str, help: str, labels: Dict[str, str]):
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], help=help)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is already registered as a {metric.kind}"  # type: ignore[attr-defined]
            )
        return metric

    # ----------------------------------------------------------- stage latency
    def observe_latency(self, profile: LatencyProfile) -> None:
        """Fold one finished trajectory's latency samples into the backend."""
        self.stage_latency.merge(profile)

    def latency_buckets(
        self, stage: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> List[int]:
        """Fixed-bucket view over one stage's raw latency samples."""
        return bucket_counts(self.stage_latency.samples.get(stage, ()), buckets)

    # -------------------------------------------------------------- inspection
    def metrics(self) -> List[object]:
        """Every registered metric, in registration order."""
        return list(self._metrics.values())

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Current value of a counter/gauge, or ``None`` if never registered."""
        metric = self._metrics.get((name, _labels(labels)))
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value  # type: ignore[attr-defined]

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable dump of every metric plus the latency backend."""
        rendered: List[Dict[str, object]] = []
        for metric in self._metrics.values():
            entry: Dict[str, object] = {
                "name": metric.name,  # type: ignore[attr-defined]
                "kind": metric.kind,  # type: ignore[attr-defined]
                "labels": dict(metric.labels),  # type: ignore[attr-defined]
            }
            if isinstance(metric, Histogram):
                entry.update(
                    buckets=list(metric.buckets),
                    counts=list(metric.counts),
                    sum=metric.sum,
                    count=metric.count,
                )
            else:
                entry["value"] = metric.value  # type: ignore[attr-defined]
            rendered.append(entry)
        stages = {
            stage: {
                "count": self.stage_latency.count(stage),
                "mean": self.stage_latency.mean(stage),
                "p95": self.stage_latency.p95(stage),
                "total": self.stage_latency.total(stage),
                "buckets": list(DEFAULT_LATENCY_BUCKETS),
                "counts": self.latency_buckets(stage),
            }
            for stage in self.stage_latency.stages()
        }
        return {"metrics": rendered, "stage_latency": stages}

    def render_prometheus(self, prefix: str = "semitri_") -> str:
        """Prometheus text exposition format for every metric.

        Stage latency renders as one ``<prefix>stage_latency_seconds``
        histogram per stage (cumulative ``_bucket`` series, ``_sum``,
        ``_count``) straight off the :class:`LatencyProfile` backend.
        """
        lines: List[str] = []
        seen_names: set = set()
        for metric in self._metrics.values():
            name = f"{prefix}{metric.name}"  # type: ignore[attr-defined]
            if name not in seen_names:
                seen_names.add(name)
                help_text = metric.help or metric.name  # type: ignore[attr-defined]
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {metric.kind}")  # type: ignore[attr-defined]
            labels = dict(metric.labels)  # type: ignore[attr-defined]
            if isinstance(metric, Histogram):
                lines.extend(
                    _prometheus_histogram(
                        name, labels, metric.buckets, metric.counts, metric.sum, metric.count
                    )
                )
            else:
                lines.append(f"{name}{_prometheus_labels(labels)} {_format_value(metric.value)}")  # type: ignore[attr-defined]
        if self.stage_latency.stages():
            name = f"{prefix}stage_latency_seconds"
            lines.append(f"# HELP {name} Per-stage pipeline latency (Figure 17 vocabulary)")
            lines.append(f"# TYPE {name} histogram")
            for stage in self.stage_latency.stages():
                lines.extend(
                    _prometheus_histogram(
                        name,
                        {"stage": stage},
                        DEFAULT_LATENCY_BUCKETS,
                        self.latency_buckets(stage),
                        self.stage_latency.total(stage),
                        self.stage_latency.count(stage),
                    )
                )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        """Human-readable table of every metric plus the per-stage latencies."""
        from repro.analytics.reporting import render_table  # deferred: keep import light

        rows: List[List[object]] = []
        for metric in self._metrics.values():
            labels = ", ".join(f"{key}={value}" for key, value in metric.labels)  # type: ignore[attr-defined]
            if isinstance(metric, Histogram):
                value = f"count={metric.count} mean={metric.mean():.4g}"
            else:
                value = _format_value(metric.value)  # type: ignore[attr-defined]
            rows.append([metric.name, metric.kind, labels or "-", value])  # type: ignore[attr-defined]
        blocks = [render_table(["metric", "kind", "labels", "value"], rows, title="metrics")]
        latency_rows = [
            [
                stage,
                self.stage_latency.count(stage),
                f"{self.stage_latency.mean(stage):.6f}",
                f"{self.stage_latency.p95(stage):.6f}",
                f"{self.stage_latency.total(stage):.6f}",
            ]
            for stage in self.stage_latency.stages()
        ]
        if latency_rows:
            blocks.append(
                render_table(
                    ["stage", "count", "mean (s)", "p95 (s)", "total (s)"],
                    latency_rows,
                    title="stage latency (LatencyProfile backend)",
                )
            )
        return "\n\n".join(blocks)


def _prometheus_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isfinite(value) and float(value).is_integer():
        return str(int(value))
    return repr(value)


def _prometheus_histogram(
    name: str,
    labels: Dict[str, str],
    buckets: Sequence[float],
    counts: Sequence[int],
    total: float,
    count: int,
) -> List[str]:
    lines: List[str] = []
    cumulative = 0
    for bound, bucket_count in zip(buckets, counts):
        cumulative += bucket_count
        bucket_labels = dict(labels, le=f"{bound:g}")
        lines.append(f"{name}_bucket{_prometheus_labels(bucket_labels)} {cumulative}")
    cumulative += counts[len(buckets)]
    lines.append(f"{name}_bucket{_prometheus_labels(dict(labels, le='+Inf'))} {cumulative}")
    lines.append(f"{name}_sum{_prometheus_labels(labels)} {repr(total)}")
    lines.append(f"{name}_count{_prometheus_labels(labels)} {count}")
    return lines


# ------------------------------------------------------------- metric bundles
class EngineCounters:
    """The :class:`EngineStats` vocabulary as registry counters.

    One bundle per executor kind, so the sequential, process-pool and
    micro-batch runtimes report **comparable** throughput counters — the
    micro-batch-only ``EngineStats`` dataclass stays for API compatibility,
    but the registry is where all three executors meet.
    """

    def __init__(self, registry: MetricsRegistry, executor: str):
        self.events = registry.counter(
            "engine_events_total", help="GPS events processed", executor=executor
        )
        self.results = registry.counter(
            "engine_results_total", help="Trajectories annotated", executor=executor
        )
        self.episodes_sealed = registry.counter(
            "engine_episodes_sealed_total", help="Episodes produced", executor=executor
        )
        self.trajectories_discarded = registry.counter(
            "engine_trajectories_discarded_total",
            help="Trajectories discarded as too-short fragments",
            executor=executor,
        )
        self.processing_passes = registry.counter(
            "engine_processing_passes_total",
            help="Micro-batch processing passes",
            executor=executor,
        )


class StreamingMetrics:
    """Session-manager signals: evictions, gap close-outs, depth gauges."""

    def __init__(self, registry: MetricsRegistry):
        self.evictions = registry.counter(
            "streaming_evictions_total", help="Sessions closed by LRU eviction"
        )
        self.gap_closeouts = registry.counter(
            "streaming_gap_closeouts_total",
            help="Trajectories sealed online by a time/distance gap",
        )
        self.open_sessions = registry.gauge(
            "streaming_open_sessions", help="Currently open per-object sessions"
        )
        self.pending_events = registry.gauge(
            "streaming_pending_events", help="Events buffered in the current micro-batch"
        )
        self.annotate_queue_depth = registry.gauge(
            "streaming_annotate_queue_depth",
            help="Sealed episodes and closed trajectories waiting for the next flush",
        )


class ServiceMetrics:
    """Ingestion-service signals: per-shard queues, throughput, latency.

    One bundle per :class:`~repro.service.service.AnnotationService`; the
    per-shard series are labelled by shard index (:meth:`shard`), service-wide
    signals (backpressure waits, ingest latency) are unlabelled.  The ingest
    latency histogram measures enqueue-to-absorbed time per event — queueing
    plus the shard executor's processing share — which is the p50/p99 an
    online emitter actually experiences.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.backpressure_waits = registry.counter(
            "service_backpressure_waits_total",
            help="ingest calls that awaited a full shard queue",
        )
        self.sessions_evicted = registry.counter(
            "service_sessions_evicted_total",
            help="Sessions gracefully closed under the service memory budget",
        )
        self.ingest_latency = registry.histogram(
            "service_ingest_latency_seconds",
            help="Enqueue-to-absorbed latency per event",
        )
        self._shards: Dict[int, "ShardMetrics"] = {}

    def shard(self, index: int) -> "ShardMetrics":
        """The per-shard bundle for one shard index (created on first use)."""
        bundle = self._shards.get(index)
        if bundle is None:
            bundle = ShardMetrics(self.registry, index)
            self._shards[index] = bundle
        return bundle


class ShardMetrics:
    """One ingest shard's series: queue depth, events, results, sessions.

    The process-transport series (worker pid, restarts, IPC frame/byte
    counters out, ack bytes back) stay at their zero values under the thread
    transport — one bundle serves both so dashboards need no
    transport-specific wiring.
    """

    def __init__(self, registry: MetricsRegistry, index: int):
        shard = str(index)
        self.queue_depth = registry.gauge(
            "service_queue_depth", help="Events waiting in the shard queue", shard=shard
        )
        self.events = registry.counter(
            "service_events_total", help="Events absorbed by the shard", shard=shard
        )
        self.results = registry.counter(
            "service_results_total", help="Trajectories sealed by the shard", shard=shard
        )
        self.open_sessions = registry.gauge(
            "service_open_sessions", help="Open per-object sessions in the shard", shard=shard
        )
        self.errors = registry.counter(
            "service_shard_errors_total",
            help="Shard batches that failed while processing",
            shard=shard,
        )
        self.worker_pid = registry.gauge(
            "service_worker_pid",
            help="PID of the shard's worker process (process transport)",
            shard=shard,
        )
        self.worker_restarts = registry.counter(
            "service_worker_restarts_total",
            help="Shard worker processes lost and respawned",
            shard=shard,
        )
        self.ipc_frames = registry.counter(
            "service_ipc_frames_total",
            help="Batched event frames shipped to the shard worker",
            shard=shard,
        )
        self.ipc_bytes = registry.counter(
            "service_ipc_bytes_total",
            help="Encoded frame bytes shipped to the shard worker",
            shard=shard,
        )
        self.ack_bytes = registry.counter(
            "shard_ack_bytes_total",
            help="Result-codec ack bytes read back from the shard worker",
            shard=shard,
        )


class FaultMetrics:
    """Fault-tolerance signals: failures, retries, quarantine, WAL replay.

    The unlabelled counters mirror the plain-integer counters on
    :class:`~repro.faults.failures.FailureLog` one-to-one, so tests can
    reconcile both against an injected :class:`~repro.faults.inject.FaultPlan`
    exactly; ``failures_total`` additionally fans out by stage and failure
    kind for dashboards.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.retries = registry.counter(
            "retries_total", help="Per-trajectory retry attempts after a stage failure"
        )
        self.quarantined = registry.counter(
            "quarantined_total", help="Trajectories dead-lettered to the quarantine table"
        )
        self.wal_replayed = registry.counter(
            "wal_replayed_total", help="Ingest-journal records replayed during recovery"
        )
        self.worker_losses = registry.counter(
            "worker_losses_total", help="Pool worker processes lost and recovered from"
        )

    def failure(self, stage: str, kind: str) -> None:
        """Count one failure event, labelled by stage and exception kind."""
        self.registry.counter(
            "failures_total",
            help="Stage failures by stage and exception kind",
            stage=stage,
            kind=kind,
        ).inc()


class StoreMetrics:
    """Transaction-scope signals of the semantic trajectory store."""

    def __init__(self, registry: MetricsRegistry):
        self.commits = registry.counter(
            "store_commits_total", help="Store transactions committed"
        )
        self.rollbacks = registry.counter(
            "store_rollbacks_total", help="Store transactions rolled back"
        )
        self.rows_written = registry.counter(
            "store_rows_written_total",
            help="Rows inserted (trajectories + GPS records + episodes + annotations)",
        )
        self.batch_rows = registry.histogram(
            "store_batch_rows",
            buckets=DEFAULT_BATCH_BUCKETS,
            help="Rows per write batch",
        )

    def observe_write(self, rows: int) -> None:
        """Record one write batch: its row count and the batch-size histogram."""
        self.rows_written.inc(rows)
        self.batch_rows.observe(rows)
