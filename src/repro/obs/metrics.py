"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per telemetry runtime collects every runtime
signal the engine emits — executor throughput counters (the
:class:`~repro.engine.executors.EngineStats` vocabulary, for *all three*
executors), streaming session-manager signals (evictions, gap close-outs,
open-session and queue-depth gauges) and
:class:`~repro.store.store.SemanticTrajectoryStore` transaction counters
(commits, rollbacks, rows written, write-batch sizes).

One count per fact: a series whose fact an owner already counts (an
executor's ``EngineStats``, a session manager, a failure log, a service
shard) is registered once, when the owner is built, and *reads* that count
(``read=``); only facts nobody else counts are pushed.  A reading can
therefore never drift from the number its owner reports.

Per-stage latency is special: the registry's histogram backend for it **is**
the existing :class:`~repro.analytics.latency.LatencyProfile` — executors
record each stage run into the result's profile
(:meth:`~repro.engine.stages.WorkItem.record_stage`), finished profiles are
folded in via :meth:`MetricsRegistry.observe_latency`, and means/percentiles
are computed by the profile itself over the raw samples.  Fixed buckets are
derived views over those samples, so the Figure 17 numbers stay **bitwise
identical** to the pre-registry path.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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

#: What a series reads: a zero-argument callable returning its owner's count.
Read = Callable[[], float]


def _labels(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class _Series:
    """A counter's or gauge's value: pushed to it, or the sum of its owners' counts.

    A series registered with ``read=`` holds no number of its own: its
    :attr:`value` sums its reads, one per registering owner, and a push raises.
    """

    kind = ""

    def __init__(self, name: str, labels: Labels, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._value: float = 0.0
        self._reads: List[Read] = []

    @property
    def value(self) -> float:
        """The pushed value, or the sum of the owners' counts this series reads."""
        return float(sum(read() for read in self._reads)) if self._reads else self._value

    def add_read(self, read: Read) -> None:
        """Let this series read one more owner's count."""
        self._reads.append(read)

    def _check_pushable(self) -> None:
        if self._reads:
            raise ConfigurationError(
                f"metric {self.name!r} reads its owner's count; it cannot be pushed to"
            )


class Counter(_Series):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self._check_pushable()
        if amount < 0:
            raise ConfigurationError("counters only increase; use a gauge instead")
        self._value += amount


class Gauge(_Series):
    """A value that can go up and down (queue depth, open sessions)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self._check_pushable()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self._check_pushable()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self._check_pushable()
        self._value -= amount


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

    def observe_many(self, values: Sequence[float]) -> None:
        """Record ``values`` in order: the state ``observe`` on each would leave."""
        counts, buckets = self.counts, self.buckets
        total, highest = self.sum, self.max_value
        for value in values:
            counts[bisect.bisect_left(buckets, value)] += 1
            total += value
            if value > highest:
                highest = value
        self.sum, self.max_value = total, highest
        self.count += len(values)

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
    def counter(
        self, name: str, help: str = "", read: Optional[Read] = None, **labels: str
    ) -> Counter:
        """The counter with this name and label set (created on first use).

        With ``read`` the counter reads that count (see :class:`_Series`);
        each registration with a ``read`` adds one.
        """
        return self._get_or_create(Counter, name, labels, read, help=help)

    def gauge(self, name: str, help: str = "", read: Optional[Read] = None, **labels: str) -> Gauge:
        """The gauge with this name and label set (created on first use; ``read`` as above)."""
        return self._get_or_create(Gauge, name, labels, read, help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        """The histogram with this name and label set (created on first use)."""
        return self._get_or_create(Histogram, name, labels, buckets=buckets, help=help)

    def _get_or_create(
        self, cls: type, name: str, labels: Dict[str, str], read: Optional[Read] = None, **options
    ):
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1], **options)
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is already registered as a {metric.kind}"  # type: ignore[attr-defined]
            )
        if read is not None:
            metric.add_read(read)
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
    micro-batch runtimes report **comparable** throughput counters.  The
    batch executors push each finished batch; a micro-batch executor passes
    its live ``stats``, which the five series then read.
    """

    def __init__(self, registry: MetricsRegistry, executor: str, stats: Any = None):
        def series(field: str, help: str) -> Counter:
            read = None if stats is None else partial(getattr, stats, field)
            return registry.counter(
                f"engine_{field}_total", help=help, read=read, executor=executor
            )

        self.events = series("events", "GPS events processed")
        self.results = series("results", "Trajectories annotated")
        self.episodes_sealed = series("episodes_sealed", "Episodes produced")
        self.trajectories_discarded = series(
            "trajectories_discarded", "Trajectories discarded as too-short fragments"
        )
        self.processing_passes = series("processing_passes", "Micro-batch processing passes")


class ServiceMetrics:
    """Ingestion-service signals: per-shard queues, throughput, latency.

    One bundle per :class:`~repro.service.service.AnnotationService`; the
    per-shard series are labelled by shard index (:meth:`shard`), service-wide
    signals (backpressure waits, evictions, ingest latency) read ``stats``
    and the ``shards`` list.  The ingest latency histogram measures
    enqueue-to-absorbed time per event — queueing plus the shard executor's
    processing share — which is the p50/p99 an online emitter actually
    experiences.
    """

    def __init__(self, registry: MetricsRegistry, stats: Any, shards: Sequence[Any]):
        self.registry = registry
        self.backpressure_waits = registry.counter(
            "service_backpressure_waits_total",
            help="ingest calls that awaited a full shard queue",
            read=partial(getattr, stats, "backpressure_waits"),
        )
        self.sessions_evicted = registry.counter(
            "service_sessions_evicted_total",
            help="Sessions gracefully closed under the service memory budget",
            read=lambda: sum(shard.sessions_evicted for shard in shards),
        )
        self.ingest_latency = registry.histogram(
            "service_ingest_latency_seconds",
            help="Enqueue-to-absorbed latency per event",
        )
        self._shards: Dict[int, "ShardMetrics"] = {}

    def add_shard(self, shard: Any, queue: Any) -> "ShardMetrics":
        """Register one shard's series, reading ``shard`` and its ``queue``."""
        self._shards[shard.index] = bundle = ShardMetrics(self.registry, shard, queue)
        return bundle

    def shard(self, index: int) -> "ShardMetrics":
        """The per-shard bundle of one shard index."""
        return self._shards[index]


class ShardMetrics:
    """One ingest shard's series: queue depth, events, results, sessions.

    What the shard's parent-side mirror counts is read from it, so the series
    step back with a respawned worker and climb back as its replay is
    re-acked.  The IPC frame/byte counters out and the ack bytes back are
    pushed, and stay at zero under the thread transport; so does the
    in-flight frame bytes gauge, which reads the shard.
    """

    def __init__(self, registry: MetricsRegistry, shard: Any, queue: Any):
        label = str(shard.index)

        def counter(name: str, help: str, read: Optional[Read] = None) -> Counter:
            return registry.counter(name, help=help, read=read, shard=label)

        def gauge(name: str, help: str, read: Read) -> Gauge:
            return registry.gauge(name, help=help, read=read, shard=label)

        self.queue_depth = gauge(
            "service_queue_depth", "Events waiting in the shard queue", lambda: len(queue.items)
        )
        self.events = counter(
            "service_events_total",
            "Events absorbed by the shard",
            lambda: shard.events_absorbed + shard.poison_skipped,
        )
        self.results = counter(
            "service_results_total",
            "Trajectories collected from the shard (replayed duplicates dropped)",
            partial(getattr, shard, "results_kept"),
        )
        self.open_sessions = gauge(
            "service_open_sessions",
            "Open per-object sessions in the shard",
            partial(getattr, shard, "open_sessions"),
        )
        self.errors = counter(
            "service_shard_errors_total", "Shard batches that failed while processing"
        )
        self.worker_pid = gauge(
            "service_worker_pid",
            "PID of the shard's worker process (process transport)",
            lambda: shard.pid or 0,
        )
        self.worker_restarts = counter(
            "service_worker_restarts_total",
            "Shard worker processes lost and respawned",
            partial(getattr, shard, "restarts"),
        )
        self.ipc_frames = counter(
            "service_ipc_frames_total", "Batched event frames shipped to the shard worker"
        )
        self.ipc_bytes = counter(
            "service_ipc_bytes_total", "Encoded frame bytes shipped to the shard worker"
        )
        self.ack_bytes = counter(
            "shard_ack_bytes_total", "Result-codec ack bytes read back from the shard worker"
        )
        self.inflight_bytes = gauge(
            "service_inflight_bytes",
            "Frame bytes sent to the shard worker and not yet acked (process transport)",
            partial(getattr, shard, "inflight_bytes"),
        )


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
