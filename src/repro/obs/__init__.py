"""Unified telemetry for the SeMiTri reproduction.

Three layers, matching the tentpole design:

* :mod:`repro.obs.trace` — per-trajectory spans (trace id = trajectory id)
  that survive the process-pool boundary by riding back on pickled results
  and being *adopted* into the parent-process tracer;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms,
  with the existing :class:`~repro.analytics.latency.LatencyProfile` as the
  stage-latency histogram backend so the Figure 17 numbers stay bitwise
  identical;
* :mod:`repro.obs.exporters` — JSONL span/metric dumps, a Prometheus
  text-format renderer and a human ``summary()`` table.

:class:`~repro.obs.runtime.Telemetry` bundles them per compiled plan;
``PipelineConfig.observability`` (or the ``SEMITRI_OBSERVABILITY`` env var)
selects what runs, defaulting to the zero-allocation :data:`DISABLED` no-op.
"""

from repro.obs.exporters import JsonlExporter, PrometheusExporter, read_spans
from repro.obs.metrics import (
    DEFAULT_BATCH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    EngineCounters,
    Gauge,
    Histogram,
    MetricsRegistry,
    StoreMetrics,
    bucket_counts,
)
from repro.obs.runtime import DISABLED, Telemetry
from repro.obs.trace import (
    Span,
    SpanNode,
    Tracer,
    TrajectoryTrace,
    build_span_tree,
    render_span_tree,
)

__all__ = [
    "Span",
    "SpanNode",
    "Tracer",
    "TrajectoryTrace",
    "build_span_tree",
    "render_span_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EngineCounters",
    "StoreMetrics",
    "bucket_counts",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_BATCH_BUCKETS",
    "Telemetry",
    "DISABLED",
    "JsonlExporter",
    "PrometheusExporter",
    "read_spans",
]
