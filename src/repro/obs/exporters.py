"""Telemetry exporters: JSONL dumps and Prometheus text format.

Exporters are deliberately tiny: they read a finished
:class:`~repro.obs.runtime.Telemetry` runtime and render it, nothing more.
The JSONL format is line-per-record so span dumps can be streamed, appended
and re-read incrementally; :func:`read_spans` is the matching loader that the
round-trip tests (and any offline analysis) use to rebuild span trees from a
dump with :func:`~repro.obs.trace.build_span_tree`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Union

from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - runtime imports exporters, not vice versa
    from repro.obs.runtime import Telemetry


class JsonlExporter:
    """Writes spans and a metrics snapshot as one JSON object per line.

    Span lines are ``{"type": "span", ...Span.as_dict()}``; the registry
    snapshot becomes a single ``{"type": "metrics", ...}`` trailer line.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def export(self, telemetry: "Telemetry") -> Path:
        """Dump the runtime's spans and metrics; returns the written path."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as handle:
            if telemetry.tracer is not None:
                for span in telemetry.tracer.spans:
                    handle.write(json.dumps({"type": "span", **span.as_dict()}) + "\n")
            if telemetry.metrics is not None:
                handle.write(
                    json.dumps({"type": "metrics", **telemetry.metrics.snapshot()})
                    + "\n"
                )
        return self.path


def read_spans(path: Union[str, Path]) -> List[Span]:
    """Load every span line of a JSONL telemetry dump, in file order."""
    spans: List[Span] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("type") == "span":
                spans.append(Span.from_dict(payload))
    return spans


class PrometheusExporter:
    """Renders the metrics registry in Prometheus text exposition format."""

    def __init__(self, prefix: str = "semitri_"):
        self.prefix = prefix

    def render(self, telemetry: "Telemetry") -> str:
        """The scrape body; empty string when metrics are disabled."""
        if telemetry.metrics is None:
            return ""
        return telemetry.metrics.render_prometheus(prefix=self.prefix)
