"""Per-trajectory tracing: spans with parent links across every runtime.

A trace follows one trajectory through the stage graph: the **trace id is the
trajectory id**, the root span covers the trajectory's whole journey through
an executor and every stage execution (segmentation, episode absorption,
close-time finish) becomes a child span.  Spans are plain
picklable dataclasses, which is what lets them survive the
``ProcessPoolExecutor`` boundary: worker-side tracers buffer their spans on
the :class:`~repro.core.pipeline.PipelineResult` they belong to, the result
rides back with the shard, and the parent-process tracer *adopts* the spans —
re-assigning span ids into its own id space while preserving the parent links
— when the shards are merged (see :meth:`Tracer.adopt`).

This module is dependency-free on purpose: :mod:`repro.core.pipeline` only
needs the :class:`Span` type, and the exporters need nothing else.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence


@dataclass
class Span:
    """One timed operation inside a trajectory's trace.

    ``trace_id`` is the trajectory id; ``parent_id`` links stage spans to the
    trajectory's root span (``parent_id is None``).  ``pid`` records the
    process that emitted the span, which is how the round-trip tests prove
    spans emitted inside pool workers survived the process boundary.
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    """Wall-clock start (seconds since the epoch)."""
    duration: float
    """Measured duration in seconds."""
    pid: int = field(default_factory=os.getpid)
    attributes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable rendering (the JSONL exporter line payload)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        """Inverse of :meth:`as_dict` (the JSONL import path)."""
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=int(payload["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None if payload.get("parent_id") is None else int(payload["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(payload["name"]),
            start=float(payload["start"]),  # type: ignore[arg-type]
            duration=float(payload["duration"]),  # type: ignore[arg-type]
            pid=int(payload.get("pid", 0)),  # type: ignore[arg-type]
            attributes=dict(payload.get("attributes") or {}),  # type: ignore[arg-type]
        )


class Tracer:
    """Allocates span ids and collects the finished spans of one process.

    Executors running in the parent process hand every finished trajectory's
    spans to :meth:`adopt`, which also accepts spans produced by *another*
    tracer (a pool worker's) — ids are remapped into this tracer's id space so
    the merged buffer stays collision-free while the tree structure survives.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.spans: List[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    def start_trace(self, trace_id: str) -> "TrajectoryTrace":
        """Open the root span of one trajectory's trace."""
        return TrajectoryTrace(self, trace_id)

    def next_id(self) -> int:
        """A fresh span id, unique within this tracer."""
        return next(self._ids)

    def adopt(self, spans: Sequence[Span]) -> List[Span]:
        """Fold one trajectory's finished spans into this tracer's buffer.

        Ids are re-assigned from this tracer's sequence (worker tracers start
        their own sequences at 1, so raw ids from two shards collide); parent
        links are remapped alongside.  A parent id that does not reference a
        span in ``spans`` is dropped to ``None`` — each trajectory's span list
        is self-contained, so this only guards against malformed input.
        """
        mapping = {span.span_id: self.next_id() for span in spans}
        adopted = [
            replace(
                span,
                span_id=mapping[span.span_id],
                parent_id=None if span.parent_id is None else mapping.get(span.parent_id),
            )
            for span in spans
        ]
        self.spans.extend(adopted)
        return adopted

    def traces(self) -> List[str]:
        """Distinct trace ids in collection order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_for(self, trace_id: str) -> List[Span]:
        """All collected spans of one trace, in finish order."""
        return [span for span in self.spans if span.trace_id == trace_id]


class TrajectoryTrace:
    """The open trace of one trajectory moving through an executor.

    Holds the open root span plus the finished stage spans; :meth:`close`
    seals the root and attaches the whole buffer to the trajectory's
    :class:`~repro.core.pipeline.PipelineResult`, which is the vehicle that
    carries worker-side spans back across the process-pool boundary.
    """

    def __init__(self, tracer: Tracer, trace_id: str) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self._root_id = tracer.next_id()
        self._root_start = time.time()
        self._root_started = time.perf_counter()
        self._spans: List[Span] = []

    def record(self, name: str, seconds: float, start: Optional[float] = None) -> None:
        """Add a child span for a duration the executor measured.

        Executors time stage bodies themselves (a chunk's stage run is shared
        out between its trajectories) and call this when the body has
        returned; the start timestamp is back-dated by the duration unless
        ``start`` (wall-clock seconds) is given.
        """
        self._spans.append(
            Span(
                trace_id=self.trace_id,
                span_id=self._tracer.next_id(),
                parent_id=self._root_id,
                name=name,
                start=time.time() - seconds if start is None else start,
                duration=seconds,
            )
        )

    def close(self) -> List[Span]:
        """Seal the root span; returns the trace's spans, root first."""
        root = Span(
            trace_id=self.trace_id,
            span_id=self._root_id,
            parent_id=None,
            name="trajectory",
            start=self._root_start,
            duration=time.perf_counter() - self._root_started,
        )
        spans = [root] + self._spans
        self._spans = []
        return spans


# ------------------------------------------------------------------ span trees
@dataclass
class SpanNode:
    """One node of a rebuilt span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)


def build_span_tree(spans: Sequence[Span]) -> Dict[str, List[SpanNode]]:
    """Rebuild per-trace span trees from a flat span list (e.g. a JSONL dump).

    Returns ``trace_id -> roots``; children keep span order.  Spans whose
    parent is missing from the input become roots of their trace, so a
    partial export still renders.
    """
    nodes = {span.span_id: SpanNode(span) for span in spans}
    forests: Dict[str, List[SpanNode]] = {}
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None and parent.span.trace_id == span.trace_id:
            parent.children.append(node)
        else:
            forests.setdefault(span.trace_id, []).append(node)
    return forests


def render_span_tree(spans: Sequence[Span]) -> str:
    """Human-readable indented rendering of the span trees in ``spans``."""
    lines: List[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        span = node.span
        lines.append(
            f"{'  ' * depth}{span.name}  {span.duration * 1e3:.3f} ms  "
            f"(span {span.span_id}, pid {span.pid})"
        )
        for child in node.children:
            walk(child, depth + 1)

    for trace_id, roots in build_span_tree(spans).items():
        lines.append(f"trace {trace_id}:")
        for root in roots:
            walk(root, 1)
    return "\n".join(lines)
