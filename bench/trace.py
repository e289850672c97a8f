"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into each
layer (the program itself is not instrumented here).  A span is ``(id, parent,
trace id, name, start, end)``; spans of one trajectory, object or batch share
the trace id.  Everything stays in memory until :meth:`SpanRecorder.write_jsonl`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, str, float, float]


class SpanRecorder:
    """Collects spans; self time = duration minus the part child spans cover."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self, name: str, trace_id: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        """Record a finished span and return its id."""
        span_id = len(self.spans)
        self.spans.append((span_id, parent, trace_id, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, trace_id: str, parent: Optional[int] = None) -> Iterator[int]:
        """Time the block; the yielded id is the parent for spans opened inside."""
        span_id = len(self.spans)
        self.spans.append((span_id, parent, trace_id, name, 0.0, 0.0))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans[span_id] = (span_id, parent, trace_id, name, start, time.perf_counter())

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``, in recording order."""
        return [end - start for _, _, _, span_name, start, end in self.spans if span_name == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the interval children cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        """One span per line: id, parent, trace, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "trace", "name", "start", "end")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
