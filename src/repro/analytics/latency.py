"""Per-stage latency profiling (Figure 17).

Figure 17 reports, per daily trajectory, the time spent in five stages:
computing episodes, storing episodes, map matching, storing the match results
and the landuse spatial join.  The executors record one sample per stage run
into each result's :class:`LatencyProfile`, which aggregates the samples and
exposes the mean per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: The five stages of Figure 17, in presentation order.
FIGURE17_STAGES: Sequence[str] = (
    "compute_episode",
    "store_episode",
    "map_match",
    "store_match_result",
    "landuse_join",
)


@dataclass
class LatencyProfile:
    """Collected latency samples per named stage (seconds)."""

    samples: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        """Record one sample for ``stage``."""
        if seconds < 0:
            raise ValueError("latency samples must be non-negative")
        self.samples.setdefault(stage, []).append(seconds)

    def merge(self, other: "LatencyProfile") -> None:
        """Fold another profile's samples into this one."""
        for stage, values in other.samples.items():
            self.samples.setdefault(stage, []).extend(values)

    def stages(self) -> List[str]:
        """Stages with at least one sample, in insertion order."""
        return list(self.samples.keys())

    def count(self, stage: str) -> int:
        """Number of samples for ``stage``."""
        return len(self.samples.get(stage, ()))

    def mean(self, stage: str) -> float:
        """Mean latency of ``stage`` in seconds (0 when unsampled)."""
        values = self.samples.get(stage, [])
        if not values:
            return 0.0
        return sum(values) / len(values)

    def total(self, stage: str) -> float:
        """Total time spent in ``stage``."""
        return sum(self.samples.get(stage, ()))

    def percentile(self, stage: str, fraction: float) -> float:
        """Nearest-rank percentile of ``stage`` latencies (0 when unsampled).

        ``fraction`` is in (0, 1]; the nearest-rank method returns an actual
        observed sample, which keeps tail numbers honest for the small
        per-trajectory sample counts of the Figure 17 benchmark.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        values = sorted(self.samples.get(stage, []))
        if not values:
            return 0.0
        rank = max(1, math.ceil(fraction * len(values)))
        return values[rank - 1]

    def p95(self, stage: str) -> float:
        """95th-percentile latency of ``stage`` (nearest rank)."""
        return self.percentile(stage, 0.95)

    def means(self) -> Dict[str, float]:
        """Mean latency per stage."""
        return {stage: self.mean(stage) for stage in self.samples}
