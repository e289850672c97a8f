"""Storage compression reporting.

Section 5.2 reports that abstracting 3M GPS records into region-annotated
episodes achieves ~99.7 % storage compression (about 8,385 region tuples for
3M records).  :func:`compression_report` computes the same ratio for any
raw-record count versus semantic-tuple count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.trajectory import StructuredSemanticTrajectory


@dataclass(frozen=True)
class CompressionReport:
    """Raw record count, semantic tuple count and the resulting compression."""

    raw_records: int
    semantic_tuples: int

    @property
    def compression_ratio(self) -> float:
        """Fraction of storage saved: ``1 - tuples / records`` (0 when records = 0)."""
        if self.raw_records <= 0:
            return 0.0
        return max(0.0, 1.0 - self.semantic_tuples / self.raw_records)

    def as_percentage(self) -> float:
        """Compression ratio as a percentage (the 99.7 % figure of the paper)."""
        return 100.0 * self.compression_ratio


def compression_report(
    raw_record_count: int, structured: Sequence[StructuredSemanticTrajectory]
) -> CompressionReport:
    """Build a compression report from structured semantic trajectories."""
    tuples = sum(len(trajectory) for trajectory in structured)
    return CompressionReport(raw_records=raw_record_count, semantic_tuples=tuples)
