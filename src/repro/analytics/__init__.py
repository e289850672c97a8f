"""Semantic Trajectory Analytics Layer.

Computes the aggregate statistics the paper reports: landuse/POI category
distributions (Figures 9, 11, 14), episode length distributions (Figures 12
and 13), storage compression (Section 5.2) and per-stage latency profiles
(Figure 17), plus the plain-text table/series renderers the benchmark harness
prints.
"""

from repro.analytics.distributions import (
    log_log_histogram,
    normalize_counts,
    top_k_categories,
)
from repro.analytics.compression import CompressionReport, compression_report
from repro.analytics.latency import LatencyProfile
from repro.analytics.statistics import (
    EpisodeStatistics,
    episode_statistics,
    per_user_summary,
)
from repro.analytics.places import FrequentPlace, FrequentPlaceMiner, label_home_and_work
from repro.analytics.patterns import (
    MobilityStatistics,
    SequencePattern,
    frequent_sequences,
    mobility_statistics,
    radius_of_gyration,
)
from repro.analytics.reporting import render_distribution_table, render_series, render_table

__all__ = [
    "log_log_histogram",
    "normalize_counts",
    "top_k_categories",
    "CompressionReport",
    "compression_report",
    "LatencyProfile",
    "EpisodeStatistics",
    "episode_statistics",
    "per_user_summary",
    "FrequentPlace",
    "FrequentPlaceMiner",
    "label_home_and_work",
    "MobilityStatistics",
    "SequencePattern",
    "frequent_sequences",
    "mobility_statistics",
    "radius_of_gyration",
    "render_distribution_table",
    "render_series",
    "render_table",
]
