"""Distribution helpers for the analytics layer.

Small, dependency-free helpers that turn raw counts into the normalised
distributions, top-k lists and log-log histograms shown in Figures 9, 11, 12
and 14 of the paper.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def normalize_counts(counts: Dict[str, int]) -> Dict[str, float]:
    """Turn a category -> count mapping into fractions summing to 1."""
    total = sum(counts.values())
    if total <= 0:
        return {key: 0.0 for key in counts}
    return {key: value / total for key, value in counts.items()}


def top_k_categories(counts: Dict[str, int], k: int = 5) -> List[Tuple[str, float]]:
    """The ``k`` most frequent categories with their normalised share.

    Figure 14 lists the top-5 landuse categories per user; ties are broken by
    category code so the output is deterministic.
    """
    fractions = normalize_counts(counts)
    ordered = sorted(fractions.items(), key=lambda pair: (-pair[1], pair[0]))
    return ordered[:k]


def log_log_histogram(
    values: Sequence[int], base: float = 10.0
) -> List[Tuple[float, int]]:
    """Histogram of ``values`` over logarithmic bins (Figure 12).

    Each bin covers one order of magnitude ``[base^k, base^(k+1))``; the
    returned pairs are ``(bin lower bound, count)`` with empty bins omitted.
    Zero or negative values are counted in the first bin.
    """
    if base <= 1:
        raise ValueError("base must exceed 1")
    bins: Dict[int, int] = {}
    for value in values:
        if value <= 0:
            exponent = 0
        else:
            exponent = int(math.floor(math.log(value, base)))
        bins[exponent] = bins.get(exponent, 0) + 1
    return [(base ** exponent, count) for exponent, count in sorted(bins.items())]


def cumulative_share(counts: Dict[str, int], categories: Sequence[str]) -> float:
    """Combined share of the listed categories (e.g. building + transport areas).

    Used to check claims such as "nearly 83 % of taxi GPS points fall in
    building and transportation areas" (Figure 9) and the 61 % figure of
    Section 5.3 for people trajectories.
    """
    fractions = normalize_counts(counts)
    return sum(fractions.get(category, 0.0) for category in categories)
