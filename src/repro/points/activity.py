"""Activity inference and trajectory classification (Equation 8).

Once stops carry POI-category annotations, two further semantics are derived:

* a human-readable *activity* label per stop (a category such as "feedings"
  maps to the activity "eating");
* the *trajectory category* of Equation 8: the category with the maximum total
  stop time over the trajectory, used in Figure 11's third column as a
  semantic classification of raw trajectories.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

#: Default mapping from POI top-category to the activity label used in stops.
ACTIVITY_BY_CATEGORY: Dict[str, str] = {
    "services": "errands",
    "feedings": "eating",
    "item sale": "shopping",
    "person life": "leisure",
    "unknown": "unknown",
    "home": "rest",
    "office": "work",
}


def activity_for_category(category: str) -> str:
    """Activity label for a POI category (falls back to the category itself)."""
    return ACTIVITY_BY_CATEGORY.get(category, category)


def trajectory_category(
    stop_categories: Sequence[str], stop_durations: Sequence[float]
) -> Optional[str]:
    """Equation 8: the category with maximum total stop time.

    ``stop_categories[i]`` is the POI category inferred for the i-th stop and
    ``stop_durations[i]`` its duration ``time_out - time_in``.  Returns None
    for trajectories without stops.
    """
    if len(stop_categories) != len(stop_durations):
        raise ValueError("categories and durations must have the same length")
    totals: Dict[str, float] = {}
    for category, duration in zip(stop_categories, stop_durations):
        totals[category] = totals.get(category, 0.0) + max(duration, 0.0)
    if not totals:
        return None
    return max(totals.items(), key=lambda pair: (pair[1], pair[0]))[0]


def category_distribution(labels: Sequence[str]) -> Dict[str, float]:
    """Normalised frequency of each label (used for the Figure 11 columns)."""
    if not labels:
        return {}
    counts: Dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    total = len(labels)
    return {label: count / total for label, count in counts.items()}
