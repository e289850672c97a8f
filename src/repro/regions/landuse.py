"""The Swisstopo landuse ontology of Figure 4.

Four top-level categories (settlement/urban, agricultural, wooded,
unproductive) and seventeen sub-categories, identified by their paper codes
("1.1" ... "4.17").  The region-annotation benchmarks report distributions
over these codes exactly as Figure 9 and Figure 14 do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.errors import SourceError


@dataclass(frozen=True)
class LanduseCategory:
    """One landuse sub-category of the Swisstopo ontology."""

    code: str
    top_level: int
    label: str


LANDUSE_TOP_LEVELS: Dict[int, str] = {
    1: "Settlement and urban areas",
    2: "Agricultural areas",
    3: "Wooded areas",
    4: "Unproductive areas",
}

_CATEGORY_ROWS: Tuple[Tuple[str, int, str], ...] = (
    ("1.1", 1, "industrial and commercial area"),
    ("1.2", 1, "building areas"),
    ("1.3", 1, "transportation areas"),
    ("1.4", 1, "special urban areas"),
    ("1.5", 1, "recreational areas and cemeteries"),
    ("2.6", 2, "orchard, vineyard and horticulture areas"),
    ("2.7", 2, "arable land"),
    ("2.8", 2, "meadows, farm pastures"),
    ("2.9", 2, "alpine agricultural areas"),
    ("3.10", 3, "forest (except brush forest)"),
    ("3.11", 3, "brush forest"),
    ("3.12", 3, "woods"),
    ("4.13", 4, "lakes"),
    ("4.14", 4, "rivers"),
    ("4.15", 4, "unproductive vegetation"),
    ("4.16", 4, "bare land"),
    ("4.17", 4, "glaciers, perpetual snow"),
)

LANDUSE_CATEGORIES: Dict[str, LanduseCategory] = {
    code: LanduseCategory(code=code, top_level=level, label=label)
    for code, level, label in _CATEGORY_ROWS
}

ALL_LANDUSE_CODES: List[str] = [code for code, _, _ in _CATEGORY_ROWS]


def landuse_category(code: str) -> LanduseCategory:
    """Look up a landuse sub-category by its paper code (e.g. ``"1.2"``)."""
    try:
        return LANDUSE_CATEGORIES[code]
    except KeyError as error:
        raise SourceError(f"unknown landuse category code {code!r}") from error


def label_of(code: str) -> str:
    """Human-readable label of a landuse sub-category."""
    return landuse_category(code).label
