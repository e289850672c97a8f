"""Semantic Region Annotation Layer (Section 4.1, Algorithm 1).

Annotates trajectories and episodes with regions of interest via spatial
joins, using the landuse ontology of Figure 4 as the default categorisation of
space.
"""

from repro.regions.landuse import (
    LANDUSE_CATEGORIES,
    LANDUSE_TOP_LEVELS,
    LanduseCategory,
    landuse_category,
)
from repro.regions.sources import RegionSource
from repro.regions.annotator import RegionAnnotator

__all__ = [
    "LANDUSE_CATEGORIES",
    "LANDUSE_TOP_LEVELS",
    "LanduseCategory",
    "landuse_category",
    "RegionSource",
    "RegionAnnotator",
]
