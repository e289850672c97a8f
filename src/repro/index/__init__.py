"""Spatial indexing substrate.

The paper indexes semantic regions, road segments and POIs with an R*-tree
([2] in the paper) so that each annotation layer touches only the geographic
objects near a GPS point.  The sources here are static, so the one index of
this package, :class:`FlatSpatialIndex`, is read-only and array-backed: packed
once from the source rows (Sort-Tile-Recursive levels for boxes and segments,
a flattened uniform grid for points) and queried for whole coordinate batches.
"""

from repro.index.flat import BatchQueryResult, FlatSpatialIndex

__all__ = ["FlatSpatialIndex", "BatchQueryResult"]
