"""Spatial indexing substrate.

The paper indexes semantic regions, road segments and POIs with an R*-tree
([2] in the paper) so that each annotation layer touches only the geographic
objects near a GPS point.  The sources here are static, so the one index of
this package, :class:`FlatSpatialIndex`, is read-only and array-backed: the
source rows' coordinate columns in source order (boxes, segments with their
endpoints, points as zero-size boxes), queried for whole coordinate batches
through a lazily built uniform-grid cell table, or by a columnar scan.
"""

from repro.index.flat import BatchQueryResult, FlatSpatialIndex

__all__ = ["FlatSpatialIndex", "BatchQueryResult"]
