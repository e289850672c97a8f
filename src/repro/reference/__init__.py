"""Reference implementations: the oracles the tests compare the product against.

Every kernel of the product has one implementation (see the README section
"Performance — what runs").  Where that implementation is an array kernel or a
column scan, the per-point form it must reproduce lives here:

* :class:`~repro.reference.rtree.RTree` and
  :class:`~repro.reference.grid_index.GridIndex` — the pure-Python R-tree and
  hash grid that answer one query at a time, ties in insertion order, which
  every query of :class:`~repro.index.flat.FlatSpatialIndex` (rows in source
  order) must reproduce;
* :class:`~repro.reference.map_matching.ScalarMapMatcher` — Algorithm 2 as one
  R-tree query and one dict-based score aggregation per point;
* :func:`~repro.reference.stops.velocity_stop_flags` — the velocity policy's
  flags from per-point motion features, and
  :class:`~repro.reference.stops.ScalarStopMoveDetector`, the segmentation
  built on them;
* :class:`~repro.reference.cleaning.ScalarGpsCleaner` (with the sliding-window
  loop :func:`~repro.reference.cleaning.smooth_per_point`) and
  :class:`~repro.reference.cleaning.ScalarTrajectoryIdentifier` — the outlier
  filter, smoother and gap split over point objects, and
  :func:`~repro.reference.cleaning.ingest_points`, the batch ingest built on
  them.

Nothing under ``src/repro`` outside this package may import it (CI greps for
that); ``tests/`` and ``benchmarks/`` do.  A test that wants the whole pipeline
on the oracle hands its own :class:`~repro.core.pipeline.LayerAnnotators` to
the one seam for a supplied bundle, the ``annotators`` argument of
:class:`~repro.parallel.context.GeoContext`, and runs
``repro.annotate_many(trajectories, context=...)`` on that snapshot.
"""

from repro.reference.cleaning import (
    ScalarGpsCleaner,
    ScalarTrajectoryIdentifier,
    ingest_points,
    smooth_per_point,
)
from repro.reference.grid_index import GridIndex
from repro.reference.map_matching import ScalarMapMatcher
from repro.reference.rtree import RTree, RTreeEntry
from repro.reference.stops import ScalarStopMoveDetector, velocity_stop_flags

__all__ = [
    "GridIndex",
    "RTree",
    "RTreeEntry",
    "ScalarGpsCleaner",
    "ScalarMapMatcher",
    "ScalarStopMoveDetector",
    "ScalarTrajectoryIdentifier",
    "ingest_points",
    "smooth_per_point",
    "velocity_stop_flags",
]
