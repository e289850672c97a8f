"""Reference implementations: the oracles the tests compare the product against.

Every kernel of the product has one implementation (see the README section
"Performance — what runs").  Where that implementation is an array kernel or a
column scan, the per-point form it must reproduce lives here:

* :class:`~repro.reference.rtree.RTree` and
  :class:`~repro.reference.grid_index.GridIndex` — the pure-Python STR-loaded
  R-tree and hash grid that answer one query at a time, and
  :func:`~repro.reference.flat_compile.from_rtree` /
  :func:`~repro.reference.flat_compile.from_grid`, which compile them into the
  layout :class:`~repro.index.flat.FlatSpatialIndex` packs directly from the
  source rows;
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
on the oracle hands its own annotators to
``SeMiTriPipeline.annotate_many(..., annotators=LayerAnnotators(...))``.
"""

from repro.reference.cleaning import (
    ScalarGpsCleaner,
    ScalarTrajectoryIdentifier,
    ingest_points,
    smooth_per_point,
)
from repro.reference.flat_compile import from_grid, from_rtree
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
    "from_grid",
    "from_rtree",
    "ingest_points",
    "smooth_per_point",
    "velocity_stop_flags",
]
