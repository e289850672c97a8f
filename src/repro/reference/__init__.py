"""Reference implementations: the oracles the tests compare the product against.

Every kernel of the product has one implementation (see the README section
"Performance — what runs").  Where that implementation is an array kernel, the per-point
form it must reproduce lives here:

* :class:`~repro.reference.map_matching.ScalarMapMatcher` — Algorithm 2 as one
  R-tree query and one dict-based score aggregation per point;
* :func:`~repro.reference.stops.velocity_stop_flags` — the velocity policy's
  flags from per-point motion features, and
  :class:`~repro.reference.stops.ScalarStopMoveDetector`, the segmentation
  built on them.

Nothing under ``src/repro`` outside this package may import it (CI greps for
that); ``tests/`` and ``benchmarks/`` do.  A test that wants the whole pipeline
on the oracle hands its own annotators to
``SeMiTriPipeline.annotate_many(..., annotators=LayerAnnotators(...))``.
"""

from repro.reference.map_matching import ScalarMapMatcher
from repro.reference.stops import ScalarStopMoveDetector, velocity_stop_flags

__all__ = ["ScalarMapMatcher", "ScalarStopMoveDetector", "velocity_stop_flags"]
