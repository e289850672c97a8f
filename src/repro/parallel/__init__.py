"""What the multi-core batch runtime shares between processes.

SeMiTri annotates each moving object's trajectories independently, which
makes per-object sharding the natural scale-out axis.  The sharding itself —
split, submit, recover, merge, commit — is
:class:`repro.engine.ProcessPoolExecutor` (reached through
``repro.api.annotate_many(..., workers=N)``); this package supplies what the
executor and the process-transport service ship to their workers, and the
equality they are tested against:

* :class:`~repro.parallel.context.GeoContext` — an immutable snapshot of the
  annotation sources, configuration and prebuilt layer annotators (frozen
  R-trees, POI grid, HMM), built once and shared with workers via ``fork``
  copy-on-write or, under any other start method, attached zero-copy through
  ``multiprocessing.shared_memory``;
* :mod:`~repro.parallel.shared` — :class:`SharedArrayBundle` and the
  :func:`share_context`/:func:`attach_context` pair that move the snapshot's
  contiguous numpy blocks (flat-index levels, CSR columns, the map matcher's
  id ranks) into one shared segment workers map read-only;
* :mod:`repro.parallel.canonical` — the byte-level equality every executor
  and transport is held to.
"""

from repro.parallel.canonical import (
    canonical_annotation,
    canonical_bytes,
    canonical_digest,
    canonical_episode,
    canonical_result,
    canonical_structured,
)
from repro.parallel.context import GeoContext
from repro.parallel.shared import (
    SharedArrayBundle,
    SharedContextSpec,
    SharedGeoContext,
    SharedManifest,
    attach_context,
    share_context,
)

__all__ = [
    "GeoContext",
    "SharedArrayBundle",
    "SharedContextSpec",
    "SharedGeoContext",
    "SharedManifest",
    "attach_context",
    "canonical_annotation",
    "canonical_bytes",
    "canonical_digest",
    "canonical_episode",
    "canonical_result",
    "canonical_structured",
    "share_context",
]
