"""What the multi-core batch runtime shares between processes.

SeMiTri annotates each moving object's trajectories independently, which
makes per-object sharding the natural scale-out axis.  The sharding itself —
split, submit, recover, merge, commit — is
:class:`repro.engine.ProcessPoolExecutor` (reached through
``repro.api.annotate_many(..., workers=N)``); this package supplies what the
executor and the process-transport service ship to their workers, and the
equality they are tested against:

* :class:`~repro.parallel.context.GeoContext` — an immutable snapshot of the
  annotation sources (each with its packed flat index), the configuration and
  the prebuilt layer annotators, built once and handed to every worker as a
  process argument: inherited copy-on-write under ``fork``, pickled by
  ``multiprocessing`` under any other start method — one way across a
  process boundary, and nothing to release afterwards;
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
from repro.parallel.context import GeoContext, attach_context, share_context

__all__ = [
    "GeoContext",
    "attach_context",
    "canonical_annotation",
    "canonical_bytes",
    "canonical_digest",
    "canonical_episode",
    "canonical_result",
    "canonical_structured",
    "share_context",
]
