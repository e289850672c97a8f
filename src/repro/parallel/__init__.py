"""What the multi-core batch runtime shares between processes.

SeMiTri annotates each moving object's trajectories independently, which
makes per-object sharding the natural scale-out axis.  The sharding itself —
split, hand out, recover, merge, commit — is
:class:`repro.engine.ProcessPoolExecutor` (reached through
``repro.api.annotate_many(..., workers=N)``); this package supplies the
worker processes of that executor and of the process-transport service,
what both ship to their workers, and the equality they are tested against:

* :class:`~repro.parallel.process.WorkerProcess` — the one way a worker
  process runs: the start method of ``mp_context()``, one request and one
  response pipe, no life past its parent; a dead worker is EOF on its own
  response pipe, which names the work it held;

* :class:`~repro.parallel.context.GeoContext` — an immutable snapshot of the
  annotation sources (each with its packed flat index), the configuration and
  the prebuilt layer annotators, built once and handed to every worker as a
  worker argument: inherited copy-on-write under ``fork``, pickled as the
  first message on the worker's request pipe under any other start method —
  one way across a process boundary, and nothing to release afterwards;
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
