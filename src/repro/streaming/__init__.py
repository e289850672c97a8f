"""Streaming annotation subsystem: SeMiTri over live GPS event streams.

The batch pipeline of Figure 2 assumes complete trajectories; this package
annotates them *as points arrive* while provably reproducing the batch
results on the same stream:

* :class:`~repro.streaming.cleaning.StreamingGpsCleaner` — online outlier
  removal and smoothing with bounded lookahead;
* :class:`~repro.streaming.stops.IncrementalStopMoveDetector` — emits stop
  and move episodes the moment no future point can change them;
* :class:`~repro.streaming.session.SessionManager` /
  :class:`~repro.streaming.session.Session` — per-object mutable state with
  gap-based trajectory close-out and LRU eviction.

These are the incremental building blocks only.  The loop that drives them —
micro-batching events, routing sealed episodes to the annotation layers and
persisting through the semantic trajectory store — is
:class:`repro.engine.MicroBatchExecutor`, which :func:`repro.api.stream`
builds and returns.
"""

from repro.streaming.cleaning import StreamingGpsCleaner
from repro.streaming.session import (
    OpenTrajectory,
    SealedTrajectory,
    Session,
    SessionManager,
)
from repro.streaming.stops import IncrementalStopMoveDetector

__all__ = [
    "IncrementalStopMoveDetector",
    "OpenTrajectory",
    "SealedTrajectory",
    "Session",
    "SessionManager",
    "StreamingGpsCleaner",
]
