"""Annotation-as-a-service: asyncio ingest tier over the stage-graph engine.

The package has five small parts:

* :mod:`repro.service.routing` — consistent-hash placement of object ids on
  shards (stable across processes, elastic under resharding);
* :mod:`repro.service.service` — :class:`AnnotationService`, the router: the
  asyncio front end multiplexing many concurrent GPS streams onto shards
  with bounded queues, explicit backpressure, the ingest journal, the one
  fold every shard ack goes through, and a drain path whose output is
  canonically identical to a sequential batch run;
* :mod:`repro.service.shard` — the shard protocol: the one ``ShardCore``
  (absorb a micro-batch, seal, close out, ack) and the in-process transport
  that runs it on the event loop, operations passed by reference;
* :mod:`repro.service.workers` — the process transport: the same core in one
  worker process per shard, handed the service's
  :class:`~repro.parallel.context.GeoContext`, fed batched pre-encoded event
  frames over pipes (this is what lets throughput scale past the GIL), plus
  worker-loss recovery from the journal;
* :mod:`repro.service.http` — an optional stdlib-only HTTP facade
  (``POST /ingest``, ``GET /metrics``, …) for emitters that speak JSON over
  a socket instead of calling into the process.
"""

from repro.service.http import HttpIngestServer
from repro.service.routing import ConsistentHashRing
from repro.service.service import AnnotationService, ServiceStats

__all__ = [
    "AnnotationService",
    "ConsistentHashRing",
    "HttpIngestServer",
    "ServiceStats",
]
