"""Consistent-hash routing of object ids onto ingest shards.

All trajectories of one moving object must land on the same shard — per-object
sessions are stateful — so the router hashes the *object id*, never the event.
A consistent-hash ring (each shard owns ``replicas`` virtual nodes on a
64-bit circle) rather than a plain ``hash(id) % shards`` for two reasons:

* **stability** — Python's built-in ``hash`` of a string is salted per
  process; the ring uses ``blake2b``, so routing is deterministic across
  processes, restarts and machines (a load generator and a service agree on
  placement without sharing state);
* **elasticity** — growing the shard count from *n* to *n+1* remaps only
  ~1/(n+1) of the object universe instead of almost all of it, which keeps
  most per-object session state on its old shard across a resize.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List

from repro.core.errors import ConfigurationError

__all__ = ["ConsistentHashRing"]


def _ring_hash(key: str) -> int:
    """Stable 64-bit position of ``key`` on the ring."""
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Maps object ids to shard indexes via consistent hashing.

    Emitters reuse a small set of ids and the ring never changes after
    construction, so :meth:`shard_for` remembers its answers in a bounded
    dict (cleared when full) and hashes an id only the first time it is seen.
    """

    _MAX_CACHED = 4096

    def __init__(self, shard_count: int, replicas: int = 64):
        if shard_count < 1:
            raise ConfigurationError("shard_count must be at least 1")
        if replicas < 1:
            raise ConfigurationError("replicas must be at least 1")
        self.shard_count = shard_count
        self.replicas = replicas
        points: List[int] = []
        owners: Dict[int, int] = {}
        for shard in range(shard_count):
            for replica in range(replicas):
                point = _ring_hash(f"shard-{shard}-vnode-{replica}")
                # Ties are astronomically unlikely with 64-bit digests; keep
                # the first owner so the mapping is insertion-order stable.
                if point not in owners:
                    owners[point] = shard
                    points.append(point)
        points.sort()
        self._points = points
        self._owners = owners
        self._cache: Dict[str, int] = {}

    def shard_for(self, object_id: str) -> int:
        """The shard index owning ``object_id`` (stable across processes)."""
        shard = self._cache.get(object_id)
        if shard is None:
            index = bisect.bisect_right(self._points, _ring_hash(object_id))
            if index == len(self._points):  # wrap around the circle
                index = 0
            if len(self._cache) >= self._MAX_CACHED:
                self._cache.clear()
            shard = self._cache[object_id] = self._owners[self._points[index]]
        return shard

    def distribution(self, object_ids: List[str]) -> Dict[int, int]:
        """Objects per shard for a sample of ids (diagnostics and tests)."""
        counts: Dict[int, int] = {shard: 0 for shard in range(self.shard_count)}
        for object_id in object_ids:
            counts[self.shard_for(object_id)] += 1
        return counts
