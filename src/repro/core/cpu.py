"""CPU topology helpers shared by the runtime, benchmarks and CI gates.

``os.cpu_count()`` reports the machine's cores, not the cores *this process
may use*: under cgroup quotas, ``taskset`` pinning or container CPU limits the
two diverge, and sizing a worker pool from the machine count oversubscribes
the actual allowance.  Every consumer — the batch executor's worker default,
the benchmark sidecars, the CI speedup gates — goes through
:func:`effective_cpu_count` so they all agree on the same affinity-aware
number.
"""

from __future__ import annotations

import os

__all__ = ["effective_cpu_count"]


def effective_cpu_count() -> int:
    """Number of CPUs the current process is actually allowed to run on.

    Uses the scheduler affinity mask where the platform exposes one (Linux),
    falling back to :func:`os.cpu_count` elsewhere; always at least 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)
