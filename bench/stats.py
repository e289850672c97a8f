"""Exact percentiles, the supported-percentile rule, interference correction and
resource readings."""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is supported when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The exact (nearest-rank) ``q``-th percentile: always a measured sample."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def supported_percentile(count: int, ladder: Sequence[float] = PERCENTILE_LADDER) -> float:
    """Highest percentile of ``ladder`` with >= ``SAMPLES_BEYOND`` samples beyond it.

    Timings are reported as the median plus this percentile; below 20 samples
    nothing but the median is supported, so the median is returned.
    """
    best = 50.0
    for q in ladder:
        if count * (100.0 - q) >= SAMPLES_BEYOND * 100.0 - 1e-6:
            best = max(best, q)
    return best


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def mean(values: Iterable[float]) -> float:
    return statistics.fmean(values)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's steadiness test)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


# ------------------------------------------------------------- interference correction
#: Seconds :func:`kernel_seconds` takes on the reference machine (2-vCPU Xeon
#: 2.1 GHz sandbox, CPython 3.11, numpy 2.4) when nothing interferes.
NOMINAL_KERNEL_S = 0.0075

_KERNEL_VECTOR = np.linspace(0.0, 1.0, 256)


def kernel_seconds() -> float:
    """Time a fixed synthetic kernel: interpreter work plus small numpy calls.

    It shares no code with the program, so nothing a PR does to the program
    moves it; what moves it is the machine (a co-tenant on the sibling
    hyper-thread slows it by up to 2x for 5-60 s at a time).
    """
    started = time.perf_counter()
    total, table = 0.0, {}
    for index in range(26_000):
        total += math.sqrt(index * 1.5) + (index % 7)
        table[index & 255] = total
    for _ in range(800):
        scaled = _KERNEL_VECTOR * _KERNEL_VECTOR + _KERNEL_VECTOR
        scaled.sum()
        np.argsort(scaled[:64])
    return time.perf_counter() - started


def bracketed(body: Callable[[], T]) -> Tuple[T, float]:
    """Run ``body`` between two kernel timings.

    Returns its value and the machine's slowdown around it: the mean of the
    two timings over the nominal one.
    """
    before = kernel_seconds()
    value = body()
    return value, (before + kernel_seconds()) / 2.0 / NOMINAL_KERNEL_S


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def own_peak_rss_mb() -> float:
    """This process's maximum resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: Optional[int]) -> float:
    """``VmHWM`` of a live process in MiB (0 when it is gone or unreadable)."""
    if pid is None:
        return 0.0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
