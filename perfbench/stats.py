"""Order statistics shared by the benchmark runner and its workloads.

Everything here is plain Python on lists of floats, so the unit tests
in ``perfbench/tests`` can pin the arithmetic without running a
workload.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "MIN_BEYOND",
    "TAIL_LADDER",
    "due_times",
    "median",
    "percentile",
    "tail_percentile",
]

#: samples that must lie strictly beyond a percentile before it may be
#: reported as a tail: fewer and one stall decides the number.
MIN_BEYOND = 10

#: percentiles a tail may be reported at, highest first.
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample at or below which at
    least ``fraction`` of the samples fall (``ceil(f * n) - 1`` as a
    zero-based index into the sorted samples)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return float(ordered[index])


def beyond(count: int, fraction: float) -> int:
    """Samples strictly above the nearest-rank ``fraction`` percentile
    of ``count`` samples (ranks, so ties do not change the count)."""
    return count - max(1, math.ceil(fraction * count))


def tail_percentile(values, preferred: float) -> tuple[float, float, bool]:
    """The reported tail: ``(fraction, value, qualified)``.

    Takes the highest ladder percentile at or below ``preferred`` that
    has at least :data:`MIN_BEYOND` samples beyond it. ``preferred`` is
    the workload's choice — the highest percentile that repeated within
    its bound between runs. When no ladder percentile qualifies (too few
    operations in the run) the maximum is reported with
    ``qualified=False``, so the caller can say so instead of passing a
    one-sample tail off as a percentile.
    """
    if not values:
        raise ValueError("tail of no samples")
    for fraction in TAIL_LADDER:
        if fraction > preferred:
            continue
        if beyond(len(values), fraction) >= MIN_BEYOND:
            return fraction, percentile(values, fraction), True
    return 1.0, float(max(values)), False


def due_times(start: float, rate: float, count: int) -> list[float]:
    """Send times of an open-loop source: item ``i`` is due at
    ``start + i / rate``, whatever happened to the items before it."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return [start + index / rate for index in range(count)]
