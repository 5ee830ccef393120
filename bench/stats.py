"""Order statistics the benchmark reports, and the rule for tail percentiles."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND_TAIL = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median with min, max, quartiles and the sample count beside it."""
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the contract's noise figure)."""
    q1, _, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in (0, 1] of an unsorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def tail_supported(count: int, p: float) -> bool:
    """True when at least ``SAMPLES_BEYOND_TAIL`` samples lie beyond percentile ``p``."""
    return count - math.ceil(p * count) >= SAMPLES_BEYOND_TAIL
