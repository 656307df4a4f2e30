"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def supported_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples above it.

    With ``n`` samples the nearest-rank ``q``-th percentile is sample
    number ``ceil(q/100 * n)``; ``n - ceil(q/100 * n) >= MIN_BEYOND`` holds
    for every ``q <= 100 * (n - MIN_BEYOND) / n``. ``None`` when ``n`` is
    too small to put that many samples above any percentile.
    """
    if n <= MIN_BEYOND:
        return None
    return 100.0 * (n - MIN_BEYOND) / n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread a bound must cover."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
