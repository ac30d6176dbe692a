"""Quantiles as the benchmark reports them."""

from __future__ import annotations

import math
import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def pct(values, q: float) -> float:
    """The *q* quantile (nearest rank); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(max(math.ceil(q * len(ordered)) - 1, 0), len(ordered) - 1)])


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile, at most p99, that
    leaves at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (float(ordered[-1]) if ordered else 0.0), 100.0
    index = min(n - TAIL_BEYOND - 1, math.ceil(0.99 * n) - 1)
    return float(ordered[index]), 100.0 * (index + 1) / n


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
