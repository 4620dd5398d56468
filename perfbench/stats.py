"""Order statistics shared by the runner and the comparison mode."""

from __future__ import annotations

import math
import statistics

# a tail percentile is reported only where this many samples lie beyond it
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_SAMPLES of n samples beyond it.

    With nearest-rank percentiles, the p-th percentile of n samples is the
    sample of rank ceil(p * n / 100), so n - rank samples lie beyond it.
    """
    if n <= TAIL_SAMPLES:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_SAMPLES} beyond it")
    return 100.0 * (n - TAIL_SAMPLES) / n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
