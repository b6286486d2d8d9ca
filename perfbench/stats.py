"""Order statistics used in the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# percentiles considered for a latency tail, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # exact arithmetic: 99.9 / 100 * 10_000 must be 9990, not 9990.000000000002
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th value."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th value."""
    return n - _rank(n, p)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile of the ladder with at least ten samples beyond it.

    Returns (percentile, value), or None when even the median has fewer
    than ten samples beyond it.
    """
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if samples_beyond(len(ordered), p) >= MIN_BEYOND:
            return p, nearest_rank(ordered, p)
    return None


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf
