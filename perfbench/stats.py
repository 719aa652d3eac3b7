"""Small statistics helpers shared by the runner, the tracer and compare mode."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: percentiles the tail helper may report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(values, n=4)`` cuts them.

    A single value is its own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def tail_percentile(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """The highest reportable percentile and its value, or None.

    A percentile is reportable when at least ten samples lie beyond it,
    i.e. ``n * (1 - p/100) >= 10``; with fewer than 100 samples only the
    median is meaningful and this returns None.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            ordered = sorted(values)
            # nearest-rank percentile: the smallest value with at least
            # p% of the samples at or below it
            rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
            return p, ordered[rank - 1]
    return None


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
