"""Order statistics and regression verdicts for the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles the benchmark may report, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def rule_percentile(n: int) -> Optional[float]:
    """The highest percentile on :data:`LADDER` with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for p in LADDER:
        # Round away float noise: 1000 samples leave exactly 10 past p99.
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            best = p
    return best


def percentile(values: Sequence[Optional[float]], p: float) -> float:
    """Linear interpolation between closest ranks; ``0.0`` when empty.

    ``None`` stands for a failed or refused operation and sorts as
    infinitely slow: it misses any latency limit.
    """
    xs = sorted(math.inf if v is None else v for v in values)
    if not xs:
        return 0.0
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[hi] == xs[lo]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """``better``, ``within bound``, ``worse`` or ``unresolved``.

    Unresolved: either side's interquartile spread exceeds the bound, so
    a difference of the bound's size could be noise -- unless every run
    of the change beats every run of the parent.  Worse: the change's
    median is worse than the parent's by more than the bound.  Better:
    it is better by more than the parent's own spread.  A side with a
    single run has no spread, so short of ``worse`` it is unresolved.
    """
    sign = 1.0 if better == "lower" else -1.0
    _, pm, _ = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pm == 0:
        return "within bound" if cm == 0 else "unresolved"
    beats_all = all(sign * c < sign * p for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound:
        return "better" if beats_all else "unresolved"
    worse_by = sign * (cm - pm) / abs(pm)
    if worse_by > bound:
        return "worse"
    if min(len(parent), len(change)) < 2:
        return "unresolved"
    if -worse_by > spread(parent):
        return "better"
    return "within bound"
