"""Order statistics with their sample counts."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Percentile:
    q: float
    value: float
    count: int  # samples the percentile was taken over
    beyond: int  # samples strictly after it in sorted order


def percentile(values, q: float) -> Percentile:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(Fraction(str(q)) * len(ordered) / 100))  # exact: no 9990.000...02
    return Percentile(q, ordered[rank - 1], len(ordered), len(ordered) - rank)


def median(values) -> float:
    return statistics.median(values)


def sum_of_medians(samples_per_job) -> float:
    """Sum over jobs of each job's median; jobs with no sample contribute nothing."""
    return sum(statistics.median(s) for s in samples_per_job if s)
