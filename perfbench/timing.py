"""Timing summaries: median, tail percentile and how well the tail is resolved.

A tail percentile is only worth printing when enough samples lie beyond
it; with fewer than ``MIN_BEYOND`` samples past the p90 rank, a single
outlier decides the value, so :func:`summarize` marks it unresolved.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class TimingSummary:
    """Median and p90 of one timing series, with its sample counts."""

    median: float
    p90: float | None
    n: int
    n_beyond_p90: int

    @property
    def p90_resolved(self) -> bool:
        return self.p90 is not None

    def describe(self, unit: str, scale: float = 1.0) -> str:
        """One line: ``p50 ... p90 ... (n=.., ..beyond p90)``."""
        p90 = (f"{self.p90 * scale:.4g} {unit}" if self.p90 is not None
               else "unresolved")
        return (f"p50 {self.median * scale:.4g} {unit}  p90 {p90}  "
                f"(n={self.n}, {self.n_beyond_p90} beyond p90)")


def min_samples(min_beyond: int = MIN_BEYOND, q: float = 0.9) -> int:
    """Smallest sample count whose ``q`` percentile is resolved."""
    n = 1
    while n - math.ceil(q * n) < min_beyond:
        n += 1
    return n


def summarize(samples: Sequence[float], q: float = 0.9,
              min_beyond: int = MIN_BEYOND) -> TimingSummary:
    """Summarize ``samples``; the ``q`` percentile is the nearest-rank
    value, left as None when fewer than ``min_beyond`` samples lie past
    its rank."""
    if not samples:
        raise ValueError("cannot summarize an empty timing series")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q * n)  # 1-based nearest rank
    beyond = n - rank
    p90 = ordered[rank - 1] if beyond >= min_beyond else None
    return TimingSummary(statistics.median(ordered), p90, n, beyond)
