"""CPU-speed probe: a fixed pure-Python loop timed between operations.

The reference host (a two-vCPU virtual machine) runs single-threaded
Python up to about 1.9 times slower for minutes at a time, while other
tenants load it.  A run of a few seconds can sit wholly in such a phase,
so no estimator over the run's own timings (median, best-of-N) removes
it.  The probe slows down with the host: the workloads time it just
before and just after each timed stretch (never inside a timed
interval) and divide the stretch's times by the mean of the probes over
:data:`REFERENCE_S`.  The probe is benchmark code, not program code, so
a change to the program never moves it.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence

#: The probe's time on the reference host when nothing else loads it;
#: a scaled figure reads as the one measured at that speed.
REFERENCE_S = 0.0105
#: Iterations of the probe loop (about ``REFERENCE_S`` of work).
ITERATIONS = 150_000


def probe() -> float:
    """Seconds the probe loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def bracket(before: float) -> float:
    """The probe time that stands for a stretch which ran between a
    probe of ``before`` seconds and now: the mean of it and a new one."""
    return (before + probe()) / 2.0


def slowdown(probes: Sequence[float]) -> float:
    """How much slower than the reference the host ran during a run:
    the median probe time over :data:`REFERENCE_S` (1.0 without
    probes)."""
    if not probes:
        return 1.0
    return statistics.median(probes) / REFERENCE_S
