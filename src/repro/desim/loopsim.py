"""Self-scheduled loop execution at per-chunk granularity.

A per-chunk simulation of OpenMP worksharing-loop execution: workers grab
chunks from a shared counter behind a FIFO dispatch lock (the dispatch
serialization the analytic model approximates) and execute their
iterations' costs.  Chunk bounds come from
:func:`repro.runtime.schedule.iterate_chunks`, the same executable chunk
specification the ``schedule-chunk-coverage`` check validates against
the closed forms.

The simulation is flat: a heap of ``(time, sequence, worker)`` arrivals
at the dispatch lock, and the lock itself as the one time it next falls
free.  A worker arriving at ``t`` is granted at ``max(t, free_at)`` and
holds the lock for ``dispatch_time / speed``; it then runs the next chunk
or, once the counter is exhausted, retires.  Same-time arrivals are
granted in the order their chunks were handed out (the sequence), so
every trajectory is a pure function of the inputs.

Used as ground truth for :mod:`repro.runtime.schedule`'s closed forms —
tests check that the analytic balance factors and dispatch-contention
bounds track this simulation across schedules, chunk sizes, team sizes
and iteration-cost profiles.  For verification, :func:`simulate_loop`
accepts an ``on_chunk`` callback (fired once per executed chunk with its
bounds and timing); the ``repro.check`` iteration-coverage invariant
asserts every loop iteration is executed exactly once across all
reported chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.runtime.schedule import iterate_chunks

__all__ = ["LoopSimResult", "simulate_loop"]


@dataclass(frozen=True)
class LoopSimResult:
    """Outcome of one simulated loop execution."""

    makespan: float
    n_chunks: int
    #: Total time workers spent waiting on the dispatch lock.
    dispatch_wait: float
    #: Per-worker busy (iteration-executing) time.
    busy: tuple[float, ...]

    @property
    def total_work(self) -> float:
        """Aggregate iteration-executing time across workers."""
        return float(sum(self.busy))

    @property
    def imbalance(self) -> float:
        """max busy / mean busy (1.0 = perfectly balanced)."""
        mean = self.total_work / len(self.busy)
        return max(self.busy) / mean if mean > 0 else 1.0


def simulate_loop(
    iter_costs: np.ndarray,
    n_workers: int,
    schedule: str = "dynamic",
    chunk: int = 1,
    dispatch_time: float = 0.0,
    worker_speeds: np.ndarray | None = None,
    on_chunk: Callable[[int, int, int, float, float], None] | None = None,
) -> LoopSimResult:
    """Simulate one worksharing loop at per-chunk granularity.

    Parameters
    ----------
    iter_costs:
        Cost of each iteration (seconds).
    schedule:
        ``"static"`` (contiguous blocks, no dispatch; ``chunk`` ignored),
        ``"dynamic"`` (fixed ``chunk``), or
        ``"guided"`` (chunk = ceil(remaining / 2T), floored at ``chunk``).
    dispatch_time:
        Time the shared chunk counter is held per grab (serializes),
        scaled by the grabbing worker's speed.  The final grab that finds
        the counter exhausted is charged too.
    on_chunk:
        Optional instrumentation callback invoked once per executed chunk
        as ``on_chunk(worker, lo, hi, start_time, duration)`` — the
        half-open iteration range ``[lo, hi)`` the worker ran.
    """
    iter_costs = np.asarray(iter_costs, dtype=float)
    if iter_costs.ndim != 1 or iter_costs.shape[0] == 0:
        raise SimulationError("need a non-empty 1-D iteration-cost vector")
    if (iter_costs < 0).any():
        raise SimulationError("negative iteration costs")
    if n_workers < 1:
        raise SimulationError("need at least one worker")
    if schedule not in ("static", "dynamic", "guided"):
        raise SimulationError(f"unknown schedule {schedule!r}")
    if chunk < 1:
        raise SimulationError("chunk must be >= 1")
    speeds = (
        np.ones(n_workers)
        if worker_speeds is None
        else np.asarray(worker_speeds, dtype=float)
    )
    if speeds.shape != (n_workers,) or (speeds <= 0).any():
        raise SimulationError("worker_speeds must be positive, one per worker")
    speed = speeds.tolist()

    n = iter_costs.shape[0]
    prefix = np.concatenate([[0.0], np.cumsum(iter_costs)]).tolist()
    busy = [0.0] * n_workers
    makespan = 0.0

    if schedule == "static":
        # Worker w runs the w-th contiguous block, all starting at t=0.
        n_chunks = 0
        for w, (lo, hi) in enumerate(iterate_chunks("static", n, n_workers)):
            duration = (prefix[hi] - prefix[lo]) / speed[w]
            busy[w] = duration
            if on_chunk is not None:
                on_chunk(w, lo, hi, 0.0, duration)
            makespan = max(makespan, duration)
            n_chunks += 1
        return LoopSimResult(makespan, n_chunks, 0.0, tuple(busy))

    chunks = iterate_chunks(schedule, n, n_workers, chunk)
    arrivals = [(0.0, w, w) for w in range(n_workers)]
    seq = n_workers
    free_at = 0.0
    wait = 0.0
    n_chunks = 0
    while arrivals:
        t, _, w = heappop(arrivals)
        granted = max(t, free_at)
        wait += granted - t
        free_at = start = granted + dispatch_time / speed[w]
        bounds = next(chunks, None)
        if bounds is None:
            # The grab that finds the counter exhausted still held it.
            makespan = max(makespan, start)
            continue
        lo, hi = bounds
        n_chunks += 1
        duration = (prefix[hi] - prefix[lo]) / speed[w]
        busy[w] += duration
        if on_chunk is not None:
            on_chunk(w, lo, hi, start, duration)
        end = start + duration
        makespan = max(makespan, end)
        heappush(arrivals, (end, seq, w))
        seq += 1
    return LoopSimResult(makespan, n_chunks, wait, tuple(busy))
