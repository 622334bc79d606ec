"""Discrete-event simulators of the runtime's schedulers.

- :mod:`~repro.desim.loopsim` — a per-chunk simulation of self-scheduled
  worksharing loops (a FIFO dispatch lock over a shared chunk counter),
  the ground truth for the analytic loop-schedule model,
- :mod:`~repro.desim.stealing` — a work-stealing task-pool simulator used
  as the high-fidelity execution mode for task-parallel regions (BOTS) and
  as ground truth for validating the fast analytic task model.

Determinism: each simulator is a flat heap of ``(time, sequence, ...)``
entries, so same-time ties break by a documented insertion order, and all
randomness flows through explicit ``numpy`` generators: a given seed
always produces the same trajectory.
"""

from repro.desim.loopsim import LoopSimResult, simulate_loop
from repro.desim.stealing import SpawnTree, StealResult, WorkStealingSimulator

__all__ = [
    "SpawnTree",
    "StealResult",
    "WorkStealingSimulator",
    "LoopSimResult",
    "simulate_loop",
]
