"""Discrete-event simulation engine.

A small, deterministic, simpy-flavoured kernel used by the runtime model:

- :mod:`~repro.desim.engine` — event heap, generator-based processes,
  :class:`~repro.desim.engine.Timeout` / :class:`~repro.desim.engine.Event`,
- :mod:`~repro.desim.resources` — :class:`~repro.desim.resources.Lock`
  and :class:`~repro.desim.resources.Barrier` built on the kernel,
- :mod:`~repro.desim.stealing` — a work-stealing task-pool simulator used
  as the high-fidelity execution mode for task-parallel regions (BOTS) and
  as ground truth for validating the fast analytic task model.

Determinism: the event heap breaks time ties by a documented total order
(time, priority, insertion sequence; see :mod:`~repro.desim.engine`), and
all randomness flows through explicit ``numpy`` generators, so a given
seed always produces the same trajectory.  The concurrency sanitizer
(:mod:`repro.sanitize`) perturbs the same-timestamp order via
:func:`~repro.desim.engine.tiebreak_scope` to prove results do not depend
on it.
"""

from repro.desim.engine import (
    Engine,
    Event,
    Process,
    Timeout,
    ambient_tiebreak_seed,
    tiebreak_scope,
)
from repro.desim.resources import Barrier, Lock
from repro.desim.stealing import SpawnTree, StealResult, WorkStealingSimulator
from repro.desim.loopsim import LoopSimResult, simulate_loop

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "Lock",
    "Barrier",
    "SpawnTree",
    "StealResult",
    "WorkStealingSimulator",
    "LoopSimResult",
    "simulate_loop",
    "ambient_tiebreak_seed",
    "tiebreak_scope",
]
