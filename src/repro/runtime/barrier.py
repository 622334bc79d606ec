"""Fork/join and wait-policy costs (``KMP_BLOCKTIME`` / ``KMP_LIBRARY``).

Models the lifecycle around every parallel region:

- **fork**: the master releases the team.  If the workers fell asleep
  during the preceding serial gap (gap longer than ``KMP_BLOCKTIME`` under
  passive waiting), the fork pays a tree of futex wakes.
- **join**: a log-depth barrier; active (spinning) waiters notice the last
  arrival faster than passive (yielding) ones.
- **spin tax**: with an infinite blocktime the team spins through serial
  gaps.  That is free when every thread owns its core, but once any team
  thread shares the master's core, the master's serial work is slowed by
  the competing spinner.
"""

from __future__ import annotations

import math

from repro.arch.costs import RuntimeCosts
from repro.runtime.affinity import ThreadPlacement
from repro.runtime.icv import WaitPolicy

__all__ = ["fork_seconds", "join_seconds", "serial_gap_seconds", "workers_asleep"]

#: Relative barrier latency of active (spin) vs passive (yield) waiting.
ACTIVE_BARRIER_FACTOR = 0.6
PASSIVE_BARRIER_FACTOR = 1.0


def workers_asleep(
    wait_policy: WaitPolicy, blocktime_ms: float | None, gap_seconds: float
) -> bool:
    """Whether the team slept during a serial gap of ``gap_seconds``.

    Active waiters never sleep (their ``blocktime_ms`` is not read);
    passive waiters sleep once the gap exceeds the blocktime.
    """
    if wait_policy is WaitPolicy.ACTIVE:
        return False
    return gap_seconds > blocktime_ms * 1e-3


def fork_seconds(
    nthreads: int,
    costs: RuntimeCosts,
    team_sleeping: bool,
) -> float:
    """Cost of activating a team of ``nthreads`` for one region."""
    base = (costs.fork_base_us * 1e-6
            + costs.fork_per_thread_us * 1e-6 * nthreads)
    if team_sleeping and nthreads > 1:
        # Tree wake: each level's futex wakes proceed in parallel, so the
        # critical path is one wake per level.
        base += costs.wake_latency_us * 1e-6 * math.ceil(math.log2(nthreads))
    return base


def join_seconds(
    wait_policy: WaitPolicy,
    placement: ThreadPlacement,
    costs: RuntimeCosts,
) -> float:
    """Cost of the end-of-region barrier."""
    T = placement.nthreads
    if T == 1:
        return 0.0
    factor = (
        ACTIVE_BARRIER_FACTOR
        if wait_policy is WaitPolicy.ACTIVE
        else PASSIVE_BARRIER_FACTOR
    )
    levels = math.ceil(math.log2(T))
    base = costs.barrier_step_us * 1e-6 * levels * factor
    # Oversubscribed teams straggle into barriers: the slowest thread's
    # core is timeshared, stretching every rendezvous.
    over = placement.max_oversubscription
    if over > 1:
        base *= over
    return base


def serial_gap_seconds(
    wait_policy: WaitPolicy,
    placement: ThreadPlacement,
    gap_seconds: float,
) -> float:
    """Wall time of a serial gap of nominal length ``gap_seconds``.

    Spinning teammates sharing the master's core steal cycles from the
    serial section; passive waiters yield and cost (almost) nothing.
    """
    if gap_seconds <= 0.0:
        return 0.0
    if wait_policy is WaitPolicy.PASSIVE:
        return gap_seconds
    if not placement.bound:
        # Unbound spinners drift away from the master quickly; the OS keeps
        # interference minor.
        return gap_seconds * (
            1.05 if placement.nthreads > placement.machine.n_cores else 1.0
        )
    # Active waiting: team threads co-located with the master core.
    return gap_seconds * placement.master_core_sharers
