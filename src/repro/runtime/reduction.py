"""Cross-thread reduction cost model (``KMP_FORCE_REDUCTION``).

libomp combines per-thread partial results with one of three methods
(Sec. III-6):

- ``tree``: pairwise combining over ``ceil(log2 T)`` rounds — each round
  is a partner cache-line transfer,
- ``critical``: every thread enters one critical section — ``T`` serialized
  lock handoffs,
- ``atomic``: every thread issues an atomic RMW per reduction variable on a
  shared line — cheap per op but the line ping-pongs, so cost grows mildly
  superlinearly with the team,
- the unset heuristic resolves to none/critical/tree by team size (handled
  during ICV resolution).

Cross-socket teams pay a distance multiplier on line transfers.
"""

from __future__ import annotations

import math

from repro.arch.costs import RuntimeCosts
from repro.errors import ConfigError
from repro.runtime.affinity import ThreadPlacement
from repro.runtime.icv import ReductionMethod, ResolvedICVs

__all__ = ["reduction_seconds"]


def _team_distance_factor(placement: ThreadPlacement) -> float:
    """Line-transfer multiplier for the team's hardware spread.

    1.0 for a single-LLC team, rising toward the machine's cross-socket
    penalty as the team spans more sockets/NUMA nodes.
    """
    m = placement.machine
    if placement.nthreads == 1:
        return 1.0
    n_sockets_used = int(len(set(placement.sockets.tolist())))
    n_numa_used = placement.n_numa_used
    if n_sockets_used > 1:
        return 0.5 * (1.0 + m.numa_penalty_cross_socket)
    if n_numa_used > 1:
        return 0.5 * (1.0 + m.numa_penalty_same_socket)
    return 1.0


def reduction_seconds(
    icvs: ResolvedICVs,
    placement: ThreadPlacement,
    costs: RuntimeCosts,
    n_vars: int,
) -> float:
    """Seconds one region-end reduction of ``n_vars`` scalars takes."""
    if n_vars < 0:
        raise ConfigError(f"negative reduction variable count {n_vars}")
    if n_vars == 0:
        return 0.0
    T = icvs.nthreads
    method = icvs.reduction
    if T == 1 or method is ReductionMethod.NONE:
        return 0.0
    dist = _team_distance_factor(placement)

    if method is ReductionMethod.TREE:
        rounds = math.ceil(math.log2(T))
        # All variables ride the same partner exchange; extra vars add a
        # small per-var combine cost.
        per_round = costs.tree_step_us * 1e-6 * dist
        return rounds * per_round * (1.0 + 0.15 * (n_vars - 1))

    if method is ReductionMethod.CRITICAL:
        # T serialized handoffs of the lock line, combining all vars inside.
        handoff = costs.critical_ns * 1e-9 * dist
        return T * handoff * (1.0 + 0.10 * (n_vars - 1))

    if method is ReductionMethod.ATOMIC:
        # One contended RMW per thread per variable; the target line
        # ping-pongs, growing cost mildly with team size.
        rmw = costs.atomic_ns * 1e-9 * dist * (1.0 + 0.015 * T)
        return T * rmw * n_vars

    raise ConfigError(f"unresolved reduction method {method}")
