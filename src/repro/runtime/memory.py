"""Memory-system effects: bandwidth saturation and placement locality.

The memory fraction of a region's time is exposed to two effects:

- **Bandwidth saturation.** The team demands
  ``bw_per_thread_gbps x active threads``; the placement determines the
  bandwidth actually reachable (bound teams reach the controllers of the
  NUMA nodes they occupy, unbound teams reach a scattered
  ``unbound_bw_efficiency`` of the machine).  Past saturation the time
  dilates by the demand ratio plus a machine-specific *superlinear*
  congestion term — fabric queueing — which is what makes thread-count
  tuning pay off on Milan (NPS4, gamma = 3) but not on Skylake or the
  HBM-fed A64FX.
- **Migration locality.** Unbound teams drift off their first-touch NUMA
  node; latency-sensitive (``random_access``) regions pay the machine's
  average remote-access premium weighted by a migration exposure that
  grows with the number of NUMA domains (many small domains churn more).
"""

from __future__ import annotations

from repro.arch.topology import MachineTopology
from repro.runtime.affinity import ThreadPlacement
from repro.runtime.costs import RuntimeCosts

__all__ = [
    "available_bandwidth_gbps",
    "migration_exposure",
    "memory_time_factor",
]

#: Scheduler NUMA-affinity half-saturation constant: machines with about
#: this many NUMA domains see ~50% migration exposure.
_SCHED_AFFINITY_STRENGTH = 6.0


def available_bandwidth_gbps(
    placement: ThreadPlacement, costs: RuntimeCosts
) -> float:
    """Memory bandwidth the team can actually draw on."""
    m = placement.machine
    if placement.bound:
        return placement.n_numa_used * m.mem_bw_per_numa_gbps
    return costs.unbound_bw_efficiency * m.total_mem_bw_gbps


def migration_exposure(machine: MachineTopology) -> float:
    """Fraction of runtime an unbound thread spends off its data's node.

    Grows with NUMA-domain count: Linux keeps threads near their memory on
    a 2-node Skylake far better than across Milan's 8 small nodes.
    """
    n = machine.n_numa
    if n <= 1:
        return 0.0
    random_fraction = (n - 1) / n
    scheduler_churn = n / (n + _SCHED_AFFINITY_STRENGTH)
    return random_fraction * scheduler_churn


def memory_time_factor(
    placement: ThreadPlacement,
    costs: RuntimeCosts,
    bw_per_thread_gbps: float,
    random_access: bool,
) -> float:
    """Multiplier on a region's memory-time fraction (>= 1).

    Combines the saturation dilation and, for latency-sensitive access,
    the unbound-migration premium.
    """
    factor = 1.0
    m = placement.machine

    if bw_per_thread_gbps > 0.0:
        demand = bw_per_thread_gbps * placement.effective_parallelism
        avail = available_bandwidth_gbps(placement, costs)
        ratio = demand / max(avail, 1e-9)
        if ratio > 1.0:
            factor *= ratio + costs.congestion_gamma * (ratio - 1.0) ** 2

    if random_access and not placement.bound:
        exposure = migration_exposure(m)
        remote_premium = m.mean_numa_distance() - 1.0
        factor *= 1.0 + exposure * remote_premium

    return factor
