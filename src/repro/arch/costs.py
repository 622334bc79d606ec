"""Runtime-internal cost constants: one table per machine.

A :class:`RuntimeCosts` calibrates the simulated libomp's primitive
operations on one machine; each machine carries its own as
:attr:`~repro.arch.topology.MachineTopology.costs`.  Magnitudes follow
published microbenchmark lore (EPCC OpenMP microbenchmarks, futex wake
latencies, cache-line transfer costs) with two architecture-level
regularities that drive the paper's shapes:

- **A64FX** has weak scalar cores and slow syscall/futex paths, so anything
  involving the OS (passive waiting, wakes after blocktime) is several times
  more expensive than on the x86 servers — the root of NQueens' huge
  ``KMP_LIBRARY=turnaround`` win there,
- **Milan**'s many small NUMA domains give it a high memory-congestion
  exponent: oversaturating its per-NUMA bandwidth degrades superlinearly,
  which is why thread-count/binding tuning pays most on Milan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["RuntimeCosts", "TIME_COST_FIELDS", "scale_costs"]


@dataclass(frozen=True)
class RuntimeCosts:
    """Primitive-operation costs for one machine (microseconds unless noted)."""

    #: Fork: team activation base cost and per-thread release cost.
    fork_base_us: float
    fork_per_thread_us: float
    #: Join barrier: per-tree-level cost (multiplied by log2(T)).
    barrier_step_us: float
    #: Futex wake of one sleeping worker (amortized over a tree wake).
    wake_latency_us: float
    #: Dynamic-schedule chunk grab (uncontended), nanoseconds.
    dispatch_ns: float
    #: Contended atomic read-modify-write on a shared line, nanoseconds.
    atomic_ns: float
    #: Critical-section handoff (lock transfer between cores), nanoseconds.
    critical_ns: float
    #: One level of a tree reduction (partner line transfer), microseconds.
    tree_step_us: float
    #: Steal attempt while spinning (turnaround / active waiting).
    spin_steal_us: float
    #: Steal attempt in yielding mode (throughput / passive waiting).
    os_yield_us: float
    #: Task spawn bookkeeping (push to deque).
    spawn_us: float
    #: Probability a task spawn must futex-wake a sleeping worker under
    #: passive waiting (0 under active waiting).
    wake_fraction_passive: float
    #: Same with KMP_BLOCKTIME=0 (threads sleep immediately, so nearly
    #: every idle period ends in a wake).
    wake_fraction_blocktime0: float
    #: Superlinear memory-congestion exponent coefficient (dimensionless).
    congestion_gamma: float
    #: Fraction of machine bandwidth reachable by an unbound team (pages
    #: scattered by the OS; some traffic crosses NUMA links).
    unbound_bw_efficiency: float


#: The time-valued fields of :class:`RuntimeCosts` — everything measured in
#: seconds-derived units.  Excludes the dimensionless knobs (wake fractions,
#: congestion exponent, bandwidth efficiency), which describe *probabilities
#: and shapes*, not durations.
TIME_COST_FIELDS = (
    "fork_base_us",
    "fork_per_thread_us",
    "barrier_step_us",
    "wake_latency_us",
    "dispatch_ns",
    "atomic_ns",
    "critical_ns",
    "tree_step_us",
    "spin_steal_us",
    "os_yield_us",
    "spawn_us",
)


def scale_costs(costs: RuntimeCosts, factor: float) -> RuntimeCosts:
    """A copy of ``costs`` with every time-valued field multiplied by
    ``factor`` (dimensionless fields untouched).

    The runtime-overhead model is linear in these primitives, so scaling
    them by ``k`` scales every overhead component by exactly ``k`` — the
    homogeneity law the ``repro.check`` metamorphic suite asserts.
    """
    if factor <= 0:
        raise ValueError(f"cost scale factor must be positive, got {factor}")
    return replace(
        costs, **{f: getattr(costs, f) * factor for f in TIME_COST_FIELDS}
    )
