"""EPCC-style microbenchmarks of the simulated runtime.

The EPCC OpenMP microbenchmark suite is the standard way to characterize
a real OpenMP runtime's primitive overheads (PARALLEL, BARRIER, REDUCTION
per method, scheduling per kind).  This module provides the same probes
for the *simulated* runtime: each returns the per-construct overhead in
microseconds under a given machine + configuration, exactly what a user
would measure with EPCC before deciding which knobs to sweep.

The probes are built from the same cost models the executor uses, so they
double as an inspection/debugging surface: tests pin their orderings
(turnaround barriers beat throughput barriers; tree reductions beat
critical at scale; dynamic dispatch overhead grows with team size), and
``overhead_table`` renders the machine-by-machine comparison the EPCC
papers tabulate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.machines import ALL_MACHINES
from repro.arch.topology import MachineTopology
from repro.frame.table import Table
from repro.runtime.affinity import compute_placement
from repro.runtime.barrier import fork_seconds, join_seconds, workers_asleep
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.kernel import RegionEngine, wait_arguments
from repro.runtime.program import LoopRegion
from repro.runtime.reduction import reduction_seconds

__all__ = ["MicrobenchReport", "run_microbench", "overhead_table"]


@dataclass(frozen=True)
class MicrobenchReport:
    """Per-construct overheads (microseconds) for one machine + config."""

    arch: str
    nthreads: int
    #: PARALLEL construct: fork + join of an empty region.
    parallel_us: float
    #: BARRIER: one explicit barrier.
    barrier_us: float
    #: Wake-up after the team slept past KMP_BLOCKTIME.
    wake_us: float
    #: REDUCTION of one scalar, per method.
    reduction_tree_us: float
    reduction_critical_us: float
    reduction_atomic_us: float
    #: Scheduling overhead per iteration for a 10k-iteration empty-ish
    #: loop, per schedule kind.
    static_per_iter_ns: float
    dynamic_per_iter_ns: float
    guided_per_iter_ns: float

    def as_dict(self) -> dict:
        """Report row for table construction."""
        return {
            "arch": self.arch,
            "threads": self.nthreads,
            "parallel_us": self.parallel_us,
            "barrier_us": self.barrier_us,
            "wake_us": self.wake_us,
            "red_tree_us": self.reduction_tree_us,
            "red_critical_us": self.reduction_critical_us,
            "red_atomic_us": self.reduction_atomic_us,
            "static_ns_per_iter": self.static_per_iter_ns,
            "dynamic_ns_per_iter": self.dynamic_per_iter_ns,
            "guided_ns_per_iter": self.guided_per_iter_ns,
        }


def _schedule_overhead_ns(
    machine: MachineTopology, config: EnvConfig, schedule: str, n_iters: int
) -> float:
    """Per-iteration scheduling overhead: priced loop minus ideal compute."""
    icvs = resolve_icvs(
        EnvConfig(**{**_as_kwargs(config), "schedule": schedule}), machine
    )
    engine = RegionEngine(machine, icvs)
    iter_work = 1e-7  # 100ns reference iterations, EPCC "schedbench" style
    region = LoopRegion("probe", n_iters=n_iters, iter_work=iter_work)
    total = engine.loop_region_seconds(region)
    from repro.runtime.costs import work_seconds

    ideal = work_seconds(region.total_work, machine) / min(
        icvs.nthreads, n_iters
    )
    return max(0.0, (total - ideal)) / n_iters * 1e9


def _as_kwargs(config: EnvConfig) -> dict:
    return {
        "num_threads": config.num_threads,
        "places": config.places,
        "proc_bind": config.proc_bind,
        "library": config.library,
        "blocktime": config.blocktime,
        "force_reduction": config.force_reduction,
        "align_alloc": config.align_alloc,
    }


def run_microbench(
    machine: MachineTopology, config: EnvConfig | None = None
) -> MicrobenchReport:
    """Probe every construct on ``machine`` under ``config``."""
    config = config or EnvConfig()
    icvs = resolve_icvs(config, machine)
    placement = compute_placement(icvs, machine)
    costs = machine.costs

    wait, blocktime = wait_arguments(icvs)
    fork = fork_seconds(icvs.nthreads, costs, team_sleeping=False)
    # Active waiters never sleep, so their wake probe measures nothing.
    can_sleep = workers_asleep(wait, blocktime, float("inf"))
    fork_sleeping = (
        fork_seconds(icvs.nthreads, costs, team_sleeping=True)
        if can_sleep else fork
    )
    join = join_seconds(wait, placement, costs)

    reductions = {}
    for method in ("tree", "critical", "atomic"):
        m_icvs = resolve_icvs(
            EnvConfig(**{**_as_kwargs(config), "force_reduction": method}),
            machine,
        )
        reductions[method] = reduction_seconds(
            m_icvs.reduction, placement, costs, 1)

    n_iters = 10_000
    return MicrobenchReport(
        arch=machine.name,
        nthreads=icvs.nthreads,
        parallel_us=(fork + join) * 1e6,
        barrier_us=join * 1e6,
        wake_us=(fork_sleeping - fork) * 1e6,
        reduction_tree_us=reductions["tree"] * 1e6,
        reduction_critical_us=reductions["critical"] * 1e6,
        reduction_atomic_us=reductions["atomic"] * 1e6,
        static_per_iter_ns=_schedule_overhead_ns(machine, config, "static",
                                                 n_iters),
        dynamic_per_iter_ns=_schedule_overhead_ns(machine, config, "dynamic",
                                                  n_iters),
        guided_per_iter_ns=_schedule_overhead_ns(machine, config, "guided",
                                                 n_iters),
    )


def overhead_table(config: EnvConfig | None = None) -> Table:
    """EPCC-style overhead comparison across the study machines."""
    rows = [
        run_microbench(machine, config).as_dict()
        for machine in ALL_MACHINES.values()
    ]
    return Table.from_records(rows)
