"""Region pricing engine: one parallel region -> seconds.

Combines the schedule, reduction, barrier, alignment and memory models
into per-invocation costs for loop and task regions.

Task regions support two fidelity modes:

- ``"analytic"`` (default): a closed-form work-stealing estimate —
  aggregate work plus per-task scheduling overhead over the team's
  effective parallelism, floored by the spawn tree's critical path plus a
  steal-driven ramp-up.  Microseconds to evaluate; used for sweeps.
- ``"des"``: the full :class:`~repro.desim.stealing.WorkStealingSimulator`
  at per-task granularity.  Used for validation and detailed study.

The per-task *acquisition cost* is where ``KMP_LIBRARY`` and
``KMP_BLOCKTIME`` bite: spinning (turnaround/active) threads grab remote
work in a few hundred nanoseconds, yielding (throughput/passive) threads
burn sched_yield rounds, and with a zero blocktime they oscillate through
futex sleep/wake cycles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.arch.topology import MachineTopology
from repro.desim.stealing import TaskGraph, WorkStealingSimulator
from repro.errors import SimulationError
from repro.runtime.affinity import ThreadPlacement
from repro.runtime.alloc import sync_alignment_factor
from repro.runtime.barrier import join_seconds
from repro.runtime.costs import RuntimeCosts, work_seconds
from repro.runtime.icv import ResolvedICVs, WaitPolicy
from repro.runtime.memory import memory_time_factor
from repro.runtime.program import LoopRegion, TaskRegion
from repro.runtime.reduction import reduction_seconds
from repro.runtime.schedule import price_loop_schedule

__all__ = ["RegionEngine", "task_acquire_seconds"]

#: Fraction of task acquisitions that miss the local deque (taskwait-driven
#: stealing in divide-and-conquer trees).
_REMOTE_ACQUIRE_FRACTION = 0.30
#: sched_yield rounds a passive thread spends per remote acquisition.
_PASSIVE_YIELD_ROUNDS = 2.0


def task_acquire_seconds(icvs: ResolvedICVs, costs: RuntimeCosts) -> float:
    """Cost of one remote task acquisition under the wait policy."""
    if icvs.wait_policy is WaitPolicy.ACTIVE:
        return costs.spin_steal_us * 1e-6
    if icvs.blocktime_ms == 0.0:
        # Immediate sleep: every idle period ends in a futex wake.
        return (costs.os_yield_us + 0.5 * costs.wake_latency_us) * 1e-6
    return _PASSIVE_YIELD_ROUNDS * costs.os_yield_us * 1e-6


class RegionEngine:
    """Prices regions for one (machine, config, placement) triple."""

    def __init__(
        self,
        machine: MachineTopology,
        icvs: ResolvedICVs,
        placement: ThreadPlacement,
        costs: RuntimeCosts,
    ):
        self.machine = machine
        self.icvs = icvs
        self.placement = placement
        self.costs = costs
        speeds = placement.effective_speed()
        #: Aggregate execution rate of the team (self-scheduling rate).
        self.effective_parallelism = float(speeds.sum())
        #: Penalty of the slowest team member (static scheduling bound).
        self.slowest_thread_factor = float(1.0 / speeds.min())
        self.align_factor = sync_alignment_factor(icvs, costs)

    # ------------------------------------------------------------------
    def loop_region_seconds(self, region: LoopRegion) -> float:
        """One invocation of a worksharing-loop region (body + sync)."""
        sched = price_loop_schedule(
            region,
            self.icvs,
            self.machine,
            self.costs,
            self.effective_parallelism,
            self.slowest_thread_factor,
        )
        mem_factor = memory_time_factor(
            self.placement,
            self.costs,
            region.bw_per_thread_gbps,
            region.random_access,
        )
        cpu_part = sched.compute_seconds * (1.0 - region.mem_intensity)
        mem_part = sched.compute_seconds * region.mem_intensity * mem_factor
        body = cpu_part + mem_part + sched.overhead_seconds

        sync = reduction_seconds(
            self.icvs, self.placement, self.costs, region.n_reductions
        )
        sync += join_seconds(self.icvs, self.placement, self.costs)
        return body + sync * self.align_factor

    # ------------------------------------------------------------------
    def task_region_seconds(
        self,
        region: TaskRegion,
        fidelity: str = "analytic",
        seed: int = 0,
    ) -> float:
        """One invocation of a task region (body + sync)."""
        if fidelity == "analytic":
            body = self._task_analytic(region)
        elif fidelity == "des":
            body = self._task_des(region, seed)
        else:
            raise SimulationError(f"unknown task fidelity {fidelity!r}")
        sync = join_seconds(self.icvs, self.placement, self.costs)
        return body + sync * self.align_factor

    def _per_task_overhead(self, passive_wake: bool = True) -> float:
        """Scheduling cost charged to each task's execution."""
        costs = self.costs
        icvs = self.icvs
        acquire = task_acquire_seconds(icvs, costs)
        overhead = costs.spawn_us * 1e-6 + _REMOTE_ACQUIRE_FRACTION * acquire
        if passive_wake and icvs.wait_policy is WaitPolicy.PASSIVE:
            frac = (
                costs.wake_fraction_blocktime0
                if icvs.blocktime_ms == 0.0
                else costs.wake_fraction_passive
            )
            overhead += frac * costs.wake_latency_us * 1e-6 * _REMOTE_ACQUIRE_FRACTION
        return overhead

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def _max_leaf_factor(sigma: float, n_leaves: int) -> float:
        """Expected max/mean ratio of ``n`` lognormal(sigma) leaf costs.

        Approximates the (1 - 1/n) quantile of the lognormal relative to
        its mean — the straggler that pins the region's tail.  A pure
        function of its arguments, memoized because a sweep prices the
        same few task regions thousands of times.
        """
        if sigma <= 0.0 or n_leaves < 2:
            return 1.0
        from scipy.stats import norm

        z = float(norm.ppf(1.0 - 1.0 / n_leaves))
        # Mean of lognormal exceeds its median by exp(sigma^2 / 2).
        return math.exp(sigma * z) / math.exp(0.5 * sigma * sigma)

    def _task_analytic(self, region: TaskRegion) -> float:
        mem_factor = memory_time_factor(
            self.placement,
            self.costs,
            region.bw_per_thread_gbps,
            region.random_access,
        )
        scale = 1.0 - region.mem_intensity + region.mem_intensity * mem_factor
        work_sec = work_seconds(region.total_work, self.machine) * scale

        n_tasks = region.n_tasks
        overhead = self._per_task_overhead()
        total = work_sec + n_tasks * overhead
        p_eff = min(self.effective_parallelism, float(n_tasks))
        # Straggler tail: the largest leaf lands on some worker near the
        # end; roughly half of it sticks out past the balanced finish.
        leaf_sec = work_seconds(region.leaf_work, self.machine) * scale
        straggler = 0.5 * leaf_sec * self._max_leaf_factor(
            region.leaf_sigma, region.n_leaves
        )
        throughput_bound = total / max(p_eff, 1e-12) + straggler

        # Parallelism floor: the critical path plus one steal per tree
        # level to fan the work out.
        acquire = task_acquire_seconds(self.icvs, self.costs)
        cp_sec = work_seconds(region.critical_path_work, self.machine)
        ramp = region.depth * acquire
        return max(throughput_bound, cp_sec + ramp)

    def _task_des(self, region: TaskRegion, seed: int) -> float:
        graph = self._build_graph(region, seed)
        sim = WorkStealingSimulator(
            n_workers=self.icvs.nthreads,
            steal_latency=task_acquire_seconds(self.icvs, self.costs),
            spawn_overhead=self._per_task_overhead(passive_wake=True)
            - _REMOTE_ACQUIRE_FRACTION
            * task_acquire_seconds(self.icvs, self.costs),
            seed=seed,
        )
        result = sim.run(graph, worker_speeds=self.placement.effective_speed())
        return result.makespan

    def _build_graph(self, region: TaskRegion, seed: int) -> TaskGraph:
        """Materialize the spawn tree with per-leaf work dispersion."""
        rng = np.random.default_rng(seed)
        mem_factor = memory_time_factor(
            self.placement,
            self.costs,
            region.bw_per_thread_gbps,
            region.random_access,
        )
        scale = 1.0 - region.mem_intensity + region.mem_intensity * mem_factor
        leaf_sec = work_seconds(region.leaf_work, self.machine) * scale
        node_sec = work_seconds(region.node_work, self.machine) * scale
        graph = TaskGraph()

        def build(level: int) -> int:
            if level == region.depth:
                w = leaf_sec
                if region.leaf_sigma > 0:
                    w *= float(
                        np.exp(region.leaf_sigma * rng.standard_normal())
                    )
                return graph.add(w)
            children = tuple(
                build(level + 1) for _ in range(region.branching)
            )
            return graph.add(node_sec, children)

        graph.root = build(0)
        return graph
