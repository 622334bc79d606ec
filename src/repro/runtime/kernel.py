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

from repro.arch.costs import RuntimeCosts
from repro.arch.topology import MachineTopology
from repro.desim.stealing import SpawnTree, WorkStealingSimulator
from repro.errors import SimulationError
from repro.runtime.affinity import ThreadPlacement, compute_placement
from repro.runtime.alloc import sync_alignment_factor
from repro.runtime.barrier import (
    fork_seconds,
    join_seconds,
    serial_gap_seconds,
    workers_asleep,
)
from repro.runtime.costs import work_seconds
from repro.runtime.icv import (
    ReductionMethod,
    ResolvedICVs,
    ScheduleKind,
    WaitPolicy,
)
from repro.runtime.memory import memory_time_factor
from repro.runtime.program import LoopRegion, TaskRegion
from repro.runtime.reduction import reduction_seconds
from repro.runtime.schedule import price_loop_schedule

__all__ = [
    "RegionEngine",
    "des_task_body_seconds",
    "entry_seconds",
    "loop_body_seconds",
    "max_leaf_factor",
    "sync_seconds",
    "task_acquire_seconds",
    "task_body_seconds",
    "wait_arguments",
]

#: Fraction of task acquisitions that miss the local deque (taskwait-driven
#: stealing in divide-and-conquer trees).
_REMOTE_ACQUIRE_FRACTION = 0.30
#: sched_yield rounds a passive thread spends per remote acquisition.
_PASSIVE_YIELD_ROUNDS = 2.0


def wait_arguments(icvs: ResolvedICVs) -> tuple[WaitPolicy, float | None]:
    """The wait policy and, under passive waiting only, the blocktime:
    the wait arguments of the terms, with the blocktime an active team
    never reads canonicalized to ``None``."""
    wait = icvs.wait_policy
    return wait, (icvs.blocktime_ms if wait is WaitPolicy.PASSIVE else None)


def task_acquire_seconds(
    wait_policy: WaitPolicy, blocktime_ms: float | None, costs: RuntimeCosts
) -> float:
    """Cost of one remote task acquisition under the wait policy."""
    if wait_policy is WaitPolicy.ACTIVE:
        return costs.spin_steal_us * 1e-6
    if blocktime_ms == 0.0:
        # Immediate sleep: every idle period ends in a futex wake.
        return (costs.os_yield_us + 0.5 * costs.wake_latency_us) * 1e-6
    return _PASSIVE_YIELD_ROUNDS * costs.os_yield_us * 1e-6


# The model terms.  Each is a pure function of its arguments and takes
# exactly what it reads (a team's placement, never its ICVs), so two
# classes with equal argument tuples share the term's value: the class
# pricer (repro.runtime.executor.ClassPricer) evaluates each term once
# per distinct tuple.
def loop_body_seconds(
    region: LoopRegion,
    placement: ThreadPlacement,
    kind: ScheduleKind,
    chunk: int | None,
    costs: RuntimeCosts,
) -> float:
    """One loop invocation's compute and memory time plus schedule
    overhead under ``OMP_SCHEDULE=kind[,chunk]``."""
    sched = price_loop_schedule(region, placement, kind, chunk, costs)
    mem_factor = memory_time_factor(
        placement,
        costs,
        region.bw_per_thread_gbps,
        region.random_access,
    )
    cpu_part = sched.compute_seconds * (1.0 - region.mem_intensity)
    mem_part = sched.compute_seconds * region.mem_intensity * mem_factor
    return cpu_part + mem_part + sched.overhead_seconds


def sync_seconds(
    n_reductions: int,
    placement: ThreadPlacement,
    wait_policy: WaitPolicy,
    reduction: ReductionMethod,
    costs: RuntimeCosts,
) -> float:
    """Region-end reduction of ``n_reductions`` scalars plus the join
    barrier, before the alignment factor."""
    sync = reduction_seconds(reduction, placement, costs, n_reductions)
    sync += join_seconds(wait_policy, placement, costs)
    return sync


def entry_seconds(
    gap_work: float,
    placement: ThreadPlacement,
    wait_policy: WaitPolicy,
    blocktime_ms: float | None,
    costs: RuntimeCosts,
) -> float:
    """The serial gap of ``gap_work`` units before a region plus the fork
    that ends it."""
    gap_nominal = work_seconds(gap_work, placement.machine)
    sleeping = workers_asleep(wait_policy, blocktime_ms, gap_nominal)
    return (serial_gap_seconds(wait_policy, placement, gap_nominal)
            + fork_seconds(placement.nthreads, costs, sleeping))


def _per_task_overhead(
    wait_policy: WaitPolicy, blocktime_ms: float | None, costs: RuntimeCosts
) -> float:
    """Scheduling cost charged to each task's execution."""
    acquire = task_acquire_seconds(wait_policy, blocktime_ms, costs)
    overhead = costs.spawn_us * 1e-6 + _REMOTE_ACQUIRE_FRACTION * acquire
    if wait_policy is WaitPolicy.PASSIVE:
        frac = (
            costs.wake_fraction_blocktime0
            if blocktime_ms == 0.0
            else costs.wake_fraction_passive
        )
        overhead += frac * costs.wake_latency_us * 1e-6 * _REMOTE_ACQUIRE_FRACTION
    return overhead


@functools.lru_cache(maxsize=256)
def max_leaf_factor(sigma: float, n_leaves: int) -> float:
    """Expected max/mean ratio of ``n`` lognormal(sigma) leaf costs.

    Approximates the (1 - 1/n) quantile of the lognormal relative to
    its mean — the straggler that pins the region's tail.  A pure
    function of its arguments, memoized because a sweep prices the
    same few task regions thousands of times.  ``ndtri`` is the
    standard normal quantile ``scipy.stats.norm.ppf`` itself evaluates,
    without importing ``scipy.stats``.
    """
    if sigma <= 0.0 or n_leaves < 2:
        return 1.0
    from scipy.special import ndtri

    z = float(ndtri(1.0 - 1.0 / n_leaves))
    # Mean of lognormal exceeds its median by exp(sigma^2 / 2).
    return math.exp(sigma * z) / math.exp(0.5 * sigma * sigma)


def task_body_seconds(
    region: TaskRegion,
    placement: ThreadPlacement,
    wait_policy: WaitPolicy,
    blocktime_ms: float | None,
    costs: RuntimeCosts,
) -> float:
    """Analytic work-stealing makespan of one task-region invocation."""
    machine = placement.machine
    mem_factor = memory_time_factor(
        placement,
        costs,
        region.bw_per_thread_gbps,
        region.random_access,
    )
    scale = 1.0 - region.mem_intensity + region.mem_intensity * mem_factor
    work_sec = work_seconds(region.total_work, machine) * scale

    n_tasks = region.n_tasks
    overhead = _per_task_overhead(wait_policy, blocktime_ms, costs)
    total = work_sec + n_tasks * overhead
    p_eff = min(placement.effective_parallelism, float(n_tasks))
    # Straggler tail: the largest leaf lands on some worker near the
    # end; roughly half of it sticks out past the balanced finish.
    leaf_sec = work_seconds(region.leaf_work, machine) * scale
    straggler = 0.5 * leaf_sec * max_leaf_factor(
        region.leaf_sigma, region.n_leaves
    )
    throughput_bound = total / max(p_eff, 1e-12) + straggler

    # Parallelism floor: the critical path plus one steal per tree
    # level to fan the work out.
    acquire = task_acquire_seconds(wait_policy, blocktime_ms, costs)
    cp_sec = work_seconds(region.critical_path_work, machine)
    ramp = region.depth * acquire
    return max(throughput_bound, cp_sec + ramp)


def des_task_body_seconds(
    region: TaskRegion,
    placement: ThreadPlacement,
    wait_policy: WaitPolicy,
    blocktime_ms: float | None,
    costs: RuntimeCosts,
    seed: int,
) -> float:
    """Work-stealing DES makespan of one task-region invocation, its
    leaves dispersed per ``seed``."""
    acquire = task_acquire_seconds(wait_policy, blocktime_ms, costs)
    sim = WorkStealingSimulator(
        n_workers=placement.nthreads,
        steal_latency=acquire,
        spawn_overhead=_per_task_overhead(wait_policy, blocktime_ms, costs)
        - _REMOTE_ACQUIRE_FRACTION * acquire,
        seed=seed,
    )
    result = sim.run(
        _spawn_tree(region, placement, costs, seed),
        worker_speeds=placement.effective_speed(),
    )
    return result.makespan


def _spawn_tree(
    region: TaskRegion, placement: ThreadPlacement, costs: RuntimeCosts,
    seed: int,
) -> SpawnTree:
    """The region's spawn tree in seconds, leaves dispersed per seed.

    Leaf ``k`` in depth-first order takes the ``k``-th standard
    normal of ``default_rng(seed)``: one array draw and one
    ``np.exp``, bit-equal to drawing and exponentiating leaf by leaf.
    """
    mem_factor = memory_time_factor(
        placement,
        costs,
        region.bw_per_thread_gbps,
        region.random_access,
    )
    scale = 1.0 - region.mem_intensity + region.mem_intensity * mem_factor
    leaf_sec = work_seconds(region.leaf_work, placement.machine) * scale
    node_sec = work_seconds(region.node_work, placement.machine) * scale
    leaves = leaf_sec
    if region.leaf_sigma > 0:
        rng = np.random.default_rng(seed)
        leaves = leaf_sec * np.exp(
            region.leaf_sigma * rng.standard_normal(region.n_leaves)
        )
    return SpawnTree(region.depth, region.branching, leaves, node_sec)


class RegionEngine:
    """Prices regions for one (machine, config) pair, one at a time.

    The scalar reference of the class pricer: it calls the same terms
    with one configuration's arguments.  The loop body, the
    synchronization term and the analytic task body are memoized on the
    region (or reduction count) alone, which is sound because the
    engine's arguments never change.
    """

    def __init__(self, machine: MachineTopology, icvs: ResolvedICVs):
        self.machine = machine
        self.icvs = icvs
        self.placement = compute_placement(icvs, machine)
        self.costs = machine.costs
        self.align_factor = sync_alignment_factor(icvs, self.costs)
        self.wait_policy, self.blocktime_ms = wait_arguments(icvs)
        self._loop_body: dict[LoopRegion, float] = {}
        self._sync_memo: dict[int, float] = {}
        self._task_body: dict[TaskRegion, float] = {}

    # ------------------------------------------------------------------
    def loop_region_seconds(self, region: LoopRegion) -> float:
        """One invocation of a worksharing-loop region (body + sync)."""
        body = self._loop_body.get(region)
        if body is None:
            icvs = self.icvs
            body = self._loop_body[region] = loop_body_seconds(
                region, self.placement, icvs.schedule, icvs.schedule_chunk,
                self.costs,
            )
        return body + self._sync(region.n_reductions) * self.align_factor

    def _sync(self, n_reductions: int) -> float:
        sync = self._sync_memo.get(n_reductions)
        if sync is None:
            sync = self._sync_memo[n_reductions] = sync_seconds(
                n_reductions, self.placement, self.wait_policy,
                self.icvs.reduction, self.costs,
            )
        return sync

    # ------------------------------------------------------------------
    def task_region_seconds(
        self,
        region: TaskRegion,
        fidelity: str = "analytic",
        seed: int = 0,
    ) -> float:
        """One invocation of a task region (body + sync).

        DES bodies are not memoized: their seed varies per phase index.
        """
        if fidelity == "analytic":
            body = self._task_analytic(region)
        elif fidelity == "des":
            body = self._task_des(region, seed)
        else:
            raise SimulationError(f"unknown task fidelity {fidelity!r}")
        # A task region reduces nothing: its sync is the join alone.
        return body + self._sync(0) * self.align_factor

    def _task_analytic(self, region: TaskRegion) -> float:
        body = self._task_body.get(region)
        if body is None:
            body = self._task_body[region] = task_body_seconds(
                region, self.placement, self.wait_policy, self.blocktime_ms,
                self.costs,
            )
        return body

    def _task_des(self, region: TaskRegion, seed: int) -> float:
        return des_task_body_seconds(
            region, self.placement, self.wait_policy, self.blocktime_ms,
            self.costs, seed,
        )
