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
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.arch.topology import MachineTopology
from repro.desim.stealing import TaskGraph, WorkStealingSimulator
from repro.errors import SimulationError
from repro.runtime.affinity import compute_placement
from repro.runtime.alloc import sync_alignment_factor
from repro.runtime.barrier import join_seconds
from repro.runtime.costs import RuntimeCosts, work_seconds
from repro.runtime.icv import ResolvedICVs, WaitPolicy
from repro.runtime.memory import memory_time_factor
from repro.runtime.program import LoopRegion, TaskRegion
from repro.runtime.reduction import reduction_seconds
from repro.runtime.schedule import price_loop_schedule

__all__ = [
    "ComponentMemo",
    "RegionEngine",
    "loop_body_seconds",
    "max_leaf_factor",
    "sync_seconds",
    "task_acquire_seconds",
    "task_body_seconds",
]

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


# The memoized terms (keyed per ResolvedICVs.MEMO_KEY_SLOTS).  Each derives
# its placement from the ICVs instead of taking one, so the dependency
# lint sees every ICV the placement reads in the term's own call closure.
def loop_body_seconds(
    region: LoopRegion,
    icvs: ResolvedICVs,
    machine: MachineTopology,
    costs: RuntimeCosts,
) -> float:
    """One loop invocation's compute and memory time plus schedule overhead."""
    placement = compute_placement(icvs, machine)
    sched = price_loop_schedule(
        region,
        icvs,
        machine,
        costs,
        placement.effective_parallelism,
        placement.slowest_thread_factor,
    )
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
    icvs: ResolvedICVs,
    machine: MachineTopology,
    costs: RuntimeCosts,
) -> float:
    """Region-end reduction of ``n_reductions`` scalars plus the join
    barrier, before the alignment factor."""
    placement = compute_placement(icvs, machine)
    sync = reduction_seconds(icvs, placement, costs, n_reductions)
    sync += join_seconds(icvs, placement, costs)
    return sync


def _per_task_overhead(icvs: ResolvedICVs, costs: RuntimeCosts) -> float:
    """Scheduling cost charged to each task's execution."""
    acquire = task_acquire_seconds(icvs, costs)
    overhead = costs.spawn_us * 1e-6 + _REMOTE_ACQUIRE_FRACTION * acquire
    if icvs.wait_policy is WaitPolicy.PASSIVE:
        frac = (
            costs.wake_fraction_blocktime0
            if icvs.blocktime_ms == 0.0
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
    icvs: ResolvedICVs,
    machine: MachineTopology,
    costs: RuntimeCosts,
) -> float:
    """Analytic work-stealing makespan of one task-region invocation."""
    placement = compute_placement(icvs, machine)
    mem_factor = memory_time_factor(
        placement,
        costs,
        region.bw_per_thread_gbps,
        region.random_access,
    )
    scale = 1.0 - region.mem_intensity + region.mem_intensity * mem_factor
    work_sec = work_seconds(region.total_work, machine) * scale

    n_tasks = region.n_tasks
    overhead = _per_task_overhead(icvs, costs)
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
    acquire = task_acquire_seconds(icvs, costs)
    cp_sec = work_seconds(region.critical_path_work, machine)
    ramp = region.depth * acquire
    return max(throughput_bound, cp_sec + ramp)


def _key_slots(term) -> operator.itemgetter:
    """Picks ``term``'s declared key slots out of an execution signature."""
    names = ResolvedICVs.MEMO_KEY_SLOTS[f"runtime.kernel.{term.__name__}"]
    return operator.itemgetter(
        *(ResolvedICVs.SIGNATURE_COMPONENTS.index(n) for n in names)
    )


_LOOP_BODY_SLOTS = _key_slots(loop_body_seconds)
_SYNC_SLOTS = _key_slots(sync_seconds)
_TASK_BODY_SLOTS = _key_slots(task_body_seconds)


@dataclass(frozen=True, eq=False)
class ComponentMemo:
    """Region terms shared by every engine on one machine and cost table.

    Each table maps ``(region value, key slots)`` to seconds, where the
    key slots are the canonical :meth:`ResolvedICVs.execution_signature`
    slots the term reads, as declared in
    :data:`ResolvedICVs.MEMO_KEY_SLOTS` (the dependency lint's KEY001
    proves each declaration covers its term's reads).  The machine and
    cost table are fixed per memo, so they stay out of the keys.
    """

    machine: MachineTopology
    costs: RuntimeCosts
    loop_body: dict[tuple, float] = field(default_factory=dict)
    sync: dict[tuple, float] = field(default_factory=dict)
    task_body: dict[tuple, float] = field(default_factory=dict)


class RegionEngine:
    """Prices regions for one (machine, config) pair.

    The loop body, the synchronization term and the analytic task body
    are memoized in ``memo``.  A memo the caller shares across engines
    keys each term on its declared signature slots; without one the
    engine keeps a private memo keyed on the region argument alone.
    Every term is a pure function of its key, so either way the engine
    returns the very floats an unmemoized evaluation computes.
    """

    def __init__(
        self,
        machine: MachineTopology,
        icvs: ResolvedICVs,
        costs: RuntimeCosts,
        *,
        memo: ComponentMemo | None = None,
    ):
        self.machine = machine
        self.icvs = icvs
        self.placement = compute_placement(icvs, machine)
        self.costs = costs
        self.align_factor = sync_alignment_factor(icvs, costs)
        if memo is None:
            # A private memo serves one set of ICVs: the region argument
            # alone keys it, whatever the execution signature says.
            memo, keys = ComponentMemo(machine, costs), ((), (), ())
        elif memo.machine != machine or memo.costs != costs:
            raise SimulationError(
                "a component memo serves one machine and cost table"
            )
        else:
            sig = icvs.execution_signature()
            keys = (_LOOP_BODY_SLOTS(sig), _SYNC_SLOTS(sig),
                    _TASK_BODY_SLOTS(sig))
        self.memo = memo
        self._loop_body_key, self._sync_key, self._task_body_key = keys

    # ------------------------------------------------------------------
    def loop_region_seconds(self, region: LoopRegion) -> float:
        """One invocation of a worksharing-loop region (body + sync)."""
        table = self.memo.loop_body
        key = (region, self._loop_body_key)
        body = table.get(key)
        if body is None:
            body = table[key] = loop_body_seconds(
                region, self.icvs, self.machine, self.costs
            )
        return body + self._sync(region.n_reductions) * self.align_factor

    def _sync(self, n_reductions: int) -> float:
        table = self.memo.sync
        key = (n_reductions, self._sync_key)
        sync = table.get(key)
        if sync is None:
            sync = table[key] = sync_seconds(
                n_reductions, self.icvs, self.machine, self.costs
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
        table = self.memo.task_body
        key = (region, self._task_body_key)
        body = table.get(key)
        if body is None:
            body = table[key] = task_body_seconds(
                region, self.icvs, self.machine, self.costs
            )
        return body

    def _task_des(self, region: TaskRegion, seed: int) -> float:
        graph = self._build_graph(region, seed)
        sim = WorkStealingSimulator(
            n_workers=self.icvs.nthreads,
            steal_latency=task_acquire_seconds(self.icvs, self.costs),
            spawn_overhead=_per_task_overhead(self.icvs, self.costs)
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
