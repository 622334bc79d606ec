"""Work-stealing task-pool simulator.

LLVM/OpenMP executes ``task`` constructs on per-thread deques with random
victim stealing.  This module simulates that scheduler at per-task
granularity: LIFO local pops, FIFO steals, a configurable steal latency
(spin-waiting ``turnaround`` mode steals faster than yielding
``throughput`` mode) and per-spawn overhead.  Every unstarted task sits
in some deque, so a worker whose own deque is empty always finds a victim
while any task is unstarted: no steal attempt fails and nothing backs
off.  Such a worker steals at its next event, or retires once every task
has started.

It serves two roles:

1. the high-fidelity (``"des"``) execution mode for task-parallel regions,
2. ground truth against which the fast analytic task model in
   :mod:`repro.runtime.kernel` is validated by tests.

Tie arbitration is part of the specification
--------------------------------------------
Unlike :class:`repro.desim.engine.Engine` callbacks — whose same-timestamp
order must never leak into results — this simulator's trajectories
*legitimately* depend on which idle worker reaches a contended deque
first.  That arbitration is pinned by the documented event order
``(time, sequence)`` on the internal heap plus the ``seed``-driven victim
selection: together they are the reproducibility contract (re-running
with the same tree, speeds and seed replays the identical trajectory,
steal for steal).  The sanitizer therefore does not perturb this heap; it
audits it instead — :class:`repro.sanitize.steal_audit.StealOrderAuditor`
consumes the ``observer`` hooks on :meth:`WorkStealingSimulator.run` to
verify replay determinism and to count (as informational findings, not
races) the same-timestamp deque contentions this order arbitrates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from typing import Callable

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "SpawnTree",
    "StealResult",
    "WorkStealingSimulator",
]


@dataclass(frozen=True, eq=False)
class SpawnTree:
    """A complete spawn tree: ``branching**depth`` leaves below interior
    tasks that do ``node_work`` each and spawn ``branching`` children.

    This is the shape recursive BOTS benchmarks (NQueens, Sort, Strassen,
    Health) produce with ``#pragma omp task`` in a divide phase, and the
    only shape a :class:`~repro.runtime.program.TaskRegion` describes.
    ``leaf_work`` holds one work per leaf in depth-first order (a scalar
    gives every leaf the same work).

    Task ids are heap indices: the root is 0, the children of task ``i``
    are ``i*b + 1 … i*b + b``, and leaf ``k`` is task ``n_interior + k``.
    """

    depth: int
    branching: int
    leaf_work: np.ndarray
    node_work: float = 0.0

    def __post_init__(self) -> None:
        if self.depth < 0 or self.branching < 1:
            raise SimulationError("need depth >= 0 and branching >= 1")
        try:
            leaves = np.array(np.broadcast_to(
                np.asarray(self.leaf_work, dtype=float), (self.n_leaves,)
            ))
        except ValueError:
            raise SimulationError(
                f"need one leaf work or {self.n_leaves} of them"
            ) from None
        if self.node_work < 0 or (leaves < 0).any():
            raise SimulationError("spawn tree has negative task work")
        leaves.flags.writeable = False
        object.__setattr__(self, "leaf_work", leaves)

    @property
    def n_leaves(self) -> int:
        """Leaf count, ``branching**depth``."""
        return self.branching**self.depth

    @property
    def n_interior(self) -> int:
        """Interior (spawning) task count; also the first leaf's id."""
        b = self.branching
        return self.depth if b == 1 else (b**self.depth - 1) // (b - 1)

    @property
    def n_tasks(self) -> int:
        """Total number of tasks."""
        return self.n_interior + self.n_leaves

    @property
    def total_work(self) -> float:
        """Sum of all task work (serial execution time sans overheads)."""
        return self.n_interior * self.node_work + float(self.leaf_work.sum())

    @property
    def critical_path(self) -> float:
        """Longest root-to-leaf work sum — the tasking lower bound."""
        return self.depth * self.node_work + float(self.leaf_work.max())


@dataclass(frozen=True)
class StealResult:
    """Outcome of one work-stealing simulation."""

    makespan: float
    total_work: float
    n_tasks: int
    steals: int
    busy_time: float
    n_workers: int = 1

    @property
    def utilization(self) -> float:
        """Fraction of worker-time spent executing tasks."""
        if self.makespan == 0.0:
            return 1.0
        return self.busy_time / (self.makespan * self.n_workers)

    @property
    def speedup_over_serial(self) -> float:
        """``total_work / makespan`` — the parallel speedup achieved."""
        if self.makespan == 0.0:
            return 1.0
        return self.total_work / self.makespan


class WorkStealingSimulator:
    """Simulate one task-region execution on ``n_workers`` threads.

    Parameters
    ----------
    n_workers:
        Threads in the parallel region's team.
    steal_latency:
        Time a steal takes before the stolen task starts.  Spin-waiting
        modes have low latency; yield-to-OS modes pay more.
    spawn_overhead:
        Bookkeeping time the spawning thread pays per child task.
    seed:
        Victim selection seed (fully deterministic trajectories).
    """

    def __init__(
        self,
        n_workers: int,
        steal_latency: float = 1e-6,
        spawn_overhead: float = 2e-7,
        seed: int = 0,
    ):
        if n_workers < 1:
            raise SimulationError(f"need >= 1 worker, got {n_workers}")
        if steal_latency <= 0 or spawn_overhead < 0:
            raise SimulationError("non-positive steal latency / negative spawn cost")
        self.n_workers = n_workers
        self.steal_latency = steal_latency
        self.spawn_overhead = spawn_overhead
        self.seed = seed

    def run(
        self,
        tree: SpawnTree,
        worker_speeds: np.ndarray | None = None,
        on_task: Callable[[int, int, float, float], None] | None = None,
        observer: object = None,
    ) -> StealResult:
        """Execute ``tree``; returns a :class:`StealResult`.

        The root starts on worker 0's deque.  A task's children join its
        worker's deque, in id order, when the task starts; the worker
        pops its own deque from the back (LIFO) and steals from the front
        of a random non-empty victim's (FIFO).

        ``worker_speeds`` scales each worker's execution rate (1.0 =
        nominal); oversubscribed or remote-memory threads pass < 1.0.
        ``on_task`` is an optional instrumentation callback fired once per
        executed task as ``on_task(worker, task_id, start, end)`` — the
        ``repro.check`` task-conservation invariant uses it to assert every
        task in the tree executes exactly once.

        ``observer`` receives scheduler-decision hooks (any subset):
        ``on_pop(now, worker, task_id)`` for LIFO local pops,
        and ``on_steal(now, thief, victim, task_id)`` for steals.  The
        sanitizer's steal auditor uses these to verify replay determinism
        and count arbitrated same-timestamp deque contentions.
        """
        speeds = (
            np.ones(self.n_workers)
            if worker_speeds is None
            else np.asarray(worker_speeds, dtype=float)
        )
        if speeds.shape != (self.n_workers,) or (speeds <= 0).any():
            raise SimulationError("worker_speeds must be positive, one per worker")
        speed = speeds.tolist()

        on_pop = getattr(observer, "on_pop", None)
        on_steal = getattr(observer, "on_steal", None)

        b = tree.branching
        n_interior = tree.n_interior
        leaf_work = tree.leaf_work.tolist()
        # Every interior task costs the same, so each worker's
        # interior-task duration and steal delay are divided out once.
        node_cost = tree.node_work + self.spawn_overhead * b
        node_duration = [node_cost / s for s in speed]
        steal_delay = [self.steal_latency / s for s in speed]
        workers = range(self.n_workers)

        rng = np.random.default_rng(self.seed)
        deques: list[deque[int]] = [deque() for _ in workers]
        deques[0].append(0)
        remaining = 1  # tasks pushed but not yet started
        steals = 0
        busy = 0.0

        # Event heap: (time, seq, worker). Each worker has exactly one
        # pending event: "decide what to do next at this time".  The
        # initial list is sorted, hence already a heap.
        heap = [(0.0, w, w) for w in workers]
        seq = self.n_workers
        finish_time = 0.0

        while heap:
            now, _, w = heappop(heap)
            if remaining == 0:
                if now > finish_time:
                    finish_time = now
                continue  # drain: all work started, worker retires
            own = deques[w]
            if own:
                tid = own.pop()  # LIFO local pop
                if on_pop is not None:
                    on_pop(now, w, tid)
                start = now
            else:
                # Steal: pick a random victim with work, in worker order.
                # ``w``'s own deque is empty and ``remaining`` counts the
                # tasks in deques, so the list is never empty.
                victims = list(compress(workers, deques))
                victim = victims[int(rng.integers(len(victims)))]
                tid = deques[victim].popleft()  # FIFO steal end
                if on_steal is not None:
                    on_steal(now, w, victim, tid)
                steals += 1
                start = now + steal_delay[w]
            if tid < n_interior:
                duration = node_duration[w]
                first = tid * b + 1
                own.extend(range(first, first + b))
                remaining += b - 1
            else:
                duration = leaf_work[tid - n_interior] / speed[w]
                remaining -= 1
            busy += duration
            done = start + duration
            if on_task is not None:
                on_task(w, tid, start, done)
            if done > finish_time:
                finish_time = done
            heappush(heap, (done, seq, w))
            seq += 1

        if remaining != 0:
            raise SimulationError(
                f"work-stealing simulation ended with {remaining} live tasks"
            )
        return StealResult(
            makespan=finish_time,
            total_work=tree.total_work,
            n_tasks=tree.n_tasks,
            steals=steals,
            busy_time=busy,
            n_workers=self.n_workers,
        )
