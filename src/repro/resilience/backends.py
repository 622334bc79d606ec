"""Executor backends: one dispatch protocol, three execution substrates.

The sweep engine (and the ``sharded-execution-parity`` check) can run
the same task stream on any of three backends and demand bit-identical
records.  All three run the one supervision loop of
:class:`~repro.resilience.supervisor.ExecutorBackend`:

- ``serial`` (:class:`SerialBackend`) — in-process, no subprocesses.
  The reference implementation: every other backend is defined as
  "produces exactly what serial produces".
- ``pool`` (:class:`~repro.resilience.supervisor.Supervisor`) — a
  supervised fleet of interchangeable workers fed from one queue.
- ``nodes`` (:class:`NodesBackend`) — a simulated multi-node cluster:
  the same fleet, with one process per *shard*, home queues, work
  stealing and shard reassignment.  This models the failure surface a
  real distributed sweep would have — truncated frames, severed links,
  lost nodes — on a single machine, where the chaos harness can script
  it deterministically.

Both fleets speak the length-prefixed frame protocol in
:mod:`repro.resilience.transport` over ``socket.socketpair()`` links.

The contract every backend honors:

- ``stream(tasks, ledger)`` yields one outcome per task **in task_id
  order** regardless of completion order — a successful result, or
  None for a batch quarantined after its retry budget,
- every failed attempt lands in the shared
  :class:`~repro.resilience.report.FailureLedger`, under the same kind
  on every backend,
- ``completed_unyielded()`` exposes landed-but-unconsumed results so an
  interrupted sweep can flush them to cache,
- ``close()`` is idempotent and safe mid-stream.

Sharding (nodes backend)
------------------------
Each node is one shard.  Tasks start on their **home** shard — by
default the :class:`~repro.resilience.sharding.ShardPlanner` round-robin
assignment; the sweep layer overrides it with the cache key-prefix
partitioning so a batch keeps its home shard across runs.  An idle node with an empty home queue *steals* from the
richest backlog (ties to the lowest shard id, taking the victim's tail)
— the arbitration rule :func:`~repro.resilience.sharding.
simulate_rebalance` specifies.

Node loss runs a budgeted recovery ladder: the in-flight task is
retried under the normal :class:`~repro.resilience.policy.RetryPolicy`;
the node is respawned while the ``max_node_respawns`` budget lasts;
past it the node is *abandoned* and its backlog reassigned round-robin
to the survivors (``max_reassignments`` abandonments allowed, logged as
:class:`~repro.resilience.sharding.ReassignEvent`); with no survivors
the stream raises :class:`~repro.errors.ResilienceError`.  Steal and
reassign schedules depend on real execution timing, so they live in the
:class:`~repro.resilience.sharding.ShardReport` (see
:meth:`NodesBackend.shard_report`) and never in the deterministic
:class:`~repro.resilience.report.FailureReport`.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence

from repro.errors import ResilienceError
from repro.resilience.chaos import SerialChaosFault
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import FailureLedger
from repro.resilience.sharding import (
    ReassignEvent,
    ShardPlanner,
    ShardReport,
    StealEvent,
)
from repro.resilience.supervisor import (
    ExecutorBackend,
    SupervisedTask,
    _Fleet,
    _FleetSlot,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "SerialBackend",
    "SerialChaosFault",
    "NodesBackend",
]

#: The backend axis the parity checks and the CLI iterate over.
BACKEND_NAMES = ("serial", "pool", "nodes")


class SerialBackend(ExecutorBackend):
    """In-process reference backend: no subprocesses, no IPC.

    Runs the same retry/quarantine loop as the fleets — seeded backoff,
    validation as ``corrupt-result``, poison on budget exhaustion — so
    its record stream is the parity reference the other backends are
    measured against.  A task function simulates a fault it cannot
    survive by raising :class:`SerialChaosFault`.
    """

    name = "serial"

    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks in-process; yield outcomes in task order."""
        return self._supervise(tasks, ledger)

    def _step(self) -> None:
        if self._retry_heap or not self._pending:
            # One task at a time, retries included: wait out a failed
            # task's backoff rather than run ahead of it, so a fail-fast
            # sweep stops at its poison batch.
            time.sleep(self._wait_budget())
            return
        task, attempt = self._pending.popleft()
        try:
            value = self.fn(task.payload, attempt)
        except SerialChaosFault as fault:
            self._record_failure(task, attempt, fault.kind, fault.cause)
        except Exception as exc:
            self._record_failure(task, attempt, "error",
                                 f"{type(exc).__name__}: {exc}")
        else:
            self._land(task, attempt, value)


class NodesBackend(_Fleet):
    """Simulated multi-node executor: one process per shard over
    socketpair links (see module docstring for the full model)."""

    name = "nodes"
    noun = "node"

    def __init__(
        self,
        fn: Callable,
        initializer: Callable | None = None,
        initargs: Sequence = (),
        n_nodes: int = 2,
        policy: RetryPolicy | None = None,
        validate: Callable | None = None,
        fail_fast: bool = False,
        poll_interval_s: float = 0.05,
        max_node_respawns: int = 16,
        max_reassignments: int | None = None,
        frame_timeout_s: float = 5.0,
    ):
        super().__init__(fn, initializer, initargs, policy, validate,
                         fail_fast, poll_interval_s, max_node_respawns)
        self.frame_timeout_s = frame_timeout_s
        self.n_nodes = max(1, n_nodes)
        self.max_reassignments = (
            max_reassignments if max_reassignments is not None
            else max(0, self.n_nodes - 1)
        )
        self.planner = ShardPlanner(self.n_nodes)
        #: Optional per-task home shard override (e.g. cache key-prefix
        #: partitioning); set before ``stream``, one shard id per task.
        self.home_shards: Sequence[int] | None = None
        self._queues: list[deque] = []
        self._home: list[int] = []
        self._steals: list[StealEvent] = []
        self._reassigns: list[ReassignEvent] = []
        self._abandoned = 0

    # ``stream`` and ``close`` are defined on each backend class itself:
    # perfbench/layers.py wraps them through the class's own __dict__.
    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks; yield outcomes in task order (see class doc)."""
        return self._supervise(tasks, ledger)

    def _start(self, tasks: list[SupervisedTask]) -> None:
        homes = (list(self.home_shards) if self.home_shards is not None
                 else list(self.planner.assign(tasks)))
        if len(homes) != len(tasks):
            raise ResilienceError(
                f"got {len(homes)} home shards for {len(tasks)} tasks"
            )
        self._home = homes
        self._queues = [deque() for _ in range(self.n_nodes)]
        for task, home in zip(tasks, homes):
            self._queues[home].append((task, 0))
        self._steals = []
        self._reassigns = []
        self._abandoned = 0
        self._open(self.n_nodes)

    def _survivors(self) -> list[_FleetSlot]:
        return [s for s in self._slots if s.alive]

    def _retire(self, slot: _FleetSlot) -> None:
        """Abandon the node and reassign its backlog to the survivors."""
        if self._abandoned >= self.max_reassignments:
            raise ResilienceError(
                f"shard reassignment budget exhausted "
                f"({self.max_reassignments}): nodes keep getting lost"
            )
        self._abandoned += 1
        survivors = self._survivors()
        if not survivors:
            raise ResilienceError(
                "every node is lost; no shard can take the backlog"
            )
        backlog = self._queues[slot.slot_id]
        for position, (task, attempt) in enumerate(backlog):
            target = survivors[position % len(survivors)]
            self._queues[target.slot_id].append((task, attempt))
            self._home[task.task_id] = target.slot_id
            self._reassigns.append(
                ReassignEvent(slot.slot_id, target.slot_id, task.index)
            )
        backlog.clear()

    def _requeue(self, task: SupervisedTask, attempt: int) -> None:
        """Queue a (re)tried task at the head of its home shard,
        re-homing it to a survivor if the home was abandoned."""
        home = self._home[task.task_id]
        if not self._slots[home].alive:
            survivors = self._survivors()
            if not survivors:
                raise ResilienceError(
                    "every node is lost; no shard can take the backlog"
                )
            target = survivors[task.task_id % len(survivors)]
            self._reassigns.append(
                ReassignEvent(home, target.slot_id, task.index)
            )
            self._home[task.task_id] = home = target.slot_id
        self._queues[home].appendleft((task, attempt))

    def _take_for(self, slot: _FleetSlot) -> tuple | None:
        """Own queue head, else steal the richest backlog's tail."""
        own = self._queues[slot.slot_id]
        if own:
            return own.popleft()
        victim = None
        richest = 0
        for other in self._slots:
            backlog = len(self._queues[other.slot_id])
            if other.slot_id != slot.slot_id and backlog > richest:
                victim, richest = other, backlog
        if victim is None:
            return None
        task, attempt = self._queues[victim.slot_id].pop()
        self._home[task.task_id] = slot.slot_id
        self._steals.append(
            StealEvent(slot.slot_id, victim.slot_id, task.index)
        )
        return task, attempt

    def shard_report(self) -> ShardReport:
        """Operational steal/reassign diagnostics for the last stream."""
        return ShardReport(
            n_shards=self.n_nodes,
            assignments=tuple(self._home),
            steals=tuple(self._steals),
            reassignments=tuple(self._reassigns),
            node_respawns=self.worker_respawns,
        )

    def close(self) -> None:
        """Stop every node; idempotent, safe mid-stream."""
        super().close()
