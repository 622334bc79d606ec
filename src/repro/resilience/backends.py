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

- a backend is built from one task function, its
  :class:`~repro.resilience.report.FailureLedger` (the only source of
  retry and fail policy) and its
  :class:`~repro.resilience.chaos.ChaosPlan` or None,
- ``stream(tasks)`` yields one outcome per task **in task_id
  order** regardless of completion order — a successful result, or
  None for a batch quarantined after its retry budget,
- every failed attempt lands in that ledger, under the same kind on
  every backend,
- the backend injects the chaos plan's faults itself, by task index
  and attempt, node fault first: serial books a crash, hang or node
  fault without running the task and lands
  :func:`~repro.resilience.chaos.corrupted_payload` for a corrupt
  result; a fleet process suffers them for real (see
  :mod:`repro.resilience.supervisor`), so the task function holds no
  fault logic on any backend,
- ``completed_unyielded()`` exposes landed-but-unconsumed results so an
  interrupted sweep can flush them to cache,
- ``close()`` is idempotent and safe mid-stream.

Sharding (nodes backend)
------------------------
Each node is one shard.  Tasks deal round-robin onto their **home**
shard (``task_id % n_nodes``); every node reads the one shared cache
directory, so where a batch starts changes nothing but the schedule.
A node with room in its window takes its own queue's head, else
steals the richest backlog's tail (:meth:`NodesBackend._take_for`
states the rule).

Node loss runs a budgeted recovery ladder: the task the node was
running is retried under the normal
:class:`~repro.resilience.policy.RetryPolicy` (the one queued behind it
goes back to the head of the node's queue, unbooked);
the node is respawned while the ``max_node_respawns`` budget lasts;
past it the node is *abandoned* and its backlog reassigned round-robin
to the survivors (logged as :class:`ReassignEvent`); with no survivors
the stream raises :class:`~repro.errors.ResilienceError`.  Steal and
reassign schedules depend on real execution timing, so they live in the
:class:`ShardReport` (see :meth:`NodesBackend.shard_report`) and never
in the deterministic :class:`~repro.resilience.report.FailureReport`.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import ResilienceError
from repro.resilience.chaos import (
    _SIMULATED_FAULTS,
    ChaosPlan,
    corrupted_payload,
)
from repro.resilience.report import FailureLedger
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
    "NodesBackend",
    "StealEvent",
    "ReassignEvent",
    "ShardReport",
]

#: The backend axis the parity checks and the CLI iterate over.
BACKEND_NAMES = ("serial", "pool", "nodes")


@dataclass(frozen=True)
class StealEvent:
    """One work-steal: ``thief`` took ``task_index`` from ``victim``."""

    thief: int
    victim: int
    task_index: int

    def to_dict(self) -> dict:
        """JSON-ready form of this steal event."""
        return {
            "thief": self.thief,
            "victim": self.victim,
            "task_index": self.task_index,
        }


@dataclass(frozen=True)
class ReassignEvent:
    """One recovery reassignment: ``task_index`` moved from the lost
    ``shard`` to surviving ``target``."""

    shard: int
    target: int
    task_index: int

    def to_dict(self) -> dict:
        """JSON-ready form of this reassignment event."""
        return {
            "shard": self.shard,
            "target": self.target,
            "task_index": self.task_index,
        }


@dataclass(frozen=True)
class ShardReport:
    """Operational diagnostics from a nodes-backend run.

    Deliberately *not* part of :class:`~repro.resilience.report.
    FailureReport`: steal/reassign schedules depend on wall-clock
    execution speed, and the failure report must stay bit-identical
    across runs (see ``docs/RESILIENCE.md``).
    """

    #: Nodes the fleet opened, one home shard each.
    n_shards: int
    #: Final home shard per task (stolen and reassigned tasks re-homed).
    assignments: tuple[int, ...] = ()
    steals: tuple[StealEvent, ...] = ()
    reassignments: tuple[ReassignEvent, ...] = ()
    node_respawns: int = 0

    @property
    def n_steals(self) -> int:
        """Number of work-steal events."""
        return len(self.steals)

    @property
    def n_reassignments(self) -> int:
        """Number of recovery reassignments."""
        return len(self.reassignments)

    def to_dict(self) -> dict:
        """JSON-ready form of this report."""
        return {
            "n_shards": self.n_shards,
            "assignments": list(self.assignments),
            "steals": [s.to_dict() for s in self.steals],
            "reassignments": [r.to_dict() for r in self.reassignments],
            "node_respawns": self.node_respawns,
        }


class SerialBackend(ExecutorBackend):
    """In-process reference backend: no subprocesses, no IPC.

    Runs the same retry/quarantine loop as the fleets — seeded backoff,
    validation as ``corrupt-result``, poison on budget exhaustion — so
    its record stream is the parity reference the other backends are
    measured against.  A chaos fault it cannot survive for real (a
    crash, a hang, a lost node) is booked under the kind a fleet
    records, without running the task.
    """

    name = "serial"

    def stream(self, tasks: Sequence[SupervisedTask]) -> Iterator[object]:
        """Run all tasks in-process; yield outcomes in task order."""
        return self._supervise(tasks)

    def _step(self) -> None:
        if self._retry_heap or not self._pending:
            # One task at a time, retries included: wait out a failed
            # task's backoff rather than run ahead of it, so a fail-fast
            # sweep stops at its poison batch.
            time.sleep(self._wait_budget())
            return
        task, attempt = self._pending.popleft()
        fault = (self.chaos.attempt_fault(task.index, attempt)
                 if self.chaos else None)
        if fault in _SIMULATED_FAULTS:
            self._record_failure(task, attempt, *_SIMULATED_FAULTS[fault])
            return
        try:
            value = (corrupted_payload(task.index)
                     if fault == "corrupt-result"
                     else self.fn(task.payload, attempt))
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
        ledger: FailureLedger,
        chaos: ChaosPlan | None = None,
        n_nodes: int = 2,
        validate: Callable | None = None,
        max_node_respawns: int = 16,
    ):
        super().__init__(fn, ledger, chaos, validate, max_node_respawns)
        self.n_nodes = max(1, n_nodes)
        #: Test seam: one home shard per task, set before ``stream`` to
        #: starve or overload a lane.  None (every production caller)
        #: deals the tasks round-robin.
        self.home_shards: Sequence[int] | None = None
        self._queues: list[deque] = []
        self._home: list[int] = []
        self._steals: list[StealEvent] = []
        self._reassigns: list[ReassignEvent] = []

    # ``stream`` and ``close`` are defined on each backend class itself:
    # perfbench/layers.py wraps them through the class's own __dict__.
    def stream(self, tasks: Sequence[SupervisedTask]) -> Iterator[object]:
        """Run all tasks; yield outcomes in task order (see class doc)."""
        return self._supervise(tasks)

    def _start(self, tasks: list[SupervisedTask]) -> None:
        homes = (list(self.home_shards) if self.home_shards is not None
                 else [t.task_id % self.n_nodes for t in tasks])
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
        self._open(self.n_nodes)

    def _survivors(self) -> list[_FleetSlot]:
        survivors = [s for s in self._slots if s.alive]
        if not survivors:
            raise ResilienceError(
                "every node is lost; no shard can take the backlog"
            )
        return survivors

    def _retire(self, slot: _FleetSlot) -> None:
        """Abandon the node and reassign its backlog to the survivors."""
        survivors = self._survivors()
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
            target = survivors[task.task_id % len(survivors)]
            self._reassigns.append(
                ReassignEvent(home, target.slot_id, task.index)
            )
            self._home[task.task_id] = home = target.slot_id
        self._queues[home].appendleft((task, attempt))

    def _take_for(self, slot: _FleetSlot) -> tuple | None:
        """The steal rule, stated once: a node with room in its window
        takes the head of its own queue; with that queue empty it steals
        from the node with the largest backlog (ties to the lowest shard
        id), taking the victim's **tail** so the victim keeps its own
        next task.
        The stolen task is re-homed to the thief and logged as a
        :class:`StealEvent`."""
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
