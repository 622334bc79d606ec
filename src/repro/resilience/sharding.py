"""Shard planning for multi-backend sweep execution.

A *shard* is one node's home queue in the nodes backend, which runs
one node per process (``run_sweep``'s ``n_processes``).  The planner
in this module answers two questions deterministically — so the
parity checks can pin the answers — without touching any executor:

1. **Home assignment** — which shard a batch starts on.  When cache
   keys are available the assignment follows the key's hex prefix
   (:func:`partition_for_key`), so a given batch always starts on the
   same shard across runs and hosts.  Without keys, batches deal
   round-robin by index.  Results are still yielded in submission
   order, so records never depend on the node count.
2. **Rebalance** — :func:`simulate_rebalance` runs the work-stealing
   arbitration rule in virtual time, producing the steal schedule a
   backend with the given queue shapes and speeds would follow.

The arbitration rule is a *specification*, fixed and seed-independent
(the same stance PR 4 took for the loopsim work-stealing heap): an idle
shard steals from the richest backlog, ties broken by lowest shard id,
taking from the victim's queue **tail** so the victim keeps its
cache-partition-local head.  ``tiebreak_scope`` seeds perturb the
discrete-event engine, not this rule — the steal log for a given
scenario is identical under every seed, and the sharding tests pin
that.

Import discipline: this module is a leaf (stdlib + :mod:`repro.errors`
only), so the backends and the parity checks import it without cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError

__all__ = [
    "PARTITION_PREFIX_HEX",
    "partition_for_key",
    "ShardPlanner",
    "StealEvent",
    "ReassignEvent",
    "ShardReport",
    "simulate_rebalance",
]

#: Hex digits of the cache key that select a home shard.  Eight digits
#: (32 bits) of a uniform sha256 prefix spread keys evenly across any
#: practical shard count.
PARTITION_PREFIX_HEX = 8


def partition_for_key(key: str, n_shards: int) -> int:
    """The home shard of ``key`` (a 64-hex sweep-cache key).

    Deterministic in the key alone, so every process — sweep parent,
    pool worker, node — agrees on ownership without coordination.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    prefix = key[:PARTITION_PREFIX_HEX]
    try:
        value = int(prefix, 16)
    except ValueError:
        raise ConfigError(
            f"cache key {key!r} does not start with "
            f"{PARTITION_PREFIX_HEX} hex digits"
        ) from None
    return value % n_shards


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
    """Operational diagnostics from a sharded run.

    Deliberately *not* part of :class:`~repro.resilience.report.
    FailureReport`: steal/reassign schedules depend on wall-clock
    execution speed, and the failure report must stay bit-identical
    across runs (see ``docs/RESILIENCE.md``).
    """

    #: Nodes the fleet opened, one home shard each.
    n_shards: int
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


@dataclass(frozen=True)
class ShardPlanner:
    """Deterministic partitioner for a batch stream over ``n_shards``."""

    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )

    def shard_for_key(self, key: str) -> int:
        """Home shard of a batch addressed by its cache key."""
        return partition_for_key(key, self.n_shards)

    def shard_for_index(self, index: int) -> int:
        """Home shard of a batch with no cache key: round-robin."""
        return index % self.n_shards

    def assign(
        self,
        tasks: Sequence[object],
        keys: Sequence[str] | None = None,
    ) -> tuple[int, ...]:
        """Home shard per task position.

        With ``keys`` (one cache key per task), assignment follows each
        key's hex prefix (:func:`partition_for_key`), so a batch keeps
        its home shard across runs.  Without keys, tasks deal
        round-robin.
        """
        if keys is not None:
            if len(keys) != len(tasks):
                raise ConfigError(
                    f"got {len(keys)} keys for {len(tasks)} tasks"
                )
            return tuple(self.shard_for_key(k) for k in keys)
        return tuple(self.shard_for_index(i) for i in range(len(tasks)))


def simulate_rebalance(
    queues: Sequence[Sequence[int]],
    costs: Callable[[int], float] | None = None,
    speeds: Sequence[float] | None = None,
) -> tuple[list[tuple[int, int]], list[StealEvent], float]:
    """Run the work-stealing arbitration rule in virtual time.

    ``queues[s]`` is shard *s*'s home queue of task indices; ``costs``
    maps a task index to its virtual duration (default 1.0);
    ``speeds[s]`` scales shard *s*'s throughput (default 1.0 — a slow
    shard has speed < 1).  Returns ``(completions, steals, makespan)``
    where ``completions`` is the ordered ``(shard, task_index)``
    schedule.

    The rule, normative for every backend:

    - an idle shard takes the head of its own queue first;
    - with an empty home queue it steals from the shard with the
      **largest remaining backlog**, ties broken by **lowest shard
      id**, taking from the victim's **tail** (the victim keeps its
      partition-local head);
    - virtual-time ties in completion order resolve by lowest shard
      id.

    Pure and deterministic: no wall clock, no RNG, no discrete-event
    engine — ``tiebreak_scope`` seeds cannot perturb it, which the
    sharding tests pin.
    """
    n = len(queues)
    if n < 1:
        raise ConfigError("simulate_rebalance needs at least one shard")
    if speeds is not None and len(speeds) != n:
        raise ConfigError(
            f"got {len(speeds)} speeds for {n} shard(s)"
        )
    cost_of = costs if costs is not None else (lambda _i: 1.0)
    speed_of = list(speeds) if speeds is not None else [1.0] * n
    for s, spd in enumerate(speed_of):
        if spd <= 0:
            raise ConfigError(f"shard {s} speed must be > 0, got {spd}")

    backlog: list[list[int]] = [list(q) for q in queues]
    completions: list[tuple[int, int]] = []
    steals: list[StealEvent] = []
    # Heap of (virtual finish time, shard id): shard id is the total
    # tie-break, so same-instant completions pop lowest-id-first.
    ready: list[tuple[float, int]] = [(0.0, s) for s in range(n)]
    heapq.heapify(ready)
    clock = 0.0

    def take(shard: int) -> int | None:
        if backlog[shard]:
            return backlog[shard].pop(0)
        victim = -1
        richest = 0
        for v in range(n):
            if v != shard and len(backlog[v]) > richest:
                victim, richest = v, len(backlog[v])
        if victim < 0:
            return None
        stolen = backlog[victim].pop()
        steals.append(StealEvent(shard, victim, stolen))
        return stolen

    while ready:
        now, shard = heapq.heappop(ready)
        clock = max(clock, now)
        task = take(shard)
        if task is None:
            continue  # shard retires; remaining heap entries drain
        completions.append((shard, task))
        heapq.heappush(
            ready, (now + cost_of(task) / speed_of[shard], shard)
        )
    return completions, steals, clock
