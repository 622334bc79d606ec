"""Request coalescing: identical in-flight grid requests share one sweep.

A multi-tenant tuner sees bursts of the *same* question — a CI fleet
asking for the milan/NQueens recommendation fans out as N identical
requests within a second.  Running N identical sweeps would multiply
load by N for zero information; coalescing folds them onto one in-flight
job and hands every requester the same job id (and therefore the same
records).

"Identical" is decided by :func:`sweep_request_key`, a digest of the
plan's own fields plus the execution knobs that shape the response
(backend, process count, fail policy).  Within one daemon the
configuration space and the machine registry are fixed, so equal plans
expand to the same grid, machine and batches — everything the sweep
cache's ``key_material`` holds.  Two requests with equal keys are
therefore record-identical, so sharing a job is safe, never a guess.
A field that never changes records (``prune``) can only keep two
requests apart; it never makes them share wrongly.

Only **in-flight** (queued or running) jobs coalesce.  A finished job's
results live in the sweep cache; re-running the plan is then a pure
cache read, so folding onto completed jobs would only add staleness
questions for no savings.

The ``/recommend`` waiters of one coalesced job also share the answer:
the daemon computes one recommendation per ``(quantile, min_lift)``
while it is in flight, hands the first computation's result (or its
error) to every waiter with that pair, and keeps nothing once it
finishes (``TuningDaemon._shared_recommendations``).  That sharing
lives on the daemon's event loop, not in :class:`Coalescer`, whose
counters count jobs only.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Callable

from repro.core.sweep import SweepPlan

__all__ = ["Coalescer", "sweep_request_key"]


def sweep_request_key(
    plan: SweepPlan,
    *,
    backend: str,
    n_processes: int,
    fail_policy: str,
) -> str:
    """The coalescing key of one sweep request (64-hex digest).

    Digests the plan's fields (its dataclass ``repr``) and the
    execution knobs, which shape the response body (degraded markers,
    failure report, the processes reported in ``n_shards``) even though
    they never change the records.
    """
    identity = repr((plan, backend, n_processes, fail_policy))
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


class Coalescer:
    """In-flight request folding, keyed by :func:`sweep_request_key`.

    Thread-safe.  The factory runs *under the lock*, which is what
    makes the guarantee airtight: between "no job for this key" and
    "this job owns the key" no other thread can observe the gap, so N
    racing identical requests produce exactly one factory call.
    Factories must therefore be cheap (create-and-enqueue, never run).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[str, object] = {}
        #: Requests folded onto an existing job, total.
        self.coalesced = 0
        #: Jobs created (factory calls), total.
        self.created = 0

    def get_or_create(
        self, key: str, factory: Callable[[], object]
    ) -> tuple[object, bool]:
        """The in-flight job for ``key``, creating it if absent.

        Returns ``(job, created)``; ``created`` is True for the one
        caller whose factory ran, False for every coalesced follower.
        """
        with self._lock:
            job = self._inflight.get(key)
            if job is not None:
                self.coalesced += 1
                return job, False
            job = factory()
            self._inflight[key] = job
            self.created += 1
            return job, True

    def release(self, key: str, job: object) -> None:
        """Drop ``key`` once ``job`` is terminal (idempotent; a newer
        job under the same key is left alone)."""
        with self._lock:
            if self._inflight.get(key) is job:
                del self._inflight[key]

    def inflight(self) -> int:
        """Number of keys currently folded onto in-flight jobs."""
        with self._lock:
            return len(self._inflight)

    def describe(self) -> dict:
        """JSON-ready coalescer snapshot (health endpoint)."""
        with self._lock:
            return {
                "inflight_keys": len(self._inflight),
                "coalesced": self.coalesced,
                "created": self.created,
            }
