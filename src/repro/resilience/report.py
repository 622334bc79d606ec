"""Failure accounting for supervised sweeps.

Every executor backend (serial, pool and nodes) is built with a
:class:`FailureLedger`, which holds the retry and fail policy the backend
follows, and books every failed attempt in it; the ledger condenses into a
:class:`FailureReport` attached to the :class:`~repro.core.sweep.SweepResult`
(and carried by :class:`~repro.errors.PoisonBatchError` under
``fail_policy="raise"``).  The report is rendered through the shared
:mod:`repro.reporting` serializer (``--format json|text``), alongside the
lint/check/sanitize artifacts.

Reports deliberately contain no wall-clock timestamps or worker ids:
given one :class:`~repro.resilience.chaos.ChaosPlan`, the report content
is bit-identical across runs (verified by the chaos determinism tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FAILURE_KINDS",
    "BatchAttempt",
    "BatchFailure",
    "FailureReport",
    "FailureLedger",
]

#: How one attempt of one batch can fail.  ``node-lost`` and
#: ``shard-partition`` are nodes-backend kinds: the node carrying the
#: batch died mid-message / was severed between messages.
FAILURE_KINDS = (
    "crash", "timeout", "error", "corrupt-result",
    "node-lost", "shard-partition",
)


@dataclass(frozen=True)
class BatchAttempt:
    """One failed attempt of one batch."""

    attempt: int
    kind: str
    cause: str

    def to_dict(self) -> dict:
        """JSON-ready form of this attempt."""
        return {"attempt": self.attempt, "kind": self.kind,
                "cause": self.cause}


@dataclass
class BatchFailure:
    """Everything that went wrong with one batch.

    A batch appears here as soon as one attempt fails; ``recovered``
    means a later attempt succeeded, ``quarantined`` means the retry
    budget ran out and the batch was declared poison.
    """

    index: int
    app: str
    input_size: str
    num_threads: int
    attempts: list[BatchAttempt] = field(default_factory=list)
    quarantined: bool = False
    recovered: bool = False

    @property
    def label(self) -> str:
        """Human-readable batch identity for report lines."""
        return f"{self.app}.{self.input_size}/T={self.num_threads}"

    def to_dict(self) -> dict:
        """JSON-ready form of this batch's failure history."""
        return {
            "index": self.index,
            "app": self.app,
            "input_size": self.input_size,
            "num_threads": self.num_threads,
            "attempts": [a.to_dict() for a in self.attempts],
            "quarantined": self.quarantined,
            "recovered": self.recovered,
        }


@dataclass
class FailureReport:
    """What failed during one sweep, and how the sweep coped.

    ``injected`` lists the chaos faults the run was asked to inject (empty
    for production runs), so a chaos report names every planned fault even
    when some — cache faults in particular — only become observable on a
    later resume.
    """

    fail_policy: str = "raise"
    max_retries: int = 0
    batches: list[BatchFailure] = field(default_factory=list)
    injected: list[dict] = field(default_factory=list)
    cache_corrupt_keys: list[str] = field(default_factory=list)
    worker_respawns: int = 0

    @property
    def n_failed_batches(self) -> int:
        """Batches with at least one failed attempt."""
        return len(self.batches)

    @property
    def n_quarantined(self) -> int:
        """Batches declared poison after exhausting their retries."""
        return sum(1 for b in self.batches if b.quarantined)

    @property
    def n_recovered(self) -> int:
        """Batches that failed at least once but eventually succeeded."""
        return sum(1 for b in self.batches if b.recovered)

    @property
    def n_attempts(self) -> int:
        """Failed attempts across all batches."""
        return sum(len(b.attempts) for b in self.batches)

    @property
    def clean(self) -> bool:
        """No failures and no cache corruption observed."""
        return not self.batches and not self.cache_corrupt_keys

    def to_dict(self) -> dict:
        """JSON-ready form (the ``failure_report`` report section)."""
        return {
            "fail_policy": self.fail_policy,
            "max_retries": self.max_retries,
            "n_failed_batches": self.n_failed_batches,
            "n_quarantined": self.n_quarantined,
            "n_recovered": self.n_recovered,
            "n_attempts": self.n_attempts,
            "worker_respawns": self.worker_respawns,
            "batches": [b.to_dict() for b in self.batches],
            "injected": list(self.injected),
            "cache_corrupt_keys": list(self.cache_corrupt_keys),
        }

    def format_text(self) -> str:
        """Human-readable report (the ``--format text`` section)."""
        if self.clean:
            return ("failure report: clean (no failed batches, no cache "
                    "corruption)")
        lines = [
            f"failure report (fail_policy={self.fail_policy}, "
            f"max_retries={self.max_retries}):"
        ]
        for b in self.batches:
            verdict = (
                "QUARANTINED" if b.quarantined
                else "recovered" if b.recovered
                else "unresolved"
            )
            lines.append(
                f"  batch {b.index:3d} {b.label:24s} {verdict} after "
                f"{len(b.attempts)} failed attempt(s)"
            )
            for a in b.attempts:
                lines.append(f"      #{a.attempt} {a.kind}: {a.cause}")
        if self.cache_corrupt_keys:
            lines.append(
                f"  cache: {len(self.cache_corrupt_keys)} corrupt "
                "entry(ies) quarantined to <key>.corrupt:"
            )
            for key in self.cache_corrupt_keys:
                lines.append(f"      {key}")
        if self.injected:
            spelled = ", ".join(
                f"{f['kind']}@{f['batch_index']}"
                + ("(poison)"
                   if f.get("attempts") == "all"
                   and not f["kind"].startswith("cache-") else "")
                for f in self.injected
            )
            lines.append(f"  injected chaos: {spelled}")
        if self.worker_respawns:
            lines.append(f"  workers respawned: {self.worker_respawns}")
        lines.append(
            f"{self.n_failed_batches} batch(es) failed at least once: "
            f"{self.n_recovered} recovered, {self.n_quarantined} "
            f"quarantined ({self.n_attempts} failed attempts)"
        )
        return "\n".join(lines)


class FailureLedger:
    """A backend's failure bookkeeping, and its retry and fail policy.

    ``record_failure`` returns whether another retry is allowed under the
    policy; once it returns False the batch is quarantined.  The ledger
    itself never raises — the backend holding it raises under
    ``fail_policy="raise"``.
    """

    def __init__(self, policy, fail_policy: str = "raise"):
        self.policy = policy
        self.fail_policy = fail_policy
        self._by_index: dict[int, BatchFailure] = {}

    def record_failure(self, index: int, batch, attempt: int,
                       kind: str, cause: str) -> bool:
        """Record one failed attempt; True if a retry is still allowed.

        ``batch`` is duck-typed: anything with ``app``, ``input_size``
        and ``nthreads`` (a :class:`~repro.core.sweep.BatchSpec`).
        """
        entry = self._by_index.get(index)
        if entry is None:
            entry = self._by_index[index] = BatchFailure(
                index=index,
                app=getattr(batch, "app", "?"),
                input_size=getattr(batch, "input_size", "?"),
                num_threads=getattr(batch, "nthreads", 0),
            )
        entry.attempts.append(BatchAttempt(attempt, kind, cause))
        if attempt >= self.policy.max_retries:
            entry.quarantined = True
            return False
        return True

    def record_success(self, index: int) -> None:
        """Mark a previously failing batch as recovered."""
        entry = self._by_index.get(index)
        if entry is not None:
            entry.recovered = True
            entry.quarantined = False

    def build_report(
        self,
        injected=(),
        cache_corrupt_keys=(),
        worker_respawns: int = 0,
    ) -> FailureReport:
        """Condense the ledger into a :class:`FailureReport`."""
        return FailureReport(
            fail_policy=self.fail_policy,
            max_retries=self.policy.max_retries,
            batches=[self._by_index[i] for i in sorted(self._by_index)],
            injected=list(injected),
            cache_corrupt_keys=list(cache_corrupt_keys),
            worker_respawns=worker_respawns,
        )
