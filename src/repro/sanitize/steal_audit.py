"""Work-stealing order audit.

The work-stealing simulator's trajectories *legitimately* depend on its
documented ``(time, sequence)`` event order plus the victim-selection
seed (see :mod:`repro.desim.stealing`): which idle worker reaches a
contended deque first is simulated arbitration, not hidden
nondeterminism.  The sanitizer therefore does not perturb that heap —
it audits the contract instead:

- **replay determinism** — two runs of the same graph, speeds and seed
  must produce identical decision streams (``RACE102`` error if not),
- **arbitration visibility** — same-timestamp groups of scheduler
  decisions from distinct workers are counted and surfaced as one
  ``RACE103`` info finding, so reviewers see how much of a trajectory
  rests on the documented order rather than on task timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.desim.stealing import SpawnTree, WorkStealingSimulator
from repro.lint.findings import Finding, Severity

__all__ = ["StealOrderAuditor", "audit_work_stealing"]


@dataclass
class StealOrderAuditor:
    """Observer for :meth:`WorkStealingSimulator.run` decision hooks."""

    events: list[tuple] = field(default_factory=list)

    # Hook signatures match the observer contract documented on run().
    def on_pop(self, now: float, worker: int, task_id: int) -> None:
        """A worker popped a task from its own deque."""
        self.events.append((now, "pop", worker, worker, task_id))

    def on_steal(
        self, now: float, thief: int, victim: int, task_id: int
    ) -> None:
        """A thief stole a task from a victim's deque."""
        self.events.append((now, "steal", thief, victim, task_id))

    def digest(self) -> tuple:
        """The full decision stream (replay-comparison key)."""
        return tuple(self.events)

    def arbitrated_ties(self) -> int:
        """Same-timestamp groups whose outcome the event order arbitrated.

        A group counts when at least two distinct workers made decisions
        (every decision is a pop or a steal, so each takes work from a
        deque) at one timestamp — the situations where the documented
        ``(time, seq)`` order, not task timing, decided who got the work.
        """
        workers: dict[float, set[int]] = {}
        for ev in self.events:
            workers.setdefault(ev[0], set()).add(ev[2])
        return sum(len(group) > 1 for group in workers.values())


def audit_work_stealing(
    n_workers: int = 4,
    depth: int = 4,
    branching: int = 3,
    seed: int = 0,
) -> tuple[list[Finding], dict]:
    """Replay-determinism + arbitration audit of one task-tree execution."""
    tree = SpawnTree(depth, branching, leaf_work=1e-4, node_work=2e-5)

    def one_run() -> tuple[StealOrderAuditor, float]:
        sim = WorkStealingSimulator(n_workers, seed=seed)
        auditor = StealOrderAuditor()
        result = sim.run(tree, observer=auditor)
        return auditor, result.makespan

    first, makespan_a = one_run()
    second, makespan_b = one_run()

    findings: list[Finding] = []
    if first.digest() != second.digest() or makespan_a != makespan_b:
        findings.append(
            Finding(
                rule="RACE102",
                severity=Severity.ERROR,
                subject="work-stealing",
                message=(
                    "work-stealing replay diverged: two runs with "
                    f"identical tree/seed produced different decision "
                    f"streams ({len(first.events)} vs "
                    f"{len(second.events)} events) — the simulator leaks "
                    "state between runs"
                ),
                fixit="hunt for module/global state in the stealing path",
            )
        )
    ties = first.arbitrated_ties()
    if ties:
        findings.append(
            Finding(
                rule="RACE103",
                severity=Severity.INFO,
                subject="work-stealing",
                message=(
                    f"{ties} same-timestamp deque contention(s) arbitrated "
                    "by the documented (time, sequence) event order — "
                    "expected simulated behavior, surfaced for visibility"
                ),
            )
        )
    stats = {
        "n_decisions": len(first.events),
        "n_arbitrated_ties": ties,
        "makespan": makespan_a,
        "replay_identical": first.digest() == second.digest(),
    }
    return findings, stats
