"""Simulator invariants (the "does the simulator tell the truth about
itself" layer).

Built on the simulators' opt-in instrumentation hooks (``on_chunk``,
``on_task`` and the work-stealing decision observer), the ``check_*``
functions drive representative simulations and assert:

- **iteration coverage** — a worksharing loop executes every iteration
  exactly once across all chunks, on every schedule,
- **per-core occupancy** — no worker executes two chunks at once, and no
  more workers appear than the machine model provides,
- **task conservation** — work stealing executes every task exactly once,
- **steal replay** — two work-stealing runs of one tree and seed make the
  identical pop/steal decision stream.

Each check raises :class:`~repro.errors.CheckFailure` on violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.desim.loopsim import simulate_loop
from repro.desim.stealing import SpawnTree, WorkStealingSimulator
from repro.errors import CheckFailure
from repro.runtime.schedule import iterate_chunks

__all__ = [
    "StealOrderAuditor",
    "check_loop_iteration_coverage",
    "check_schedule_chunk_coverage",
    "check_work_stealing_conservation",
    "check_work_stealing_replay",
]


def _coverage_failure(kind: str, context: str, counts: np.ndarray) -> str:
    missed = np.nonzero(counts == 0)[0]
    dupe = np.nonzero(counts > 1)[0]
    parts = []
    if missed.size:
        parts.append(f"{missed.size} iteration(s) never executed "
                     f"(first: {int(missed[0])})")
    if dupe.size:
        parts.append(f"{dupe.size} iteration(s) executed more than once "
                     f"(first: {int(dupe[0])})")
    return f"{kind} {context}: " + "; ".join(parts)


def check_loop_iteration_coverage(
    n_iters: int = 257, seed: int = 0
) -> dict:
    """Every loop iteration executes exactly once across chunks, no worker
    overlaps itself, and no phantom workers appear — on every schedule.

    Uses :func:`simulate_loop`'s ``on_chunk`` instrumentation.
    """
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.5, 1.5, size=n_iters)
    cases = [
        ("static", 1, 1), ("static", 7, 1), ("static", 8, 3),
        ("dynamic", 4, 1), ("dynamic", 7, 5), ("dynamic", 16, 32),
        ("guided", 4, 1), ("guided", 8, 2),
    ]
    total_chunks = 0
    for kind, workers, chunk in cases:
        counts = np.zeros(n_iters, dtype=np.int64)
        intervals: dict[int, list[tuple[float, float]]] = {}

        def on_chunk(w, lo, hi, start, duration):
            counts[lo:hi] += 1
            intervals.setdefault(w, []).append((start, start + duration))

        simulate_loop(
            costs, workers, schedule=kind, chunk=chunk,
            dispatch_time=1e-3, on_chunk=on_chunk,
        )
        context = f"(T={workers}, chunk={chunk}, n={n_iters})"
        if (counts != 1).any():
            raise CheckFailure(_coverage_failure(kind, context, counts))
        if len(intervals) > workers:
            raise CheckFailure(
                f"{kind} {context}: {len(intervals)} workers executed "
                f"chunks but the team has only {workers}"
            )
        for w, spans in intervals.items():
            spans.sort()
            for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
                if start_b < end_a - 1e-12:
                    raise CheckFailure(
                        f"{kind} {context}: worker {w} executed overlapping "
                        f"chunks ([..{end_a}] vs [{start_b}..])"
                    )
            total_chunks += len(spans)
    return {
        "details": f"{len(cases)} schedule cases, {total_chunks} chunks, "
                   f"every iteration exactly once",
        "n_cases": len(cases),
        "n_chunks": total_chunks,
    }


def check_schedule_chunk_coverage() -> dict:
    """:func:`iterate_chunks` tiles the iteration space exactly once and
    its chunk counts agree with the analytic model's closed forms."""
    from repro.runtime.schedule import _guided_chunks

    cases = [
        ("static", 100, 8, None), ("static", 7, 12, None),
        ("static", 100, 8, 13), ("static", 64, 4, 16),
        ("dynamic", 100, 8, 1), ("dynamic", 101, 8, 7),
        ("dynamic", 5, 16, 3),
        ("guided", 100, 8, None), ("guided", 1000, 16, 4),
        ("guided", 33, 48, None),
    ]
    for kind, n, T, chunk in cases:
        counts = np.zeros(n, dtype=np.int64)
        n_chunks = 0
        prev_hi = 0
        for lo, hi in iterate_chunks(kind, n, T, chunk):
            if not (0 <= lo <= hi <= n):
                raise CheckFailure(
                    f"{kind}(n={n}, T={T}, chunk={chunk}): chunk "
                    f"[{lo}, {hi}) out of bounds"
                )
            if kind != "static" or chunk is not None:
                # Dispatch-ordered schedules hand out ranges in order.
                if lo != prev_hi:
                    raise CheckFailure(
                        f"{kind}(n={n}, T={T}, chunk={chunk}): gap or "
                        f"overlap at iteration {prev_hi} (next chunk "
                        f"starts at {lo})"
                    )
            counts[lo:hi] += 1
            prev_hi = hi
            n_chunks += 1
        context = f"(n={n}, T={T}, chunk={chunk})"
        if (counts != 1).any():
            raise CheckFailure(_coverage_failure(kind, context, counts))

        # Cross-validate against the closed forms the pricing model uses.
        if kind == "static" and chunk is None:
            expected = min(T, n)
        elif kind in ("static", "dynamic"):
            expected = max(1, -(-n // (chunk or 1)))
        else:
            expected = None  # guided closed form is approximate
        if expected is not None and n_chunks != expected:
            raise CheckFailure(
                f"{kind} {context}: enumerated {n_chunks} chunks, closed "
                f"form predicts {expected}"
            )
        if kind == "guided" and (chunk is None or chunk == 1):
            approx = min(_guided_chunks(n, T), n)
            if not (0.3 * approx <= n_chunks <= 3.0 * approx + T):
                raise CheckFailure(
                    f"guided {context}: enumerated {n_chunks} chunks, far "
                    f"from the analytic approximation {approx}"
                )
    return {"details": f"{len(cases)} (schedule, n, T, chunk) cases tiled "
                       "exactly once, counts match closed forms",
            "n_cases": len(cases)}


def check_work_stealing_conservation() -> dict:
    """Work stealing executes every task in the tree exactly once, and
    the per-task spans account for the reported busy time."""
    trees = [
        ("balanced", SpawnTree(4, 3, leaf_work=1e-4, node_work=2e-5)),
        # A dependency chain: each task spawns exactly one child.
        ("chain", SpawnTree(39, 1, leaf_work=5e-5, node_work=5e-5)),
        ("wide", SpawnTree(1, 64, leaf_work=3e-5)),
    ]
    for name, tree in trees:
        for workers in (1, 4, 7):
            executed: dict[int, int] = {}
            span_total = 0.0

            def on_task(w, tid, start, end):
                nonlocal span_total
                executed[tid] = executed.get(tid, 0) + 1
                span_total += end - start

            sim = WorkStealingSimulator(workers, seed=3)
            result = sim.run(tree, on_task=on_task)
            context = f"{name} tree, T={workers}"
            if len(executed) != tree.n_tasks:
                raise CheckFailure(
                    f"{context}: executed {len(executed)} distinct tasks, "
                    f"tree has {tree.n_tasks}"
                )
            dupes = [t for t, c in executed.items() if c != 1]
            if dupes:
                raise CheckFailure(
                    f"{context}: task(s) {dupes[:5]} executed more than once"
                )
            if not np.isclose(span_total, result.busy_time, rtol=1e-9):
                raise CheckFailure(
                    f"{context}: per-task spans sum to {span_total}, "
                    f"simulator reports busy_time={result.busy_time}"
                )
    return {"details": f"{len(trees)} trees x 3 team sizes: every task "
                       "exactly once, busy time conserved",
            "n_graphs": len(trees)}


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


def check_work_stealing_replay() -> dict:
    """Two runs of one spawn tree and seed make the identical pop/steal
    decision stream and makespan.

    The work-stealing simulator's trajectories *legitimately* depend on
    its documented ``(time, sequence)`` event order plus the victim
    seed (see :mod:`repro.desim.stealing`): which idle worker reaches a
    contended deque first is simulated arbitration, not hidden
    nondeterminism.  This relation audits that contract: a divergent
    replay means state leaks between runs.  The count of same-timestamp
    groups the order arbitrated is reported, not judged.
    """
    tree = SpawnTree(4, 3, leaf_work=1e-4, node_work=2e-5)
    runs = []
    for _ in range(2):
        auditor = StealOrderAuditor()
        result = WorkStealingSimulator(4, seed=0).run(
            tree, observer=auditor
        )
        runs.append((auditor, result.makespan))
    (first, makespan), (second, makespan_b) = runs
    if first.events != second.events or makespan != makespan_b:
        raise CheckFailure(
            "work-stealing replay diverged: two runs with identical "
            f"tree/seed produced different decision streams "
            f"({len(first.events)} vs {len(second.events)} events, "
            f"makespan {makespan!r} vs {makespan_b!r}) — the simulator "
            "leaks state between runs"
        )
    ties = first.arbitrated_ties()
    return {
        "details": f"{len(first.events)} pop/steal decisions replayed "
                   f"identically; {ties} same-timestamp contention(s) "
                   "arbitrated by the (time, sequence) order",
        "n_decisions": len(first.events),
        "n_arbitrated_ties": ties,
        "makespan": makespan,
    }
