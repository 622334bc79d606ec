"""Engine and simulator invariants (the "does the simulator tell the
truth about itself" layer).

Built on the opt-in instrumentation hooks: :class:`InvariantObserver`
plugs into :class:`repro.desim.engine.Engine` and records violations of
the kernel's structural laws, and the ``check_*`` functions drive
representative simulations through the observers:

- **monotonic clock** — event times never decrease as the engine runs,
- **no scheduling into the past** — every scheduled delay is >= 0,
- **live-process conservation** — every started process finishes, and the
  engine's live count returns to zero,
- **iteration coverage** — a worksharing loop executes every iteration
  exactly once across all chunks, on every schedule,
- **per-core occupancy** — no worker executes two chunks at once, and no
  more workers appear than the machine model provides,
- **task conservation** — work stealing executes every task exactly once.

Each check raises :class:`~repro.errors.CheckFailure` on violation.
"""

from __future__ import annotations

import numpy as np

from repro.desim.engine import Engine, Timeout
from repro.desim.loopsim import simulate_loop
from repro.desim.stealing import SpawnTree, WorkStealingSimulator
from repro.errors import CheckFailure, SimulationError
from repro.runtime.schedule import iterate_chunks

__all__ = [
    "InvariantObserver",
    "check_engine_invariants",
    "check_no_negative_delay",
    "check_loop_iteration_coverage",
    "check_schedule_chunk_coverage",
    "check_work_stealing_conservation",
]


class InvariantObserver:
    """Engine observer that records structural-invariant violations.

    Attach to an :class:`Engine` (``Engine(observer=...)``); after the run,
    :attr:`violations` lists every broken law and :meth:`assert_clean`
    raises :class:`CheckFailure` if any were seen.
    """

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.n_scheduled = 0
        self.n_advanced = 0
        self.n_started = 0
        self.n_finished = 0
        self._last_advance: float | None = None

    # -- Engine hooks ---------------------------------------------------
    def on_schedule(self, now: float, delay: float) -> None:
        """A callback entered the event heap; flag negative delays."""
        self.n_scheduled += 1
        if delay < 0:
            self.violations.append(
                f"negative delay {delay!r} reached _schedule at t={now!r}"
            )

    def on_advance(self, time: float) -> None:
        """The clock advanced; flag any backwards movement."""
        self.n_advanced += 1
        if self._last_advance is not None and time < self._last_advance:
            self.violations.append(
                f"clock moved backwards: {self._last_advance!r} -> {time!r}"
            )
        self._last_advance = time

    def on_process_start(self, proc) -> None:
        """A process was registered with the engine."""
        self.n_started += 1

    def on_process_finish(self, proc) -> None:
        """A process generator was exhausted."""
        self.n_finished += 1

    # -- Post-run assertions --------------------------------------------
    def assert_clean(self, engine: Engine | None = None) -> None:
        """Raise :class:`CheckFailure` on any recorded violation, on
        unbalanced process accounting, or (given the engine) a nonzero
        residual live count."""
        problems = list(self.violations)
        if self.n_finished != self.n_started:
            problems.append(
                f"process accounting unbalanced: {self.n_started} started, "
                f"{self.n_finished} finished"
            )
        if engine is not None and engine.live_processes != 0:
            problems.append(
                f"engine reports {engine.live_processes} live process(es) "
                "after a drained run"
            )
        if problems:
            raise CheckFailure("; ".join(problems))


def check_engine_invariants() -> dict:
    """Drive an observed engine through a mixed workload and assert the
    clock/scheduling/process laws held throughout."""
    obs = InvariantObserver()
    eng = Engine(observer=obs)
    gate = eng.event()

    def staggered(d):
        yield Timeout(d)
        yield Timeout(d / 2)

    def waiter():
        yield gate

    def firer():
        yield Timeout(1.5)
        gate.succeed("go")

    for d in (3.0, 1.0, 2.0, 0.5):
        eng.process(staggered(d))
    eng.process(waiter())
    eng.process(firer())
    eng.run()
    obs.assert_clean(eng)
    return {
        "details": (
            f"{obs.n_started} processes, {obs.n_scheduled} schedules, "
            f"{obs.n_advanced} advances, clock monotone"
        ),
        "n_scheduled": obs.n_scheduled,
        "n_advanced": obs.n_advanced,
    }


def check_no_negative_delay() -> str:
    """The engine's guards against scheduling into the past are active."""
    eng = Engine()
    try:
        eng._schedule(-1e-9, lambda arg: None, None)
    except SimulationError:
        pass
    else:
        raise CheckFailure("negative _schedule delay was accepted")

    eng2 = Engine()

    def worker():
        yield Timeout(10.0)

    eng2.process(worker())
    eng2.run(until=5.0)
    try:
        eng2.run(until=1.0)
    except SimulationError:
        pass
    else:
        raise CheckFailure("run(until=past) moved the clock backwards")
    return "negative-delay and backwards-until guards active"


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

    Uses :func:`simulate_loop`'s ``on_chunk`` instrumentation plus an
    :class:`InvariantObserver` on the underlying engine.
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
        obs = InvariantObserver()

        def on_chunk(w, lo, hi, start, duration):
            counts[lo:hi] += 1
            intervals.setdefault(w, []).append((start, start + duration))

        simulate_loop(
            costs, workers, schedule=kind, chunk=chunk,
            dispatch_time=1e-3, on_chunk=on_chunk, engine_observer=obs,
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
        obs.assert_clean()
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
