"""Instrumented scenarios shared by the HB pass and the perturbation fuzzer.

Each scenario is a deterministic simulation entry point that can run

- **canonically** (``tiebreak_seed=None`` — the engine's documented
  insertion-order tie-break),
- **perturbed** (a seed permutes same-timestamp handler order), and
- **instrumented** (an observer — usually a
  :class:`repro.sanitize.hb.HappensBeforeTracker` — attached),

and returns a *worker-anonymous record*: the observables that must be
invariant under any same-timestamp permutation.  Worker-anonymous means
per-worker vectors are compared as multisets — with interchangeable
(uniform-speed) workers a permutation may relabel who did what, but never
what was done or when.

The injected variants (``inject_tie_race`` / ``arrival_order``) are the
sanitizer's fault-injection coverage: deliberately order-dependent
executions that the HB pass, the fuzzer, or both must flag.  Notably the
``arrival_order`` reduction is HB-*clean* (every accumulator access is
lock-ordered) yet order-*dependent* (float addition in arrival order) —
the case that proves the two passes are complementary, and the dynamic
twin of the static ``RACE001`` rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.arch.machines import get_machine
from repro.core.sweep import SweepPlan, run_sweep
from repro.desim.engine import Engine, Timeout, tiebreak_scope
from repro.desim.loopsim import simulate_loop
from repro.desim.resources import Barrier, Lock
from repro.runtime.icv import EnvConfig
from repro.runtime.program import LoopRegion, Program, SerialPhase, TaskRegion
from repro.runtime.trace import trace_execution

__all__ = [
    "Scenario",
    "loop_record",
    "reduction_record",
    "trace_record",
    "sweep_record",
    "clean_scenarios",
    "injected_scenarios",
]


@dataclass(frozen=True)
class Scenario:
    """A named, re-runnable simulation with an invariance contract."""

    name: str
    #: ``run(tiebreak_seed) -> record``; records of clean scenarios must
    #: be identical for every seed.
    run: Callable[[int | None], Any]


# ----------------------------------------------------------------------
# Worksharing loops (desim.Engine + Lock)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoopSpec:
    """One loop-simulation configuration worth fuzzing."""

    name: str
    schedule: str
    n_iters: int
    n_workers: int
    chunk: int = 1
    dispatch_time: float = 0.0
    cost_seed: int = 0


LOOP_SPECS: tuple[LoopSpec, ...] = (
    LoopSpec("loop-static", "static", 37, 5),
    LoopSpec("loop-dynamic", "dynamic", 40, 4, chunk=1),
    LoopSpec("loop-dynamic-chunked", "dynamic", 61, 7, chunk=3,
             dispatch_time=1e-3, cost_seed=2),
    LoopSpec("loop-guided", "guided", 96, 8, chunk=2, cost_seed=3),
)


def loop_record(
    spec: LoopSpec,
    tiebreak_seed: int | None = None,
    observer: Any = None,
    inject_tie_race: bool = False,
) -> dict:
    """Run one loop simulation; return its worker-anonymous record."""
    costs = np.random.default_rng(spec.cost_seed).uniform(
        0.5, 1.5, spec.n_iters
    )
    chunks: list[tuple] = []

    def on_chunk(w: int, lo: int, hi: int, start: float, dur: float) -> None:
        chunks.append((lo, hi, start, dur))

    result = simulate_loop(
        costs,
        spec.n_workers,
        schedule=spec.schedule,
        chunk=spec.chunk,
        dispatch_time=spec.dispatch_time,
        on_chunk=on_chunk,
        engine_observer=observer,
        tiebreak_seed=tiebreak_seed,
        inject_tie_race=inject_tie_race,
    )
    return {
        "makespan": result.makespan,
        "n_chunks": result.n_chunks,
        "dispatch_wait": result.dispatch_wait,
        "busy": tuple(sorted(result.busy)),
        "chunks": tuple(sorted(chunks)),
    }


# ----------------------------------------------------------------------
# Barrier + reduction primitive (desim.Engine + Lock + Barrier)
# ----------------------------------------------------------------------
#: Partial values chosen so that float addition in arrival order is
#: *non-associative across arrival groups*: absorbing 1e16 terms cancel
#: only if summed adjacently, so permuting same-timestamp arrivals flips
#: the total between distinct float results.
_PARTIALS = (1e16, -1e16, 0.5, 1.0, 3.0, 0.25)
#: Arrival delay per thread — threads w and w+3 arrive simultaneously,
#: manufacturing the same-timestamp ties the sanitizer exists to analyze.
_ARRIVALS = (0.25, 0.5, 0.75, 0.25, 0.5, 0.75)


def reduction_record(
    tiebreak_seed: int | None = None,
    observer: Any = None,
    arrival_order: bool = False,
) -> dict:
    """A 6-thread compute → combine → barrier rendezvous.

    ``arrival_order=False`` (the clean shape): each thread stores its
    partial in its own slot; after the barrier, thread 0 combines the
    slots in index order — deterministic under any tie-break.

    ``arrival_order=True`` (the injected fault): threads add their
    partial into one shared accumulator under a lock, *in arrival order*.
    Every access is happens-before ordered (the HB pass stays clean), yet
    the float total depends on which same-timestamp arrival wins the lock
    first — exactly the hazard of ``atomic``/``critical`` OpenMP
    reductions that the static rule RACE001 flags.
    """
    n = len(_PARTIALS)
    engine = Engine(observer=observer, tiebreak_seed=tiebreak_seed)
    lock = Lock(engine, name="reduce")
    barrier = Barrier(engine, parties=n, name="join")
    slots = [0.0] * n
    shared = {"acc": 0.0, "total": 0.0}

    def thread(w: int):
        yield Timeout(_ARRIVALS[w])
        if arrival_order:
            yield from lock.acquire()
            shared["acc"] += _PARTIALS[w]
            if engine._observer is not None:
                engine.notify(
                    "state_access", obj="accumulator", op="write",
                    label=f"thread{w} combine",
                )
            lock.release()
        else:
            slots[w] = _PARTIALS[w]
        yield from barrier.wait()
        if w == 0:
            if arrival_order:
                shared["total"] = shared["acc"]
            else:
                total = 0.0
                for v in slots:  # fixed index order: associativity pinned
                    total += v
                shared["total"] = total

    for w in range(n):
        engine.process(thread(w), name=f"thread{w}")
    engine.run()
    return {
        "total": shared["total"],
        "generations": barrier.generations,
        "makespan": engine.now,
    }


# ----------------------------------------------------------------------
# End-to-end production paths (executor trace + sweep)
# ----------------------------------------------------------------------
def _mixed_program() -> Program:
    """A small serial + loop + task program exercising every phase kind."""
    return Program(
        name="sanitize-mixed",
        phases=(
            SerialPhase(work=5.0, name="setup"),
            LoopRegion("sweep-loop", n_iters=64, iter_work=1.0,
                       n_reductions=1, trips=2),
            TaskRegion("task-tree", depth=4, branching=3, leaf_work=0.5,
                       node_work=0.1),
        ),
    )


def trace_record(tiebreak_seed: int | None = None) -> dict:
    """Phase timeline of a mixed program at DES fidelity.

    Runs under :func:`tiebreak_scope` so any :class:`Engine` the executor
    constructs — today none on this path, by design — inherits the
    perturbation.  The fuzzer asserting this record is seed-invariant is
    the standing guarantee that no engine tie-break ever leaks into
    production traces, including from future DES-backed execution paths.
    """
    program = _mixed_program()
    machine = get_machine("milan")
    config = EnvConfig(num_threads=8, schedule="dynamic", blocktime="0")
    with tiebreak_scope(tiebreak_seed):
        trace = trace_execution(program, machine, config, fidelity="des")
    return trace.to_dict()


def sweep_record(tiebreak_seed: int | None = None) -> dict:
    """Block bytes of a small single-workload sweep under perturbation."""
    plan = SweepPlan(
        arch="milan", workload_names=("xsbench",), scale="small",
        repetitions=1, inputs_limit=1,
    )
    with tiebreak_scope(tiebreak_seed):
        result = run_sweep(plan)
    return {"n_records": result.n_samples, "block": result.block.to_bytes()}


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
def clean_scenarios() -> tuple[Scenario, ...]:
    """Every scenario whose record must be tie-break invariant."""
    loops = tuple(
        Scenario(spec.name, lambda seed, s=spec: loop_record(s, seed))
        for spec in LOOP_SPECS
    )
    return loops + (
        Scenario("reduction-slots", lambda seed: reduction_record(seed)),
        Scenario("trace-des", trace_record),
        Scenario("sweep-small", sweep_record),
    )


def injected_scenarios() -> tuple[Scenario, ...]:
    """Deliberately order-dependent variants (fault-injection coverage)."""
    return (
        Scenario(
            "loop-dynamic-injected",
            lambda seed: loop_record(
                LOOP_SPECS[1], seed, inject_tie_race=True
            ),
        ),
        Scenario(
            "loop-static-injected",
            lambda seed: loop_record(
                LOOP_SPECS[0], seed, inject_tie_race=True
            ),
        ),
        Scenario(
            "reduction-arrival-order",
            lambda seed: reduction_record(seed, arrival_order=True),
        ),
    )
