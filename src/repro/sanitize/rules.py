"""Static concurrency rules over Program x EnvConfig x MachineTopology.

The ``RACE0xx`` family flags configurations whose *results* are ordering-
sensitive on a real runtime (float-associativity-sensitive reduction
combines, timing-dependent chunk placement); the ``DLK0xx`` family flags
deadlock- and starvation-prone interactions between wait policy, thread
placement and program shape.  Like the config-lint plane, every rule
reasons with the *resolved* ICVs — the same derivation the executor uses
— so each finding is decidable statically and carries the derivation that
decides it.

Rule ids are stable; ``docs/LINTING.md`` is the catalog.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.arch.topology import MachineTopology
from repro.lint.findings import Finding, Severity
from repro.runtime.affinity import compute_placement
from repro.runtime.costs import work_seconds
from repro.runtime.icv import (
    EnvConfig,
    ReductionMethod,
    ResolvedICVs,
    ScheduleKind,
    WaitPolicy,
    resolve_icvs,
)
from repro.runtime.program import LoopRegion, Program, TaskRegion

__all__ = ["SANITIZE_RULES", "sanitize_config"]

SanitizeRule = Callable[
    [EnvConfig, ResolvedICVs, MachineTopology, "Program | None"],
    Iterable[Finding],
]

SANITIZE_RULES: list[SanitizeRule] = []


def rule(func: SanitizeRule) -> SanitizeRule:
    """Register a static sanitize rule (import order = report order)."""
    SANITIZE_RULES.append(func)
    return func


_REDUCTION_RULE = (
    "KMP_FORCE_REDUCTION overrides; default = atomic/critical for small "
    "teams, tree otherwise (Sec. III-6)"
)
_WAIT_RULE = (
    "OMP_WAIT_POLICY = ACTIVE if KMP_LIBRARY=turnaround or "
    "KMP_BLOCKTIME=infinite else PASSIVE (Sec. III-4/5)"
)


def _reduction_loops(program: Program | None) -> list[LoopRegion]:
    if program is None:
        return []
    return [
        p for p in program.phases
        if isinstance(p, LoopRegion) and p.n_reductions > 0
    ]


@rule
def _race001_arrival_order_combine(config, icvs, machine, program):
    """RACE001: atomic/critical reductions combine partials in thread
    *arrival order* — float addition is not associative, so the result
    varies run to run even on a correct runtime."""
    loops = _reduction_loops(program)
    if not loops or icvs.nthreads <= 1:
        return
    if icvs.reduction not in (ReductionMethod.ATOMIC,
                              ReductionMethod.CRITICAL):
        return
    names = ", ".join(p.name for p in loops)
    yield Finding(
        rule="RACE001",
        severity=Severity.WARNING,
        subject=f"{program.name}: reduction combine",
        message=(
            f"{icvs.reduction.value} reduction combines partials in "
            f"thread-arrival order across {icvs.nthreads} threads "
            f"(loops: {names}) — float associativity makes the result "
            "ordering-sensitive run to run"
        ),
        fixit="set KMP_FORCE_REDUCTION=tree for a fixed combine shape",
        icv_rule=_REDUCTION_RULE,
    )


@rule
def _race002_timing_dependent_partials(config, icvs, machine, program):
    """RACE002: dynamic/guided scheduling assigns chunks by request
    timing, so even a deterministic combine sums differently-grouped
    partials across runs."""
    loops = [
        p for p in _reduction_loops(program) if p.fixed_schedule is None
    ]
    if not loops or icvs.nthreads <= 1:
        return
    if icvs.schedule not in (ScheduleKind.DYNAMIC, ScheduleKind.GUIDED):
        return
    names = ", ".join(p.name for p in loops)
    yield Finding(
        rule="RACE002",
        severity=Severity.WARNING,
        subject=f"{program.name}: partial-sum grouping",
        message=(
            f"OMP_SCHEDULE={icvs.schedule.value} assigns iterations to "
            f"threads by request timing, so per-thread reduction partials "
            f"group differently on every run (loops: {names}) — "
            "bit-reproducibility is lost before the combine even starts"
        ),
        fixit=(
            "use schedule(static) on reduction loops that must be "
            "bit-reproducible"
        ),
    )


@rule
def _race003_steal_order_placement(config, icvs, machine, program):
    """RACE003: random-victim work stealing makes task-to-thread placement
    nondeterministic on a real runtime (the simulator pins it with a
    seed).  Informational — tasking trades placement determinism for load
    balance by design."""
    if program is None or not program.uses_tasks or icvs.nthreads <= 1:
        return
    regions = [p for p in program.phases if isinstance(p, TaskRegion)]
    names = ", ".join(p.name for p in regions)
    yield Finding(
        rule="RACE003",
        severity=Severity.INFO,
        subject=f"{program.name}: task placement",
        message=(
            f"task regions ({names}) run under random-victim work "
            f"stealing on {icvs.nthreads} threads: task-to-thread "
            "placement (and any NUMA locality derived from it) is "
            "nondeterministic on a real runtime; the simulator pins it "
            "with a documented seed"
        ),
    )


@rule
def _dlk001_oversubscribed_spin(config, icvs, machine, program):
    """DLK001: more spinning threads than cores — every barrier and steal
    loop timeshares against its own team; forward progress can stall
    arbitrarily long (the paper's pathological active-wait regime)."""
    if icvs.nthreads <= machine.n_cores:
        return
    if icvs.wait_policy is not WaitPolicy.ACTIVE:
        return
    yield Finding(
        rule="DLK001",
        severity=Severity.ERROR,
        subject="OMP_NUM_THREADS",
        message=(
            f"{icvs.nthreads} ACTIVE-wait threads on {machine.n_cores} "
            f"cores ({machine.name}): spinning waiters timeshare against "
            "the workers they wait on, so barriers and task waits can "
            "starve indefinitely"
        ),
        fixit=(
            "set OMP_WAIT_POLICY=passive (or a finite KMP_BLOCKTIME with "
            "KMP_LIBRARY=throughput), or cap OMP_NUM_THREADS at the core "
            "count"
        ),
        icv_rule=_WAIT_RULE,
    )


@rule
def _dlk002_task_tree_starvation(config, icvs, machine, program):
    """DLK002: passive waiters sleep after blocktime, but a task region's
    critical path keeps one worker busy far longer — sleeping threads
    must be kicked awake to steal, serializing the tree."""
    if program is None or icvs.nthreads <= 1:
        return
    if icvs.wait_policy is not WaitPolicy.PASSIVE:
        return
    blocktime_s = icvs.blocktime_ms / 1e3
    slow = [
        p for p in program.phases
        if isinstance(p, TaskRegion)
        and work_seconds(p.critical_path_work, machine) > blocktime_s
        and p.n_tasks > icvs.nthreads
    ]
    if not slow:
        return
    names = ", ".join(p.name for p in slow)
    yield Finding(
        rule="DLK002",
        severity=Severity.WARNING,
        subject=f"{program.name}: task starvation",
        message=(
            f"task region(s) {names}: the spawn tree's critical path "
            f"outlives KMP_BLOCKTIME={icvs.blocktime_ms:g}ms, so idle "
            "workers fall asleep mid-region and each steal first pays a "
            "wake-up — the tree degrades toward serial execution"
        ),
        fixit=(
            "raise KMP_BLOCKTIME past the region's critical path, or use "
            "KMP_LIBRARY=turnaround for task-heavy programs"
        ),
        icv_rule=_WAIT_RULE,
    )


@rule
def _dlk003_unreachable_barrier_parties(config, icvs, machine, program):
    """DLK003: a loop with fewer iterations than threads still makes
    every thread arrive at the region-end barrier — threads that can
    never receive work cycle through trips * barrier for nothing."""
    if program is None or icvs.nthreads <= 1:
        return
    starved = [
        p for p in program.phases
        if isinstance(p, LoopRegion) and p.n_iters < icvs.nthreads
    ]
    if not starved:
        return
    for p in starved:
        idle = icvs.nthreads - p.n_iters
        yield Finding(
            rule="DLK003",
            severity=Severity.WARNING,
            subject=f"{program.name}: {p.name}",
            message=(
                f"loop {p.name!r} has {p.n_iters} iterations for "
                f"{icvs.nthreads} threads: {idle} thread(s) can never "
                f"receive work yet must arrive at the implicit barrier "
                f"on every one of {p.trips} trip(s)"
            ),
            fixit=(
                "size the team to the loop (num_threads clause) or "
                "collapse/expand the iteration space"
            ),
        )


@rule
def _dlk004_oversubscribed_timeshare(config, icvs, machine, program):
    """DLK004: oversubscribed placement without active spin — no
    starvation deadlock (DLK001 covers that), but every barrier waits for
    the slowest timeshared core, and nested regions multiply it."""
    placement = compute_placement(icvs, machine)
    if placement.max_oversubscription <= 1:
        return
    if icvs.nthreads > machine.n_cores and (
        icvs.wait_policy is WaitPolicy.ACTIVE
    ):
        return  # DLK001 already reports the deadlock-grade variant
    yield Finding(
        rule="DLK004",
        severity=Severity.WARNING,
        subject="thread placement",
        message=(
            f"placement stacks up to {placement.max_oversubscription} "
            f"threads per core on {machine.name}: every barrier "
            "synchronizes at the pace of the most oversubscribed core, "
            "and any nested parallelism compounds the stacking"
        ),
        fixit=(
            "spread threads over more places (OMP_PLACES/OMP_PROC_BIND) "
            "or reduce OMP_NUM_THREADS"
        ),
    )


def sanitize_config(
    config: EnvConfig,
    machine: MachineTopology,
    program: Program | None = None,
) -> list[Finding]:
    """Run every static concurrency rule; findings in registration order.

    ``program`` enables the program-aware rules (RACE001-003,
    DLK002/DLK003); without it only configuration-intrinsic rules fire.
    """
    icvs = resolve_icvs(config, machine)
    findings: list[Finding] = []
    for check in SANITIZE_RULES:
        findings.extend(check(config, icvs, machine, program))
    return findings
