"""Plane 1a: lint rules over EnvConfig x MachineTopology (x Program).

Each rule is a function ``(config, icvs, machine, program) -> findings``
registered via :func:`rule`.  Rules reason with the *resolved* ICVs —
the same derivation the executor uses — so a finding like "KMP_BLOCKTIME
is dead under KMP_LIBRARY=turnaround" is decided by the actual wait-policy
derivation (paper Sec. III), not a re-implementation of it.

Rule ids are stable; ``docs/LINTING.md`` is the catalog.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

from repro.arch.topology import MachineTopology
from repro.lint.findings import Finding, Severity
from repro.runtime.affinity import compute_placement
from repro.runtime.icv import (
    UNSET,
    BindPolicy,
    EnvConfig,
    LibraryMode,
    ResolvedICVs,
    WaitPolicy,
    resolve_icvs,
)
from repro.runtime.program import LoopRegion, Program

__all__ = ["CONFIG_RULES", "lint_config"]

ConfigRule = Callable[
    [EnvConfig, ResolvedICVs, MachineTopology, "Program | None"],
    Iterable[Finding],
]

CONFIG_RULES: list[ConfigRule] = []


def rule(func: ConfigRule) -> ConfigRule:
    """Register a config-lint rule (module import order = report order)."""
    CONFIG_RULES.append(func)
    return func


_WAIT_RULE = (
    "OMP_WAIT_POLICY = ACTIVE if KMP_LIBRARY=turnaround or "
    "KMP_BLOCKTIME=infinite else PASSIVE (Sec. III-4/5)"
)
_BIND_RULE = (
    "OMP_PROC_BIND default = spread when OMP_PLACES is set, "
    "false otherwise (Sec. III-2)"
)


@rule
def _env001_dead_blocktime(config, icvs, machine, program):
    """ENV001: KMP_BLOCKTIME set but KMP_LIBRARY=turnaround keeps waiters
    spinning forever — the blocktime value is never consulted."""
    if config.blocktime != UNSET and icvs.library is LibraryMode.TURNAROUND:
        yield Finding(
            rule="ENV001",
            severity=Severity.WARNING,
            subject="KMP_BLOCKTIME",
            message=(
                f"KMP_BLOCKTIME={config.blocktime} is dead: "
                "KMP_LIBRARY=turnaround derives an ACTIVE wait policy, so "
                "workers never sleep and the blocktime is never read"
            ),
            fixit=(
                "drop KMP_BLOCKTIME, or use KMP_LIBRARY=throughput if the "
                "sleep threshold should take effect"
            ),
            icv_rule=_WAIT_RULE,
        )


@rule
def _env002_shadowed_bind_default(config, icvs, machine, program):
    """ENV002: OMP_PLACES set without OMP_PROC_BIND silently switches the
    bind default from false to spread — threads get pinned."""
    if config.places != UNSET and config.proc_bind == UNSET:
        yield Finding(
            rule="ENV002",
            severity=Severity.WARNING,
            subject="OMP_PROC_BIND",
            message=(
                f"OMP_PLACES={config.places} shifts the unset OMP_PROC_BIND "
                "default from 'false' to 'spread': threads are bound even "
                "though no binding was requested"
            ),
            fixit=(
                "set OMP_PROC_BIND explicitly (spread to keep the derived "
                "behaviour, false to stay unbound)"
            ),
            icv_rule=_BIND_RULE,
        )


@rule
def _env003_dead_places(config, icvs, machine, program):
    """ENV003: OMP_PLACES set but OMP_PROC_BIND=false — unbound teams never
    consult the place list."""
    if config.places != UNSET and not icvs.threads_bound:
        yield Finding(
            rule="ENV003",
            severity=Severity.WARNING,
            subject="OMP_PLACES",
            message=(
                f"OMP_PLACES={config.places} is dead: "
                "OMP_PROC_BIND=false leaves threads unbound, so the place "
                "partition is never consulted"
            ),
            fixit="drop OMP_PLACES, or pick a binding policy other than false",
            icv_rule="unbound teams ignore places (Sec. III-1/2)",
        )


@rule
def _env004_oversubscription(config, icvs, machine, program):
    """ENV004: more threads requested than the machine has cores."""
    if config.num_threads is not None and config.num_threads > machine.n_cores:
        yield Finding(
            rule="ENV004",
            severity=Severity.ERROR,
            subject="OMP_NUM_THREADS",
            message=(
                f"OMP_NUM_THREADS={config.num_threads} oversubscribes "
                f"{machine.name} ({machine.n_cores} cores): every core "
                "timeshares team threads"
            ),
            fixit=f"use OMP_NUM_THREADS <= {machine.n_cores}",
            icv_rule="default nthreads = n_cores; explicit requests honoured",
        )


@rule
def _env005_bound_oversubscription(config, icvs, machine, program):
    """ENV005: the placement piles several threads onto one core even
    though the machine has enough cores (e.g. proc_bind=master)."""
    if config.num_threads is not None and config.num_threads > machine.n_cores:
        return  # ENV004 already covers machine-level oversubscription.
    placement = compute_placement(icvs, machine)
    if placement.bound and placement.max_oversubscription > 1:
        yield Finding(
            rule="ENV005",
            severity=Severity.WARNING,
            subject="OMP_PROC_BIND",
            message=(
                f"binding policy '{icvs.bind.value}' with places "
                f"'{icvs.places.value}' piles up to "
                f"{placement.max_oversubscription} threads per core while "
                f"{machine.name} has idle cores (the paper's worst trend, "
                "Sec. V-4)"
            ),
            fixit="use proc_bind=spread or close to use all places",
            icv_rule="master binds the whole team to the master thread's place",
        )


@rule
def _env006_align_below_line(config, icvs, machine, program):
    """ENV006: KMP_ALIGN_ALLOC below the cache line invites false sharing
    on this architecture."""
    if (
        config.align_alloc is not None
        and config.align_alloc < machine.cache_line_bytes
    ):
        yield Finding(
            rule="ENV006",
            severity=Severity.WARNING,
            subject="KMP_ALIGN_ALLOC",
            message=(
                f"KMP_ALIGN_ALLOC={config.align_alloc} is below the "
                f"{machine.cache_line_bytes}-byte cache line of "
                f"{machine.name}: adjacent allocations can share a line "
                "(false sharing; the paper's A64FX Sec. V-6 case)"
            ),
            fixit=f"use KMP_ALIGN_ALLOC >= {machine.cache_line_bytes}",
            icv_rule="align default = architecture cache line (Sec. III-7)",
        )


@rule
def _env007_redundant_defaults(config, icvs, machine, program):
    """ENV007: a variable explicitly set to the value derivation would have
    produced anyway — harmless, but noise in experiment manifests."""
    redundant: list[tuple[str, str]] = []
    if config.library == LibraryMode.THROUGHPUT.value:
        redundant.append(("KMP_LIBRARY", "throughput is the default"))
    if config.blocktime != UNSET and config.blocktime == "200":
        redundant.append(("KMP_BLOCKTIME", "200 ms is the default"))
    if config.schedule == "static":
        redundant.append(("OMP_SCHEDULE", "static is the default"))
    if config.proc_bind == BindPolicy.FALSE.value and config.places == UNSET:
        redundant.append(
            ("OMP_PROC_BIND", "false is the default when OMP_PLACES is unset")
        )
    if config.align_alloc == machine.cache_line_bytes:
        redundant.append(
            (
                "KMP_ALIGN_ALLOC",
                f"{machine.cache_line_bytes} is {machine.name}'s cache line "
                "(the default)",
            )
        )
    if config.num_threads == machine.n_cores:
        redundant.append(
            (
                "OMP_NUM_THREADS",
                f"{machine.n_cores} is the default team size on {machine.name}",
            )
        )
    if config.force_reduction != UNSET:
        heuristic = resolve_icvs(
            dataclasses.replace(config, force_reduction=UNSET), machine
        ).reduction
        if config.force_reduction == heuristic.value:
            redundant.append(
                (
                    "KMP_FORCE_REDUCTION",
                    f"the heuristic already selects '{heuristic.value}' at "
                    f"{icvs.nthreads} threads",
                )
            )
    for var, why in redundant:
        yield Finding(
            rule="ENV007",
            severity=Severity.INFO,
            subject=var,
            message=f"{var} is explicitly set to its derived default ({why})",
            fixit=f"drop {var}; derivation produces the same ICV",
            icv_rule="Sec. III default derivation",
        )


@rule
def _env008_serial_threads(config, icvs, machine, program):
    """ENV008: KMP_LIBRARY=serial forces one thread; an explicit
    OMP_NUM_THREADS is silently ignored."""
    if (
        config.library == LibraryMode.SERIAL.value
        and config.num_threads is not None
        and config.num_threads > 1
    ):
        yield Finding(
            rule="ENV008",
            severity=Severity.WARNING,
            subject="OMP_NUM_THREADS",
            message=(
                f"OMP_NUM_THREADS={config.num_threads} is dead: "
                "KMP_LIBRARY=serial forces the whole application serial "
                "(team size 1)"
            ),
            fixit="drop OMP_NUM_THREADS or use a parallel library mode",
            icv_rule="serial mode forces nthreads=1 (Sec. III-4)",
        )


@rule
def _env009_dead_schedule(config, icvs, machine, program):
    """ENV009 (program-aware): OMP_SCHEDULE set but no loop in the program
    follows the environment — every loop carries a schedule() clause, or
    the program has no worksharing loops at all."""
    if program is None or config.schedule == UNSET:
        return
    loops = [p for p in program.parallel_regions if isinstance(p, LoopRegion)]
    if not loops:
        yield Finding(
            rule="ENV009",
            severity=Severity.WARNING,
            subject="OMP_SCHEDULE",
            message=(
                f"OMP_SCHEDULE={config.schedule} is dead for "
                f"{program.name!r}: the program has no worksharing loops"
            ),
            fixit="drop OMP_SCHEDULE for this benchmark",
            icv_rule="OMP_SCHEDULE applies to schedule(runtime) loops only",
        )
    elif all(loop.fixed_schedule is not None for loop in loops):
        yield Finding(
            rule="ENV009",
            severity=Severity.WARNING,
            subject="OMP_SCHEDULE",
            message=(
                f"OMP_SCHEDULE={config.schedule} is dead for "
                f"{program.name!r}: every worksharing loop hard-codes a "
                "schedule() clause"
            ),
            fixit="drop OMP_SCHEDULE for this benchmark",
            icv_rule="a compiled-in schedule() clause overrides OMP_SCHEDULE",
        )


@rule
def _env010_dead_force_reduction(config, icvs, machine, program):
    """ENV010 (program-aware): KMP_FORCE_REDUCTION set but the program
    performs no reductions."""
    if program is None or config.force_reduction == UNSET:
        return
    n_red = sum(
        p.n_reductions
        for p in program.parallel_regions
        if isinstance(p, LoopRegion)
    )
    if n_red == 0:
        yield Finding(
            rule="ENV010",
            severity=Severity.WARNING,
            subject="KMP_FORCE_REDUCTION",
            message=(
                f"KMP_FORCE_REDUCTION={config.force_reduction} is dead for "
                f"{program.name!r}: no region performs a reduction"
            ),
            fixit="drop KMP_FORCE_REDUCTION for this benchmark",
            icv_rule="reduction method applies at reduction combine only",
        )


def lint_config(
    config: EnvConfig,
    machine: MachineTopology,
    program: Program | None = None,
) -> list[Finding]:
    """Run every config rule; findings in registration order.

    ``program`` enables the program-aware rules (ENV009/ENV010); without
    it only configuration-intrinsic rules fire.
    """
    icvs = resolve_icvs(config, machine)
    findings: list[Finding] = []
    for check in CONFIG_RULES:
        findings.extend(check(config, icvs, machine, program))
    return findings
