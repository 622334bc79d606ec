"""Sanitize orchestration: what ``repro-omp sanitize`` and
``pytest -m sanitize`` run.

The static RACE/DLK rules over every registered manifest (or one
user-supplied environment) on the selected machines.

The pass/fail gate is **error severity**: unlike ``repro-omp lint``
(which fails on unwaived warnings too), sanitize findings of WARNING and
INFO severity describe *ordering hazards inherent to the configuration*
— legitimate objects of study for a tuning-space sweep — while an ERROR
(an oversubscribed spin deadlock) means the configuration cannot make
progress as simulated.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.arch.machines import get_machine, machine_names
from repro.arch.topology import MachineTopology
from repro.lint.findings import Finding, Severity
from repro.lint.runner import dedupe_findings
from repro.runtime.icv import DEFAULT_CONFIG, EnvConfig
from repro.sanitize.rules import sanitize_config
from repro.workloads import WORKLOADS

__all__ = [
    "SanitizeReport",
    "sanitize_environment",
    "sanitize_manifests",
    "run_sanitize",
]


@dataclass
class SanitizeReport:
    """Everything one sanitize run produced."""

    findings: list[Finding] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def failures(self) -> list[Finding]:
        """The findings that fail the run: unwaived errors."""
        return [
            f for f in self.findings
            if f.severity is Severity.ERROR and not f.waived
        ]

    @property
    def passed(self) -> bool:
        """Whether the run is clean at the error gate."""
        return not self.failures()

    def extra_payload(self) -> dict:
        """Report fields beyond the findings themselves."""
        return {"stats": self.stats, "passed": self.passed}


def sanitize_environment(
    env: Mapping[str, str] | EnvConfig,
    machine: MachineTopology | str,
    program=None,
) -> list[Finding]:
    """Static pass over one environment (parse errors propagate)."""
    if isinstance(machine, str):
        machine = get_machine(machine)
    config = env if isinstance(env, EnvConfig) else EnvConfig.from_env(env)
    return sanitize_config(config, machine, program)


def sanitize_manifests(
    machine: MachineTopology | str,
    workload_names: Sequence[str] | None = None,
    config: EnvConfig = DEFAULT_CONFIG,
) -> list[Finding]:
    """Static pass over the registered manifests on one machine."""
    if isinstance(machine, str):
        machine = get_machine(machine)
    names = (
        list(workload_names)
        if workload_names is not None
        else sorted(WORKLOADS)
    )
    findings: list[Finding] = []
    for name in names:
        workload = WORKLOADS[name.lower()]
        if not workload.runs_on(machine.name):
            continue
        for input_name in workload.inputs:
            program = workload.program(input_name)
            findings.extend(sanitize_config(config, machine, program))
    return dedupe_findings(findings)


def run_sanitize(
    archs: Sequence[str] | None = None,
    workload_names: Sequence[str] | None = None,
    env: Mapping[str, str] | None = None,
) -> SanitizeReport:
    """Run the static rules and aggregate one report.

    ``env`` switches from manifest mode (every workload program under the
    default config) to single-environment mode.
    """
    machines = list(archs) if archs else machine_names()
    findings: list[Finding] = []
    for name in machines:
        if env is not None:
            findings.extend(sanitize_environment(env, name))
        else:
            findings.extend(
                sanitize_manifests(name, workload_names=workload_names)
            )
    findings = dedupe_findings(findings)
    return SanitizeReport(
        findings=findings,
        stats={"n_machines": len(machines), "n_findings": len(findings)},
    )
