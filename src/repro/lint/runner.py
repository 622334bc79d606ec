"""Lint orchestration: what ``repro-omp lint`` and ``pytest -m lint`` run.

Three entry points:

- :func:`lint_environment` — one user-supplied environment against one
  machine (and optionally one program),
- :func:`lint_manifests` — every registered benchmark manifest on one
  machine: program-spec rules over each input's :class:`Program`, plus
  program-aware config rules under a given (default) configuration,
- :func:`lint_source` — the source planes (self, flow, deps) over one
  parse of ``src/repro``, with the shared waivers file applied once.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.arch.machines import get_machine
from repro.arch.topology import MachineTopology
from repro.errors import ConfigError
from repro.lint.config_rules import lint_config
from repro.lint.deps.passes import run_deps_passes
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import build_callgraph, parse_modules
from repro.lint.flow.passes import (
    DEFAULT_RESULT_ROOTS,
    check_frame_protocol,
    check_resource_safety,
    check_transitive_nondeterminism,
)
from repro.lint.flow.summaries import compute_summaries
from repro.lint.program_rules import lint_program
from repro.lint.selflint import (
    DEFAULT_SRC_ROOT,
    DEFAULT_WAIVERS,
    apply_waivers,
    load_waivers,
    self_lint_module,
    unused_waiver_findings,
)
from repro.runtime.icv import DEFAULT_CONFIG, EnvConfig
from repro.workloads import WORKLOADS

__all__ = [
    "SOURCE_PLANES",
    "dedupe_findings",
    "lint_environment",
    "lint_manifests",
    "lint_source",
]

#: The source planes in report order: the self-lint (plane 3), the flow
#: plane (4) and the dependency plane (5).
SOURCE_PLANES = ("self", "flow", "deps")


def dedupe_findings(findings: Sequence[Finding]) -> list[Finding]:
    """Drop exact repeats (first occurrence wins, order preserved).

    Manifest linting visits one program per input size; a defect in the
    shared builder shows up once per input with identical coordinates.
    """
    seen: set[Finding] = set()
    out: list[Finding] = []
    for f in findings:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def lint_environment(
    env: Mapping[str, str] | EnvConfig,
    machine: MachineTopology | str,
    program=None,
) -> list[Finding]:
    """Plane 1 over one environment (parse errors propagate to the caller)."""
    if isinstance(machine, str):
        machine = get_machine(machine)
    config = env if isinstance(env, EnvConfig) else EnvConfig.from_env(env)
    return lint_config(config, machine, program)


def lint_manifests(
    machine: MachineTopology | str,
    workload_names: Sequence[str] | None = None,
    config: EnvConfig = DEFAULT_CONFIG,
) -> list[Finding]:
    """Plane 1 over the benchmark manifests shipped with the repo.

    For every selected workload that runs on ``machine`` and every defined
    input size: program-spec rules over the built :class:`Program`, then
    the config rules (program-aware ones included) under ``config``.
    """
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
            findings.extend(lint_program(program))
            findings.extend(lint_config(config, machine, program))
    return dedupe_findings(findings)


def _waiver_plane(rule: str) -> str:
    """The source plane a ``waivers.toml`` entry belongs to: FLOW and
    KEY entries to the flow and dependency planes, every other entry
    to the self-lint."""
    if rule.startswith("FLOW"):
        return "flow"
    if rule.startswith("KEY"):
        return "deps"
    return "self"


def lint_source(
    planes: Sequence[str] = SOURCE_PLANES,
    src_root: str | Path = DEFAULT_SRC_ROOT,
    waivers_path: str | Path = DEFAULT_WAIVERS,
    result_roots: tuple[str, ...] = DEFAULT_RESULT_ROOTS,
) -> list[Finding]:
    """Planes 3-5 over ``src_root``, each file parsed once.

    The self-lint walks every parsed module with its import-alias
    table; the flow and dependency planes share one call graph over the
    same trees.  ``result_roots`` are the FLOW001 roots.  The waivers
    file is applied once, and only the selected planes' entries are
    rot-checked (SIM000), so running planes together reports exactly
    what running each alone does.
    """
    unknown = sorted(set(planes) - set(SOURCE_PLANES))
    if unknown:
        raise ConfigError(
            f"unknown source plane(s) {unknown}; expected {SOURCE_PLANES}"
        )
    modules = parse_modules(src_root)
    findings: list[Finding] = []
    if "self" in planes:
        for index in modules:
            findings.extend(self_lint_module(index))
    if "flow" in planes or "deps" in planes:
        graph = build_callgraph(src_root, modules=modules)
        if "flow" in planes:
            summaries = compute_summaries(graph)
            findings.extend(
                check_transitive_nondeterminism(graph, summaries, result_roots)
            )
            findings.extend(check_resource_safety(graph))
            findings.extend(check_frame_protocol(graph))
        if "deps" in planes:
            findings.extend(run_deps_passes(graph))
    waivers = [
        w for w in load_waivers(waivers_path)
        if _waiver_plane(w.rule) in planes
    ]
    findings, unused = apply_waivers(findings, waivers)
    findings.extend(unused_waiver_findings(unused))
    return findings
