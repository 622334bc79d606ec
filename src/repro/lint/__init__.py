"""repro.lint — static analysis of configurations, programs, and the
simulator itself.

Five planes (see ``docs/LINTING.md`` for the rule catalog):

1. **Configuration & program lint** (``config_rules``, ``program_rules``):
   dead parameters, shadowed defaults, oversubscription, per-arch domain
   hazards, program-spec defects — decided against the actual ICV
   derivation rules of paper Sec. III.
2. **Equivalence pruning** (``equivalence``): resolved-ICV equivalence
   classes over configuration grids; the sweep engine simulates one
   representative per class and fans results out, record-identically.
3. **Self-lint** (``selflint``): an AST pass enforcing the determinism
   contract on ``src/repro`` (no wall clocks or unseeded randomness in
   the simulator core, no set-order-dependent iteration, frozen model
   dataclasses, no float equality in verification code), with an
   explicit waivers file.
4. **Flow lint** (``flow``): interprocedural effect analysis — a
   project-wide call graph with per-function effect summaries propagated
   to a fixpoint, catching transitive nondeterminism on result-bearing
   paths (FLOW001), leaked sockets/processes/spool files on exception
   paths (FLOW002), and frame-protocol drift between sender and receiver
   (FLOW003).
5. **Dependency lint** (``deps``): field-level dependency analysis over
   the flow call graph — the attributes the model-evaluation cone reads,
   guard conditions included, compared against the declared key
   material: signature completeness (KEY001), signature aliveness
   (KEY002), cache-key completeness (KEY003), and dead-field
   normalization drift (KEY004).

Planes 3-5 read the same source tree: ``runner.lint_source`` parses each
file once and runs the selected ones over those trees, with one shared
call graph for planes 4 and 5 and one pass over the waivers file.
"""

from repro.lint.config_rules import CONFIG_RULES, lint_config
from repro.lint.equivalence import (
    EquivalenceClass,
    PruneStats,
    equivalence_classes,
    grid_prune_stats,
    icv_signature,
)
from repro.lint.findings import (
    Finding,
    Severity,
    findings_report,
    format_findings,
    sort_findings,
    unwaived,
)
from repro.lint.program_rules import PROGRAM_RULES, lint_program
from repro.lint.runner import (
    SOURCE_PLANES,
    dedupe_findings,
    lint_environment,
    lint_manifests,
    lint_source,
)
from repro.lint.flow import (
    DEFAULT_RESULT_ROOTS,
    build_callgraph,
    compute_summaries,
)
from repro.lint.selflint import (
    SELF_RULES,
    Waiver,
    apply_waivers,
    load_waivers,
    self_lint_source,
    unused_waiver_findings,
)

__all__ = [
    "Finding",
    "Severity",
    "sort_findings",
    "unwaived",
    "format_findings",
    "findings_report",
    "CONFIG_RULES",
    "lint_config",
    "PROGRAM_RULES",
    "lint_program",
    "icv_signature",
    "EquivalenceClass",
    "equivalence_classes",
    "PruneStats",
    "grid_prune_stats",
    "SELF_RULES",
    "Waiver",
    "load_waivers",
    "apply_waivers",
    "self_lint_source",
    "unused_waiver_findings",
    "DEFAULT_RESULT_ROOTS",
    "build_callgraph",
    "compute_summaries",
    "SOURCE_PLANES",
    "dedupe_findings",
    "lint_environment",
    "lint_manifests",
    "lint_source",
]
