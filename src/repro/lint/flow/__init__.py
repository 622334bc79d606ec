"""Interprocedural effect-analysis lint plane (FLOW001–FLOW003).

Layout:

- :mod:`repro.lint.flow.callgraph` — project-wide call graph: module
  and import resolution, alias canonicalization, static method dispatch;
- :mod:`repro.lint.flow.summaries` — per-function effect summaries and
  the transitive fixpoint with shortest-witness chains;
- :mod:`repro.lint.flow.passes` — the FLOW001/FLOW002/FLOW003 rules.

:func:`repro.lint.runner.lint_source` runs the plane, sharing one parse
and one call graph with the self-lint and dependency planes.
"""

from repro.lint.flow.callgraph import (
    CallGraph,
    CallSite,
    ClassRecord,
    FunctionRecord,
    build_callgraph,
)
from repro.lint.flow.passes import (
    DEFAULT_RESULT_ROOTS,
    check_frame_protocol,
    check_resource_safety,
    check_transitive_nondeterminism,
)
from repro.lint.flow.summaries import (
    EFFECT_KINDS,
    EffectSite,
    SummaryTable,
    compute_summaries,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassRecord",
    "FunctionRecord",
    "build_callgraph",
    "EFFECT_KINDS",
    "EffectSite",
    "SummaryTable",
    "compute_summaries",
    "DEFAULT_RESULT_ROOTS",
    "check_frame_protocol",
    "check_resource_safety",
    "check_transitive_nondeterminism",
]
