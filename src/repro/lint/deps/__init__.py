"""Plane 5 — signature-soundness dependency analysis (KEY rules).

The sweep engine's two load-bearing optimisations rest on completeness
claims: the ICV-equivalence pruning is sound only if
``ResolvedICVs.execution_signature()`` folds in every field the cost
model reads, and the ``SweepCache`` is sound only if every
result-altering sweep input flows into the batch key.  This plane proves
both statically: a field-level dependency analysis over the flow call
graph computes the attributes the *model-evaluation cone* (everything
reachable from batch execution) reads from the tracked input classes —
including the guard conditions dominating each read, so the documented
dead-field normalizations are modeled rather than waived — and four KEY
rule passes compare that read-set against the declared key material.
Catalog: ``docs/LINTING.md`` (plane 5); :func:`repro.lint.runner.lint_source`
runs the plane over the call graph it shares with the flow plane.
"""

from repro.lint.deps.cone import EvalCone, compute_cone, default_roots, tracked_classes
from repro.lint.deps.passes import run_deps_passes

__all__ = [
    "EvalCone",
    "compute_cone",
    "default_roots",
    "run_deps_passes",
    "tracked_classes",
]
