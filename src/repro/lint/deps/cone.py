"""The model-evaluation cone: reachable code and its tracked reads.

The cone is the transitive call closure rooted at sweep batch execution
(``core.sweep._execute_batch``) and at the noise draws the sweep makes
for it before dispatch (``core.sweep._ClassPlans.noise_factors``) —
every function whose behaviour can influence one batch's records.  For each member the guard-aware
attribute-read extraction (:func:`repro.lint.flow.summaries.
direct_attribute_reads`) collects reads of the *tracked classes*: the
model inputs whose identity the signature and cache key must cover.

Reads a tracked class performs on **itself** are exempted —
``EnvConfig.key()`` reading its own fields is the identity mechanism the
passes check *against*, not a model dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.summaries import AttrRead, direct_attribute_reads

__all__ = [
    "TRACKED_CLASS_NAMES",
    "EvalCone",
    "compute_cone",
    "default_roots",
    "find_class",
    "tracked_classes",
]

#: Simple names of the model-input classes whose reads the plane tracks.
#: ``ResolvedICVs``/``EnvConfig`` back the signature rules (KEY001/2/4);
#: ``SweepPlan``/``BatchSpec``/``MachineTopology``/``Program`` back the
#: cache-key rule (KEY003).
TRACKED_CLASS_NAMES = (
    "ResolvedICVs",
    "EnvConfig",
    "MachineTopology",
    "Program",
    "SweepPlan",
    "BatchSpec",
)


def default_roots(graph: CallGraph) -> tuple[str, ...]:
    """The cone roots: batch execution and the noise draws the sweep
    makes before dispatch and hands to it."""
    return (f"{graph.package}.core.sweep._execute_batch",
            f"{graph.package}.core.sweep._ClassPlans.noise_factors")


def find_class(graph: CallGraph, name: str) -> str | None:
    """The qualname of the (unique) project class with simple name ``name``."""
    matches = sorted(
        q for q in graph.classes if q.rsplit(".", 1)[-1] == name
    )
    return matches[0] if matches else None


def tracked_classes(graph: CallGraph) -> dict[str, str]:
    """Simple name -> qualname for every tracked class found in the tree."""
    out: dict[str, str] = {}
    for name in TRACKED_CLASS_NAMES:
        qual = find_class(graph, name)
        if qual is not None:
            out[name] = qual
    return out


@dataclass
class EvalCone:
    """Reachable functions from the roots, and their tracked reads."""

    roots: tuple[str, ...]
    missing_roots: tuple[str, ...]
    members: frozenset[str]
    #: Every tracked-class read in the cone, own-class reads exempted,
    #: ordered by (function, line).
    reads: tuple[AttrRead, ...]

    def reads_of(self, cls_qualname: str | None) -> list[AttrRead]:
        return [r for r in self.reads if r.cls == cls_qualname]

    def read_attrs(self, cls_qualname: str | None) -> frozenset[str]:
        return frozenset(
            r.attr for r in self.reads if r.cls == cls_qualname
        )


def compute_cone(
    graph: CallGraph,
    roots: tuple[str, ...] | None = None,
    tracked: frozenset[str] | None = None,
) -> EvalCone:
    """BFS the call closure from ``roots`` and collect tracked reads."""
    if roots is None:
        roots = default_roots(graph)
    if tracked is None:
        tracked = frozenset(tracked_classes(graph).values())
    else:
        tracked = frozenset(tracked)
    present = [r for r in roots if r in graph.functions]
    missing = tuple(r for r in roots if r not in graph.functions)
    seen: set[str] = set(present)
    queue = list(present)
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for site in graph.calls.get(current, ()):
            if site.callee is not None and site.callee not in seen:
                seen.add(site.callee)
                queue.append(site.callee)
    reads: list[AttrRead] = []
    for member in sorted(seen):
        record = graph.functions[member]
        for read in direct_attribute_reads(graph, member, tracked):
            if record.cls == read.cls:
                continue
            reads.append(read)
    return EvalCone(tuple(roots), missing, frozenset(seen), tuple(reads))
