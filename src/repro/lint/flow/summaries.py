"""Per-function effect summaries and their transitive fixpoint.

Every function in the call graph gets a *direct* summary — the effects
its own body performs — and a *transitive* one: the union of its direct
effects and everything reachable through resolved call edges.  The
propagation runs one breadth-first wave per effect kind, starting from
the functions with a direct site, so each transitive entry also records
the shortest *witness*: either the direct site, or the first call edge
on a shortest path to one.  :meth:`SummaryTable.witness_chain` replays
those pointers into the human-readable ``a -> b -> c -> time.monotonic``
trail the FLOW001 findings print.

Tracked effect kinds:

- ``wall-clock`` — host-time reads (``time.time``/``monotonic``/
  ``perf_counter`` family, ``datetime.now``/``utcnow``/``today``),
- ``unseeded-rng`` — process-global ``random.*`` draws, legacy
  ``numpy.random.*`` state, ``default_rng()`` or ``random.Random()``
  with no seed argument,
- ``env-read`` — ``os.environ`` access or ``os.getenv``,
- ``raises`` — an explicit ``raise`` statement (exception-path
  reachability; the resource pass and reports consume it).

:func:`call_effect` is the one classifier of wall-clock and unseeded
RNG call sites: the self-lint plane's SIM001/SIM002 ask it too.  It
matches the canonical dotted spellings the module alias tables compute,
so ``from time import monotonic as mono; mono()`` and
``np.random.default_rng()`` are both seen through their aliases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.flow.callgraph import (
    CallGraph,
    TypedScope,
    _dotted,
    own_nodes,
)

__all__ = [
    "EFFECT_KINDS",
    "AttrRead",
    "EffectSite",
    "SummaryTable",
    "call_effect",
    "compute_summaries",
    "direct_attribute_reads",
]

#: Every effect kind a summary can carry.
EFFECT_KINDS = ("wall-clock", "unseeded-rng", "env-read", "raises")

_WALL_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})
_RANDOM_GLOBALS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "betavariate",
        "expovariate",
        "getrandbits",
        "seed",
    }
)
_NP_RANDOM_LEGACY = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "lognormal",
        "exponential",
        "poisson",
        "seed",
    }
)
_ENV_READ_CALLS = frozenset({"os.getenv", "os.environ.get"})


@dataclass(frozen=True)
class EffectSite:
    """One direct effect occurrence: what fired, and where."""

    kind: str
    what: str
    rel_path: str
    lineno: int


def call_effect(canonical: str, node: ast.Call) -> tuple[str, str] | None:
    """(kind, what) if calling ``canonical`` is a direct effect.

    ``canonical`` is the call's dotted spelling with its import alias
    resolved (``ModuleIndex.canonical``); ``node`` is the call itself,
    whose arguments decide whether a generator constructor is seeded.
    """
    if canonical.startswith("time.") and canonical[5:] in _WALL_CLOCK_ATTRS:
        return "wall-clock", canonical
    if (
        canonical.startswith(("datetime.", "datetime.datetime."))
        and canonical.rsplit(".", 1)[-1] in _DATETIME_NOW
    ):
        return "wall-clock", canonical
    if canonical.startswith("random.") and canonical[7:] in _RANDOM_GLOBALS:
        return "unseeded-rng", canonical
    if canonical == "random.Random" and not node.args and not node.keywords:
        return "unseeded-rng", "random.Random()"
    if canonical.startswith("numpy.random."):
        tail = canonical[len("numpy.random."):]
        if tail == "default_rng" and not node.args and not node.keywords:
            return "unseeded-rng", "numpy.random.default_rng()"
        if tail in _NP_RANDOM_LEGACY:
            return "unseeded-rng", canonical
    if canonical in _ENV_READ_CALLS:
        return "env-read", canonical
    return None


def direct_effects(graph: CallGraph, qualname: str) -> list[EffectSite]:
    """The effects ``qualname``'s own body performs (no propagation)."""
    record = graph.functions[qualname]
    index = graph.module_of(qualname)
    sites: list[EffectSite] = []
    for site in graph.calls.get(qualname, ()):
        if site.external is None:
            continue
        hit = call_effect(site.external, site.node)
        if hit is not None:
            sites.append(
                EffectSite(hit[0], hit[1], record.rel_path, site.lineno)
            )
    # Non-call effects: os.environ subscripts / membership / iteration,
    # and explicit raise statements.
    for node in own_nodes(record.node):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None and index is not None:
                if index.canonical(dotted) == "os.environ":
                    sites.append(EffectSite(
                        "env-read", "os.environ",
                        record.rel_path, node.lineno,
                    ))
        elif isinstance(node, ast.Raise):
            sites.append(EffectSite(
                "raises", "raise", record.rel_path, node.lineno,
            ))
    sites.sort(key=lambda s: (s.lineno, s.kind, s.what))
    return sites


@dataclass(frozen=True)
class AttrRead:
    """One attribute read from a tracked project class.

    ``guards`` lists the ``(class, attr)`` pairs that appear in the
    conditions dominating the read site — an ``if`` test the read sits
    under, the test of a preceding early-exit ``if`` (a body ending in
    ``return``/``raise``/``continue``/``break``), a ternary or boolean
    short-circuit condition, or a comprehension filter.  A read with
    ``("repro...ResolvedICVs", "wait_policy")`` in its guards is what the
    dependency plane calls *guarded by the wait policy*.
    """

    cls: str
    attr: str
    qualname: str
    rel_path: str
    lineno: int
    guards: tuple[tuple[str, str], ...] = ()


_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def direct_attribute_reads(
    graph: CallGraph, qualname: str, tracked: frozenset[str]
) -> list[AttrRead]:
    """Attribute reads of tracked classes in ``qualname``'s own body.

    A read is attributed to a class through the same local type
    inference the call graph uses (:class:`TypedScope`), so
    ``icvs.blocktime_ms``, ``self.icvs.blocktime_ms``, and
    ``executor.icvs.blocktime_ms`` all register against
    ``ResolvedICVs``.  Guard conditions are tracked through direct
    attribute tests, local aliases (``bind = icvs.bind; if bind is ...``),
    early-exit prefixes, ternaries, short-circuit ``and``/``or``, and
    comprehension filters; see :class:`AttrRead`.  Nested function
    definitions are separate graph nodes and are skipped here.
    """
    record = graph.functions.get(qualname)
    if record is None:
        return []
    scope = TypedScope(graph, qualname)
    reads: list[AttrRead] = []

    # Local aliases of tracked attributes: the assignment itself records
    # the read; later *tests* of the alias contribute the guard.
    aliases: dict[str, tuple[str, str]] = {}
    for stmt in own_nodes(record.node):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Attribute)
        ):
            base = scope.type_of(stmt.value.value)
            if base in tracked:
                aliases[stmt.targets[0].id] = (base, stmt.value.attr)

    def test_attrs(expr: ast.AST) -> frozenset[tuple[str, str]]:
        out: set[tuple[str, str]] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute):
                base = scope.type_of(node.value)
                if base in tracked:
                    out.add((base, node.attr))
            elif isinstance(node, ast.Name) and node.id in aliases:
                out.add(aliases[node.id])
        return frozenset(out)

    def record_expr(expr, guards: frozenset) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.IfExp):
            record_expr(expr.test, guards)
            inner = guards | test_attrs(expr.test)
            record_expr(expr.body, inner)
            record_expr(expr.orelse, inner)
            return
        if isinstance(expr, ast.BoolOp):
            acc = guards
            for value in expr.values:
                record_expr(value, acc)
                acc = acc | test_attrs(value)
            return
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            inner = guards
            for comp in expr.generators:
                record_expr(comp.iter, inner)
                for cond in comp.ifs:
                    record_expr(cond, inner)
                    inner = inner | test_attrs(cond)
            if isinstance(expr, ast.DictComp):
                record_expr(expr.key, inner)
                record_expr(expr.value, inner)
            else:
                record_expr(expr.elt, inner)
            return
        if isinstance(expr, ast.Attribute):
            base = scope.type_of(expr.value)
            if base in tracked and isinstance(expr.ctx, ast.Load):
                reads.append(AttrRead(
                    base, expr.attr, qualname, record.rel_path,
                    expr.lineno, tuple(sorted(guards)),
                ))
            record_expr(expr.value, guards)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                record_expr(child, guards)
            elif isinstance(child, ast.keyword):
                record_expr(child.value, guards)

    def terminates(stmts: list) -> bool:
        return bool(stmts) and isinstance(stmts[-1], _TERMINATORS)

    def visit_block(stmts: list, guards: frozenset) -> None:
        ambient = guards
        for stmt in stmts:
            visit_stmt(stmt, ambient)
            # An early-exit prefix guards everything after it: code
            # past `if icvs.wait_policy is ACTIVE: return ...` only
            # runs conditionally on the wait policy.
            if isinstance(stmt, ast.If) and (
                terminates(stmt.body)
                or (stmt.orelse and terminates(stmt.orelse))
            ):
                ambient = ambient | test_attrs(stmt.test)

    def visit_stmt(stmt, guards: frozenset) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(stmt, ast.If):
            record_expr(stmt.test, guards)
            inner = guards | test_attrs(stmt.test)
            visit_block(stmt.body, inner)
            visit_block(stmt.orelse, inner)
            return
        if isinstance(stmt, ast.While):
            record_expr(stmt.test, guards)
            visit_block(stmt.body, guards | test_attrs(stmt.test))
            visit_block(stmt.orelse, guards)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            record_expr(stmt.iter, guards)
            visit_block(stmt.body, guards)
            visit_block(stmt.orelse, guards)
            return
        if isinstance(stmt, ast.Try):
            visit_block(stmt.body, guards)
            for handler in stmt.handlers:
                visit_block(handler.body, guards)
            visit_block(stmt.orelse, guards)
            visit_block(stmt.finalbody, guards)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                record_expr(item.context_expr, guards)
            visit_block(stmt.body, guards)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                record_expr(child, guards)

    visit_block(record.node.body, frozenset())
    reads.sort(key=lambda r: (r.lineno, r.cls, r.attr))
    return reads


class SummaryTable:
    """Direct and transitive effect summaries for one call graph."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.direct: dict[str, list[EffectSite]] = {}
        #: qualname -> kind -> witness: ("site", EffectSite) for a direct
        #: occurrence, ("call", callee, call lineno) for one hop toward it.
        self._via: dict[str, dict[str, tuple]] = {}

    def effects(self, qualname: str) -> frozenset[str]:
        """The transitive effect kinds of ``qualname``."""
        return frozenset(self._via.get(qualname, ()))

    def witness_chain(self, qualname: str, kind: str) -> list[str]:
        """Shortest call trail from ``qualname`` to a direct ``kind`` site.

        Each entry is ``qualname (path:line)``; the last entry names the
        offending external call itself.
        """
        trail: list[str] = []
        current = qualname
        seen: set[str] = set()
        while current not in seen:
            seen.add(current)
            via = self._via.get(current, {}).get(kind)
            if via is None:
                break
            if via[0] == "site":
                site = via[1]
                trail.append(
                    f"{current} -> {site.what} "
                    f"({site.rel_path}:{site.lineno})"
                )
                break
            _, callee, lineno = via
            record = self.graph.functions[current]
            trail.append(f"{current} ({record.rel_path}:{lineno})")
            current = callee
        return trail


def compute_summaries(graph: CallGraph) -> SummaryTable:
    """Direct effects for every function, propagated to a fixpoint."""
    table = SummaryTable(graph)
    for qualname in graph.functions:
        table.direct[qualname] = direct_effects(graph, qualname)
    callers = graph.callers()
    for kind in EFFECT_KINDS:
        queue: list[str] = []
        for qualname, sites in table.direct.items():
            first = next((s for s in sites if s.kind == kind), None)
            if first is not None:
                table._via.setdefault(qualname, {})[kind] = ("site", first)
                queue.append(qualname)
        # Breadth-first wave backwards over call edges: the first time a
        # caller is reached, the edge used lies on a shortest path.
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            for caller, lineno in callers.get(current, ()):
                via = table._via.setdefault(caller, {})
                if kind not in via:
                    via[kind] = ("call", current, lineno)
                    queue.append(caller)
    return table
