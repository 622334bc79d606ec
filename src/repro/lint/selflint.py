"""Plane 3: the simulator linting itself (stdlib-``ast``, no new deps).

A reproduction's value rests on determinism: the same inputs must give
bit-identical records on every run, interpreter, and machine.  These
rules mechanically enforce the determinism contract on ``src/repro``:

- **SIM001** — no wall-clock reads in the simulator core (``desim/``,
  ``runtime/``), the record frame layer (``frame/``), or the serving
  layer (``serve/``): simulated time must come from the event loop,
  never the host clock, frame payloads must never absorb host
  timestamps, and the daemon reads the host clock in one waived place.
- **SIM002** — no unseeded randomness in model code (``desim/``,
  ``runtime/``, ``arch/``, ``resilience/``, ``serve/``): module-global
  ``random.*`` / legacy ``numpy.random.*`` state, or ``default_rng()`` /
  ``random.Random()`` without a seed.  The resilience layer is in scope
  because retry jitter and chaos-fault placement feed the deterministic
  failure reports.
- **SIM003** — no iteration over set expressions anywhere in the package:
  set order is hash-randomized across processes, so any record or report
  derived from it would be irreproducible.
- **SIM004** — model-layer dataclasses (``runtime/``, ``arch/``,
  ``workloads/``, ``desim/``, ``resilience/``) must be ``frozen=True``:
  shared mutable model state is how cross-run contamination starts.
  Resilience bookkeeping that is mutable by design carries a reasoned
  waiver instead of a scope carve-out.
- **SIM005** — no float ``==``/``!=`` against float literals in
  ``check/``: verification must use explicit exact-vs-tolerant helpers.

SIM001 and SIM002 do not decide on their own what a clock read or an
unseeded draw is: every call's name is resolved through the module's
import-alias table (:class:`~repro.lint.flow.callgraph.ModuleIndex`) and
classified by the flow plane's
:func:`~repro.lint.flow.summaries.call_effect`, so this per-site check
and the interprocedural FLOW001 agree on every spelling.

Intentional exceptions live in ``lint/waivers.toml`` next to this module;
each waiver names the rule, a path suffix, an optional symbol, and a
reason.  Unused waivers are themselves reported (SIM000) so the file
cannot rot.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import ModuleIndex, _dotted, module_index
from repro.lint.flow.summaries import call_effect

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback below
    tomllib = None

__all__ = [
    "SELF_RULES",
    "Waiver",
    "load_waivers",
    "apply_waivers",
    "unused_waiver_findings",
    "self_lint_module",
    "self_lint_source",
    "DEFAULT_SRC_ROOT",
    "DEFAULT_WAIVERS",
]

#: The package root the self-lint walks by default (src/repro).
DEFAULT_SRC_ROOT = Path(__file__).resolve().parents[1]
#: The waivers file shipped with the package.
DEFAULT_WAIVERS = Path(__file__).resolve().parent / "waivers.toml"

#: rule id -> path-prefix scopes (relative to the linted root, "" = all).
SELF_RULES: dict[str, tuple[str, ...]] = {
    "SIM001": ("desim/", "runtime/", "frame/", "serve/"),
    "SIM002": ("desim/", "runtime/", "arch/", "resilience/", "serve/"),
    "SIM003": ("",),
    "SIM004": ("runtime/", "arch/", "workloads/", "desim/", "resilience/"),
    "SIM005": ("check/",),
}

#: effect kind (:func:`call_effect`) -> (rule, message, fix-it); the
#: message is formatted with the classifier's spelling of the call.
_EFFECT_RULES = {
    "wall-clock": (
        "SIM001",
        "wall-clock read {}() in the simulator core: simulated time must "
        "come from the event loop, not the host clock",
        "thread the simulation clock (or a seed) in explicitly",
    ),
    "unseeded-rng": (
        "SIM002",
        "unseeded randomness {}: process-global or OS-entropy random "
        "state makes records irreproducible",
        "draw from an explicitly seeded generator: "
        "numpy.random.default_rng(seed) or random.Random(seed)",
    ),
}


def _in_scope(rule: str, rel_path: str) -> bool:
    return any(rel_path.startswith(p) for p in SELF_RULES[rule])


class _SelfLintVisitor(ast.NodeVisitor):
    """One-file determinism pass over a parsed module."""

    def __init__(self, index: ModuleIndex):
        self.index = index
        self.rel_path = index.rel_path
        self.findings: list[Finding] = []
        self.scope: list[str] = []

    # -- bookkeeping ---------------------------------------------------
    def _symbol(self) -> str:
        return ".".join(self.scope) if self.scope else "<module>"

    def _emit(
        self, rule: str, line: int, message: str, fixit: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        if not _in_scope(rule, self.rel_path):
            return
        self.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                subject=self._symbol(),
                message=message,
                fixit=fixit,
                path=self.rel_path,
                line=line,
            )
        )

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_dataclass(node)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    # -- SIM004: frozen dataclasses ------------------------------------
    def _check_dataclass(self, node: ast.ClassDef) -> None:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target)
            if name is None or self.index.canonical(name) not in (
                "dataclass",
                "dataclasses.dataclass",
            ):
                continue
            frozen = False
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                        frozen = bool(kw.value.value)
            if not frozen:
                # Report under the class's own symbol for waiver matching.
                self.scope.append(node.name)
                self._emit(
                    "SIM004",
                    node.lineno,
                    f"model-layer dataclass {node.name!r} is not frozen: "
                    "mutable model state breaks run-to-run isolation",
                    "declare @dataclass(frozen=True) or move out of the "
                    "model layer",
                )
                self.scope.pop()

    # -- SIM001/SIM002: calls, classified by the flow plane ------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        hit = call_effect(self.index.canonical(name), node) if name else None
        if hit is not None and hit[0] in _EFFECT_RULES:
            rule, message, fixit = _EFFECT_RULES[hit[0]]
            self._emit(rule, node.lineno, message.format(hit[1]), fixit)
        self.generic_visit(node)

    # -- SIM003: set iteration ----------------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        is_set_expr = isinstance(iter_node, (ast.Set, ast.SetComp)) or (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        )
        if is_set_expr:
            self._emit(
                "SIM003",
                iter_node.lineno,
                "iterating a set expression: set order is hash-randomized "
                "across processes, so anything derived from this order is "
                "irreproducible",
                "iterate sorted(...) over the set instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- SIM005: float equality ---------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq:
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            ):
                self._emit(
                    "SIM005",
                    node.lineno,
                    "float ==/!= against a float literal in verification "
                    "code: use an explicit exact-comparison helper or a "
                    "tolerance",
                    "compare via math.isclose(...) or an intentional "
                    "bit-exact helper",
                    severity=Severity.WARNING,
                )
        self.generic_visit(node)


def self_lint_module(index: ModuleIndex) -> list[Finding]:
    """Lint one parsed module; its ``rel_path`` decides rule scopes."""
    visitor = _SelfLintVisitor(index)
    visitor.visit(index.tree)
    return visitor.findings


def self_lint_source(source: str, rel_path: str) -> list[Finding]:
    """Lint one module's source; ``rel_path`` decides rule scopes."""
    return self_lint_module(module_index(source, rel_path))


# ----------------------------------------------------------------------
# Waivers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Waiver:
    """One intentional exception: rule + path suffix (+ optional symbol).

    ``line`` is the ``[[waiver]]`` header's line in ``waivers.toml`` —
    carried so a stale-waiver finding (SIM000) points at the exact entry
    to delete rather than at the file as a whole.
    """

    rule: str
    path: str
    reason: str
    symbol: str = ""
    line: int = 0

    def matches(self, finding: Finding) -> bool:
        """Whether this waiver covers ``finding``."""
        if finding.rule != self.rule:
            return False
        if not finding.path.endswith(self.path):
            return False
        if self.symbol and self.symbol not in finding.subject:
            return False
        return True

    def describe(self) -> str:
        """Short identity string (used in SIM000 unused-waiver findings)."""
        sym = f"::{self.symbol}" if self.symbol else ""
        return f"{self.rule} @ {self.path}{sym}"


def _parse_toml_minimal(text: str) -> dict:
    """Tiny TOML subset parser (``[[waiver]]`` + ``key = "string"``).

    Python 3.10 lacks ``tomllib`` and new dependencies are off the table,
    so this covers exactly the grammar ``waivers.toml`` uses.
    """
    data: dict = {"waiver": []}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[waiver]]":
            current = {}
            data["waiver"].append(current)
            continue
        if "=" in line and current is not None:
            key, _, value = line.partition("=")
            value = value.strip()
            if not (value.startswith('"') and value.endswith('"')):
                raise ConfigError(
                    f"waivers.toml:{lineno}: only string values supported"
                )
            current[key.strip()] = value[1:-1]
            continue
        raise ConfigError(f"waivers.toml:{lineno}: unparseable line {raw!r}")
    return data


def load_waivers(path: str | Path = DEFAULT_WAIVERS) -> list[Waiver]:
    """Load the waivers file; a missing file means no waivers."""
    p = Path(path)
    if not p.exists():
        return []
    text = p.read_text(encoding="utf-8")
    if tomllib is not None:
        data = tomllib.loads(text)
    else:  # pragma: no cover - exercised only on Python 3.10
        data = _parse_toml_minimal(text)
    # Neither parser reports entry positions, but entries appear in
    # document order, so the Nth [[waiver]] header line is the Nth entry.
    header_lines = [
        lineno
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() == "[[waiver]]"
    ]
    waivers = []
    for i, entry in enumerate(data.get("waiver", [])):
        try:
            waivers.append(
                Waiver(
                    rule=entry["rule"],
                    path=entry["path"],
                    reason=entry["reason"],
                    symbol=entry.get("symbol", ""),
                    line=header_lines[i] if i < len(header_lines) else 0,
                )
            )
        except KeyError as exc:
            raise ConfigError(
                f"waiver entry {entry!r} missing key {exc}"
            ) from exc
    return waivers


def apply_waivers(
    findings: Iterable[Finding], waivers: Sequence[Waiver]
) -> tuple[list[Finding], list[Waiver]]:
    """Mark covered findings as waived; also return the *unused* waivers."""
    used: set[int] = set()
    out: list[Finding] = []
    for finding in findings:
        waived = False
        for i, waiver in enumerate(waivers):
            if waiver.matches(finding):
                used.add(i)
                waived = True
        out.append(finding.waive() if waived else finding)
    unused = [w for i, w in enumerate(waivers) if i not in used]
    return out, unused


def unused_waiver_findings(unused: Sequence[Waiver]) -> list[Finding]:
    """SIM000 findings for waivers that matched nothing."""
    return [
        Finding(
            rule="SIM000",
            severity=Severity.WARNING,
            subject=waiver.describe(),
            message=(
                f"unused waiver {waiver.describe()} ({waiver.reason!r}): "
                "the violation it covered is gone — delete the entry"
            ),
            fixit="remove the stale entry from lint/waivers.toml",
            path="lint/waivers.toml",
            line=waiver.line,
        )
        for waiver in unused
    ]
