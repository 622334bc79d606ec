"""Project-wide call graph over ``src/repro`` (stdlib ``ast`` only).

The per-file self-lint (``repro.lint.selflint``) matches call sites
locally, so an effect laundered through one helper function — a wall
clock read wrapped in ``def now()``, an unseeded draw behind
``def jitter()`` — is invisible to it.  This module builds the structure
the flow plane needs to see through that: every function and method in
the package, and the statically-resolvable edges between them.

Resolution handles:

- module functions through ``import``/``from-import`` chains, including
  aliases (``from repro.resilience.transport import send_frame as sf``)
  and relative imports (``from .transport import send_frame``),
- methods through ``self.``/``cls.`` inside a class body, walking the
  statically-known project-class MRO,
- methods through *local type inference*: a variable assigned from a
  project-class constructor (``cache = SweepCache(...)``), annotated
  with a project class (``def f(cache: SweepCache)``), or assigned from
  a project function whose return annotation names a project class
  (``machine = get_machine(arch)``) resolves ``cache.put(...)``,
- methods through *instance-attribute types*: ``self.engine.price(...)``
  resolves when ``engine`` has a statically-known class — from a
  dataclass field annotation, an annotated ``self.x: T = ...`` in
  ``__init__``, an assignment from a class-annotated parameter, or an
  assignment from a project-class constructor,
- constructor calls (``RecordBlock(schema)`` edges to ``__init__`` and,
  for dataclasses, ``__post_init__``),
- nested functions by name within their enclosing definition.

:class:`TypedScope` exposes the same inference as a reusable expression
typer — given any AST expression inside a function, the project class it
evaluates to, if statically known.  The dependency plane
(``repro.lint.deps``) builds its attribute-read extraction on it.

Everything else — ``self.fn(...)`` callbacks, values from containers,
``functools.partial`` — stays an *unresolved* call site.  Unresolved
calls whose dotted spelling canonicalizes to a known external module
(``time.monotonic``, ``np.random.default_rng``) keep that canonical
name, which is exactly what the effect summaries match on; the rest
contribute no edge and no effect, a deliberately optimistic choice the
rule catalog documents (``docs/LINTING.md``, plane 4).
"""

from __future__ import annotations

import ast
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CallSite",
    "FunctionRecord",
    "ClassRecord",
    "CallGraph",
    "ModuleIndex",
    "TypedScope",
    "build_callgraph",
    "module_index",
    "own_nodes",
    "parse_modules",
]


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``callee`` is the resolved project-function qualname (None if the
    target is not a project function); ``external`` is the canonical
    dotted spelling for unresolved calls whose head was importable
    (``time.monotonic``), None when nothing canonical is known.
    ``node`` keeps the AST call for argument-sensitive effect checks
    (``default_rng()`` with vs. without a seed).
    """

    callee: str | None
    external: str | None
    lineno: int
    node: ast.Call = field(compare=False, repr=False, default=None)


@dataclass
class FunctionRecord:
    """One function or method definition in the package.

    ``returns`` keeps the raw dotted spelling of the return annotation
    (string annotations included) so callers can be typed through
    project-function calls; it is resolved lazily by
    :meth:`CallGraph.return_class_of`.
    """

    qualname: str
    module: str
    rel_path: str
    lineno: int
    node: ast.AST
    cls: str | None = None
    returns: str | None = None


@dataclass
class ClassRecord:
    """One class definition: its methods and statically-known bases.

    ``attr_types`` maps instance-attribute names to project-class
    qualnames where one is statically known — from class-body field
    annotations (dataclass fields) or constructor ``self.x`` assignments
    (annotated, from a class-annotated parameter, or from a project-class
    constructor call).
    """

    qualname: str
    module: str
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False
    node: ast.ClassDef | None = field(default=None, repr=False)
    attr_types: dict[str, str] = field(default_factory=dict)


class ModuleIndex:
    """One parsed module and its import-alias table.

    The alias table is the lint package's one import-alias resolver:
    the self-lint plane classifies call sites through it, and the call
    graph resolves edges through it.
    """

    def __init__(self, module: str, rel_path: str, tree: ast.Module,
                 is_package: bool = False):
        self.module = module
        #: The package the module is registered under (its first name).
        self.package = module.partition(".")[0]
        self.rel_path = rel_path
        self.tree = tree
        self.is_package = is_package
        #: local name -> canonical dotted prefix ("np" -> "numpy",
        #: "send_frame" -> "repro.resilience.transport.send_frame").
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parents = module.split(".")
                    # Level 1 = the containing package: the module's
                    # parent for plain modules, the module itself for
                    # __init__.
                    drop = node.level - 1 if is_package else node.level
                    parents = parents[: len(parents) - drop]
                    base = ".".join(parents + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def canonical(self, dotted: str) -> str:
        """Rewrite a leading import alias to its canonical dotted name."""
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head


def _module_name(rel_path: str, package: str) -> tuple[str, bool]:
    """The dotted module name of ``rel_path`` (relative to the package
    root) under ``package``, and whether it is a package ``__init__``."""
    parts = rel_path[: -len(".py")].split("/")
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package, is_package


def module_index(source: str, rel_path: str,
                 package: str = "repro") -> ModuleIndex:
    """Parse one module's source; ``rel_path`` is relative to the
    package root and names the module (``core/sweep.py`` ->
    ``repro.core.sweep``)."""
    module, is_package = _module_name(rel_path, package)
    return ModuleIndex(module, rel_path,
                       ast.parse(source, filename=rel_path),
                       is_package=is_package)


def _import_name(
    trees: list[tuple[str, ast.Module]], default: str
) -> str:
    """The name a package's own modules import it by.

    ``trees`` holds each module's path relative to the package root and
    its parse.  An absolute import whose name past its first part is one
    of those modules (``from repro.core.sweep import ...`` in a tree
    with ``core/sweep.py``) votes for that first part; the most voted
    name wins, and ``default`` stands when no import votes.  So a copy
    of ``src/repro`` reads as ``repro`` under any directory name, and
    the names its imports spell resolve inside it.
    """
    own = {_module_name(rel, "")[0][1:] for rel, _ in trees} - {""}
    votes: Counter[str] = Counter()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                head, _, rest = name.partition(".")
                if rest in own:
                    votes[head] += 1
    return votes.most_common(1)[0][0] if votes else default


def parse_modules(
    src_root: str | Path, package: str | None = None
) -> list[ModuleIndex]:
    """Parse every ``*.py`` under ``src_root`` once, in path order.

    ``package`` is the dotted prefix modules are registered under; it
    defaults to the name the tree's own imports give it
    (:func:`_import_name`, ``repro`` for the shipped tree and any copy
    of it), else the root directory's name.  Qualnames look like
    ``repro.core.cache.SweepCache.put``.
    """
    root = Path(src_root)
    trees = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        trees.append((rel, ast.parse(path.read_text(encoding="utf-8"),
                                     filename=rel)))
    package = package or _import_name(trees, root.name)
    modules = []
    for rel, tree in trees:
        module, is_package = _module_name(rel, package)
        modules.append(ModuleIndex(module, rel, tree, is_package=is_package))
    return modules


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` over a function, minus its nested function defs.

    Nested functions are separate graph nodes with their own calls and
    effects, so a walk over the outer body must not count them twice.
    The order is ``ast.walk``'s breadth-first order.
    """
    todo = deque([fn])
    while todo:
        node = todo.popleft()
        todo.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        yield node


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_dotted(node: ast.AST | None) -> str | None:
    """Dotted spelling of an annotation, unwrapping string forms."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if all(p.isidentifier() for p in text.split(".")):
            return text
        return None
    return _dotted(node)


class CallGraph:
    """Functions, classes, and resolved call edges for one source tree."""

    def __init__(self, package: str):
        self.package = package
        self.functions: dict[str, FunctionRecord] = {}
        self.classes: dict[str, ClassRecord] = {}
        #: caller qualname -> call sites in source order.
        self.calls: dict[str, list[CallSite]] = {}
        self._modules: dict[str, ModuleIndex] = {}
        self._callers: dict[str, list[tuple[str, int]]] | None = None

    # -- queries ---------------------------------------------------------
    def subject(self, qualname: str) -> str:
        """``qualname`` without the package prefix (a finding subject)."""
        prefix = self.package + "."
        if qualname.startswith(prefix):
            return qualname[len(prefix):]
        return qualname

    def callers(self) -> dict[str, list[tuple[str, int]]]:
        """Reverse adjacency: callee -> [(caller, call lineno), ...]."""
        if self._callers is None:
            rev: dict[str, list[tuple[str, int]]] = {}
            for caller, sites in self.calls.items():
                for site in sites:
                    if site.callee is not None:
                        rev.setdefault(site.callee, []).append(
                            (caller, site.lineno)
                        )
            self._callers = rev
        return self._callers

    def resolve_method(self, cls_qualname: str, name: str) -> str | None:
        """Look ``name`` up in the class, then its project-class MRO."""
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            cls = stack.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            record = self.classes.get(cls)
            if record is None:
                continue
            if name in record.methods:
                return record.methods[name]
            stack.extend(record.bases)
        return None

    def module_of(self, qualname: str) -> ModuleIndex | None:
        record = self.functions.get(qualname)
        return self._modules.get(record.module) if record else None

    def module_tree(self, module: str) -> ast.Module | None:
        """The parsed AST of one module, by dotted name."""
        index = self._modules.get(module)
        return index.tree if index else None

    def return_class_of(self, qualname: str) -> str | None:
        """The project class ``qualname``'s return annotation names."""
        record = self.functions.get(qualname)
        if record is None or record.returns is None:
            return None
        index = self._modules.get(record.module)
        if index is None:
            return None
        return _class_lookup(self, index, record.returns)


def _class_lookup(
    graph: CallGraph, index: ModuleIndex, dotted: str
) -> str | None:
    """The project class ``dotted`` names in ``index``'s namespace."""
    full = index.canonical(dotted)
    if full in graph.classes:
        return full
    local = f"{index.module}.{dotted}"
    if local in graph.classes:
        return local
    return None


# ----------------------------------------------------------------------
# Pass 1: symbols
# ----------------------------------------------------------------------
def _index_module(graph: CallGraph, index: ModuleIndex) -> None:
    def register(node: ast.AST, scope: list[str], cls: str | None) -> None:
        in_class_body = isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join([index.module, *scope, child.name])
                graph.functions[qual] = FunctionRecord(
                    qual, index.module, index.rel_path, child.lineno,
                    child, cls,
                    returns=_annotation_dotted(child.returns),
                )
                if cls is not None and in_class_body:
                    graph.classes[cls].methods.setdefault(child.name, qual)
                register(child, scope + [child.name], cls)
            elif isinstance(child, ast.ClassDef):
                qual = ".".join([index.module, *scope, child.name])
                bases = tuple(
                    index.canonical(d)
                    for d in (_dotted(b) for b in child.bases)
                    if d is not None
                )
                is_dc = any(
                    (_dotted(d.func if isinstance(d, ast.Call) else d)
                     or "").split(".")[-1] == "dataclass"
                    for d in child.decorator_list
                )
                graph.classes[qual] = ClassRecord(
                    qual, index.module, bases, is_dataclass=is_dc,
                    node=child,
                )
                register(child, scope + [child.name], qual)

    register(index.tree, [], None)


# ----------------------------------------------------------------------
# Pass 1b: instance-attribute types
# ----------------------------------------------------------------------
def _infer_class_attr_types(graph: CallGraph) -> None:
    """Populate ``ClassRecord.attr_types`` for every indexed class.

    Runs after all modules are indexed (so cross-module class lookups
    resolve) and before call extraction (so ``self.attr.method()``
    dispatches through it).
    """
    for cls in graph.classes.values():
        index = graph._modules.get(cls.module)
        if index is None or cls.node is None:
            continue
        # Class-body annotated fields (dataclass fields, plain decls).
        # Subscripted annotations (ClassVar[...], tuple[...]) have no
        # dotted spelling and are naturally skipped.
        for stmt in cls.node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                d = _annotation_dotted(stmt.annotation)
                typed = _class_lookup(graph, index, d) if d else None
                if typed is not None:
                    cls.attr_types.setdefault(stmt.target.id, typed)
        # self.x assignments in the constructors.
        for ctor_name in ("__init__", "__post_init__"):
            record = graph.functions.get(cls.methods.get(ctor_name, ""))
            if record is None:
                continue
            params: dict[str, str] = {}
            args = record.node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                d = _annotation_dotted(arg.annotation)
                typed = _class_lookup(graph, index, d) if d else None
                if typed is not None:
                    params[arg.arg] = typed
            for stmt in ast.walk(record.node):
                target = value = annotation = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    value = stmt.value
                    annotation = stmt.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                typed = None
                if annotation is not None:
                    d = _annotation_dotted(annotation)
                    typed = _class_lookup(graph, index, d) if d else None
                if typed is None and isinstance(value, ast.Name):
                    typed = params.get(value.id)
                if typed is None and isinstance(value, ast.Call):
                    d = _dotted(value.func)
                    typed = _class_lookup(graph, index, d) if d else None
                if typed is not None:
                    cls.attr_types.setdefault(target.attr, typed)


# ----------------------------------------------------------------------
# Pass 2: call-site resolution
# ----------------------------------------------------------------------
class _Resolver:
    """Resolves dotted call targets inside one function body."""

    def __init__(self, graph: CallGraph, index: ModuleIndex,
                 record: FunctionRecord):
        self.graph = graph
        self.index = index
        self.record = record
        #: local variable -> project-class qualname (flow-insensitive).
        self.var_types: dict[str, str] = {}
        #: locally-defined nested function name -> qualname.
        self.local_defs: dict[str, str] = {}

    def _class_of(self, dotted: str) -> str | None:
        """The project class ``dotted`` names, if any."""
        return _class_lookup(self.graph, self.index, dotted)

    def _function_target(self, dotted: str) -> str | None:
        """The project function a dotted call spelling resolves to."""
        parts = dotted.split(".")
        if (
            parts[0] in ("self", "cls")
            and self.record.cls is not None
            and len(parts) == 2
        ):
            return self.graph.resolve_method(self.record.cls, parts[1])
        full = self.index.canonical(dotted)
        if full in self.graph.functions:
            return full
        local = f"{self.index.module}.{dotted}"
        if local in self.graph.functions:
            return local
        return None

    def infer_types(self) -> None:
        node = self.record.node
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child is not node:
                    self.local_defs[child.name] = (
                        f"{self.record.qualname}.{child.name}"
                    )
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                d = _dotted(arg.annotation) if arg.annotation else None
                cls = self._class_of(d) if d else None
                if cls is not None:
                    self.var_types[arg.arg] = cls
        for child in ast.walk(node):
            target = None
            value = None
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target, value = child.targets[0], child.value
            elif isinstance(child, ast.AnnAssign):
                target, value = child.target, child.value
                d = _dotted(child.annotation)
                cls = self._class_of(d) if d else None
                if cls is not None and isinstance(target, ast.Name):
                    self.var_types[target.id] = cls
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
            ):
                d = _dotted(value.func)
                cls = self._class_of(d) if d else None
                if cls is None and d is not None:
                    # Project-function call with a class-valued return
                    # annotation (machine = get_machine(arch)).
                    callee = self._function_target(d)
                    if callee is not None:
                        cls = self.graph.return_class_of(callee)
                if cls is not None:
                    self.var_types[target.id] = cls
            elif (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Attribute)
            ):
                # A local alias of an attribute (engine = self.engine)
                # takes the attribute's type, as TypedScope.type_of does.
                cls = self._attr_type(value)
                if cls is not None:
                    self.var_types[target.id] = cls

    def _attr_type(self, node: ast.Attribute) -> str | None:
        """The project class of ``self.attr``/``var.attr`` through the
        owner's ``ClassRecord.attr_types``, else ``None``."""
        base = node.value
        if not isinstance(base, ast.Name):
            return None
        owner = (self.record.cls if base.id in ("self", "cls")
                 else self.var_types.get(base.id))
        record = self.graph.classes.get(owner) if owner else None
        return record.attr_types.get(node.attr) if record else None

    def _constructor_targets(self, cls: str) -> list[str]:
        out = []
        for dunder in ("__init__", "__post_init__"):
            target = self.graph.resolve_method(cls, dunder)
            if target is not None:
                out.append(target)
        return out

    def resolve(self, call: ast.Call) -> list[CallSite]:
        dotted = _dotted(call.func)
        if dotted is None:
            return [CallSite(None, None, call.lineno, call)]
        parts = dotted.split(".")
        head = parts[0]
        cls = self.record.cls

        # self.method() / cls.method() inside a class body.
        if head in ("self", "cls") and cls is not None and len(parts) == 2:
            target = self.graph.resolve_method(cls, parts[1])
            return [CallSite(target, None, call.lineno, call)]

        # var.method() through inferred local types.
        if head in self.var_types and len(parts) == 2:
            target = self.graph.resolve_method(
                self.var_types[head], parts[1]
            )
            return [CallSite(target, None, call.lineno, call)]

        # self.attr.method() / var.attr.method() through instance-
        # attribute types (self.engine.loop_region_seconds(...)).
        if len(parts) == 3:
            base = None
            if head in ("self", "cls") and cls is not None:
                base = cls
            elif head in self.var_types:
                base = self.var_types[head]
            if base is not None:
                record = self.graph.classes.get(base)
                attr_cls = (
                    record.attr_types.get(parts[1]) if record else None
                )
                if attr_cls is not None:
                    target = self.graph.resolve_method(attr_cls, parts[2])
                    return [CallSite(target, None, call.lineno, call)]
                return [CallSite(None, None, call.lineno, call)]

        if len(parts) == 1:
            # Nested function in this definition chain.
            if head in self.local_defs:
                return [CallSite(self.local_defs[head], None,
                                 call.lineno, call)]
            # Module-level function in this module.
            local = f"{self.index.module}.{head}"
            if local in self.graph.functions:
                return [CallSite(local, None, call.lineno, call)]
            # Class constructor (local or imported).
            ctor_cls = self._class_of(head)
            if ctor_cls is not None:
                targets = self._constructor_targets(ctor_cls)
                if targets:
                    return [CallSite(t, None, call.lineno, call)
                            for t in targets]
                return [CallSite(None, None, call.lineno, call)]
            # Imported function, else an external (builtins included).
            full = self.index.canonical(head)
            if full in self.graph.functions:
                return [CallSite(full, None, call.lineno, call)]
            return [CallSite(None, full, call.lineno, call)]

        full = self.index.canonical(dotted)
        if full in self.graph.functions:
            return [CallSite(full, None, call.lineno, call)]
        # Class-qualified method or constructor attribute.
        prefix, _, method = full.rpartition(".")
        if prefix in self.graph.classes:
            target = self.graph.resolve_method(prefix, method)
            return [CallSite(target, None, call.lineno, call)]
        ctor_cls = self._class_of(dotted)
        if ctor_cls is not None:
            targets = self._constructor_targets(ctor_cls)
            if targets:
                return [CallSite(t, None, call.lineno, call)
                        for t in targets]
        return [CallSite(None, full, call.lineno, call)]


class TypedScope:
    """Expression typer for one function body.

    Wraps the resolver's flow-insensitive local type inference and
    extends it recursively over expressions: ``type_of`` answers "what
    project class does this AST expression evaluate to, if statically
    known" for names, attribute chains (through
    ``ClassRecord.attr_types``), and calls (constructors, project
    functions with class-valued return annotations, and chained method
    calls such as ``get_workload(app).program(size)``).
    """

    def __init__(self, graph: CallGraph, qualname: str):
        self.graph = graph
        self.record = graph.functions[qualname]
        self.index = graph.module_of(qualname)
        self.var_types: dict[str, str] = {}
        if self.index is None:
            return
        resolver = _Resolver(graph, self.index, self.record)
        resolver.infer_types()
        self.var_types = dict(resolver.var_types)
        # Extra passes pick up chained-call assignments the resolver's
        # single dotted-name pass cannot type.
        for _ in range(2):
            changed = False
            for node in ast.walk(self.record.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id not in self.var_types
                ):
                    typed = self.type_of(node.value)
                    if typed is not None:
                        self.var_types[node.targets[0].id] = typed
                        changed = True
            if not changed:
                break

    def type_of(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return self.record.cls
            return self.var_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value)
            if base is not None:
                record = self.graph.classes.get(base)
                if record is not None:
                    return record.attr_types.get(node.attr)
            return None
        if isinstance(node, ast.Call):
            return self._call_type(node)
        return None

    def _call_type(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            base = self.type_of(func.value)
            if base is not None:
                target = self.graph.resolve_method(base, func.attr)
                if target is not None:
                    return self.graph.return_class_of(target)
                return None
        dotted = _dotted(func)
        if dotted is None or self.index is None:
            return None
        cls = _class_lookup(self.graph, self.index, dotted)
        if cls is not None:
            return cls
        full = self.index.canonical(dotted)
        if full in self.graph.functions:
            return self.graph.return_class_of(full)
        local = f"{self.index.module}.{dotted}"
        if local in self.graph.functions:
            return self.graph.return_class_of(local)
        return None


def _extract_calls(graph: CallGraph, index: ModuleIndex,
                   record: FunctionRecord) -> list[CallSite]:
    resolver = _Resolver(graph, index, record)
    resolver.infer_types()
    # The edge outer -> inner carries a nested function's effects.
    sites: list[CallSite] = []
    for node in own_nodes(record.node):
        if isinstance(node, ast.Call):
            sites.extend(resolver.resolve(node))
    return sites


def build_callgraph(
    src_root: str | Path,
    package: str | None = None,
    modules: list[ModuleIndex] | None = None,
) -> CallGraph:
    """Resolve call edges over ``src_root``'s modules.

    ``modules`` is the tree as :func:`parse_modules` returned it, so a
    caller that already parsed the files does not parse them again;
    ``package`` defaults to the name the modules are registered under
    (see :func:`parse_modules`).
    """
    if modules is None:
        modules = parse_modules(src_root, package)
    graph = CallGraph(package or (modules[0].package if modules
                                  else Path(src_root).name))
    for index in modules:
        graph._modules[index.module] = index
    for index in modules:
        _index_module(graph, index)
    _infer_class_attr_types(graph)
    for index in modules:
        for record in list(graph.functions.values()):
            if record.module == index.module:
                graph.calls[record.qualname] = _extract_calls(
                    graph, index, record
                )
    return graph
