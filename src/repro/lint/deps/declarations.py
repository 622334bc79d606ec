"""Declared key material, parsed from the analyzed tree's AST.

Everything the KEY passes compare the cone's read-set against — the
signature component names, the dead-field normalization table, the
attributes ``execution_signature()`` itself reads,
the cache key's identity tuple, ``EnvConfig.key()``'s reads — is
recovered from the *parsed source of the tree under analysis*, never
from live imports.  That is what lets the fault-injection tests lint
mutated fixture trees, and it means the passes check the code as
written, not as currently imported.

Property/method *expansion* is the bridge between derived attributes and
fields: ``expansions["wait_policy"] == {"library", "blocktime_ms"}``
says reading the derived wait policy is reading those two fields.  The
passes use it to cover property reads (KEY001), to credit aliveness
through derived slots (KEY002), and to normalize guard conditions —
a read guarded by ``wait_policy`` is guarded by ``library``/
``blocktime_ms`` for KEY004's purposes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.flow.callgraph import CallGraph, _dotted

__all__ = [
    "CacheDecl",
    "SignatureDecl",
    "cache_declarations",
    "class_expansions",
    "signature_declarations",
]


def _is_classvar(annotation: ast.AST | None) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    d = _dotted(annotation) if annotation is not None else None
    return d is not None and d.split(".")[-1] == "ClassVar"


def _self_reads(fn_node: ast.AST) -> frozenset[str]:
    """Every ``self.X`` attribute read in one method body."""
    out: set[str] = set()
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return frozenset(out)


def _class_body_assign(
    cls_node: ast.ClassDef, name: str
) -> ast.AST | None:
    """The value expression assigned to ``name`` in the class body."""
    for stmt in cls_node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name
            and stmt.value is not None
        ):
            return stmt.value
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ):
            return stmt.value
    return None


def _literal(value: ast.AST | None):
    if value is None:
        return None
    try:
        return ast.literal_eval(value)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None


def class_expansions(
    graph: CallGraph, cls_qualname: str
) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
    """``(attr -> terminal fields, declared fields)`` for one class.

    A *terminal field* is a class-body annotated field (non-ClassVar);
    methods and properties expand, to a fixpoint, into the fields their
    bodies read.  An attribute that is neither a field nor a method
    expands to itself.
    """
    record = graph.classes[cls_qualname]
    fields: set[str] = set()
    if record.node is not None:
        for stmt in record.node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not _is_classvar(stmt.annotation)
            ):
                fields.add(stmt.target.id)
    raw: dict[str, frozenset[str]] = {}
    for name, qual in record.methods.items():
        fn = graph.functions.get(qual)
        if fn is not None:
            raw[name] = _self_reads(fn.node)
    cache: dict[str, frozenset[str]] = {}

    def expand(attr: str, stack: frozenset[str]) -> frozenset[str]:
        if attr in fields or attr not in raw:
            return frozenset({attr})
        if attr in cache:
            return cache[attr]
        if attr in stack:
            return frozenset()
        out: set[str] = set()
        for inner in raw[attr]:
            out |= expand(inner, stack | {attr})
        result = frozenset(out)
        cache[attr] = result
        return result

    expansions = {name: expand(name, frozenset()) for name in raw}
    return expansions, frozenset(fields)


@dataclass
class SignatureDecl:
    """What ``ResolvedICVs`` declares about its execution signature."""

    cls: str | None = None
    #: ``SIGNATURE_COMPONENTS`` literal, None if absent/unparseable.
    components: tuple[str, ...] | None = None
    #: ``SIGNATURE_DEAD_FIELDS`` literal: field -> (guard, reason).
    dead_fields: dict[str, tuple[str | None, str]] | None = None
    #: Attributes ``execution_signature()``'s own body reads.
    self_reads: frozenset[str] = frozenset()
    #: Element count of the returned signature tuple.
    tuple_arity: int | None = None
    fields: frozenset[str] = frozenset()
    expansions: dict[str, frozenset[str]] = field(default_factory=dict)
    rel_path: str = ""
    line: int = 0
    found: bool = False

    def terminal(self, attr: str) -> frozenset[str]:
        return self.expansions.get(attr, frozenset({attr}))


def signature_declarations(
    graph: CallGraph, cls_qualname: str | None
) -> SignatureDecl:
    """Parse the signature declarations off the tracked ICV class."""
    decl = SignatureDecl(cls=cls_qualname)
    record = graph.classes.get(cls_qualname) if cls_qualname else None
    if record is None or record.node is None:
        return decl
    sig_qual = record.methods.get("execution_signature")
    sig_fn = graph.functions.get(sig_qual) if sig_qual else None
    if sig_fn is None:
        return decl
    decl.found = True
    decl.rel_path = sig_fn.rel_path
    decl.line = sig_fn.lineno
    decl.self_reads = _self_reads(sig_fn.node)
    for node in ast.walk(sig_fn.node):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
            decl.tuple_arity = len(node.value.elts)
            break
    components = _literal(
        _class_body_assign(record.node, "SIGNATURE_COMPONENTS")
    )
    if isinstance(components, tuple) and all(
        isinstance(c, str) for c in components
    ):
        decl.components = components
    dead = _literal(_class_body_assign(record.node, "SIGNATURE_DEAD_FIELDS"))
    if isinstance(dead, dict):
        parsed: dict[str, tuple[str | None, str]] = {}
        for name, entry in dead.items():
            if (
                isinstance(name, str)
                and isinstance(entry, tuple)
                and len(entry) == 2
                and (entry[0] is None or isinstance(entry[0], str))
                and isinstance(entry[1], str)
            ):
                parsed[name] = (entry[0], entry[1])
        decl.dead_fields = parsed
    decl.expansions, decl.fields = class_expansions(graph, cls_qualname)
    return decl


@dataclass
class CacheDecl:
    """What ``core.cache`` declares about the batch key."""

    module: str | None = None
    #: ``CACHE_KEY_FIELDS`` literal.
    key_fields: tuple[str, ...] | None = None
    #: ``CACHE_KEY_EXCLUDED`` keys -> reason.
    excluded: dict[str, str] | None = None
    #: Normalized slot names of the identity tuple ``key_material``
    #: actually hashes, in order.
    elements: tuple[str, ...] | None = None
    #: Attributes ``EnvConfig.key()`` reads.
    env_key_reads: frozenset[str] = frozenset()
    #: Whether ``machine_fingerprint`` sweeps ``dataclasses.fields``.
    machine_fp_uses_fields: bool = False
    #: Whether ``grid_fingerprint`` digests per-config ``.key()`` calls.
    grid_fp_uses_key: bool = False
    rel_path: str = ""
    line: int = 0
    found: bool = False


def _identity_elements(
    fn_node: ast.AST,
) -> tuple[tuple[str, ...] | None, dict[int, str]]:
    """Normalized names of ``key_material``'s identity tuple, in order.

    Parameter positions give the fingerprint slots their names (the
    second and third parameters are the grid and machine fingerprints,
    whatever the code calls them); ``plan.X``/``batch.X`` attributes keep
    their dotted spelling; a bare ``CACHE_FORMAT_VERSION`` name becomes
    ``format_version``.
    """
    args = fn_node.args
    positional = [*args.posonlyargs, *args.args]
    if len(positional) < 4:
        return None, {}
    plan_name = positional[0].arg
    grid_name = positional[1].arg
    machine_name = positional[2].arg
    batch_name = positional[3].arg
    renames = {plan_name: "plan", batch_name: "batch"}
    tuple_node = None
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "identity"
            and isinstance(node.value, ast.Tuple)
        ):
            tuple_node = node.value
            break
    if tuple_node is None:
        return None, {}
    out: list[str] = []
    for element in tuple_node.elts:
        if isinstance(element, ast.Name):
            if element.id == grid_name:
                out.append("grid_fingerprint")
            elif element.id == machine_name:
                out.append("machine_fingerprint")
            elif element.id == "CACHE_FORMAT_VERSION":
                out.append("format_version")
            else:
                out.append(element.id)
        elif (
            isinstance(element, ast.Attribute)
            and isinstance(element.value, ast.Name)
        ):
            base = renames.get(element.value.id, element.value.id)
            out.append(f"{base}.{element.attr}")
        else:
            d = _dotted(element)
            out.append(d if d is not None else "<expr>")
    return tuple(out), renames


def cache_declarations(
    graph: CallGraph, env_cls: str | None
) -> CacheDecl:
    """Parse the cache-key declarations off the ``core.cache`` module."""
    module = f"{graph.package}.core.cache"
    decl = CacheDecl(module=module)
    tree = graph.module_tree(module)
    if tree is None:
        return decl
    key_material = graph.functions.get(f"{module}.key_material")
    if key_material is None:
        return decl
    decl.found = True
    decl.rel_path = key_material.rel_path
    decl.line = key_material.lineno
    decl.elements, _ = _identity_elements(key_material.node)
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            name = stmt.targets[0].id
            if name == "CACHE_KEY_FIELDS":
                value = _literal(stmt.value)
                if isinstance(value, tuple):
                    decl.key_fields = value
            elif name == "CACHE_KEY_EXCLUDED":
                value = _literal(stmt.value)
                if isinstance(value, dict):
                    decl.excluded = value
    machine_fp = graph.functions.get(f"{module}.machine_fingerprint")
    if machine_fp is not None:
        for node in ast.walk(machine_fp.node):
            if isinstance(node, ast.Call):
                d = _dotted(node.func)
                if d is not None and d.split(".")[-1] == "fields":
                    decl.machine_fp_uses_fields = True
                    break
    grid_fp = graph.functions.get(f"{module}.grid_fingerprint")
    if grid_fp is not None:
        for node in ast.walk(grid_fp.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "key"
            ):
                decl.grid_fp_uses_key = True
                break
    env_record = graph.classes.get(env_cls) if env_cls else None
    if env_record is not None:
        key_fn = graph.functions.get(env_record.methods.get("key", ""))
        if key_fn is not None:
            decl.env_key_reads = _self_reads(key_fn.node)
    return decl
