"""The KEY rule passes (plane 5; catalog in ``docs/LINTING.md``).

- **KEY001** — unsound pruning: the model-evaluation cone reads a
  ``ResolvedICVs`` attribute that ``execution_signature()`` does not
  fold in.  Two configurations differing only in that attribute would be
  pruned into one equivalence class and share a modeled runtime they do
  not actually share — the silent wrong-shared-results bug the pruning's
  6.4x rests on never having.  Error.  The same rule checks every memo
  key declared in ``ResolvedICVs.MEMO_KEY_SLOTS`` against its term's
  own sub-cone: a slot the term reads but its key omits would let two
  configurations share a memoized term they do not share.
- **KEY002** — over-splitting: a declared signature component no
  reachable model code reads.  The signature then splits equivalence
  classes on a dead dimension, costing pruning without changing any
  result.  Warning naming the dead tuple slot; an arity mismatch
  between ``SIGNATURE_COMPONENTS`` and the returned tuple is an error
  (the declaration no longer describes the code).
- **KEY003** — cache-key completeness: an input that alters batch
  results — a ``SweepPlan`` field the cone reads, a ``BatchSpec`` field,
  the grid or machine fingerprint, an ``EnvConfig`` field feeding the
  model — does not flow into the ``SweepCache`` key material.  Plan
  fields may instead be declared in ``CACHE_KEY_EXCLUDED`` with a
  reason.  Error.
- **KEY004** — dead-field drift: a field ``SIGNATURE_DEAD_FIELDS``
  declares dead is read by the cone outside its declared guard (or at
  all, for guard-``None`` entries).  Guard matching is normalized
  through property expansion, so a read guarded by the derived
  ``wait_policy`` satisfies a ``library``/``blocktime_ms``-level guard
  and vice versa.  Error.

Missing declarations (the class, the method, a table) are warnings, not
silent passes — a stale analysis target would otherwise un-protect the
pipeline, the same convention FLOW001 uses for vanished roots.
"""

from __future__ import annotations

from repro.lint.deps.cone import (
    EvalCone,
    compute_cone,
    default_roots,
    tracked_classes,
)
from repro.lint.deps.declarations import (
    CacheDecl,
    SignatureDecl,
    cache_declarations,
    class_expansions,
    signature_declarations,
)
from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import CallGraph

__all__ = [
    "check_cache_key",
    "check_dead_fields",
    "check_memo_keys",
    "check_signature_alive",
    "check_signature_complete",
    "run_deps_passes",
]


def _missing(rule: str, what: str, fixit: str) -> Finding:
    return Finding(
        rule=rule,
        severity=Severity.WARNING,
        subject=what,
        message=(
            f"{what} not found in the tree: the declaration was renamed "
            f"or removed, so this soundness check no longer covers it"
        ),
        fixit=fixit,
        path="lint/deps/passes.py",
    )


# ----------------------------------------------------------------------
# KEY001 — signature completeness (unsound pruning)
# ----------------------------------------------------------------------
def check_signature_complete(
    graph: CallGraph, cone: EvalCone, sig: SignatureDecl
) -> list[Finding]:
    """Findings for cone-read ICV attributes the signature misses."""
    findings: list[Finding] = []
    if not sig.found or sig.cls is None:
        return [_missing(
            "KEY001", "ResolvedICVs.execution_signature",
            "restore the method or repoint the tracked class in "
            "lint/deps/cone.py",
        )]
    covered = set(sig.self_reads)
    covered_terminal: set[str] = set()
    for attr in covered:
        covered_terminal |= sig.terminal(attr)
    dead = set(sig.dead_fields or {})
    by_attr: dict[str, object] = {}
    for read in cone.reads_of(sig.cls):
        by_attr.setdefault(read.attr, read)
    simple = sig.cls.rsplit(".", 1)[-1]
    for attr in sorted(by_attr):
        if attr in covered or attr in dead:
            continue
        terminal = sig.terminal(attr)
        if terminal and terminal <= covered_terminal:
            continue
        read = by_attr[attr]
        findings.append(Finding(
            rule="KEY001",
            severity=Severity.ERROR,
            subject=f"{simple}.{attr}",
            message=(
                f"the model-evaluation cone reads {simple}.{attr} (in "
                f"{graph.subject(read.qualname)}, "
                f"{read.rel_path}:{read.lineno}) but "
                f"execution_signature() does not fold it in: two "
                f"configurations differing only in {attr!r} would be "
                f"pruned into one class and share a runtime they do not "
                f"share (unsound pruning)"
            ),
            fixit=(
                f"add a {attr!r} slot to execution_signature() and "
                f"SIGNATURE_COMPONENTS, or declare it in "
                f"SIGNATURE_DEAD_FIELDS with the guard that makes it "
                f"irrelevant"
            ),
            path=read.rel_path,
            line=read.lineno,
        ))
    return findings


def check_memo_keys(
    graph: CallGraph, sig: SignatureDecl, tracked: frozenset[str]
) -> list[Finding]:
    """Findings for memo keys missing a slot their term's sub-cone reads.

    A read is covered when the key carries the attribute itself, or when
    every field it expands to is a field slot of the key (a derived
    slot such as ``wait_policy`` does not cover the fields behind it:
    its value does not carry ``blocktime_ms``).
    """
    if not sig.found or sig.cls is None or sig.memo_keys is None:
        return []
    findings: list[Finding] = []
    simple = sig.cls.rsplit(".", 1)[-1]
    components = set(sig.components or ())
    for term, slots in sorted(sig.memo_keys.items()):
        qual = f"{graph.package}.{term}"
        if qual not in graph.functions:
            findings.append(_missing(
                "KEY001", f"memoized term {term}",
                f"repoint its {simple}.MEMO_KEY_SLOTS entry at the term",
            ))
            continue
        for slot in slots:
            if slot not in components:
                findings.append(Finding(
                    rule="KEY001",
                    severity=Severity.ERROR,
                    subject=f"{simple}.MEMO_KEY_SLOTS[{term!r}]",
                    message=(
                        f"the memo key of {term} names {slot!r}, which is "
                        f"not a SIGNATURE_COMPONENTS slot: the key cannot "
                        f"carry its canonical value"
                    ),
                    fixit="key the term on signature components only",
                    path=sig.rel_path,
                    line=sig.line,
                ))
        key_fields = {s for s in slots if s in sig.fields}
        sub = compute_cone(graph, (qual,), tracked)
        seen: set[str] = set()
        for read in sub.reads_of(sig.cls):
            if read.attr in seen:
                continue
            seen.add(read.attr)
            terminal = sig.terminal(read.attr)
            if read.attr in slots or (terminal and terminal <= key_fields):
                continue
            findings.append(Finding(
                rule="KEY001",
                severity=Severity.ERROR,
                subject=f"{simple}.{read.attr}",
                message=(
                    f"memoized term {term} reads {simple}.{read.attr} (in "
                    f"{graph.subject(read.qualname)}, "
                    f"{read.rel_path}:{read.lineno}) but its memo key "
                    f"omits it: two configurations differing only in "
                    f"{read.attr!r} would share one memoized value"
                ),
                fixit=(
                    f"add {read.attr!r} to the term's "
                    f"{simple}.MEMO_KEY_SLOTS entry"
                ),
                path=read.rel_path,
                line=read.lineno,
            ))
    return findings


# ----------------------------------------------------------------------
# KEY002 — signature aliveness (over-splitting)
# ----------------------------------------------------------------------
def check_signature_alive(
    graph: CallGraph, cone: EvalCone, sig: SignatureDecl
) -> list[Finding]:
    """Findings for signature slots no reachable model code reads."""
    findings: list[Finding] = []
    if not sig.found or sig.cls is None:
        return findings  # KEY001 already reported the vanished method.
    if sig.components is None:
        return [_missing(
            "KEY002", "ResolvedICVs.SIGNATURE_COMPONENTS",
            "declare SIGNATURE_COMPONENTS naming each signature tuple "
            "slot, in order",
        )]
    simple = sig.cls.rsplit(".", 1)[-1]
    if (
        sig.tuple_arity is not None
        and len(sig.components) != sig.tuple_arity
    ):
        findings.append(Finding(
            rule="KEY002",
            severity=Severity.ERROR,
            subject=f"{simple}.SIGNATURE_COMPONENTS",
            message=(
                f"SIGNATURE_COMPONENTS names {len(sig.components)} "
                f"slots but execution_signature() returns "
                f"{sig.tuple_arity}: the declaration no longer "
                f"describes the tuple"
            ),
            fixit="update SIGNATURE_COMPONENTS to match the tuple",
            path=sig.rel_path,
            line=sig.line,
        ))
    read_names: set[str] = set()
    for attr in cone.read_attrs(sig.cls):
        if attr == "execution_signature":
            # The grouping code reads the signature itself; expanding it
            # would mark every component alive and blind this pass.
            continue
        read_names.add(attr)
        read_names |= sig.terminal(attr)
    for slot, component in enumerate(sig.components):
        alive = component in read_names or (
            sig.terminal(component) & read_names
        )
        if not alive:
            findings.append(Finding(
                rule="KEY002",
                severity=Severity.WARNING,
                subject=f"{simple}.{component}",
                message=(
                    f"signature slot {slot} ({component!r}) is read by "
                    f"no code reachable from the evaluation cone: the "
                    f"signature splits equivalence classes on a dead "
                    f"dimension (lost pruning, never wrong results)"
                ),
                fixit=(
                    f"drop the {component!r} slot from "
                    f"execution_signature() and SIGNATURE_COMPONENTS, "
                    f"or wire the field into the model"
                ),
                path=sig.rel_path,
                line=sig.line,
            ))
    return findings


# ----------------------------------------------------------------------
# KEY003 — cache-key completeness
# ----------------------------------------------------------------------
def check_cache_key(
    graph: CallGraph,
    cone: EvalCone,
    cache: CacheDecl,
    tracked: dict[str, str],
) -> list[Finding]:
    """Findings for result-altering inputs outside the batch key."""
    findings: list[Finding] = []
    if not cache.found:
        return [_missing(
            "KEY003", "core.cache.key_material",
            "restore key_material()/CACHE_KEY_FIELDS in core/cache.py",
        )]
    if (
        cache.key_fields is not None
        and cache.elements is not None
        and tuple(cache.key_fields) != tuple(cache.elements)
    ):
        findings.append(Finding(
            rule="KEY003",
            severity=Severity.ERROR,
            subject="cache.CACHE_KEY_FIELDS",
            message=(
                f"CACHE_KEY_FIELDS {list(cache.key_fields)} does not "
                f"match the identity tuple key_material() hashes "
                f"{list(cache.elements)}: the declared key no longer "
                f"describes the real one"
            ),
            fixit="keep CACHE_KEY_FIELDS and the identity tuple in sync",
            path=cache.rel_path,
            line=cache.line,
        ))
    elements = set(cache.elements or cache.key_fields or ())
    excluded = set(cache.excluded or ())

    def first_read(cls: str | None, attr: str):
        for read in cone.reads_of(cls):
            if read.attr == attr:
                return read
        return None

    for simple, prefix in (("SweepPlan", "plan"), ("BatchSpec", "batch")):
        cls = tracked.get(simple)
        for attr in sorted(cone.read_attrs(cls)):
            name = f"{prefix}.{attr}"
            if name in elements or name in excluded:
                continue
            read = first_read(cls, attr)
            findings.append(Finding(
                rule="KEY003",
                severity=Severity.ERROR,
                subject=f"cache.{name}",
                message=(
                    f"{name} alters batch results (read in "
                    f"{graph.subject(read.qualname)}, "
                    f"{read.rel_path}:{read.lineno}) but does not flow "
                    f"into the SweepCache key material and is not "
                    f"declared in CACHE_KEY_EXCLUDED: two sweeps "
                    f"differing in it would share cache entries"
                ),
                fixit=(
                    f"add a {name!r} slot to key_material() and "
                    f"CACHE_KEY_FIELDS, or declare the exclusion with "
                    f"its reason in CACHE_KEY_EXCLUDED"
                ),
                path=read.rel_path,
                line=read.lineno,
            ))
    for required, why in (
        ("grid_fingerprint",
         "the configuration grid parameterizes every batch"),
        ("machine_fingerprint",
         "the machine model parameterizes every batch"),
    ):
        if required not in elements:
            findings.append(Finding(
                rule="KEY003",
                severity=Severity.ERROR,
                subject=f"cache.{required}",
                message=(
                    f"the {required} no longer flows into the SweepCache "
                    f"key material: {why}, so stale entries would hit"
                ),
                fixit=f"restore the {required} slot in key_material()",
                path=cache.rel_path,
                line=cache.line,
            ))
    if not cache.machine_fp_uses_fields:
        findings.append(Finding(
            rule="KEY003",
            severity=Severity.ERROR,
            subject="cache.machine_fingerprint",
            message=(
                "machine_fingerprint() no longer sweeps "
                "dataclasses.fields() of the machine model: a new or "
                "edited machine field (topology, cost, noise or power "
                "table) would silently hit stale entries"
            ),
            fixit="digest every declared field of the machine dataclass",
            path=cache.rel_path,
            line=cache.line,
        ))
    if not cache.grid_fp_uses_key:
        findings.append(Finding(
            rule="KEY003",
            severity=Severity.ERROR,
            subject="cache.grid_fingerprint",
            message=(
                "grid_fingerprint() no longer digests per-configuration "
                "identity keys (.key() calls): grid edits would not "
                "change the fingerprint"
            ),
            fixit="digest each configuration's .key() in grid order",
            path=cache.rel_path,
            line=cache.line,
        ))
    env_cls = tracked.get("EnvConfig")
    if env_cls is not None and cache.env_key_reads:
        expansions, _fields = class_expansions(graph, env_cls)
        key_terminal: set[str] = set()
        for attr in cache.env_key_reads:
            key_terminal |= expansions.get(attr, frozenset({attr}))
        for attr in sorted(cone.read_attrs(env_cls)):
            terminal = expansions.get(attr, frozenset({attr}))
            if terminal <= key_terminal:
                continue
            read = first_read(env_cls, attr)
            findings.append(Finding(
                rule="KEY003",
                severity=Severity.ERROR,
                subject=f"EnvConfig.{attr}",
                message=(
                    f"EnvConfig.{attr} feeds the model (read in "
                    f"{graph.subject(read.qualname)}, "
                    f"{read.rel_path}:{read.lineno}) but is missing "
                    f"from EnvConfig.key(), the identity the grid "
                    f"fingerprint digests: grids differing in it would "
                    f"share cache entries"
                ),
                fixit=f"fold {attr!r} into EnvConfig.key()",
                path=read.rel_path,
                line=read.lineno,
            ))
    return findings


# ----------------------------------------------------------------------
# KEY004 — dead-field normalization drift
# ----------------------------------------------------------------------
def check_dead_fields(
    graph: CallGraph, cone: EvalCone, sig: SignatureDecl
) -> list[Finding]:
    """Findings for declared-dead fields read outside their guard."""
    findings: list[Finding] = []
    if not sig.found or sig.cls is None:
        return findings  # KEY001 already reported the vanished method.
    if sig.dead_fields is None:
        return [_missing(
            "KEY004", "ResolvedICVs.SIGNATURE_DEAD_FIELDS",
            "declare SIGNATURE_DEAD_FIELDS mapping each normalized-away "
            "field to (guard attribute, reason)",
        )]
    simple = sig.cls.rsplit(".", 1)[-1]
    known = sig.fields | set(sig.expansions)
    for name, (guard, reason) in sorted(sig.dead_fields.items()):
        if name not in sig.fields:
            findings.append(Finding(
                rule="KEY004",
                severity=Severity.WARNING,
                subject=f"{simple}.{name}",
                message=(
                    f"SIGNATURE_DEAD_FIELDS declares {name!r} dead but "
                    f"{simple} has no such field: the table has drifted "
                    f"from the dataclass"
                ),
                fixit="remove or rename the stale table entry",
                path=sig.rel_path,
                line=sig.line,
            ))
            continue
        if guard is not None and guard not in known:
            findings.append(Finding(
                rule="KEY004",
                severity=Severity.WARNING,
                subject=f"{simple}.{name}",
                message=(
                    f"SIGNATURE_DEAD_FIELDS guards {name!r} on "
                    f"{guard!r}, which is not a field or derived "
                    f"attribute of {simple}"
                ),
                fixit="point the guard at a real attribute",
                path=sig.rel_path,
                line=sig.line,
            ))
            continue
        guard_norm: frozenset[str] = frozenset()
        if guard is not None:
            guard_norm = frozenset({guard}) | sig.terminal(guard)
        for read in cone.reads_of(sig.cls):
            if read.attr != name:
                continue
            if guard is None:
                findings.append(Finding(
                    rule="KEY004",
                    severity=Severity.ERROR,
                    subject=f"{simple}.{name}",
                    message=(
                        f"{simple}.{name} is declared dead "
                        f"({reason}) but the evaluation cone reads it in "
                        f"{graph.subject(read.qualname)} "
                        f"({read.rel_path}:{read.lineno}): the "
                        f"normalization table has drifted from the code"
                    ),
                    fixit=(
                        f"give the field a signature slot, or remove "
                        f"the read"
                    ),
                    path=read.rel_path,
                    line=read.lineno,
                ))
                continue
            site_norm: set[str] = set()
            for guard_cls, guard_attr in read.guards:
                if guard_cls == sig.cls:
                    site_norm.add(guard_attr)
                    site_norm |= sig.terminal(guard_attr)
            if guard_norm & site_norm:
                continue
            guards_text = (
                ", ".join(sorted(a for _, a in read.guards)) or "none"
            )
            findings.append(Finding(
                rule="KEY004",
                severity=Severity.ERROR,
                subject=f"{simple}.{name}",
                message=(
                    f"{simple}.{name} is declared dead under "
                    f"{guard!r} ({reason}) but "
                    f"{graph.subject(read.qualname)} reads it "
                    f"outside that guard "
                    f"({read.rel_path}:{read.lineno}; guards at the "
                    f"site: {guards_text}): the read can observe a "
                    f"value the signature normalized away"
                ),
                fixit=(
                    f"guard the read on {guard!r}, or give the field "
                    f"an unconditional signature slot"
                ),
                path=read.rel_path,
                line=read.lineno,
            ))
    return findings


def run_deps_passes(
    graph: CallGraph, roots: tuple[str, ...] | None = None
) -> list[Finding]:
    """All four KEY passes over one call graph."""
    if roots is None:
        roots = default_roots(graph)
    tracked = tracked_classes(graph)
    cone = compute_cone(graph, roots, frozenset(tracked.values()))
    findings: list[Finding] = []
    for missing in cone.missing_roots:
        findings.append(Finding(
            rule="KEY001",
            severity=Severity.WARNING,
            subject=graph.subject(missing),
            message=(
                f"evaluation-cone root {missing!r} not found in the "
                f"tree: the function was renamed or removed, so the "
                f"signature-soundness guard no longer covers it"
            ),
            fixit="update default_roots in lint/deps/cone.py",
            path="lint/deps/cone.py",
        ))
    sig = signature_declarations(graph, tracked.get("ResolvedICVs"))
    cache = cache_declarations(graph, tracked.get("EnvConfig"))
    findings.extend(check_signature_complete(graph, cone, sig))
    findings.extend(
        check_memo_keys(graph, sig, frozenset(tracked.values()))
    )
    findings.extend(check_signature_alive(graph, cone, sig))
    findings.extend(check_cache_key(graph, cone, cache, tracked))
    findings.extend(check_dead_fields(graph, cone, sig))
    return findings
