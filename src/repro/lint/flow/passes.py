"""The FLOW rule passes (plane 4; catalog in ``docs/LINTING.md``).

- **FLOW001** — transitive nondeterminism: a result-bearing root (sweep
  worker pack, ``RecordBlock`` construction, ``SweepCache.put``/``get``,
  report rendering) whose transitive closure reaches a wall-clock read
  or an unseeded RNG.  This supersedes the per-call-site blind spot of
  SIM001/SIM002: the effect may be laundered through any number of
  helper functions and still surfaces here, with the witness call chain
  in the message.  A root that no longer exists in the tree is itself a
  warning — a silently stale root list would un-protect the pipeline.
- **FLOW002** — resource safety in ``resilience/``: a socket, node
  process, selector, or spool file acquired on a path where an
  exception can escape before release.  Acquisitions are safe when used
  as a context manager, released under ``finally``, released with no
  raising statement in between, or *escaping* (passed to another call,
  returned, yielded, stored into an object) — escape transfers
  ownership, which a local pass must not second-guess.
- **FLOW003** — frame-protocol consistency: every payload kind sent
  through the :mod:`repro.resilience.transport` framing has a matching
  receiver dispatch arm (a ``message[0]`` comparison) somewhere in the
  modules that read frames, and vice versa, so protocol drift between
  node and coordinator is caught before a chaos run finds it.  Senders
  must use literal ``("kind", ...)`` tuples; a computed payload defeats
  the analysis and is reported as its own finding.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import CallGraph, _dotted, own_nodes
from repro.lint.flow.summaries import SummaryTable

__all__ = [
    "DEFAULT_RESULT_ROOTS",
    "check_transitive_nondeterminism",
    "check_resource_safety",
    "check_frame_protocol",
]

#: The result-bearing roots FLOW001 guards: every function whose output
#: lands in records, the cache, or a rendered report.
DEFAULT_RESULT_ROOTS = (
    "repro.core.sweep._execute_batch",
    "repro.core.sweep.sweep_records_to_block",
    "repro.core.sweep.sweep_block_to_records",
    "repro.core.sweep.check_sweep_block",
    "repro.core.sweep.SweepResult.records",
    "repro.core.sweep.SweepResult.block",
    "repro.core.sweep._ClassPlans.noise_factors",
    "repro.runtime.executor.measurement_noise",
    "repro.arch.noise.NoiseModel.apply_many",
    "repro.arch.noise.first_standard_normals",
    "repro.core.cache.SweepCache.put",
    "repro.core.cache.SweepCache.get",
    "repro.frame.columns.RecordBlock.extend",
    "repro.frame.columns.RecordBlock.to_bytes",
    "repro.frame.columns.RecordBlock.from_bytes",
    "repro.reporting.report_payload",
    "repro.reporting.render_report",
    "repro.serve.render.records_payload",
    "repro.serve.render.sweep_summary_payload",
    "repro.serve.render.job_payload",
    "repro.serve.render.recommend_payload",
    "repro.serve.app.TuningDaemon._recommendations",
    "repro.serve.app.TuningDaemon._shared_recommendations",
)

_NONDETERMINISM = ("wall-clock", "unseeded-rng")


# ----------------------------------------------------------------------
# FLOW001 — transitive nondeterminism
# ----------------------------------------------------------------------
def check_transitive_nondeterminism(
    graph: CallGraph,
    summaries: SummaryTable,
    roots: tuple[str, ...] = DEFAULT_RESULT_ROOTS,
) -> list[Finding]:
    """Findings for result-bearing roots reaching nondeterminism."""
    findings: list[Finding] = []
    for root in roots:
        record = graph.functions.get(root)
        if record is None:
            findings.append(Finding(
                rule="FLOW001",
                severity=Severity.WARNING,
                subject=graph.subject(root),
                message=(
                    f"result-bearing root {root!r} not found in the tree: "
                    "the function was renamed or removed, so the "
                    "nondeterminism guard no longer covers it"
                ),
                fixit="update DEFAULT_RESULT_ROOTS in lint/flow/passes.py",
                path="lint/flow/passes.py",
            ))
            continue
        effects = summaries.effects(root)
        for kind in _NONDETERMINISM:
            if kind not in effects:
                continue
            chain = summaries.witness_chain(root, kind)
            findings.append(Finding(
                rule="FLOW001",
                severity=Severity.ERROR,
                subject=graph.subject(root),
                message=(
                    f"result-bearing path transitively reaches a "
                    f"{kind.replace('-', ' ')}: "
                    + " -> ".join(chain)
                ),
                fixit=(
                    "thread the simulation clock or an explicit seed "
                    "through the chain instead of reading host state"
                ),
                path=record.rel_path,
                line=record.lineno,
            ))
    return findings


# ----------------------------------------------------------------------
# FLOW002 — resource safety
# ----------------------------------------------------------------------
#: Canonical call spellings that acquire a releasable resource.
_ACQUIRERS = {
    "socket.socket": "socket",
    "socket.socketpair": "socket",
    "socket.create_connection": "socket",
    "selectors.DefaultSelector": "selector",
    "multiprocessing.Process": "node process",
    "subprocess.Popen": "process",
    "open": "file",
    "tempfile.mkstemp": "spool file",
    "tempfile.NamedTemporaryFile": "spool file",
    "tempfile.TemporaryDirectory": "spool dir",
}
#: Method names whose call on the resource counts as release.
_RELEASERS = frozenset(
    {"close", "terminate", "kill", "join", "shutdown", "unregister",
     "cleanup", "release"}
)
#: External calls that release (``os.close(fd)``) rather than escape.
_RELEASE_CALLS = frozenset({"os.close", "os.closerange"})


def _pos(node: ast.AST) -> tuple[int, int]:
    return (node.lineno, node.col_offset)


class _ResourceScan:
    """Per-function lexical scan for one acquired name."""

    def __init__(self, fn_node: ast.AST, canon, name: str,
                 acq_pos: tuple[int, int]):
        self.fn = fn_node
        self.canon = canon
        self.name = name
        self.acq_pos = acq_pos

    def _mentions(self, node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == self.name
            for n in ast.walk(node)
        )

    def escapes(self) -> bool:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Call):
                c = self.canon(node)
                if c in _RELEASE_CALLS:
                    continue
                for arg in (*node.args, *[k.value for k in node.keywords]):
                    if self._mentions(arg):
                        return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and self._mentions(node.value):
                    return True
            elif isinstance(node, ast.Raise):
                if node.exc is not None and self._mentions(node.exc):
                    return True
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                stores_away = any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in targets
                )
                value = node.value
                if stores_away and value is not None \
                        and self._mentions(value):
                    return True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                # Closure capture: ownership is no longer lexically local.
                if node is not self.fn and self._mentions(node):
                    return True
        return False

    def _is_release(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self.name
            and node.func.attr in _RELEASERS
        ):
            return True
        c = self.canon(node)
        return c in _RELEASE_CALLS and self._mentions(node)

    def release_pos(self) -> tuple[int, int] | None:
        positions = [
            _pos(node) for node in ast.walk(self.fn)
            if self._is_release(node) and _pos(node) > self.acq_pos
        ]
        return min(positions) if positions else None

    def finally_guarded(self) -> bool:
        for node in ast.walk(self.fn):
            if not isinstance(node, (ast.Try, *(
                    (ast.TryStar,) if hasattr(ast, "TryStar") else ()))):
                continue
            if not node.finalbody or not node.body:
                continue
            # The acquisition may sit inside the try body or (the safer
            # idiom) immediately before it; either way the finally
            # covers every raise after the resource exists.  A try that
            # already finished before the acquisition guards nothing.
            last = node.body[-1]
            end = (getattr(last, "end_lineno", last.lineno) or last.lineno,
                   10 ** 9)
            if self.acq_pos > end:
                continue
            for final_stmt in node.finalbody:
                if any(self._is_release(n)
                       for n in ast.walk(final_stmt)):
                    return True
        return False

    def raising_between(
        self, until: tuple[int, int] | None
    ) -> tuple[int, str] | None:
        """First may-raise node strictly between acquisition and release."""
        for node in ast.walk(self.fn):
            if not isinstance(node, (ast.Call, ast.Raise)):
                continue
            pos = _pos(node)
            if pos <= self.acq_pos:
                continue
            if until is not None and pos >= until:
                continue
            if self._is_release(node):
                continue
            what = "raise"
            if isinstance(node, ast.Call):
                what = (_dotted(node.func) or "a call") + "()"
            return node.lineno, what
        return None


def check_resource_safety(
    graph: CallGraph,
    scopes: tuple[str, ...] = ("resilience/",),
) -> list[Finding]:
    """FLOW002 findings over every function in the scoped modules."""
    findings: list[Finding] = []
    for qualname in sorted(graph.functions):
        record = graph.functions[qualname]
        if not any(record.rel_path.startswith(s) for s in scopes):
            continue
        index = graph.module_of(qualname)
        if index is None:
            continue

        def canon(call: ast.Call) -> str | None:
            d = _dotted(call.func)
            return index.canonical(d) if d else None

        with_guarded = {
            id(item.context_expr)
            for node in ast.walk(record.node)
            for item in getattr(node, "items", ())
        }

        def emit(lineno: int, label: str, detail: str, fixit: str) -> None:
            findings.append(Finding(
                rule="FLOW002",
                severity=Severity.ERROR,
                subject=graph.subject(qualname),
                message=f"{label} {detail}",
                fixit=fixit,
                path=record.rel_path,
                line=lineno,
            ))

        for node in own_nodes(record.node):
            call = None
            names: list[str] = []
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.value, ast.Call):
                call = node.value
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    names = [target.id]
                elif isinstance(target, (ast.Tuple, ast.List)):
                    names = [e.id for e in target.elts
                             if isinstance(e, ast.Name)]
                else:
                    continue  # stored into an object: escapes immediately
            elif isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call):
                call = node.value
            if call is None or id(call) in with_guarded:
                continue
            label = _ACQUIRERS.get(canon(call) or "")
            if label is None:
                continue
            if canon(call) == "tempfile.mkstemp":
                names = names[:1]  # (fd, path): only the fd is a resource
            if not names:
                emit(
                    call.lineno, label,
                    "acquired and immediately discarded: nothing can "
                    "ever release it",
                    "bind the resource and release it, or use a context "
                    "manager",
                )
                continue
            for name in names:
                scan = _ResourceScan(record.node, canon, name, _pos(call))
                if scan.escapes() or scan.finally_guarded():
                    continue
                release = scan.release_pos()
                if release is None:
                    emit(
                        call.lineno, label,
                        f"{name!r} is never released on any path out of "
                        "this function",
                        f"close {name!r} in a finally block or use a "
                        "context manager",
                    )
                    continue
                hazard = scan.raising_between(release)
                if hazard is not None:
                    line, what = hazard
                    emit(
                        call.lineno, label,
                        f"{name!r} leaks if {what} at line {line} raises "
                        "before the release at line "
                        f"{release[0]} (no finally/context-manager guard)",
                        f"release {name!r} in a finally block covering "
                        "the raising statement",
                    )
    return findings


# ----------------------------------------------------------------------
# FLOW003 — frame-protocol consistency
# ----------------------------------------------------------------------
#: The calls that send a frame or build its bytes, each with the
#: position of its message argument.
_SEND_CALLS = {
    ".transport.send_frame": 1,
    ".transport.send_truncated_frame": 1,
    ".transport.encode_frame": 0,
}
_RECV_SUFFIX = ".transport.recv_frame"


def _send_position(name: str) -> int | None:
    for suffix, position in _SEND_CALLS.items():
        if name.endswith(suffix):
            return position
    return None


def _message_arg(call: ast.Call, position: int) -> ast.AST | None:
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == "message":
            return kw.value
    return None


def check_frame_protocol(graph: CallGraph) -> list[Finding]:
    """FLOW003: match sent frame kinds against receiver dispatch arms."""
    findings: list[Finding] = []
    sent: dict[str, list[tuple[str, int, str]]] = {}
    recv_modules: set[str] = set()

    for qualname, sites in sorted(graph.calls.items()):
        record = graph.functions[qualname]
        for site in sites:
            if site.callee is None:
                continue
            if site.callee.endswith(_RECV_SUFFIX):
                recv_modules.add(record.module)
            position = _send_position(site.callee)
            if position is None or _send_position(qualname) is not None:
                # Not a send; or a frame function forwarding its own
                # caller's message, which is checked at that caller.
                continue
            message = _message_arg(site.node, position)
            kind = None
            if (
                isinstance(message, ast.Tuple)
                and message.elts
                and isinstance(message.elts[0], ast.Constant)
                and isinstance(message.elts[0].value, str)
            ):
                kind = message.elts[0].value
            if kind is None:
                findings.append(Finding(
                    rule="FLOW003",
                    severity=Severity.ERROR,
                    subject=graph.subject(qualname),
                    message=(
                        "frame payload kind is not statically decidable "
                        "(not a literal ('kind', ...) tuple): the "
                        "protocol-consistency check cannot cover this "
                        "send"
                    ),
                    fixit="send a literal tuple whose first element is "
                          "the kind string",
                    path=record.rel_path,
                    line=site.lineno,
                ))
                continue
            sent.setdefault(kind, []).append(
                (record.rel_path, site.lineno, qualname)
            )

    # Dispatch arms: message[0] comparisons (directly, or through a
    # local name assigned from a [0] subscript) in frame-reading modules.
    dispatched: dict[str, list[tuple[str, int, str]]] = {}
    for qualname in sorted(graph.functions):
        record = graph.functions[qualname]
        if record.module not in recv_modules:
            continue
        tag_names: set[str] = set()
        for node in ast.walk(record.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_tag_subscript(node.value)
            ):
                tag_names.add(node.targets[0].id)
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            is_tag = any(
                _is_tag_subscript(o)
                or (isinstance(o, ast.Name) and o.id in tag_names)
                for o in operands
            )
            if not is_tag:
                continue
            for o in operands:
                if isinstance(o, ast.Constant) and isinstance(o.value, str):
                    dispatched.setdefault(o.value, []).append(
                        (record.rel_path, node.lineno, qualname)
                    )

    if not sent and not recv_modules:
        return findings

    for kind in sorted(set(sent) - set(dispatched)):
        path, line, qualname = min(sent[kind])
        findings.append(Finding(
            rule="FLOW003",
            severity=Severity.ERROR,
            subject=f"frame-kind:{kind}",
            message=(
                f"frame kind {kind!r} is sent (by "
                f"{graph.subject(qualname)}) but no receiver "
                "dispatch arm matches it: the peer will drop or "
                "misinterpret the message"
            ),
            fixit=f"add a message[0] == {kind!r} arm to the receiver",
            path=path,
            line=line,
        ))
    for kind in sorted(set(dispatched) - set(sent)):
        path, line, qualname = min(dispatched[kind])
        findings.append(Finding(
            rule="FLOW003",
            severity=Severity.ERROR,
            subject=f"frame-kind:{kind}",
            message=(
                f"receiver dispatch arm for frame kind {kind!r} (in "
                f"{graph.subject(qualname)}) but nothing ever "
                "sends it: dead protocol arm or a renamed kind"
            ),
            fixit="remove the dead arm or fix the sender's kind string",
            path=path,
            line=line,
        ))
    return findings


def _is_tag_subscript(node: ast.AST | None) -> bool:
    """``<expr>[0]`` — the frame-kind position of a message tuple."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
    )
