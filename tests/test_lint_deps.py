"""Dependency lint (plane 5): the model-evaluation cone, guard-aware
attribute reads, and fault-injection proofs that each KEY pass fires on
a crafted drift — plus the real-tree gate (zero findings on src/repro)
and the runtime property the plane exists to protect: equal execution
signatures produce bit-identical modeled runtimes."""

import dataclasses
import random
import shutil
import textwrap

import pytest

from repro.arch.machines import get_machine
from repro.lint import Severity, lint_source, unwaived
from repro.lint.deps.cone import compute_cone, default_roots, tracked_classes
from repro.lint.deps.declarations import signature_declarations
from repro.lint.deps.passes import check_memo_keys, run_deps_passes
from repro.lint.flow import build_callgraph
from repro.lint.flow.summaries import direct_attribute_reads
from repro.lint.selflint import DEFAULT_SRC_ROOT
from repro.runtime.executor import execute
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.workloads import get_workload

pytestmark = pytest.mark.lint


def make_tree(tmp_path, files):
    """Materialize ``{rel_path: source}`` under a package root named
    ``repro`` so qualnames look like the shipped tree's."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# A miniature, *sound* pipeline: signature, dead-field table, cache key
# and model all agree.  Every fault-injection test below is this tree
# with exactly one drift introduced.
# ----------------------------------------------------------------------
_RAW_TREE = {
    "arch/topology.py": """
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class MachineTopology:
            name: str
            n_cores: int
            clock_ghz: float
    """,
    "runtime/program.py": """
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class Program:
            name: str
            work: float


        def get_program(app: str, input_size: str) -> Program:
            return Program(name=app + "." + input_size,
                           work=float(len(input_size)) + 1.0)
    """,
    "runtime/icv.py": """
        from dataclasses import dataclass
        from typing import ClassVar

        from repro.arch.topology import MachineTopology


        @dataclass(frozen=True)
        class EnvConfig:
            threads: int = 1
            library: str = "unset"
            blocktime: str = "unset"
            places: str = "unset"
            bind: str = "unset"

            def key(self):
                return (self.threads, self.library, self.blocktime,
                        self.places, self.bind)


        @dataclass(frozen=True)
        class ResolvedICVs:
            nthreads: int
            places: str
            places_explicit: bool
            bind: str
            library: str
            blocktime_ms: int

            SIGNATURE_COMPONENTS: ClassVar[tuple] = (
                "nthreads", "places", "bind", "wait_policy", "blocktime_ms")
            SIGNATURE_DEAD_FIELDS: ClassVar[dict] = {
                "library": (None, "acts only through the derived wait policy"),
                "places_explicit": (None, "only shifts the bind default"),
                "blocktime_ms": ("wait_policy", "read only under passive waiting"),
                "places": ("bind", "consulted only when threads are bound"),
            }

            @property
            def wait_policy(self):
                if self.library == "turnaround" and self.blocktime_ms > 0:
                    return "active"
                return "passive"

            def execution_signature(self):
                bind = self.bind
                places = self.places if bind != "false" else "unset"
                if places == "unset" and bind == "spread":
                    places = "cores"
                wait = self.wait_policy
                blocktime = self.blocktime_ms if wait == "passive" else 0
                return (self.nthreads, places, bind, wait, blocktime)


        def resolve_icvs(config: EnvConfig,
                         machine: MachineTopology) -> ResolvedICVs:
            bind = config.bind if config.bind != "unset" else "false"
            nthreads = config.threads if config.threads else machine.n_cores
            blocktime_ms = (200 if config.blocktime == "unset"
                            else int(config.blocktime))
            return ResolvedICVs(
                nthreads=nthreads,
                places=config.places,
                places_explicit=config.places != "unset",
                bind=bind,
                library=config.library,
                blocktime_ms=blocktime_ms,
            )
    """,
    "runtime/model.py": """
        from repro.arch.topology import MachineTopology
        from repro.runtime.icv import ResolvedICVs
        from repro.runtime.program import Program


        def workers_asleep(icvs: ResolvedICVs) -> bool:
            if icvs.wait_policy == "active":
                return False
            return icvs.blocktime_ms == 0


        def placement_overhead(icvs: ResolvedICVs,
                               machine: MachineTopology) -> float:
            bind = icvs.bind
            if bind == "false":
                return 0.0
            if icvs.places == "sockets":
                return machine.n_cores * 1e-6
            return machine.n_cores * 5e-7


        def phase_seconds(program: Program, icvs: ResolvedICVs,
                          machine: MachineTopology) -> float:
            base = program.work / (icvs.nthreads * machine.clock_ghz)
            if workers_asleep(icvs):
                base = base * 1.5
            return base + placement_overhead(icvs, machine)
    """,
    "core/sweep.py": """
        from dataclasses import dataclass

        from repro.arch.topology import MachineTopology
        from repro.runtime.icv import EnvConfig, resolve_icvs
        from repro.runtime.model import phase_seconds
        from repro.runtime.program import get_program


        @dataclass(frozen=True)
        class SweepPlan:
            arch: str
            scale: str
            repetitions: int
            seed: int
            fidelity: str
            prune: bool
            workload_names: tuple
            inputs_limit: int


        @dataclass(frozen=True)
        class BatchSpec:
            app: str
            suite: str
            input_size: str
            nthreads: int


        def _batch_noise(seed: int, config: EnvConfig) -> float:
            return float(sum(hash(v) for v in (seed,) + config.key()) % 97)


        def _execute_batch(plan: SweepPlan, machine: MachineTopology,
                           configs, batch: BatchSpec):
            program = get_program(batch.app, batch.input_size)
            out = []
            for config in configs:
                icvs = resolve_icvs(config, machine)
                group = icvs.execution_signature() if plan.prune else None
                runtime = phase_seconds(program, icvs, machine)
                for rep in range(plan.repetitions):
                    noise = _batch_noise(plan.seed + rep, config)
                    out.append((plan.arch, plan.fidelity, batch.suite,
                                batch.nthreads, group, runtime + noise))
            return out
    """,
    "core/cache.py": """
        import dataclasses
        import hashlib

        CACHE_FORMAT_VERSION = 1

        CACHE_KEY_FIELDS = (
            "format_version",
            "plan.arch",
            "plan.scale",
            "plan.repetitions",
            "plan.seed",
            "plan.fidelity",
            "grid_fingerprint",
            "machine_fingerprint",
            "batch.app",
            "batch.suite",
            "batch.input_size",
            "batch.nthreads",
        )

        CACHE_KEY_EXCLUDED = {
            "plan.workload_names": "selection only: changes which batches exist",
            "plan.inputs_limit": "selection only: changes which batches exist",
            "plan.prune": "pruning fans identical results out",
        }


        def grid_fingerprint(grid) -> str:
            h = hashlib.sha256()
            for config in grid:
                h.update(repr(config.key()).encode("utf-8"))
            return h.hexdigest()


        def machine_fingerprint(machine) -> str:
            h = hashlib.sha256()
            for f in dataclasses.fields(machine):
                h.update(repr((f.name, getattr(machine, f.name))).encode("utf-8"))
            return h.hexdigest()


        def key_material(plan, grid_fp, machine_fp, batch):
            identity = (
                CACHE_FORMAT_VERSION,
                plan.arch,
                plan.scale,
                plan.repetitions,
                plan.seed,
                plan.fidelity,
                grid_fp,
                machine_fp,
                batch.app,
                batch.suite,
                batch.input_size,
                batch.nthreads,
            )
            return dict(zip(CACHE_KEY_FIELDS, identity, strict=True))


        def batch_key(plan, grid_fp, machine_fp, batch) -> str:
            identity = tuple(
                key_material(plan, grid_fp, machine_fp, batch).values())
            return hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()
    """,
}

BASE_TREE = {rel: textwrap.dedent(src) for rel, src in _RAW_TREE.items()}

ICV_QUAL = "repro.runtime.icv.ResolvedICVs"


def mutate(tree, rel, old, new):
    """A copy of ``tree`` with one source edit, asserting the edit took."""
    src = tree[rel]
    assert old in src, f"mutation anchor not found in {rel}: {old!r}"
    out = dict(tree)
    out[rel] = src.replace(old, new)
    return out


def deps_findings(tmp_path, tree):
    return run_deps_passes(build_callgraph(make_tree(tmp_path, tree)))


# ----------------------------------------------------------------------
# Typed inference (the call-graph layer the cone is built on)
# ----------------------------------------------------------------------
class TestTypedInference:
    def test_constructor_attr_types_resolve_three_part_calls(self, tmp_path):
        root = make_tree(tmp_path, {
            "eng.py": """
                class Engine:
                    def run(self):
                        return 1

                class Driver:
                    def __init__(self):
                        self.engine = Engine()
                    def go(self):
                        return self.engine.run()
            """,
        })
        graph = build_callgraph(root)
        record = graph.classes["repro.eng.Driver"]
        assert record.attr_types["engine"] == "repro.eng.Engine"
        assert "repro.eng.Engine.run" in [
            s.callee for s in graph.calls["repro.eng.Driver.go"]
        ]

    def test_local_alias_of_an_attribute_keeps_its_type(self, tmp_path):
        # engine = self.engine; engine.run() must still reach Engine.run,
        # or the cone loses every read behind the alias.
        root = make_tree(tmp_path, {
            "eng.py": """
                class Engine:
                    def run(self):
                        return 1

                class Driver:
                    def __init__(self):
                        self.engine = Engine()
                    def go(self):
                        engine = self.engine
                        return engine.run()
            """,
        })
        graph = build_callgraph(root)
        assert "repro.eng.Engine.run" in [
            s.callee for s in graph.calls["repro.eng.Driver.go"]
        ]

    def test_return_annotations_type_call_results(self, tmp_path):
        root = make_tree(tmp_path, {
            "w.py": """
                class Widget:
                    def spin(self):
                        return 2

                def make() -> Widget:
                    return Widget()

                def use():
                    w = make()
                    return w.spin()
            """,
        })
        graph = build_callgraph(root)
        assert "repro.w.Widget.spin" in [
            s.callee for s in graph.calls["repro.w.use"]
        ]


# ----------------------------------------------------------------------
# Guard-aware attribute reads
# ----------------------------------------------------------------------
class TestAttrReads:
    def test_early_exit_guard_covers_the_rest_of_the_body(self, tmp_path):
        graph = build_callgraph(make_tree(tmp_path, BASE_TREE))
        reads = direct_attribute_reads(
            graph, "repro.runtime.model.workers_asleep", frozenset({ICV_QUAL})
        )
        by = {r.attr: r for r in reads}
        assert by["wait_policy"].guards == ()
        assert (ICV_QUAL, "wait_policy") in by["blocktime_ms"].guards

    def test_local_alias_guards_are_tracked(self, tmp_path):
        graph = build_callgraph(make_tree(tmp_path, BASE_TREE))
        reads = direct_attribute_reads(
            graph, "repro.runtime.model.placement_overhead",
            frozenset({ICV_QUAL}),
        )
        by = {r.attr: r for r in reads}
        assert by["bind"].guards == ()
        assert (ICV_QUAL, "bind") in by["places"].guards


# ----------------------------------------------------------------------
# The evaluation cone
# ----------------------------------------------------------------------
class TestEvalCone:
    def test_cone_reaches_the_model_through_typed_calls(self, tmp_path):
        graph = build_callgraph(make_tree(tmp_path, BASE_TREE))
        tracked = tracked_classes(graph)
        cone = compute_cone(graph, default_roots(graph),
                            frozenset(tracked.values()))
        assert cone.missing_roots == ()
        for member in (
            "repro.core.sweep._execute_batch",
            "repro.core.sweep._batch_noise",
            "repro.runtime.model.phase_seconds",
            "repro.runtime.model.workers_asleep",
            "repro.runtime.model.placement_overhead",
            "repro.runtime.icv.resolve_icvs",
            "repro.runtime.icv.EnvConfig.key",
        ):
            assert member in cone.members
        icv_reads = cone.read_attrs(tracked["ResolvedICVs"])
        assert {"nthreads", "bind", "places", "wait_policy",
                "blocktime_ms"} <= icv_reads

    def test_own_class_reads_are_exempt(self, tmp_path):
        # execution_signature() and the wait_policy property read their
        # own fields; those are the key mechanism, not model inputs.
        graph = build_callgraph(make_tree(tmp_path, BASE_TREE))
        tracked = tracked_classes(graph)
        cone = compute_cone(graph, default_roots(graph),
                            frozenset(tracked.values()))
        assert "library" not in cone.read_attrs(tracked["ResolvedICVs"])


# ----------------------------------------------------------------------
# The sound base tree is clean (guard modeling, not waiving)
# ----------------------------------------------------------------------
class TestBaseTree:
    def test_sound_tree_produces_no_findings(self, tmp_path):
        findings = deps_findings(tmp_path, BASE_TREE)
        assert findings == [], [
            (f.rule, f.subject, f.message) for f in findings
        ]


# ----------------------------------------------------------------------
# KEY001 — signature completeness
# ----------------------------------------------------------------------
class TestKey001:
    def test_dropped_signature_field_is_an_error(self, tmp_path):
        tree = mutate(
            BASE_TREE, "runtime/icv.py",
            "return (self.nthreads, places, bind, wait, blocktime)",
            "return (0, places, bind, wait, blocktime)",
        )
        findings = deps_findings(tmp_path, tree)
        (f,) = findings
        assert f.rule == "KEY001"
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.nthreads"
        assert "runtime/model.py" in f.message  # the read witness

    def test_missing_root_is_a_loud_warning(self, tmp_path):
        tree = mutate(BASE_TREE, "core/sweep.py",
                      "def _execute_batch(", "def _run_batch(")
        findings = deps_findings(tmp_path, tree)
        stale = [f for f in by_rule(findings, "KEY001")
                 if f.severity is Severity.WARNING]
        assert any("root" in f.message for f in stale)


# ----------------------------------------------------------------------
# KEY002 — signature aliveness
# ----------------------------------------------------------------------
class TestKey002:
    def test_dead_tuple_slot_is_a_warning_naming_the_slot(self, tmp_path):
        tree = mutate(
            BASE_TREE, "runtime/icv.py",
            "    blocktime_ms: int\n",
            "    blocktime_ms: int\n    io_depth: int\n",
        )
        tree = mutate(
            tree, "runtime/icv.py",
            '"wait_policy", "blocktime_ms")',
            '"wait_policy", "blocktime_ms", "io_depth")',
        )
        tree = mutate(
            tree, "runtime/icv.py",
            "return (self.nthreads, places, bind, wait, blocktime)",
            "return (self.nthreads, places, bind, wait, blocktime,"
            " self.io_depth)",
        )
        findings = deps_findings(tmp_path, tree)
        (f,) = findings
        assert f.rule == "KEY002"
        assert f.severity is Severity.WARNING
        assert f.subject == "ResolvedICVs.io_depth"
        assert "slot 5" in f.message

    def test_arity_drift_is_an_error(self, tmp_path):
        tree = mutate(
            BASE_TREE, "runtime/icv.py",
            "return (self.nthreads, places, bind, wait, blocktime)",
            "return (self.nthreads, places, bind, wait, blocktime, 0)",
        )
        findings = deps_findings(tmp_path, tree)
        (f,) = findings
        assert f.rule == "KEY002"
        assert f.severity is Severity.ERROR
        assert "5" in f.message and "6" in f.message


# ----------------------------------------------------------------------
# KEY003 — cache-key completeness
# ----------------------------------------------------------------------
class TestKey003:
    def test_dropped_identity_slot_is_an_error(self, tmp_path):
        tree = mutate(BASE_TREE, "core/cache.py",
                      "\n        plan.fidelity,", "")
        findings = deps_findings(tmp_path, tree)
        assert {f.rule for f in findings} == {"KEY003"}
        assert all(f.severity is Severity.ERROR for f in findings)
        subjects = {f.subject for f in findings}
        assert "cache.CACHE_KEY_FIELDS" in subjects  # declaration drift
        assert "cache.plan.fidelity" in subjects     # the uncovered read

    def test_machine_fingerprint_must_sweep_declared_fields(self, tmp_path):
        tree = mutate(BASE_TREE, "core/cache.py",
                      "for f in dataclasses.fields(machine):",
                      "for f in ():")
        findings = deps_findings(tmp_path, tree)
        (f,) = findings
        assert f.rule == "KEY003"
        assert f.subject == "cache.machine_fingerprint"

    def test_grid_fingerprint_must_digest_config_keys(self, tmp_path):
        tree = mutate(BASE_TREE, "core/cache.py",
                      "repr(config.key())", "repr(config)")
        findings = deps_findings(tmp_path, tree)
        (f,) = findings
        assert f.rule == "KEY003"
        assert f.subject == "cache.grid_fingerprint"

    def test_env_field_missing_from_key_is_an_error(self, tmp_path):
        # resolve_icvs still consumes config.bind, but EnvConfig.key()
        # no longer folds it in: grids differing in bind would collide.
        tree = mutate(BASE_TREE, "runtime/icv.py",
                      "self.bind)", '"unset")')
        findings = deps_findings(tmp_path, tree)
        (f,) = findings
        assert f.rule == "KEY003"
        assert f.subject == "EnvConfig.bind"


# ----------------------------------------------------------------------
# KEY004 — dead-field normalization drift
# ----------------------------------------------------------------------
class TestKey004:
    def test_guarded_read_is_allowed(self, tmp_path):
        # The base tree reads blocktime_ms under the wait_policy guard
        # and places under the bind guard — and is clean (TestBaseTree).
        # This test pins that the *guards* are what make it clean.
        findings = deps_findings(tmp_path, BASE_TREE)
        assert by_rule(findings, "KEY004") == []

    def test_unguarded_read_of_guarded_dead_field_is_an_error(self, tmp_path):
        tree = mutate(BASE_TREE, "runtime/model.py",
                      'if icvs.wait_policy == "active":', "if False:")
        findings = deps_findings(tmp_path, tree)
        (f,) = by_rule(findings, "KEY004")
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.blocktime_ms"
        assert "outside that guard" in f.message

    def test_read_moved_outside_its_guard_is_an_error(self, tmp_path):
        tree = mutate(
            BASE_TREE, "runtime/model.py",
            '    bind = icvs.bind\n'
            '    if bind == "false":\n'
            '        return 0.0\n'
            '    if icvs.places == "sockets":\n',
            '    crowded = icvs.places == "sockets"\n'
            '    bind = icvs.bind\n'
            '    if bind == "false":\n'
            '        return 0.0\n'
            '    if crowded:\n',
        )
        findings = deps_findings(tmp_path, tree)
        (f,) = by_rule(findings, "KEY004")
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.places"

    def test_any_read_of_unconditionally_dead_field_is_an_error(
        self, tmp_path
    ):
        tree = mutate(
            BASE_TREE, "runtime/model.py",
            "base = program.work / (icvs.nthreads * machine.clock_ghz)",
            "base = program.work / (icvs.nthreads * machine.clock_ghz)\n"
            '    if icvs.library == "serial":\n'
            "        base = base * 2.0",
        )
        findings = deps_findings(tmp_path, tree)
        (f,) = by_rule(findings, "KEY004")
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.library"
        assert "declared dead" in f.message

    def test_missing_dead_field_table_is_a_loud_warning(self, tmp_path):
        tree = mutate(BASE_TREE, "runtime/icv.py",
                      "SIGNATURE_DEAD_FIELDS: ClassVar[dict] = {",
                      "_NOT_THE_TABLE: ClassVar[dict] = {")
        findings = deps_findings(tmp_path, tree)
        stale = by_rule(findings, "KEY004")
        assert [f.severity for f in stale] == [Severity.WARNING]
        assert "SIGNATURE_DEAD_FIELDS" in stale[0].message


# A placement memo in front of the model: the cache key drops ``places``
# when threads are unbound, so the read must come after that case.
_MEMO_TREE = mutate(
    BASE_TREE, "runtime/model.py",
    "    return base + placement_overhead(icvs, machine)\n",
    "    cores = compute_placement(icvs, machine)\n"
    "    return base + placement_overhead(icvs, machine) + 0.0 * len(cores)\n",
)
_MEMO_TREE = mutate(
    _MEMO_TREE, "runtime/model.py",
    "from repro.runtime.program import Program\n",
    "from repro.runtime.placement import compute_placement\n"
    "from repro.runtime.program import Program\n",
)
_MEMO_TREE["runtime/placement.py"] = textwrap.dedent("""
    import functools

    from repro.arch.topology import MachineTopology
    from repro.runtime.icv import ResolvedICVs


    @functools.lru_cache(maxsize=64)
    def _build_placement(machine: MachineTopology, nthreads: int,
                         bind: str, places) -> tuple:
        if bind == "false":
            return tuple(t % machine.n_cores for t in range(nthreads))
        width = machine.n_cores if places == "sockets" else 1
        return tuple(t % width for t in range(nthreads))


    def compute_placement(icvs: ResolvedICVs,
                          machine: MachineTopology) -> tuple:
        bind = icvs.bind
        if bind == "false":
            return _build_placement(machine, icvs.nthreads, bind, None)
        return _build_placement(machine, icvs.nthreads, bind, icvs.places)
""")


class TestPlacementMemoKey:
    def test_places_read_after_unbound_return_is_clean(self, tmp_path):
        graph = build_callgraph(make_tree(tmp_path, _MEMO_TREE))
        tracked = tracked_classes(graph)
        cone = compute_cone(graph, default_roots(graph),
                            frozenset(tracked.values()))
        assert "repro.runtime.placement.compute_placement" in cone.members
        assert run_deps_passes(graph) == []

    def test_places_read_before_unbound_return_is_an_error(self, tmp_path):
        tree = mutate(
            _MEMO_TREE, "runtime/placement.py",
            "    bind = icvs.bind\n",
            "    bind = icvs.bind\n    places = icvs.places\n",
        )
        tree = mutate(
            tree, "runtime/placement.py",
            "bind, icvs.places)", "bind, places)",
        )
        findings = deps_findings(tmp_path, tree)
        (f,) = by_rule(findings, "KEY004")
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.places"
        assert "placement.compute_placement" in f.message


# Memoized terms in front of the model: each declared key must carry
# every ICV slot its term's call closure reads.
_TERM_TREE = mutate(
    BASE_TREE, "runtime/icv.py",
    "    SIGNATURE_DEAD_FIELDS: ClassVar[dict] = {\n",
    "    MEMO_KEY_SLOTS: ClassVar[dict] = {\n"
    "        \"runtime.model.workers_asleep\": (\"wait_policy\", \"blocktime_ms\"),\n"
    "        \"runtime.model.placement_overhead\": (\"bind\", \"places\"),\n"
    "    }\n"
    "    SIGNATURE_DEAD_FIELDS: ClassVar[dict] = {\n",
)
_ASLEEP_KEY = '"runtime.model.workers_asleep": ("wait_policy", "blocktime_ms")'


class TestMemoKeys:
    def test_keys_covering_their_terms_are_clean(self, tmp_path):
        assert deps_findings(tmp_path, _TERM_TREE) == []

    def test_key_omitting_a_read_field_is_an_error(self, tmp_path):
        # The derived wait_policy slot does not carry blocktime_ms.
        tree = mutate(
            _TERM_TREE, "runtime/icv.py", _ASLEEP_KEY,
            '"runtime.model.workers_asleep": ("wait_policy",)',
        )
        (f,) = by_rule(deps_findings(tmp_path, tree), "KEY001")
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.blocktime_ms"
        assert "runtime.model.workers_asleep" in f.message

    def test_slot_outside_the_signature_is_an_error(self, tmp_path):
        tree = mutate(
            _TERM_TREE, "runtime/icv.py", _ASLEEP_KEY,
            '"runtime.model.workers_asleep": '
            '("wait_policy", "blocktime_ms", "library")',
        )
        (f,) = by_rule(deps_findings(tmp_path, tree), "KEY001")
        assert f.severity is Severity.ERROR
        assert "'library'" in f.message

    def test_vanished_term_is_a_loud_warning(self, tmp_path):
        tree = mutate(
            _TERM_TREE, "runtime/icv.py", "runtime.model.workers_asleep",
            "runtime.model.workers_sleeping",
        )
        (f,) = by_rule(deps_findings(tmp_path, tree), "KEY001")
        assert f.severity is Severity.WARNING
        assert "workers_sleeping" in f.subject


@pytest.fixture(scope="module")
def real_graph():
    return build_callgraph(DEFAULT_SRC_ROOT)


def _real_memo_slots():
    from repro.runtime.icv import ResolvedICVs

    return [
        (term, slot)
        for term, slots in ResolvedICVs.MEMO_KEY_SLOTS.items()
        for slot in slots
    ]


class TestShippedMemoKeys:
    """Every slot of every shipped memo key is read by its term, so a
    key that drops any one of them raises KEY001."""

    @pytest.mark.parametrize("term,slot", _real_memo_slots())
    def test_dropping_a_slot_is_an_error(self, real_graph, term, slot):
        tracked = tracked_classes(real_graph)
        sig = signature_declarations(real_graph, tracked["ResolvedICVs"])
        assert sig.memo_keys is not None and slot in sig.memo_keys[term]
        assert check_memo_keys(
            real_graph, sig, frozenset(tracked.values())) == []
        keys = dict(sig.memo_keys)
        keys[term] = tuple(s for s in keys[term] if s != slot)
        findings = check_memo_keys(
            real_graph, dataclasses.replace(sig, memo_keys=keys),
            frozenset(tracked.values()),
        )
        assert [(f.rule, f.severity, f.subject) for f in findings] == [
            ("KEY001", Severity.ERROR, f"ResolvedICVs.{slot}")
        ]
        assert term in findings[0].message

    def test_loop_body_key_without_schedule_chunk_fails_the_plane(
        self, tmp_path
    ):
        # End to end on a copy of the shipped source: parse, cone, pass.
        root = tmp_path / "repro"
        shutil.copytree(DEFAULT_SRC_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        icv = root / "runtime" / "icv.py"
        src = icv.read_text(encoding="utf-8")
        old = '"nthreads", "places", "bind", "schedule", "schedule_chunk",'
        assert src.count(old) == 1
        icv.write_text(
            src.replace(old, '"nthreads", "places", "bind", "schedule",'),
            encoding="utf-8",
        )
        findings = run_deps_passes(build_callgraph(root))
        (f,) = by_rule(findings, "KEY001")
        assert f.severity is Severity.ERROR
        assert f.subject == "ResolvedICVs.schedule_chunk"
        assert "runtime.kernel.loop_body_seconds" in f.message


# ----------------------------------------------------------------------
# Waivers: the KEY plane owns KEY entries, and only those
# ----------------------------------------------------------------------
class TestDepsWaivers:
    def test_key_waiver_covers_a_finding(self, tmp_path):
        tree = mutate(
            BASE_TREE, "runtime/icv.py",
            "return (self.nthreads, places, bind, wait, blocktime)",
            "return (0, places, bind, wait, blocktime)",
        )
        root = make_tree(tmp_path, tree)
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(textwrap.dedent("""
            [[waiver]]
            rule = "KEY001"
            path = "runtime/model.py"
            reason = "intentional in this synthetic tree"
        """), encoding="utf-8")
        findings = lint_source(("deps",), src_root=root, waivers_path=waivers)
        assert unwaived(findings) == []
        assert [f.waived for f in by_rule(findings, "KEY001")] == [True]

    def test_stale_key_waiver_reports_sim000_with_line(self, tmp_path):
        root = make_tree(tmp_path, BASE_TREE)
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(
            "# header comment\n"
            "[[waiver]]\n"
            'rule = "KEY002"\n'
            'path = "nowhere.py"\n'
            'reason = "stale"\n',
            encoding="utf-8",
        )
        findings = lint_source(("deps",), src_root=root, waivers_path=waivers)
        (f,) = by_rule(findings, "SIM000")
        assert f.line == 2  # the [[waiver]] header line, clickable

    def test_sim_and_flow_waivers_are_not_deps_plane_rot(self, tmp_path):
        root = make_tree(tmp_path, BASE_TREE)
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(
            '[[waiver]]\nrule = "SIM004"\npath = "a.py"\nreason = "r"\n'
            "\n"
            '[[waiver]]\nrule = "FLOW001"\npath = "b.py"\nreason = "r"\n',
            encoding="utf-8",
        )
        findings = lint_source(("deps",), src_root=root, waivers_path=waivers)
        assert findings == []

    def test_key_waivers_are_not_self_plane_rot(self, tmp_path):
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(
            '[[waiver]]\nrule = "KEY001"\npath = "a.py"\nreason = "r"\n',
            encoding="utf-8",
        )
        findings = lint_source(("self",), waivers_path=waivers)
        assert by_rule(findings, "SIM000") == []


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_repro_is_clean_with_no_waivers_needed(self):
        findings = lint_source(("deps",))
        assert findings == [], (
            "dependency-plane violations in src/repro:\n"
            + "\n".join(f"  {f.rule} {f.location()}: {f.message}"
                        for f in findings)
        )

    def test_real_cone_sees_the_model_reads(self):
        # Guard against a vacuous pass: the cone must actually reach the
        # runtime model and observe its ICV reads.
        graph = build_callgraph(DEFAULT_SRC_ROOT)
        tracked = tracked_classes(graph)
        cone = compute_cone(graph, default_roots(graph),
                            frozenset(tracked.values()))
        assert cone.missing_roots == ()
        assert len(cone.members) > 20
        icv_reads = cone.read_attrs(tracked["ResolvedICVs"])
        assert {"nthreads", "schedule", "bind", "wait_policy",
                "reduction"} <= icv_reads
        assert cone.read_attrs(tracked["BatchSpec"]) >= {"app", "input_size"}
        # The placement memo's front is where ``places`` meets its guard.
        assert "repro.runtime.affinity.compute_placement" in cone.members
        # The noise window and the draws it makes are in the cone too.
        assert {"repro.core.sweep._ClassPlans.noise_factors",
                "repro.arch.noise.NoiseModel.factors",
                "repro.arch.noise.first_standard_normals"} <= cone.members

    def test_deps_lint_is_deterministic(self):
        assert lint_source(("deps",)) == lint_source(("deps",))


# ----------------------------------------------------------------------
# The property the plane protects: equal signatures, equal runtimes
# ----------------------------------------------------------------------
def _random_config(rng):
    return EnvConfig(
        num_threads=rng.choice([4, 8]),
        places=rng.choice(["unset", "cores"]),
        proc_bind=rng.choice(["false", "spread"]),
        schedule=rng.choice(["unset", "static"]),
        library=rng.choice(["throughput", "turnaround"]),
        blocktime=rng.choice(["0", "200", "infinite"]),
    )


class TestSignatureProperty:
    def test_equal_signatures_share_bit_identical_runtimes(self):
        rng = random.Random(20260808)
        program = get_workload("cg").program("A")
        merged_groups = 0
        for machine_name in ("skylake", "milan"):
            machine = get_machine(machine_name)
            groups = {}
            for _ in range(60):
                config = _random_config(rng)
                sig = resolve_icvs(config, machine).execution_signature()
                runtime = execute(program, machine, config)
                groups.setdefault(sig, set()).add(runtime)
            assert all(len(rts) == 1 for rts in groups.values()), (
                "configurations sharing a signature produced divergent "
                "runtimes"
            )
            merged_groups += sum(1 for _ in groups)
            assert len(groups) < 60  # collisions actually happened
        assert merged_groups > 0

    @pytest.mark.parametrize("a,b", [
        # blocktime varied while waiting stays ACTIVE
        (EnvConfig(num_threads=8, library="turnaround", blocktime="0"),
         EnvConfig(num_threads=8, library="turnaround", blocktime="200")),
        # library varied while the derived wait policy is unchanged
        (EnvConfig(num_threads=8, library="turnaround",
                   blocktime="infinite"),
         EnvConfig(num_threads=8, library="throughput",
                   blocktime="infinite")),
        # places varied while threads are unbound
        (EnvConfig(num_threads=8, proc_bind="false", places="cores"),
         EnvConfig(num_threads=8, proc_bind="false", places="sockets")),
        # places unset vs. the canonical default under a bound team
        (EnvConfig(num_threads=8, proc_bind="spread"),
         EnvConfig(num_threads=8, proc_bind="spread", places="cores")),
    ])
    def test_dead_field_variation_under_guard_never_changes_runtime(
        self, a, b
    ):
        program = get_workload("cg").program("A")
        for machine_name in ("skylake", "milan"):
            machine = get_machine(machine_name)
            sig_a = resolve_icvs(a, machine).execution_signature()
            sig_b = resolve_icvs(b, machine).execution_signature()
            assert sig_a == sig_b
            assert execute(program, machine, a) == execute(
                program, machine, b
            )
