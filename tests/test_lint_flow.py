"""Flow lint (plane 4): call-graph construction, effect summaries, and
fault-injection proofs that each FLOW pass fires on a crafted violation
— plus the real-tree gate (zero unwaived findings on src/repro)."""

import shutil
import textwrap

import pytest

from repro.lint import Severity, lint_source, unwaived
from repro.lint.flow import (
    build_callgraph,
    check_frame_protocol,
    check_resource_safety,
    check_transitive_nondeterminism,
    compute_summaries,
)
from repro.lint.flow.passes import DEFAULT_RESULT_ROOTS
from repro.lint.flow.summaries import direct_effects

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
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_resolves_imported_and_relative_calls(self, tmp_path):
        root = make_tree(tmp_path, {
            "util.py": """
                def helper():
                    return 1
            """,
            "a.py": """
                from repro.util import helper as h
                def caller():
                    return h()
            """,
            "b.py": """
                from .util import helper
                def caller():
                    return helper()
            """,
        })
        graph = build_callgraph(root)
        for mod in ("a", "b"):
            sites = graph.calls[f"repro.{mod}.caller"]
            assert [s.callee for s in sites] == ["repro.util.helper"]

    def test_resolves_self_and_inferred_method_dispatch(self, tmp_path):
        root = make_tree(tmp_path, {
            "box.py": """
                class Box:
                    def get(self):
                        return self._load()
                    def _load(self):
                        return 0

                def use(box: Box):
                    return box.get()

                def construct():
                    b = Box()
                    return b.get()
            """,
        })
        graph = build_callgraph(root)
        assert [s.callee for s in graph.calls["repro.box.Box.get"]] == [
            "repro.box.Box._load"
        ]
        assert [s.callee for s in graph.calls["repro.box.use"]] == [
            "repro.box.Box.get"
        ]
        assert "repro.box.Box.get" in [
            s.callee for s in graph.calls["repro.box.construct"]
        ]

    def test_constructor_edges_and_reverse_adjacency(self, tmp_path):
        root = make_tree(tmp_path, {
            "c.py": """
                class Conn:
                    def __init__(self):
                        self.n = 0

                def make():
                    return Conn()
            """,
        })
        graph = build_callgraph(root)
        assert [s.callee for s in graph.calls["repro.c.make"]] == [
            "repro.c.Conn.__init__"
        ]
        callers = graph.callers()["repro.c.Conn.__init__"]
        assert [c for c, _ in callers] == ["repro.c.make"]

    def test_externals_keep_canonical_names(self, tmp_path):
        root = make_tree(tmp_path, {
            "x.py": """
                import numpy as np
                def draw(seed):
                    return np.random.default_rng(seed)
            """,
        })
        graph = build_callgraph(root)
        (site,) = graph.calls["repro.x.draw"]
        assert site.callee is None
        assert site.external == "numpy.random.default_rng"


# ----------------------------------------------------------------------
# Effect summaries
# ----------------------------------------------------------------------
class TestSummaries:
    def test_direct_effects_all_kinds(self, tmp_path):
        root = make_tree(tmp_path, {
            "m.py": """
                import os
                import random
                import time

                def noisy():
                    t = time.monotonic()
                    r = random.random()
                    e = os.environ["HOME"]
                    if t < 0:
                        raise ValueError(r, e)
            """,
        })
        graph = build_callgraph(root)
        kinds = {s.kind for s in direct_effects(graph, "repro.m.noisy")}
        assert kinds == {"wall-clock", "unseeded-rng", "env-read", "raises"}

    def test_seeded_rng_is_not_an_effect(self, tmp_path):
        root = make_tree(tmp_path, {
            "m.py": """
                import random
                import numpy as np

                def quiet(seed):
                    a = np.random.default_rng(seed)
                    b = random.Random(seed)
                    return a, b
            """,
        })
        graph = build_callgraph(root)
        summaries = compute_summaries(graph)
        assert summaries.effects("repro.m.quiet") == frozenset()

    def test_transitive_propagation_with_witness_chain(self, tmp_path):
        root = make_tree(tmp_path, {
            "chain.py": """
                import time

                def leaf():
                    return time.perf_counter()

                def middle():
                    return leaf()

                def top():
                    return middle()
            """,
        })
        graph = build_callgraph(root)
        summaries = compute_summaries(graph)
        assert "wall-clock" in summaries.effects("repro.chain.top")
        chain = summaries.witness_chain("repro.chain.top", "wall-clock")
        assert len(chain) == 3  # top -> middle -> leaf -> the call itself
        assert "time.perf_counter" in chain[-1]


# ----------------------------------------------------------------------
# FLOW001 — transitive nondeterminism (fault injection: >= 2 call hops)
# ----------------------------------------------------------------------
class TestFlow001:
    TREE = {
        "pipeline.py": """
            from repro.stats import summarize

            def pack_records(values):
                return [summarize(v) for v in values]
        """,
        "stats.py": """
            from repro.jitter import fuzz

            def summarize(v):
                return v + fuzz()
        """,
        "jitter.py": """
            import random

            def fuzz():
                return random.random()
        """,
    }

    def test_fires_through_two_call_hops(self, tmp_path):
        root = make_tree(tmp_path, self.TREE)
        graph = build_callgraph(root)
        findings = check_transitive_nondeterminism(
            graph, compute_summaries(graph),
            roots=("repro.pipeline.pack_records",),
        )
        (f,) = findings
        assert f.severity is Severity.ERROR
        assert f.path == "pipeline.py"
        # The witness chain must name every laundering hop.
        for hop in ("pack_records", "summarize", "fuzz", "random.random"):
            assert hop in f.message

    def test_silent_when_the_chain_is_seeded(self, tmp_path):
        tree = dict(self.TREE)
        tree["jitter.py"] = """
            import random

            def fuzz(seed=7):
                return random.Random(seed).random()
        """
        root = make_tree(tmp_path, tree)
        graph = build_callgraph(root)
        findings = check_transitive_nondeterminism(
            graph, compute_summaries(graph),
            roots=("repro.pipeline.pack_records",),
        )
        assert findings == []

    def test_missing_root_is_a_warning(self, tmp_path):
        root = make_tree(tmp_path, {"empty.py": "X = 1\n"})
        graph = build_callgraph(root)
        (f,) = check_transitive_nondeterminism(
            graph, compute_summaries(graph),
            roots=("repro.gone.function",),
        )
        assert f.severity is Severity.WARNING
        assert "gone.function" in f.subject


class TestFlow001NoiseDraws:
    """The batched noise draw is a result root: an unseeded generator
    inside it must surface at the executor entry point."""

    ROOT = "repro.runtime.executor.measurement_noise"
    TREE = {
        "arch/__init__.py": "",
        "arch/noise.py": """
            import numpy as np

            class NoiseModel:
                def apply_many(self, true_runtimes, run_indices, seeds):
                    rng = np.random.default_rng()
                    return [t * rng.standard_normal() for t in true_runtimes]

            def get_noise_model(arch) -> NoiseModel:
                return NoiseModel()
        """,
        "runtime/__init__.py": "",
        "runtime/executor.py": """
            from repro.arch.noise import get_noise_model

            def measurement_noise(machine, configs, true_runtimes,
                                  run_indices, seed=0):
                noise = get_noise_model(machine.name)
                return noise.apply_many(
                    true_runtimes, run_indices, [seed] * len(configs)
                )
        """,
    }

    def findings(self, tmp_path, tree):
        graph = build_callgraph(make_tree(tmp_path, tree))
        return check_transitive_nondeterminism(
            graph, compute_summaries(graph), roots=(self.ROOT,)
        )

    def test_batched_noise_entry_point_is_guarded(self):
        assert self.ROOT in DEFAULT_RESULT_ROOTS
        assert "repro.arch.noise.NoiseModel.apply_many" in DEFAULT_RESULT_ROOTS

    def test_unseeded_generator_in_the_batch_fires(self, tmp_path):
        (f,) = self.findings(tmp_path, self.TREE)
        assert f.rule == "FLOW001"
        assert f.severity is Severity.ERROR
        for hop in ("measurement_noise", "apply_many", "default_rng"):
            assert hop in f.message

    def test_seeded_generator_is_silent(self, tmp_path):
        tree = dict(self.TREE)
        tree["arch/noise.py"] = tree["arch/noise.py"].replace(
            "default_rng()", "Generator(np.random.PCG64(0))"
        )
        assert self.findings(tmp_path, tree) == []


class TestFlow001Recommendations:
    """The ``/recommend`` body's numbers come from the daemon's shared
    computation, not from the renderer: a host-clock read anywhere
    under it must surface at those roots."""

    ROOTS = ("repro.serve.app.TuningDaemon._recommendations",
             "repro.serve.app.TuningDaemon._shared_recommendations")
    TREE = {
        "core/__init__.py": "",
        "core/recommend.py": """
            import time

            def best_variable_values(table, quantile, min_lift):
                return [(row, time.perf_counter()) for row in table]
        """,
        "serve/__init__.py": "",
        "serve/app.py": """
            import asyncio

            from repro.core.recommend import best_variable_values

            class TuningDaemon:
                async def _shared_recommendations(self, job, quantile,
                                                  min_lift):
                    return self._recommendations(job.result, quantile,
                                                 min_lift)

                @staticmethod
                def _recommendations(result, quantile, min_lift):
                    return best_variable_values(result, quantile, min_lift)
        """,
    }

    def findings(self, tmp_path, tree):
        graph = build_callgraph(make_tree(tmp_path, tree))
        return check_transitive_nondeterminism(
            graph, compute_summaries(graph), roots=self.ROOTS
        )

    def test_recommendation_entry_points_are_guarded(self):
        for root in self.ROOTS:
            assert root in DEFAULT_RESULT_ROOTS
        assert "repro.serve.render.recommend_payload" in DEFAULT_RESULT_ROOTS

    def test_clock_read_under_the_computation_fires_at_both_roots(
        self, tmp_path
    ):
        findings = self.findings(tmp_path, self.TREE)
        assert {f.subject for f in findings} == {
            root.removeprefix("repro.") for root in self.ROOTS
        }
        for f in findings:
            assert f.rule == "FLOW001"
            assert f.severity is Severity.ERROR
            assert "best_variable_values" in f.message

    def test_clock_free_computation_is_silent(self, tmp_path):
        tree = dict(self.TREE)
        tree["core/recommend.py"] = tree["core/recommend.py"].replace(
            "time.perf_counter()", "min_lift"
        )
        assert self.findings(tmp_path, tree) == []


# ----------------------------------------------------------------------
# FLOW002 — resource safety (fault injection: leak on exception path)
# ----------------------------------------------------------------------
def flow002(tmp_path, source, rel="resilience/net.py"):
    root = make_tree(tmp_path, {rel: source})
    return check_resource_safety(build_callgraph(root))


class TestFlow002:
    def test_fires_on_unreleased_socket_on_exception_path(self, tmp_path):
        findings = flow002(tmp_path, """
            import socket

            def risky():
                pass

            def leaky():
                s = socket.socket()
                risky()
                s.close()
        """)
        (f,) = findings
        assert f.severity is Severity.ERROR
        assert "leaks if" in f.message and "risky" in f.message

    def test_fires_when_never_released(self, tmp_path):
        findings = flow002(tmp_path, """
            import socket

            def forgetful():
                s = socket.socket()
                return None
        """)
        (f,) = findings
        assert "never released" in f.message

    def test_finally_guard_is_safe(self, tmp_path):
        assert flow002(tmp_path, """
            import socket

            def risky():
                pass

            def guarded():
                s = socket.socket()
                try:
                    risky()
                finally:
                    s.close()
        """) == []

    def test_context_manager_is_safe(self, tmp_path):
        assert flow002(tmp_path, """
            import socket

            def managed():
                with socket.socket() as s:
                    return s.fileno()
        """) == []

    def test_escape_transfers_ownership(self, tmp_path):
        assert flow002(tmp_path, """
            import socket

            def register(s):
                pass

            def handed_off():
                s = socket.socket()
                register(s)

            def returned():
                s = socket.socket()
                return s
        """) == []

    def test_out_of_scope_path_is_silent(self, tmp_path):
        assert flow002(tmp_path, """
            import socket

            def leaky():
                s = socket.socket()
                return None
        """, rel="core/net.py") == []

    def test_mkstemp_only_tracks_the_fd(self, tmp_path):
        # (fd, path): the str path needs no release; os.close(fd) under
        # finally covers the fd.
        assert flow002(tmp_path, """
            import os
            import tempfile

            def spool(data):
                fd, path = tempfile.mkstemp()
                try:
                    os.write(fd, data)
                finally:
                    os.close(fd)
                return path
        """) == []


# ----------------------------------------------------------------------
# FLOW003 — frame protocol (fault injection: sent-but-undispatched kind)
# ----------------------------------------------------------------------
TRANSPORT = """
    def send_frame(sock, message):
        pass

    def send_truncated_frame(sock, message):
        pass

    def recv_frame(sock, timeout=None):
        return ("task", 1)
"""


class TestFlow003:
    def test_fires_on_sent_but_undispatched_kind(self, tmp_path):
        root = make_tree(tmp_path, {
            "resilience/transport.py": TRANSPORT,
            "resilience/coordinator.py": """
                from repro.resilience.transport import send_frame

                def dispatch(sock):
                    send_frame(sock, ("task", 1, "payload"))
                    send_frame(sock, ("poison", 0))
            """,
            "resilience/node.py": """
                from repro.resilience.transport import recv_frame

                def serve(sock):
                    message = recv_frame(sock)
                    if message[0] == "task":
                        return message[1]
            """,
        })
        findings = check_frame_protocol(build_callgraph(root))
        (f,) = findings
        assert f.severity is Severity.ERROR
        assert f.subject == "frame-kind:poison"
        assert "no receiver dispatch arm" in f.message

    def test_fires_on_dead_dispatch_arm(self, tmp_path):
        root = make_tree(tmp_path, {
            "resilience/transport.py": TRANSPORT,
            "resilience/coordinator.py": """
                from repro.resilience.transport import send_frame

                def dispatch(sock):
                    send_frame(sock, ("task", 1))
            """,
            "resilience/node.py": """
                from repro.resilience.transport import recv_frame

                def serve(sock):
                    message = recv_frame(sock)
                    kind = message[0]
                    if kind == "task":
                        return message[1]
                    if kind == "retired":
                        return None
            """,
        })
        findings = check_frame_protocol(build_callgraph(root))
        (f,) = findings
        assert f.subject == "frame-kind:retired"
        assert "nothing ever sends it" in f.message

    def test_fires_on_non_literal_payload(self, tmp_path):
        root = make_tree(tmp_path, {
            "resilience/transport.py": TRANSPORT,
            "resilience/coordinator.py": """
                from repro.resilience.transport import send_frame

                def dispatch(sock, message):
                    send_frame(sock, message)
            """,
        })
        findings = check_frame_protocol(build_callgraph(root))
        (f,) = findings
        assert "not statically decidable" in f.message

    def test_balanced_protocol_is_silent(self, tmp_path):
        root = make_tree(tmp_path, {
            "resilience/transport.py": TRANSPORT,
            "resilience/coordinator.py": """
                from repro.resilience.transport import recv_frame, send_frame

                def dispatch(sock):
                    send_frame(sock, ("task", 1))
                    reply = recv_frame(sock)
                    if reply[0] == "result":
                        return reply[1]
            """,
            "resilience/node.py": """
                from repro.resilience.transport import recv_frame, send_frame

                def serve(sock):
                    message = recv_frame(sock)
                    if message[0] == "task":
                        send_frame(sock, ("result", message[1]))
            """,
        })
        assert check_frame_protocol(build_callgraph(root)) == []


    def test_sees_the_pool_childs_sent_kinds(self, tmp_path):
        """The pool's workers speak frames too: a kind renamed in the
        shipped fleet child (``_fleet_main``) goes unmatched, and the
        parent's arm for the old kind goes dead."""
        from repro.lint.selflint import DEFAULT_SRC_ROOT

        shipped = DEFAULT_SRC_ROOT / "resilience"
        supervisor = (shipped / "supervisor.py").read_text()
        assert supervisor.count('("result", ') == 1
        root = make_tree(tmp_path, {
            "resilience/transport.py": (shipped / "transport.py").read_text(),
            "resilience/supervisor.py": supervisor.replace(
                '("result", ', '("reply", '),
        })
        findings = check_frame_protocol(build_callgraph(root))
        assert {f.subject for f in findings} == {
            "frame-kind:reply", "frame-kind:result",
        }
        (sent,) = [f for f in findings
                   if f.subject == "frame-kind:reply"]
        assert sent.path == "resilience/supervisor.py"
        assert "_fleet_main" in sent.message

    def test_sees_the_fleets_encoded_task_kind(self, tmp_path):
        """The fleet builds its task frames with ``encode_frame`` and
        writes them without blocking: a kind renamed there goes
        unmatched, and the child's arm for the old kind goes dead."""
        from repro.lint.selflint import DEFAULT_SRC_ROOT

        shipped = DEFAULT_SRC_ROOT / "resilience"
        supervisor = (shipped / "supervisor.py").read_text()
        assert supervisor.count('encode_frame(("task", ') == 1
        root = make_tree(tmp_path, {
            "resilience/transport.py": (shipped / "transport.py").read_text(),
            "resilience/supervisor.py": supervisor.replace(
                'encode_frame(("task", ', 'encode_frame(("job", '),
        })
        findings = check_frame_protocol(build_callgraph(root))
        assert {f.subject for f in findings} == {
            "frame-kind:job", "frame-kind:task",
        }
        (sent,) = [f for f in findings if f.subject == "frame-kind:job"]
        assert "_dispatch" in sent.message


class TestFlow001NoiseWindow:
    """A sweep draws its misses' noise before dispatch, a window of
    batches per call, through the numpy first draw: a host-clock read
    under either must surface."""

    ROOTS = ("repro.core.sweep._ClassPlans.noise_factors",
             "repro.arch.noise.first_standard_normals")
    TREE = {
        "arch/__init__.py": "",
        "arch/noise.py": """
            import time

            import numpy as np

            def first_standard_normals(state_lo, state_hi, inc_lo, inc_hi):
                return np.zeros(len(state_lo))
        """,
        "core/__init__.py": "",
        "core/sweep.py": """
            import time

            from repro.arch.noise import first_standard_normals

            class _ClassPlans:
                def noise_factors(self, batches):
                    factors = []
                    for batch in batches:
                        z = first_standard_normals(batch, batch, batch, batch)
                        factors.append((z, z))
                    return factors
        """,
    }
    #: Where each clock read goes, and the roots it must surface at.
    CLOCK_READS = {
        "arch/noise.py": (
            ("np.zeros(len(state_lo))",
             "np.full(len(state_lo), time.perf_counter())"),
            {"core.sweep._ClassPlans.noise_factors",
             "arch.noise.first_standard_normals"},
        ),
        "core/sweep.py": (
            ("factors.append((z, z))",
             "factors.append((z, time.monotonic()))"),
            {"core.sweep._ClassPlans.noise_factors"},
        ),
    }

    def findings(self, tmp_path, tree):
        graph = build_callgraph(make_tree(tmp_path, tree))
        return check_transitive_nondeterminism(
            graph, compute_summaries(graph), roots=self.ROOTS
        )

    def test_window_and_first_draw_are_guarded(self):
        for root in self.ROOTS:
            assert root in DEFAULT_RESULT_ROOTS

    @pytest.mark.parametrize("module", sorted(CLOCK_READS))
    def test_clock_read_under_either_root_fires(self, tmp_path, module):
        (old, new), subjects = self.CLOCK_READS[module]
        tree = dict(self.TREE)
        tree[module] = tree[module].replace(old, new)
        findings = self.findings(tmp_path, tree)
        assert {f.subject for f in findings} == subjects
        for f in findings:
            assert f.rule == "FLOW001"
            assert f.severity is Severity.ERROR
            assert "wall clock" in f.message

    def test_clock_free_draws_are_silent(self, tmp_path):
        assert self.findings(tmp_path, self.TREE) == []


# ----------------------------------------------------------------------
# Waiver integration and the real-tree gate
# ----------------------------------------------------------------------
class TestFlowWaivers:
    def test_flow_waiver_covers_a_finding(self, tmp_path):
        root = make_tree(tmp_path, TestFlow001.TREE)
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(textwrap.dedent("""
            [[waiver]]
            rule = "FLOW001"
            path = "pipeline.py"
            reason = "intentional in this synthetic tree"
        """), encoding="utf-8")
        findings = lint_source(
            ("flow",), src_root=root, waivers_path=waivers,
            result_roots=("repro.pipeline.pack_records",),
        )
        assert unwaived(findings) == []
        assert [f.waived for f in by_rule(findings, "FLOW001")] == [True]

    def test_stale_flow_waiver_reports_sim000_with_line(self, tmp_path):
        root = make_tree(tmp_path, {"quiet.py": "X = 1\n"})
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(
            "# header comment\n"
            "[[waiver]]\n"
            'rule = "FLOW002"\n'
            'path = "nowhere.py"\n'
            'reason = "stale"\n',
            encoding="utf-8",
        )
        findings = lint_source(("flow",), src_root=root, waivers_path=waivers,
                               result_roots=())
        (f,) = by_rule(findings, "SIM000")
        assert f.line == 2  # the [[waiver]] header line, clickable

    def test_sim_waivers_are_not_flow_plane_rot(self, tmp_path):
        # A SIM004 waiver belongs to plane 3; the flow plane must not
        # report it as unused (and vice versa for FLOW entries).
        root = make_tree(tmp_path, {"quiet.py": "X = 1\n"})
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(
            '[[waiver]]\nrule = "SIM004"\npath = "a.py"\nreason = "r"\n',
            encoding="utf-8",
        )
        findings = lint_source(("flow",), src_root=root, waivers_path=waivers,
                               result_roots=())
        assert findings == []


class TestRealTree:
    def test_src_repro_has_zero_unwaived_findings(self):
        findings = lint_source(("flow",))
        assert unwaived(findings) == [], (
            "unwaived flow violations in src/repro:\n"
            + "\n".join(f"  {f.rule} {f.location()}: {f.message}"
                        for f in unwaived(findings))
        )

    def test_every_result_root_exists(self):
        # A renamed root function must fail loudly, not silently drop
        # coverage: assert no FLOW001 stale-root warnings on the tree.
        findings = lint_source(("flow",))
        assert not [f for f in by_rule(findings, "FLOW001")
                    if f.severity is Severity.WARNING]

    def test_shipped_frame_protocol_is_balanced(self):
        from repro.lint.selflint import DEFAULT_SRC_ROOT

        graph = build_callgraph(DEFAULT_SRC_ROOT)
        assert check_frame_protocol(graph) == []

    def test_flow_lint_is_deterministic(self):
        assert lint_source(("flow",)) == lint_source(("flow",))

    def test_a_renamed_copy_gives_the_same_findings(self, tmp_path):
        # The tree's own imports name it repro, whatever its directory
        # is called, so roots, declarations and edges resolve alike.
        from repro.lint.selflint import DEFAULT_SRC_ROOT

        copy = tmp_path / "rcopy"
        shutil.copytree(DEFAULT_SRC_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        planes = ("self", "flow", "deps")
        findings = lint_source(planes, src_root=copy)
        assert findings == lint_source(planes)
        assert unwaived(findings) == []
