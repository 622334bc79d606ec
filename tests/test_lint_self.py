"""Determinism self-lint (plane 3): synthetic sources proving each SIM
rule fires and stays silent, waiver machinery, and the real-tree gate
(zero unwaived findings on src/repro)."""

import textwrap

import pytest

from repro.errors import ConfigError
from repro.lint import (
    SELF_RULES,
    Severity,
    Waiver,
    apply_waivers,
    lint_source,
    load_waivers,
    self_lint_source,
    unwaived,
)
from repro.lint.selflint import DEFAULT_WAIVERS, _parse_toml_minimal

pytestmark = pytest.mark.lint


def lint(source, path="desim/mod.py"):
    return self_lint_source(textwrap.dedent(source), path)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestSim001WallClock:
    def test_fires_on_time_module_calls(self):
        findings = lint(
            """
            import time
            def tick():
                return time.perf_counter()
            """
        )
        (f,) = by_rule(findings, "SIM001")
        assert f.subject == "tick" and f.line == 4

    def test_fires_on_from_import_and_datetime(self):
        findings = lint(
            """
            from time import monotonic as mono
            import datetime
            def a():
                return mono()
            def b():
                return datetime.datetime.now()
            """
        )
        assert len(by_rule(findings, "SIM001")) == 2

    def test_out_of_scope_path_is_silent(self):
        findings = lint(
            """
            import time
            def tick():
                return time.perf_counter()
            """,
            path="cli.py",  # wall clocks are fine outside the core
        )
        assert not by_rule(findings, "SIM001")

    def test_frame_layer_is_in_scope(self):
        # Frame payloads must never absorb host timestamps.
        findings = lint(
            """
            import time
            def stamp():
                return time.time()
            """,
            path="frame/columns.py",
        )
        assert by_rule(findings, "SIM001")

    def test_non_clock_time_attr_is_silent(self):
        findings = lint(
            """
            import time
            def fine():
                return time.sleep
            """
        )
        assert not by_rule(findings, "SIM001")

    @pytest.mark.parametrize("source", [
        "import time\ntime.sleep(1)\n",
        "from time import sleep\nsleep(1)\n",
    ], ids=["time.sleep", "from-import-sleep"])
    def test_sleep_is_silent_in_either_spelling(self, source):
        # Sleeping reads no clock; both spellings resolve to time.sleep.
        assert not by_rule(lint(source), "SIM001")


class TestSim002UnseededRandomness:
    def test_fires_on_stdlib_global_random(self):
        findings = lint(
            """
            import random
            def draw():
                return random.random()
            """
        )
        assert by_rule(findings, "SIM002")

    def test_fires_on_unseeded_default_rng_via_alias(self):
        findings = lint(
            """
            import numpy as np
            def draw():
                return np.random.default_rng()
            """
        )
        (f,) = by_rule(findings, "SIM002")
        assert "seed" in f.fixit

    def test_fires_on_legacy_numpy_global(self):
        findings = lint(
            """
            import numpy as np
            def draw():
                return np.random.normal(0, 1)
            """
        )
        assert by_rule(findings, "SIM002")

    @pytest.mark.parametrize("source", [
        "from random import shuffle\ndef f(x):\n    shuffle(x)\n",
        "import random\nrng = random.Random()\n",
        "from numpy.random import default_rng\nrng = default_rng()\n",
    ], ids=["from-import-shuffle", "random.Random", "from-import-default_rng"])
    def test_fires_on_every_spelling_the_flow_plane_sees(self, source):
        # Names resolve through the module's import-alias table and the
        # flow plane's classifier decides, so a from-import or an
        # unseeded generator constructor is caught like random.random().
        (f,) = by_rule(lint(source), "SIM002")
        assert f.line == (3 if "def f" in source else 2)

    def test_seeded_stdlib_generator_is_silent(self):
        assert not by_rule(lint("import random\nrng = random.Random(7)\n"),
                           "SIM002")

    def test_seeded_default_rng_is_silent(self):
        findings = lint(
            """
            import numpy as np
            def draw(seed):
                return np.random.default_rng(seed).normal()
            """
        )
        assert not by_rule(findings, "SIM002")

    def test_out_of_scope_path_is_silent(self):
        findings = lint(
            """
            import random
            x = random.random()
            """,
            path="viz/violin.py",
        )
        assert not by_rule(findings, "SIM002")


class TestSim003SetIteration:
    def test_fires_on_for_over_set_call(self):
        findings = lint("for x in set([3, 1, 2]):\n    print(x)\n",
                        path="core/mod.py")
        (f,) = by_rule(findings, "SIM003")
        assert f.subject == "<module>"

    def test_fires_in_comprehensions_and_literals(self):
        findings = lint(
            """
            a = [x for x in {1, 2, 3}]
            b = {x for x in frozenset((1, 2))}
            """,
            path="frame/mod.py",
        )
        assert len(by_rule(findings, "SIM003")) == 2

    def test_sorted_set_is_silent(self):
        findings = lint(
            "for x in sorted(set([3, 1, 2])):\n    print(x)\n",
            path="core/mod.py",
        )
        assert not by_rule(findings, "SIM003")

    def test_applies_everywhere_in_the_package(self):
        assert SELF_RULES["SIM003"] == ("",)


class TestSim004FrozenDataclasses:
    def test_fires_on_bare_decorator(self):
        findings = lint(
            """
            from dataclasses import dataclass
            @dataclass
            class State:
                x: int = 0
            """,
            path="runtime/mod.py",
        )
        (f,) = by_rule(findings, "SIM004")
        assert "State" in f.subject

    def test_fires_on_frozen_false(self):
        findings = lint(
            """
            import dataclasses
            @dataclasses.dataclass(frozen=False)
            class State:
                x: int = 0
            """,
            path="arch/mod.py",
        )
        assert by_rule(findings, "SIM004")

    def test_frozen_true_is_silent(self):
        findings = lint(
            """
            from dataclasses import dataclass
            @dataclass(frozen=True)
            class State:
                x: int = 0
            """,
            path="runtime/mod.py",
        )
        assert not by_rule(findings, "SIM004")

    def test_out_of_scope_layer_is_silent(self):
        findings = lint(
            """
            from dataclasses import dataclass
            @dataclass
            class Accumulator:
                total: float = 0.0
            """,
            path="core/mod.py",  # analysis layer may mutate
        )
        assert not by_rule(findings, "SIM004")

    def test_resilience_layer_is_in_scope(self):
        # Resilience bookkeeping needs a reasoned waiver, not a
        # scope carve-out.
        findings = lint(
            """
            from dataclasses import dataclass
            @dataclass
            class Slot:
                busy: bool = False
            """,
            path="resilience/mod.py",
        )
        assert by_rule(findings, "SIM004")


class TestSim005FloatEquality:
    def test_fires_in_check_layer(self):
        findings = lint(
            "def verify(x):\n    return x == 1.0\n", path="check/mod.py"
        )
        (f,) = by_rule(findings, "SIM005")
        assert f.severity is Severity.WARNING

    def test_int_equality_is_silent(self):
        findings = lint(
            "def verify(x):\n    return x == 1\n", path="check/mod.py"
        )
        assert not by_rule(findings, "SIM005")

    def test_out_of_scope_path_is_silent(self):
        findings = lint(
            "def verify(x):\n    return x == 1.0\n", path="runtime/mod.py"
        )
        assert not by_rule(findings, "SIM005")


class TestWaivers:
    def test_waiver_matches_rule_path_symbol(self):
        w = Waiver(rule="SIM004", path="desim/stealing.py",
                   symbol="TaskGraph", reason="builder")
        findings = lint(
            """
            from dataclasses import dataclass
            @dataclass
            class TaskGraph:
                n: int = 0
            @dataclass
            class Other:
                n: int = 0
            """,
            path="desim/stealing.py",
        )
        waived, unused = apply_waivers(findings, [w])
        assert [f.waived for f in waived] == [True, False]
        assert unused == []

    def test_unused_waivers_reported(self):
        w = Waiver(rule="SIM001", path="nowhere.py", reason="stale")
        waived, unused = apply_waivers([], [w])
        assert unused == [w]

    def test_minimal_toml_parser_matches_shipping_file(self):
        text = DEFAULT_WAIVERS.read_text(encoding="utf-8")
        entries = _parse_toml_minimal(text)["waiver"]
        assert entries == [
            {"rule": w.rule, "path": w.path, "reason": w.reason,
             **({"symbol": w.symbol} if w.symbol else {})}
            for w in load_waivers()
        ]

    def test_minimal_parser_rejects_garbage(self):
        with pytest.raises(ConfigError):
            _parse_toml_minimal("[[waiver]]\nrule = 3\n")
        with pytest.raises(ConfigError):
            _parse_toml_minimal("what is this")

    def test_missing_waivers_file_means_none(self, tmp_path):
        assert load_waivers(tmp_path / "absent.toml") == []

    WAIVER_TEXT = (
        "# a comment above the first entry\n"
        "\n"
        "[[waiver]]\n"                       # line 3
        'rule = "SIM001"\npath = "a.py"\nreason = "r1"\n'
        "\n"
        "[[waiver]]\n"                       # line 8
        'rule = "SIM004"\npath = "b.py"\nreason = "r2"\n'
    )

    def test_loaded_waivers_carry_entry_lines(self, tmp_path):
        f = tmp_path / "w.toml"
        f.write_text(self.WAIVER_TEXT, encoding="utf-8")
        assert [w.line for w in load_waivers(f)] == [3, 8]

    def test_fallback_parser_path_also_carries_lines(
        self, tmp_path, monkeypatch
    ):
        # Python 3.10 has no tomllib; the minimal parser must produce
        # identically-positioned waivers.
        import repro.lint.selflint as selflint

        monkeypatch.setattr(selflint, "tomllib", None)
        f = tmp_path / "w.toml"
        f.write_text(self.WAIVER_TEXT, encoding="utf-8")
        waivers = load_waivers(f)
        assert [w.line for w in waivers] == [3, 8]
        assert [w.rule for w in waivers] == ["SIM001", "SIM004"]

    def test_sim000_points_at_the_stale_entry_line(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        f = tmp_path / "w.toml"
        f.write_text(self.WAIVER_TEXT, encoding="utf-8")
        findings = lint_source(("self",), src_root=src, waivers_path=f)
        assert [(x.rule, x.line) for x in findings] == [
            ("SIM000", 3), ("SIM000", 8),
        ]
        assert all(x.path == "lint/waivers.toml" for x in findings)

    def test_flow_waivers_belong_to_the_other_plane(self, tmp_path):
        # A FLOW entry in the shared file must not be reported as rot
        # by the self-lint plane.
        src = tmp_path / "src"
        src.mkdir()
        f = tmp_path / "w.toml"
        f.write_text(
            '[[waiver]]\nrule = "FLOW001"\npath = "a.py"\nreason = "r"\n',
            encoding="utf-8",
        )
        assert lint_source(("self",), src_root=src, waivers_path=f) == []

    def test_malformed_waiver_entry_rejected(self, tmp_path):
        bad = tmp_path / "w.toml"
        bad.write_text('[[waiver]]\nrule = "SIM001"\n', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_waivers(bad)


class TestRealTree:
    def test_src_repro_has_zero_unwaived_findings(self):
        findings = lint_source(("self",))
        assert unwaived(findings) == [], (
            "unwaived determinism violations in src/repro:\n"
            + "\n".join(f"  {f.rule} {f.location()}: {f.message}"
                        for f in unwaived(findings))
        )

    def test_every_shipped_waiver_is_used(self):
        findings = lint_source(("self",))
        assert not by_rule(findings, "SIM000")

    def test_tree_walk_is_deterministic(self):
        assert lint_source(("self",)) == lint_source(("self",))

    def test_synthetic_violation_fails_the_gate(self, tmp_path):
        # End-to-end fault injection: plant a violation in a fake tree and
        # require the pipeline to fail it with no waivers.
        bad = tmp_path / "desim"
        bad.mkdir()
        (bad / "clocky.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n",
            encoding="utf-8",
        )
        findings = lint_source(("self",), src_root=tmp_path,
                               waivers_path=tmp_path / "none.toml")
        assert len(unwaived(findings)) == 1
        assert findings[0].rule == "SIM001"
