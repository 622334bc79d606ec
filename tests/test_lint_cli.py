"""The `repro-omp lint` surface: plane selection, exit codes, --stats,
--report artifacts, and the default all-planes invocation CI runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

pytestmark = pytest.mark.lint


class TestParser:
    def test_lint_subcommand_present(self):
        args = build_parser().parse_args(["lint", "--self"])
        assert args.command == "lint" and args.self_lint

    def test_arch_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--arch", "pentium"])

    def test_sweep_gains_no_prune(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "-o", "x.csv", "--no-prune"]
        )
        assert args.no_prune


class TestSelfPlane:
    def test_self_lint_passes_on_this_tree(self, capsys):
        # Acceptance criterion: zero unwaived findings on src/repro.
        assert main(["lint", "--self"]) == 0
        out = capsys.readouterr().out
        assert "0 unwaived failure(s)" in out

    def test_self_lint_fails_on_planted_violation(self, tmp_path, capsys):
        pkg = tmp_path / "runtime"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import random\nX = random.random()\n", encoding="utf-8"
        )
        assert main(["lint", "--self", "--src", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "fix:" in out


class TestManifestPlane:
    def test_shipped_manifests_pass(self, capsys):
        assert main(["lint", "--arch", "milan"]) == 0
        out = capsys.readouterr().out
        assert "unwaived failure(s)" in out or "clean" in out

    def test_multi_arch_findings_are_deduped(self, capsys):
        assert main(["lint", "--arch", "milan", "--workloads", "cg"]) == 0
        single = capsys.readouterr().out
        assert (
            main(["lint", "--arch", "milan", "skylake", "--workloads", "cg"])
            == 0
        )
        multi = capsys.readouterr().out
        # cg's program-spec findings are machine-independent; a second
        # arch must not repeat them.
        assert single.count("PRG006") == multi.count("PRG006")


class TestEnvPlane:
    def test_clean_environment_exits_zero(self, capsys):
        assert main(["lint", "--env", "OMP_NUM_THREADS=48"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_finding_environment_exits_one(self, capsys):
        assert main(["lint", "--env", "OMP_PLACES=cores"]) == 1
        out = capsys.readouterr().out
        assert "ENV002" in out and "OMP_PROC_BIND" in out

    def test_env_respects_arch(self, capsys):
        rc = main(["lint", "--arch", "a64fx", "--env",
                   "KMP_ALIGN_ALLOC=64"])
        assert rc == 1
        assert "ENV006" in capsys.readouterr().out

    def test_bad_env_syntax_exits_two(self, capsys):
        assert main(["lint", "--env", "OMP_NUM_THREADS"]) == 2
        assert "VAR=VALUE" in capsys.readouterr().err

    def test_unknown_variable_exits_two(self, capsys):
        assert main(["lint", "--env", "OMP_BOGUS=1"]) == 2
        assert "OMP_BOGUS" in capsys.readouterr().err

    def test_invalid_value_exits_two(self, capsys):
        assert main(["lint", "--env", "KMP_ALIGN_ALLOC=100"]) == 2
        assert "power of two" in capsys.readouterr().err


def plant_violations(tmp_path):
    """A fake source tree with violations in several files and rules."""
    tree = tmp_path / "bad_src"
    for rel, source in {
        "runtime/a.py": "import random\nX = random.random()\n",
        "desim/b.py": "import time\n\ndef now():\n    return time.time()\n",
        "core/c.py": "for x in set([3, 1, 2]):\n    print(x)\n",
    }.items():
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tree


class TestJsonFormat:
    def test_schema_and_report_round_trip(self, tmp_path, capsys):
        tree = plant_violations(tmp_path)
        report = tmp_path / "lint.json"
        rc = main(["lint", "--self", "--src", str(tree),
                   "--format", "json", "--report", str(report)])
        assert rc == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        report_payload = json.loads(report.read_text(encoding="utf-8"))
        # The artifact and stdout carry the same findings.
        assert stdout_payload["findings"] == report_payload["findings"]
        # The three planted violations, plus SIM000s for the shipped
        # waivers that match nothing in this fake tree.
        planted = [f for f in stdout_payload["findings"]
                   if f["rule"] != "SIM000"]
        assert sorted(f["rule"] for f in planted) == [
            "SIM001", "SIM002", "SIM003",
        ]
        for f in stdout_payload["findings"]:
            assert {"rule", "severity", "subject", "message", "path",
                    "line"} <= f.keys()
            assert f["severity"] in ("error", "warning", "info")

    def test_exit_code_contract(self, tmp_path, capsys):
        # Error-severity findings -> nonzero; a clean tree -> zero.
        tree = plant_violations(tmp_path)
        assert main(["lint", "--self", "--src", str(tree),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(f["severity"] == "error" for f in payload["findings"])

        # The shipped tree is clean -> zero (all waivers used, so no
        # SIM000 noise either).
        assert main(["lint", "--self", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_unwaived_failures"] == 0

    def test_ordering_stable_across_hash_seeds(self, tmp_path):
        # Finding order must not depend on interpreter hash
        # randomization: identical JSON under different PYTHONHASHSEED.
        tree = plant_violations(tmp_path)
        src_dir = str(Path(repro.__file__).resolve().parents[1])

        def run(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src_dir, env.get("PYTHONPATH", "")]
            ).rstrip(os.pathsep)
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "lint", "--self",
                 "--src", str(tree), "--format", "json"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 1, proc.stderr
            return proc.stdout

        assert run("0") == run("1")


class TestStatsAndReport:
    def test_stats_prints_reduction_lines(self, capsys):
        assert main(["lint", "--arch", "milan", "--stats",
                     "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "milan" in out and "classes" in out and "x," in out

    def test_report_artifact_shape(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        rc = main(["lint", "--self", "--arch", "milan", "--stats",
                   "--scale", "small", "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["n_unwaived_failures"] == 0
        assert "self" in payload["planes"]
        assert "manifests:milan" in payload["planes"]
        (stats,) = payload["prune_stats"]
        assert stats["arch"] == "milan" and stats["reduction"] > 1.0
        for f in payload["findings"]:
            assert {"rule", "severity", "subject", "message"} <= f.keys()

    def test_default_invocation_runs_all_planes(self, tmp_path, capsys):
        # Bare `repro-omp lint` = what the CI job relies on: self plane,
        # flow plane, deps plane, plus every arch's manifests.
        report = tmp_path / "all.json"
        assert main(["lint", "--report", str(report)]) == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert set(payload["planes"]) == {
            "self", "flow", "deps",
            "manifests:a64fx", "manifests:skylake", "manifests:milan",
        }


class TestSourcePlanes:
    """The self, flow and deps planes share one parse of the tree."""

    def test_a_full_run_parses_each_file_once(self, monkeypatch, capsys):
        import ast
        from collections import Counter

        from repro.lint.selflint import DEFAULT_SRC_ROOT

        parses = Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[str(filename)] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["lint"]) == 0
        files = {
            p.relative_to(DEFAULT_SRC_ROOT).as_posix()
            for p in DEFAULT_SRC_ROOT.rglob("*.py")
        }
        assert {name: parses[name] for name in files} == dict.fromkeys(
            files, 1
        )

    TREE = {
        "desim/clock.py": (
            "import time\n\n"
            "def now():\n"
            "    return time.time()\n\n"
            "def stamp():\n"
            "    return now()\n"
        ),
    }
    WAIVERS = "".join(
        f'[[waiver]]\nrule = "{rule}"\npath = "{path}"\nreason = "r"\n\n'
        for rule, path in (
            ("SIM001", "desim/clock.py"),        # used
            ("SIM004", "nowhere.py"),            # stale
            ("FLOW001", "desim/clock.py"),       # used
            ("FLOW002", "nowhere.py"),           # stale
            ("KEY003", "lint/deps/passes.py"),   # used
            ("KEY002", "nowhere.py"),            # stale
        )
    )

    def test_planes_together_report_what_each_reports_alone(self, tmp_path):
        from repro.lint import lint_source, sort_findings

        root = tmp_path / "repro"
        for rel, text in self.TREE.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        waivers = tmp_path / "waivers.toml"
        waivers.write_text(self.WAIVERS, encoding="utf-8")
        kwargs = dict(src_root=root, waivers_path=waivers,
                      result_roots=("repro.desim.clock.stamp",))

        alone = {
            plane: lint_source((plane,), **kwargs)
            for plane in ("self", "flow", "deps")
        }
        together = lint_source(("self", "flow", "deps"), **kwargs)
        assert sort_findings(together) == sort_findings(
            [f for findings in alone.values() for f in findings]
        )
        # Each plane contributed a waived finding and rot-checked only
        # its own stale entry.
        for plane, prefix, stale in (("self", "SIM0", "SIM004"),
                                     ("flow", "FLOW", "FLOW002"),
                                     ("deps", "KEY", "KEY002")):
            findings = alone[plane]
            assert any(f.waived and f.rule.startswith(prefix)
                       for f in findings)
            assert [f.subject for f in findings if f.rule == "SIM000"] == [
                f"{stale} @ nowhere.py"
            ]
