"""The ``repro-omp sanitize`` surface (exit codes, --format, --report)
and the shared report renderer across all three analysis planes."""

import json

import pytest

from repro.cli import build_parser, main
from repro.lint.findings import Finding, Severity
from repro.reporting import render_report, report_payload
from repro.sanitize import run_sanitize

pytestmark = pytest.mark.sanitize


class TestParser:
    def test_sanitize_subcommand_present(self):
        args = build_parser().parse_args(["sanitize", "--arch", "milan"])
        assert args.command == "sanitize" and args.arch == ["milan"]
        assert args.fmt == "text" and args.env == []

    def test_arch_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize", "--arch", "pentium"])

    def test_all_planes_share_format_flag(self):
        for cmd in (["check"], ["lint"], ["sanitize"]):
            args = build_parser().parse_args(cmd + ["--format", "json"])
            assert args.fmt == "json"


class TestRunner:
    def test_error_findings_fail_the_gate(self):
        report = run_sanitize(
            archs=("milan",),
            env={"OMP_NUM_THREADS": "192", "KMP_LIBRARY": "turnaround"},
        )
        assert not report.passed
        assert all(f.rule == "DLK001" for f in report.failures())

    def test_warnings_do_not_fail_the_gate(self):
        # Manifest mode over one arch: plenty of WARN/INFO findings, none
        # ERROR — the sanitize gate (unlike lint's) must still pass.
        report = run_sanitize(archs=("milan",))
        assert report.findings and report.passed
        assert report.stats["n_machines"] == 1


class TestCliExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["sanitize", "--arch", "milan"]) == 0
        out = capsys.readouterr().out
        assert "sanitize gate: PASS" in out
        assert "WARNING" in out  # warnings are reported, not gated

    def test_error_findings_exit_one(self, capsys):
        code = main([
            "sanitize", "--arch", "milan",
            "--env", "OMP_NUM_THREADS=192",
            "--env", "KMP_LIBRARY=turnaround",
        ])
        assert code == 1
        assert "DLK001" in capsys.readouterr().out

    def test_malformed_env_exits_two(self, capsys):
        assert main(["sanitize", "--env", "OMP_NUM_THREADS"]) == 2
        assert "VAR=VALUE" in capsys.readouterr().err


class TestCliJsonAndReport:
    def test_json_stdout_parses_with_plane_metadata(self, capsys):
        assert main([
            "sanitize", "--arch", "milan",
            "--workloads", "xsbench", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["stats"]["n_machines"] == 1
        assert payload["n_findings"] == len(payload["findings"])

    def test_report_artifact_matches_stdout_payload(self, tmp_path, capsys):
        report = tmp_path / "sanitize.json"
        assert main([
            "sanitize", "--arch", "milan", "--format", "json",
            "--report", str(report),
        ]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(report.read_text(encoding="utf-8"))
        assert file_payload == stdout_payload
        assert file_payload["n_findings"] > 0

    def test_lint_and_check_speak_json_too(self, capsys):
        assert main(["lint", "--env", "OMP_SCHEDULE=static",
                     "--format", "json"]) == 0
        lint_payload = json.loads(capsys.readouterr().out)
        assert lint_payload["planes"] == ["env:milan"]
        assert main(["check", "--suite", "invariants",
                     "--format", "json"]) == 0
        check_payload = json.loads(capsys.readouterr().out)
        assert check_payload["n_failed"] == 0
        assert len(check_payload["checks"]) == check_payload["n_checks"]


class TestSharedReporting:
    def test_payload_merges_findings_checks_and_extra(self):
        finding = Finding("DLK001", Severity.ERROR, "x", "boom")
        payload = report_payload(findings=[finding], planes=["env:milan"])
        assert payload["n_findings"] == 1
        assert payload["n_unwaived_failures"] == 1
        assert payload["planes"] == ["env:milan"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report("yaml", findings=[])
