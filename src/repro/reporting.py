"""Shared report rendering for the analysis-plane CLIs.

``repro-omp lint``, ``repro-omp sanitize`` and ``repro-omp check`` all
expose ``--format json|text`` and ``--report PATH``; this module is the
single serialization point behind all three — one payload builder, one
renderer, one file writer — so the JSON artifact shape stays consistent
across planes (findings use :func:`repro.lint.findings.findings_report`
fields, checks use the ``CheckResult.to_dict`` fields) instead of three
ad-hoc printers drifting apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.lint.findings import Finding, findings_report, format_findings

__all__ = ["report_payload", "render_report", "write_report_file"]


def report_payload(
    findings: Sequence[Finding] | None = None,
    checks: Sequence | None = None,
    failure_report: object | None = None,
    **extra: object,
) -> dict:
    """One JSON-serializable payload for any mix of findings and checks.

    ``failure_report``, if given, is a sweep
    :class:`~repro.resilience.report.FailureReport` (anything with
    ``to_dict``/``format_text``).  ``extra`` keys (plane metadata:
    planes, stats, prune stats) are merged at the top level.
    """
    payload: dict = {}
    if findings is not None:
        payload.update(findings_report(findings))
    if checks is not None:
        payload.update(
            {
                "n_checks": len(checks),
                "n_failed": sum(1 for r in checks if not r.passed),
                "total_duration_s": sum(r.duration_s for r in checks),
                "checks": [r.to_dict() for r in checks],
            }
        )
    if failure_report is not None:
        payload["failure_report"] = failure_report.to_dict()
    payload.update(extra)
    return payload


def render_report(
    fmt: str,
    findings: Sequence[Finding] | None = None,
    checks: Sequence | None = None,
    failure_report: object | None = None,
    **extra: object,
) -> str:
    """Render one report as ``text`` (human) or ``json`` (machine).

    Text mode concatenates the familiar per-plane formatters; JSON mode
    emits exactly what :func:`write_report_file` would write, so piping
    stdout and reading the artifact are interchangeable.
    """
    if fmt == "json":
        return json.dumps(
            report_payload(findings=findings, checks=checks,
                           failure_report=failure_report, **extra),
            indent=1,
        )
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r} (text|json)")
    sections = []
    if checks is not None:
        from repro.check.runner import format_results

        sections.append(format_results(list(checks)))
    if findings is not None:
        sections.append(format_findings(list(findings)))
    if failure_report is not None:
        sections.append(failure_report.format_text())
    return "\n".join(sections)


def write_report_file(
    path: str | Path,
    findings: Sequence[Finding] | None = None,
    checks: Sequence | None = None,
    failure_report: object | None = None,
    **extra: object,
) -> None:
    """Write the JSON report artifact (the CI job upload)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        render_report("json", findings=findings, checks=checks,
                      failure_report=failure_report, **extra)
        + "\n",
        encoding="utf-8",
    )
