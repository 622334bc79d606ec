"""Finding model shared by every lint plane.

Every rule — config, program, or self-lint — reports
:class:`Finding` objects: a stable rule id, a severity, the subject the
finding is about (a variable, a phase, a source symbol), a message, and
where available a *fix-it* and the ICV derivation rule that makes the
finding decidable.  ``docs/LINTING.md`` catalogs every rule id.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

__all__ = [
    "Severity",
    "Finding",
    "sort_findings",
    "unwaived",
    "format_findings",
    "findings_report",
]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` — the configuration/program/source is wrong (domain
    violation, provably dead construct that silently changes semantics).
    ``WARNING`` — legal but almost certainly not what the author meant
    (dead parameter, shadowed default, oversubscription).
    ``INFO`` — redundancy worth knowing about (duplicate grid point,
    no-op phase); never fails a lint run.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Ordering key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    @property
    def fails(self) -> bool:
        """Whether an unwaived finding of this severity fails the run."""
        return self is not Severity.INFO


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    Attributes
    ----------
    rule:
        Stable rule id (``ENV...``, ``PRG...``, ``SIM...``).
    severity:
        See :class:`Severity`.
    subject:
        What the finding is about — an env variable, a ``workload.input``
        phase, a source symbol.  Waivers match on this.
    message:
        One-line description of the defect.
    fixit:
        Actionable remediation, empty if none applies.
    icv_rule:
        The ICV derivation rule (paper Sec. III) that resolves the
        finding statically, empty for self-lint rules.
    path, line:
        Source location for self-lint findings (repo-relative path).
    waived:
        Set by the waiver pass; waived findings are reported but never
        fail a run.
    """

    rule: str
    severity: Severity
    subject: str
    message: str
    fixit: str = ""
    icv_rule: str = ""
    path: str = ""
    line: int = 0
    waived: bool = False

    def waive(self) -> "Finding":
        """Copy marked as waived."""
        return replace(self, waived=True)

    def location(self) -> str:
        """``path:line`` for self-lint findings, the subject otherwise."""
        if self.path:
            return f"{self.path}:{self.line}" if self.line else self.path
        return self.subject

    def to_dict(self) -> dict:
        """JSON-serializable form for the findings-report artifact."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
            "fixit": self.fixit,
            "icv_rule": self.icv_rule,
            "path": self.path,
            "line": self.line,
            "waived": self.waived,
        }


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Deterministic report order: severity, rule, location, subject."""
    return sorted(
        findings,
        key=lambda f: (f.severity.rank, f.rule, f.path, f.line, f.subject),
    )


def unwaived(findings: Iterable[Finding]) -> list[Finding]:
    """The findings that fail a lint run (unwaived errors/warnings)."""
    return [f for f in findings if not f.waived and f.severity.fails]


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a verdict."""
    lines = []
    for f in sort_findings(findings):
        mark = "waived " if f.waived else ""
        lines.append(
            f"  {f.severity.value.upper():7s} {f.rule}  [{mark}{f.location()}] "
            f"{f.message}"
        )
        if f.fixit and not f.waived:
            lines.append(f"          fix: {f.fixit}")
    n_fail = len(unwaived(findings))
    n_waived = sum(1 for f in findings if f.waived)
    verdict = (
        f"{len(findings)} finding(s): {n_fail} unwaived failure(s), "
        f"{n_waived} waived"
        if findings
        else "clean: no findings"
    )
    lines.append(verdict)
    return "\n".join(lines)


def findings_report(findings: Sequence[Finding], **extra: object) -> dict:
    """JSON report payload (the CI lint-job artifact)."""
    ordered = sort_findings(findings)
    payload: dict = {
        "n_findings": len(ordered),
        "n_unwaived_failures": len(unwaived(ordered)),
        "n_waived": sum(1 for f in ordered if f.waived),
        "findings": [f.to_dict() for f in ordered],
    }
    payload.update(extra)
    return payload
