"""Suite orchestration for the verification subsystem.

Maps suite names to their checks, runs them under the uniform
:func:`~repro.check.result.run_check` harness, and renders results for
the CLI and the JSON parity-report artifact.  The pytest suite
(``-m check``) exercises the same check functions, so CI and users run
identical machinery.
"""

from __future__ import annotations

from pathlib import Path

from repro.check import differential, invariants, metamorphic
from repro.check.result import CheckResult, run_check
from repro.errors import CheckFailure

__all__ = [
    "SUITES",
    "run_suite",
    "run_all",
    "format_results",
    "write_report",
]

#: Suite name -> ordered (check name, zero-arg callable) pairs.
SUITES: dict[str, tuple] = {
    "invariants": (
        ("loop-iteration-coverage", invariants.check_loop_iteration_coverage),
        ("schedule-chunk-coverage", invariants.check_schedule_chunk_coverage),
        ("work-stealing-conservation",
         invariants.check_work_stealing_conservation),
        ("work-stealing-replay", invariants.check_work_stealing_replay),
    ),
    "metamorphic": (
        ("cost-scaling", metamorphic.relation_cost_scaling),
        ("serial-phase-threads", metamorphic.relation_serial_phase_threads),
        ("blocktime-bracketing", metamorphic.relation_blocktime_bracketing),
        ("default-speedup-unity", metamorphic.relation_default_speedup_unity),
    ),
    "differential": (
        ("execution-path-parity", differential.differential_parity),
        ("equivalence-pruning-parity", differential.pruning_parity),
        ("resilience-degrade-parity",
         differential.resilience_degrade_parity),
        ("columnar-pipeline-parity",
         differential.columnar_pipeline_parity),
        ("sharded-execution-parity",
         differential.sharded_execution_parity),
        ("service-degrade-parity",
         differential.service_degrade_parity),
        ("golden-traces", differential.golden_trace_check),
    ),
}


def run_suite(
    suite: str,
    golden_dir: str | Path | None = None,
    quick: bool = True,
) -> list[CheckResult]:
    """Run one suite's checks; never raises on check failure.

    ``quick`` selects the scaled-down differential parity plan (the
    default, and what ``repro check --quick`` / CI run); ``quick=False``
    replays the denser :func:`~repro.check.differential.full_plan`.
    """
    if suite not in SUITES:
        raise CheckFailure(
            f"unknown check suite {suite!r}; have {sorted(SUITES)}"
        )
    results = []
    for name, fn in SUITES[suite]:
        if name == "golden-traces":
            body = lambda fn=fn: fn(golden_dir=golden_dir)
        elif (
            name in ("execution-path-parity", "equivalence-pruning-parity",
                     "resilience-degrade-parity",
                     "columnar-pipeline-parity",
                     "sharded-execution-parity",
                     "service-degrade-parity")
            and not quick
        ):
            body = lambda fn=fn: fn(plan=differential.full_plan())
        else:
            body = fn
        results.append(run_check(name, suite, body))
    return results


def run_all(
    suites: tuple[str, ...] | None = None,
    golden_dir: str | Path | None = None,
    quick: bool = True,
) -> list[CheckResult]:
    """Run the selected suites (default: all, in catalog order)."""
    out: list[CheckResult] = []
    for suite in suites or tuple(SUITES):
        out.extend(run_suite(suite, golden_dir=golden_dir, quick=quick))
    return out


def format_results(results: list[CheckResult]) -> str:
    """Human-readable summary, one line per check plus a verdict."""
    lines = []
    width = max((len(r.name) for r in results), default=0)
    current_suite = None
    for r in results:
        if r.suite != current_suite:
            current_suite = r.suite
            lines.append(f"[{current_suite}]")
        mark = "PASS" if r.passed else "FAIL"
        lines.append(
            f"  {mark}  {r.name:<{width}}  {r.duration_s * 1e3:7.1f} ms"
            + (f"  {r.details}" if r.details else "")
        )
    n_failed = sum(1 for r in results if not r.passed)
    total = sum(r.duration_s for r in results)
    verdict = (
        f"{len(results)} checks passed"
        if n_failed == 0
        else f"{n_failed}/{len(results)} checks FAILED"
    )
    lines.append(f"{verdict} in {total:.2f} s")
    return "\n".join(lines)


def write_report(results: list[CheckResult], path: str | Path) -> None:
    """Write the JSON report artifact (the CI differential-parity report).

    Delegates to :mod:`repro.reporting` — the shared serialization point
    for all three analysis-plane CLIs — so the artifact shape matches
    ``repro-omp check --format json`` exactly.
    """
    from repro.reporting import write_report_file

    write_report_file(path, checks=results)
