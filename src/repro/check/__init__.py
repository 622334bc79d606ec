"""Simulation verification subsystem (``repro check`` / ``pytest -m check``).

Three complementary suites guard the simulator's trustworthiness (see
``docs/TESTING.md`` for the full catalog):

- :mod:`repro.check.invariants` — structural laws of the chunking and
  work-stealing simulators (iteration coverage, task conservation, steal
  replay), observed through their opt-in instrumentation hooks,
- :mod:`repro.check.metamorphic` — model-level relations with provable
  expected effects (cost-scaling homogeneity, wait-policy envelopes,
  default-speedup unity),
- :mod:`repro.check.differential` — execution-path parity (serial vs
  parallel vs cached sweeps) and blessed golden-trace fixtures.

The CLI subcommand and the pytest marker run the same check functions.
"""

from repro.check.differential import (
    GOLDEN_CASES,
    bless_golden_traces,
    columnar_pipeline_parity,
    default_golden_dir,
    differential_parity,
    golden_trace_check,
    pruning_parity,
    resilience_degrade_parity,
    sharded_execution_parity,
)
from repro.check.invariants import (
    StealOrderAuditor,
    check_loop_iteration_coverage,
    check_schedule_chunk_coverage,
    check_work_stealing_conservation,
    check_work_stealing_replay,
)
from repro.check.metamorphic import (
    relation_blocktime_bracketing,
    relation_cost_scaling,
    relation_default_speedup_unity,
    relation_serial_phase_threads,
)
from repro.check.result import CheckResult, run_check
from repro.check.runner import (
    SUITES,
    format_results,
    run_all,
    run_suite,
    write_report,
)

__all__ = [
    "CheckResult",
    "run_check",
    "StealOrderAuditor",
    "check_loop_iteration_coverage",
    "check_schedule_chunk_coverage",
    "check_work_stealing_conservation",
    "check_work_stealing_replay",
    "relation_cost_scaling",
    "relation_serial_phase_threads",
    "relation_blocktime_bracketing",
    "relation_default_speedup_unity",
    "GOLDEN_CASES",
    "default_golden_dir",
    "differential_parity",
    "pruning_parity",
    "resilience_degrade_parity",
    "columnar_pipeline_parity",
    "sharded_execution_parity",
    "golden_trace_check",
    "bless_golden_traces",
    "SUITES",
    "run_suite",
    "run_all",
    "format_results",
    "write_report",
]
