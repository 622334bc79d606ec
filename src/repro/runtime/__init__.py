"""Simulated LLVM/OpenMP CPU runtime.

This package models the behaviour the paper sweeps: how libomp turns the
environment (``OMP_*`` / ``KMP_*`` variables) into Internal Control
Variables and how those ICVs shape the execution time of parallel regions
on a given machine.

Pipeline per application run:

1. :mod:`~repro.runtime.icv` resolves an :class:`~repro.runtime.icv.EnvConfig`
   into :class:`~repro.runtime.icv.ResolvedICVs`, reproducing libomp's
   default derivations (PROC_BIND unset -> false, or spread when PLACES is
   set; ALIGN_ALLOC -> cache line; FORCE_REDUCTION heuristic; WAIT_POLICY
   derived from KMP_LIBRARY + KMP_BLOCKTIME),
2. :mod:`~repro.runtime.affinity` turns places + binding into a
   :class:`~repro.runtime.affinity.ThreadPlacement` (thread -> core map with
   oversubscription accounting),
3. :mod:`~repro.runtime.kernel` prices each region —
   :mod:`~repro.runtime.schedule` for worksharing loops,
   the analytic/DES task models for task regions,
   :mod:`~repro.runtime.reduction` for cross-thread reductions,
   :mod:`~repro.runtime.barrier` for fork/join/wait-policy costs,
   :mod:`~repro.runtime.alloc` for KMP_ALIGN_ALLOC effects,
4. :mod:`~repro.runtime.executor` sums a whole
   :class:`~repro.runtime.program.Program` and applies the architecture
   noise model to produce observed runtimes.
"""

from repro.runtime.icv import (
    BindPolicy,
    EnvConfig,
    LibraryMode,
    ReductionMethod,
    ResolvedICVs,
    ScheduleKind,
    WaitPolicy,
    resolve_icvs,
)
from repro.runtime.affinity import ThreadPlacement, compute_placement
from repro.runtime.program import (
    LoadPattern,
    LoopRegion,
    Program,
    SerialPhase,
    TaskRegion,
)
from repro.runtime.executor import RuntimeExecutor, execute, observe
from repro.runtime.power import EnergyProfile, energy_profile
from repro.runtime.microbench import MicrobenchReport, overhead_table, run_microbench
from repro.runtime.trace import ExecutionTrace, TraceEvent, trace_execution

__all__ = [
    "EnvConfig",
    "ResolvedICVs",
    "resolve_icvs",
    "BindPolicy",
    "ScheduleKind",
    "LibraryMode",
    "WaitPolicy",
    "ReductionMethod",
    "ThreadPlacement",
    "compute_placement",
    "Program",
    "SerialPhase",
    "LoopRegion",
    "TaskRegion",
    "LoadPattern",
    "RuntimeExecutor",
    "execute",
    "observe",
    "EnergyProfile",
    "energy_profile",
    "MicrobenchReport",
    "run_microbench",
    "overhead_table",
    "ExecutionTrace",
    "TraceEvent",
    "trace_execution",
]
