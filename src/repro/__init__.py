"""repro — reproduction of *Evaluating Tuning Opportunities of the
LLVM/OpenMP Runtime* (SC 2024).

The package implements the paper's full pipeline on a simulated libomp
runtime (see DESIGN.md for substitutions):

1. **Model** — machines (:mod:`repro.arch`), the simulated runtime
   (:mod:`repro.runtime` over :mod:`repro.desim`) and the 15 benchmark
   workloads (:mod:`repro.workloads`),
2. **Sweep** — the environment-variable grid and orchestration
   (:mod:`repro.core.envspace`, :mod:`repro.core.sweep`),
3. **Analyze** — datasets, speedups, optimal labels, logistic-regression
   influence, recommendations, pruning (:mod:`repro.core`), backed by the
   in-house tabular (:mod:`repro.frame`), statistics (:mod:`repro.stats`)
   and linear-model (:mod:`repro.mlkit`) substrates,
4. **Report** — SVG/terminal figures (:mod:`repro.viz`) and the
   ``repro-omp`` CLI (:mod:`repro.cli`).

Quickstart::

    from repro import (EnvConfig, EnvSpace, SweepPlan, run_sweep,
                       records_to_table, enrich_with_speedup, label_optimal,
                       influence_by_architecture)

    result = run_sweep(SweepPlan(arch="milan", scale="small",
                                 workload_names=("xsbench", "cg")))
    table = label_optimal(enrich_with_speedup(records_to_table(result.block)))
    print(influence_by_architecture(table).to_table().to_text())
"""

from repro.arch import (
    A64FX,
    ALL_MACHINES,
    MILAN,
    SKYLAKE,
    MachineTopology,
    get_machine,
    hardware_table,
)
from repro.core import (
    EnvSpace,
    SweepCache,
    SweepPlan,
    SweepResult,
    best_variable_values,
    enrich_with_speedup,
    generate_report,
    hill_climb,
    influence_by_application,
    influence_by_arch_application,
    influence_by_architecture,
    interaction_matrix,
    label_optimal,
    per_kernel_tune,
    prune_space,
    recommend_threads,
    records_to_table,
    recommend,
    run_sweep,
    speedup_summary,
    validate_dataset,
    worst_trends,
)
from repro.errors import ReproError
from repro.frame import Table, read_csv, write_csv
from repro.runtime import EnvConfig, RuntimeExecutor, execute, observe, resolve_icvs
from repro.stats import summarize, wilcoxon_signed_rank
from repro.workloads import get_workload, workload_names, workloads_for_arch

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machines
    "MachineTopology",
    "A64FX",
    "SKYLAKE",
    "MILAN",
    "ALL_MACHINES",
    "get_machine",
    "hardware_table",
    # runtime
    "EnvConfig",
    "RuntimeExecutor",
    "execute",
    "observe",
    "resolve_icvs",
    # workloads
    "get_workload",
    "workload_names",
    "workloads_for_arch",
    # sweep + analysis
    "EnvSpace",
    "SweepCache",
    "SweepPlan",
    "SweepResult",
    "run_sweep",
    "records_to_table",
    "enrich_with_speedup",
    "label_optimal",
    "speedup_summary",
    "influence_by_application",
    "influence_by_architecture",
    "influence_by_arch_application",
    "best_variable_values",
    "recommend",
    "worst_trends",
    "hill_climb",
    "prune_space",
    "generate_report",
    "interaction_matrix",
    "per_kernel_tune",
    "recommend_threads",
    "validate_dataset",
    # substrates
    "Table",
    "read_csv",
    "write_csv",
    "wilcoxon_signed_rank",
    "summarize",
    # errors
    "ReproError",
]
