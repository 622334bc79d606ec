"""Ablation benchmarks for the design choices DESIGN.md calls out:

- analytic vs DES task-model fidelity (accuracy and cost),
- influence-guided search-space pruning vs full-space hill climbing
  (the paper's Sec. VI proposal),
- the value of per-architecture noise modeling for the Table III result.
"""

import time

import numpy as np
import pytest

from conftest import bench_dataset, emit

from repro.arch.machines import MILAN
from repro.core.envspace import EnvSpace
from repro.core.influence import influence_by_arch_application
from repro.core.pruning import hill_climb, prune_space
from repro.frame.table import Table
from repro.runtime.executor import RuntimeExecutor
from repro.runtime.icv import EnvConfig
from repro.workloads.base import get_workload


def test_ablation_task_fidelity(benchmark, output_dir):
    """Analytic task model vs the DES ground truth: error and speed.

    The analytic mode exists so quarter-million-sample sweeps are
    tractable; this ablation quantifies what it gives up.
    """
    program = get_workload("health").program("small")
    configs = [
        EnvConfig(),
        EnvConfig(library="turnaround"),
        EnvConfig(blocktime="0"),
        EnvConfig(num_threads=24),
    ]

    def timed(fn, repeats=5):
        best = float("inf")
        value = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - t0)
        return value, best

    def measure():
        rows = []
        for config in configs:
            analytic, t_analytic = timed(
                lambda c=config: RuntimeExecutor(MILAN, c, "analytic")
                .execute(program)
            )
            des, t_des = timed(
                lambda c=config: RuntimeExecutor(MILAN, c, "des")
                .execute(program)
            )
            rows.append(
                {
                    "config": " ".join(
                        f"{k}={v}" for k, v in config.as_env().items()
                    ) or "(default)",
                    "analytic_s": analytic,
                    "des_s": des,
                    "rel_error": abs(analytic - des) / des,
                    "eval_cost_ratio": t_des / max(t_analytic, 1e-9),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "Ablation: analytic vs DES task model (health.small, milan)",
        Table.from_records(rows).to_text(float_fmt="{:.3g}"),
        output_dir,
        "ablation_fidelity.txt",
    )
    for row in rows:
        assert row["rel_error"] < 0.5, row
    # The analytic mode must be dramatically cheaper (it is why sweeps at
    # paper scale are feasible).
    assert np.median([r["eval_cost_ratio"] for r in rows]) > 3


def test_ablation_pruning(benchmark, output_dir):
    """Influence-guided pruning vs full-space hill climbing (Sec. VI)."""
    dataset = bench_dataset("milan")
    inf = {
        r.label: r for r in influence_by_arch_application(dataset).rows
    }
    space = EnvSpace()

    def run():
        rows = []
        for app in ("nqueens", "cg", "xsbench"):
            program = get_workload(app).program(
                get_workload(app).default_input
            )
            full = hill_climb(program, MILAN, space, restarts=1, seed=0)
            pruned_space = prune_space(space, inf[("milan", app)],
                                       threshold=0.06)
            pruned = hill_climb(program, MILAN, pruned_space, restarts=1,
                                seed=0)
            rows.append(
                {
                    "app": app,
                    "full_evals": full.evaluations,
                    "full_speedup": full.speedup,
                    "pruned_vars": len(pruned_space.variables),
                    "pruned_evals": pruned.evaluations,
                    "pruned_speedup": pruned.speedup,
                    "retained": pruned.speedup / full.speedup,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: influence-pruned vs full-space hill climbing (milan)",
        Table.from_records(rows).to_text(float_fmt="{:.3f}"),
        output_dir,
        "ablation_pruning.txt",
    )
    for row in rows:
        assert row["pruned_evals"] < row["full_evals"], row
        # Pruning must retain most of the achievable speedup.
        assert row["retained"] > 0.75, row


def test_ablation_noise_model(benchmark, output_dir):
    """Without per-arch drift, the Table III Wilcoxon contrast vanishes.

    Re-runs the paired test on Milan data with the drift factored out —
    the significance must disappear, demonstrating the drift term (not the
    lognormal jitter) carries the paper's machine-consistency finding.
    """
    from repro.arch.noise import get_noise_model
    from repro.core.dataset import records_to_table, run_columns
    from repro.stats.wilcoxon import wilcoxon_signed_rank
    from conftest import bench_sweep

    sweep = bench_sweep("milan", workloads=("alignment",), repetitions=2)
    table = records_to_table(sweep.block)

    def run():
        cols = run_columns(table)
        r0 = np.asarray(table[cols[0]], float)
        r1 = np.asarray(table[cols[1]], float)
        with_drift = wilcoxon_signed_rank(r0, r1)
        model = get_noise_model("milan")
        detrended = wilcoxon_signed_rank(
            r0 / model.drift_factor(0), r1 / model.drift_factor(1)
        )
        return with_drift, detrended

    with_drift, detrended = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: run-index drift drives the Wilcoxon significance",
        (
            f"with drift   : p = {with_drift.pvalue:.3g} (significant: "
            f"{with_drift.significant()})\n"
            f"drift removed: p = {detrended.pvalue:.3g} (significant: "
            f"{detrended.significant()})"
        ),
        output_dir,
        "ablation_noise.txt",
    )
    assert with_drift.pvalue < 1e-6
    assert detrended.pvalue > 0.01
