#!/usr/bin/env python3
"""End-to-end reproduction of the paper's analysis pipeline, in miniature.

Sweeps a subset of applications on all three machines, then walks the
paper's Sec. IV/V methodology step by step:

1. measurement-consistency check (Wilcoxon signed-rank, Table III),
2. per-run statistics (Table IV),
3. speedup computation and headline ranges (Sec. V-1),
4. the failed linear-regression fit and the classification reformulation,
5. influence heat maps for all three groupings (Figs. 2-4, SVG + text),
6. recommendations and worst trends (Table VII, Sec. V-4).

Artifacts land in ``examples/output/``.  Use ``--scale medium`` for a
richer (slower) sweep.

Run:  python examples/reproduce_paper_analysis.py [--scale small|medium]
"""

import argparse
from pathlib import Path

import numpy as np

from repro import (
    SweepPlan,
    best_variable_values,
    enrich_with_speedup,
    influence_by_application,
    influence_by_arch_application,
    influence_by_architecture,
    label_optimal,
    records_to_table,
    run_sweep,
    worst_trends,
    write_csv,
)
from repro.core.dataset import run_columns
from repro.core.influence import linear_fit_quality
from repro.frame.ops import concat_tables
from repro.stats.descriptive import summarize
from repro.stats.wilcoxon import wilcoxon_signed_rank
from repro.viz.heatmap import influence_heatmap
from repro.viz.text import text_heatmap

APPS = ("alignment", "nqueens", "xsbench", "cg")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="small",
                        choices=("small", "medium", "full"))
    args = parser.parse_args()

    out = Path(__file__).parent / "output"
    out.mkdir(exist_ok=True)

    # -- 1. sweep all three machines -----------------------------------
    print(f"# Sweeping {APPS} on three machines (scale={args.scale}) ...")
    tables = []
    for arch in ("a64fx", "skylake", "milan"):
        result = run_sweep(
            SweepPlan(arch=arch, workload_names=APPS, scale=args.scale,
                      repetitions=3)
        )
        print(f"  {arch}: {result.n_samples} samples "
              f"({result.n_measurements} measurements)")
        tables.append(records_to_table(result.block))
    dataset = label_optimal(enrich_with_speedup(concat_tables(tables)))
    write_csv(dataset, out / "dataset.csv")
    print(f"  dataset -> {out / 'dataset.csv'}")

    # -- 2. measurement consistency (Table III) ------------------------
    print("\n# Wilcoxon run-consistency per machine (Table III):")
    cols = run_columns(dataset)
    for (arch,), sub in dataset.group_by("arch"):
        r0 = np.asarray(sub[cols[0]], float)
        r1 = np.asarray(sub[cols[1]], float)
        res = wilcoxon_signed_rank(r0, r1)
        verdict = "noisy" if res.significant() else "consistent"
        print(f"  {arch:8s} R0 vs R1: p = {res.pvalue:9.3g}  -> {verdict}")

    # -- 3. per-run statistics (Table IV) -------------------------------
    print("\n# Mean runtime per repetition index (Table IV):")
    for (arch,), sub in dataset.group_by("arch"):
        means = [summarize(np.asarray(sub[c], float)).mean for c in cols]
        formatted = "  ".join(f"R{i}={m:.4f}s" for i, m in enumerate(means))
        print(f"  {arch:8s} {formatted}")

    # -- 4. speedups ----------------------------------------------------
    print("\n# Best per-setting speedup ranges (Sec. V-1):")
    for (arch,), sub in dataset.group_by("arch"):
        maxima = [
            float(np.max(np.asarray(g["speedup"], float)))
            for _, g in sub.group_by(["app", "input_size", "num_threads"])
        ]
        print(f"  {arch:8s} range {min(maxima):.3f}-{max(maxima):.3f}x "
              f"median {np.median(maxima):.3f}x")

    # -- 5. linear fit fails -> classification --------------------------
    r2 = linear_fit_quality(dataset)
    optimal_frac = float(np.asarray(dataset["optimal"], float).mean())
    print(f"\n# OLS on naive-encoded features: R^2 = {r2:.3f} (poor)")
    print(f"# -> classify optimal (speedup > 1.01): "
          f"{optimal_frac:.1%} of samples optimal")

    # -- 6. influence heat maps (Figs. 2-4) ------------------------------
    for name, inf in (
        ("fig2_by_application", influence_by_application(dataset)),
        ("fig3_by_architecture", influence_by_architecture(dataset)),
        ("fig4_by_arch_application", influence_by_arch_application(dataset)),
    ):
        influence_heatmap(inf).save(str(out / f"{name}.svg"))
        print(f"\n# {name} (accuracy {inf.mean_accuracy():.2f}) "
              f"-> {out / (name + '.svg')}")
        print(text_heatmap(inf.matrix(), inf.row_labels,
                           list(inf.feature_names)))

    # -- 7. recommendations (Table VII) ----------------------------------
    print("\n# Recommendations (top-5% slice, Table VII analogue):")
    for rec in best_variable_values(dataset):
        if rec.variable == "defaults":
            print(f"  {rec.app:10s} {rec.arch:8s} -> defaults already good "
                  f"(best {rec.best_speedup:.2f}x)")
        else:
            print(f"  {rec.app:10s} {rec.arch:8s} -> {rec.variable} = "
                  f"{'/'.join(rec.values):20s} (best {rec.best_speedup:.2f}x)")

    print("\n# Worst trends (Sec. V-4):")
    for trend in worst_trends(dataset):
        print(f"  {trend.variable}={trend.value}: "
              f"{trend.lift:.1f}x over-represented among the worst runs, "
              f"mean speedup {trend.mean_speedup:.3f}x")


if __name__ == "__main__":
    main()
