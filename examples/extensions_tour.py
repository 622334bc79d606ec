#!/usr/bin/env python3
"""Tour of the extensions beyond the paper's published analysis.

The paper's conclusion names its own future work; this example runs it:

1. **Non-linear models** — a random forest on the same optimal/sub-optimal
   task, vs the paper's logistic regression: accuracy gain + how the
   feature attribution shifts,
2. **Transfer to unseen applications** — leave-one-app-out accuracy and
   configuration-transfer regret, plus the limited-data fine-tune curve,
3. **OMP_PLACES=numa_domains** — the place kind the paper deferred
   (requires hwloc on real metal; our topology knows NUMA natively),
4. **Energy/EDP** — the related-work objective, showing where turnaround
   is a free lunch (NQueens: faster AND cheaper) and where it is not,
5. **Variable interactions** — the "unclear dependency relationships"
   quantified from a dedicated two-factor sweep.

Run:  python examples/extensions_tour.py
"""

from repro import (
    EnvConfig,
    SweepPlan,
    enrich_with_speedup,
    execute,
    get_machine,
    get_workload,
    label_optimal,
    records_to_table,
    run_sweep,
)
from repro.core.interactions import strongest_interactions
from repro.core.nonlinear import compare_models
from repro.core.transfer import fine_tune, leave_one_app_out, recommend_for_unseen
from repro.frame.ops import concat_tables
from repro.runtime.power import energy_profile


def main() -> None:
    print("# sweeping a mixed app set on all machines (small scale) ...")
    tables = []
    for arch in ("a64fx", "skylake", "milan"):
        result = run_sweep(
            SweepPlan(
                arch=arch,
                workload_names=("nqueens", "health", "xsbench", "su3bench",
                                "cg"),
                scale="small",
                repetitions=2,
            )
        )
        tables.append(records_to_table(result.block))
    dataset = label_optimal(enrich_with_speedup(concat_tables(tables)))
    print(f"  {dataset.num_rows} samples\n")

    # -- 1. non-linear vs linear ----------------------------------------
    print("# 1. non-linear models (paper future work)")
    for c in compare_models(dataset, by=("arch",), n_trees=12):
        print(
            f"  {c.label[0]:8s} logistic {c.linear_accuracy:.3f} -> "
            f"forest {c.forest_accuracy:.3f} (+{c.accuracy_gain:.3f}); "
            f"forest top features: {', '.join(c.top_forest)}"
        )

    # -- 2. transfer ------------------------------------------------------
    print("\n# 2. transfer to unseen applications (paper caveat)")
    for r in leave_one_app_out(dataset, apps=("nqueens", "xsbench"),
                               n_trees=8):
        print(
            f"  hold out {r.app:8s}: in-sample acc {r.in_sample_accuracy:.3f}"
            f" vs transfer acc {r.transfer_accuracy:.3f} "
            f"(gap {r.transfer_gap:+.3f})"
        )
    rec = recommend_for_unseen(dataset, app="nqueens", arch="milan")
    print(
        f"  config transfer to nqueens/milan from "
        f"{'+'.join(rec.donor_apps)}: achieves {rec.achieved_speedup:.2f}x "
        f"of a possible {rec.best_speedup:.2f}x (regret {rec.regret:.0%})"
    )
    curve = fine_tune(dataset, app="nqueens", arch="milan",
                      budgets=(0, 4, 16, 64))
    curve_text = "  ".join(f"n={b}: {r:.0%}" for b, r in curve)
    print(f"  fine-tune regret vs probe budget: {curve_text}")

    # -- 3. numa_domains ---------------------------------------------------
    print("\n# 3. OMP_PLACES=numa_domains (deferred in the paper)")
    milan = get_machine("milan")
    su3 = get_workload("su3bench").program("default")
    base = execute(su3, milan, EnvConfig())
    for places in ("sockets", "ll_caches", "numa_domains"):
        t = execute(su3, milan, EnvConfig(places=places, proc_bind="spread"))
        print(f"  su3bench/milan places={places:12s} speedup {base / t:.3f}x")

    # -- 4. energy ----------------------------------------------------------
    print("\n# 4. energy/EDP (related-work objective)")
    for app in ("nqueens", "ep"):
        program = get_workload(app).program(get_workload(app).default_input)
        for label, cfg in (("default", EnvConfig()),
                           ("turnaround", EnvConfig(library="turnaround")),
                           ("half threads",
                            EnvConfig(num_threads=milan.n_cores // 2))):
            p = energy_profile(program, milan, cfg)
            print(
                f"  {app:8s} {label:12s} t={p.runtime_s * 1e3:8.3f} ms  "
                f"E={p.energy_j:8.3f} J  P={p.avg_power_w:6.1f} W  "
                f"EDP={p.edp:.2e}"
            )

    # -- 5. interactions ----------------------------------------------------
    print("\n# 5. variable interactions (two-factor design, milan)")
    result = run_sweep(
        SweepPlan(arch="milan", workload_names=("nqueens", "su3bench"),
                  scale="twofactor", repetitions=1)
    )
    two_factor = enrich_with_speedup(records_to_table(result.block))
    for pair in strongest_interactions(two_factor, k=4):
        print(
            f"  {pair.label:28s} strength {pair.strength:.3f}  "
            f"worst conflict: {'+'.join(pair.worst_conflict)} "
            f"({pair.worst_conflict_value:+.3f} log-speedup)"
        )
    print("  -> turnaround and blocktime=infinite buy the SAME active "
          "waiting;\n     tune one of them, not both.")


if __name__ == "__main__":
    main()
