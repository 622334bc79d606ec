#!/usr/bin/env python3
"""Tune an *unseen* application with influence-guided search pruning.

The paper's conclusion proposes using the influence analysis to prune
autotuning search spaces.  This example plays that workflow end to end for
an application that is NOT one of the 15 studied benchmarks:

1. describe the new app with the synthetic workload generator (here: an
   irregular task-tree code, "mystery-sim"),
2. sweep the *known* benchmarks once to learn per-(arch, app) influence,
3. pick the influence row of the most similar known app (a task app),
4. prune the environment space to the variables that mattered there,
5. hill-climb the pruned space on the new app and compare against
   hill-climbing the full space: same quality, far fewer evaluations.

Run:  python examples/tune_new_application.py
"""

from repro import (
    EnvSpace,
    SweepPlan,
    enrich_with_speedup,
    get_machine,
    hill_climb,
    influence_by_arch_application,
    label_optimal,
    prune_space,
    records_to_table,
    run_sweep,
)
from repro.workloads import synthetic_task_workload

ARCH = "milan"


def main() -> None:
    machine = get_machine(ARCH)
    space = EnvSpace()

    # 1. The new application: fine-grained irregular tasking.
    mystery = synthetic_task_workload(
        name="mystery-sim",
        depth=7,
        branching=3,
        leaf_work=2e-6,
        node_work=4e-7,
        leaf_sigma=0.7,
        mem_intensity=0.2,
        trips=4,
    )
    print(f"new application: {mystery.name} "
          f"({mystery.parallel_regions[0].n_tasks} tasks/region)\n")

    # 2. Learn influence from the known task benchmarks.
    print(f"# learning influence from known benchmarks on {ARCH} ...")
    result = run_sweep(
        SweepPlan(arch=ARCH, workload_names=("nqueens", "health", "alignment"),
                  scale="small", repetitions=2)
    )
    dataset = label_optimal(enrich_with_speedup(records_to_table(result.block)))
    influence = {
        row.label: row
        for row in influence_by_arch_application(dataset).rows
    }

    # 3. The new app is task-parallel and fine-grained -> nqueens is the
    #    closest studied computation pattern (paper Sec. VI caveat: this
    #    similarity judgement is the user's).
    donor = influence[(ARCH, "nqueens")]
    print(f"donor influence row (nqueens): top features = "
          f"{donor.top_features(4)}\n")

    # 4/5. Tune: full space vs influence-pruned space.
    full = hill_climb(mystery, machine, space, restarts=1, seed=0)
    pruned_space = prune_space(space, donor, threshold=0.06)
    pruned = hill_climb(mystery, machine, pruned_space, restarts=1, seed=0)

    kept = [v.env_name for v in pruned_space.variables]
    print(f"pruned space keeps {len(kept)}/{len(space.variables)} "
          f"variables: {kept}\n")
    print(f"{'':14s}{'evaluations':>12s}{'speedup':>10s}   config")
    for label, res in (("full space", full), ("pruned space", pruned)):
        env = " ".join(f"{k}={v}" for k, v in res.best_config.as_env().items())
        print(f"{label:14s}{res.evaluations:12d}{res.speedup:10.3f}   "
              f"{env or '(defaults)'}")

    saved = 1.0 - pruned.evaluations / full.evaluations
    retained = pruned.speedup / full.speedup
    print(f"\npruning saved {saved:.0%} of the tuning evaluations while "
          f"retaining {retained:.0%} of the speedup.")


if __name__ == "__main__":
    main()
