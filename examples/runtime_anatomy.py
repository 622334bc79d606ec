#!/usr/bin/env python3
"""Anatomy of a run: where does the simulated libomp spend its time?

Dissects two contrasting benchmarks — MG (fork-heavy loop code) and
NQueens (fine-grained tasking) — on Milan:

- per-phase wall-time breakdown under the default configuration,
- how each knob moves each phase (one-factor-at-a-time deltas),
- the ICVs libomp actually derives from each setting (including the
  OMP_WAIT_POLICY derivation from KMP_LIBRARY + KMP_BLOCKTIME),
- analytic vs discrete-event task simulation for the NQueens region.

Run:  python examples/runtime_anatomy.py
"""

from repro import EnvConfig, RuntimeExecutor, get_machine, get_workload
from repro.core.envspace import EnvSpace
from repro.runtime.kernel import task_acquire_seconds
from repro.runtime.program import TaskRegion

ARCH = "milan"


def breakdown(executor: RuntimeExecutor, program) -> None:
    costs = executor.phase_costs(program)
    total = sum(c.seconds for c in costs)
    print(f"  total {total * 1e3:9.3f} ms")
    for c in costs:
        share = c.seconds / total
        bar = "#" * int(round(40 * share))
        print(f"    {c.name:22s} {c.kind:6s} {c.seconds * 1e3:9.3f} ms "
              f"{share:6.1%} {bar}")


def main() -> None:
    machine = get_machine(ARCH)
    space = EnvSpace()

    for app in ("mg", "nqueens"):
        workload = get_workload(app)
        program = workload.program(workload.default_input)
        print(f"\n=== {program.name} on {ARCH} ===")

        default = RuntimeExecutor(machine, EnvConfig())
        print("phase breakdown (default config):")
        breakdown(default, program)
        base = default.execute(program)

        print("\none-factor-at-a-time deltas vs default:")
        for config in space.ofat_grid(machine)[1:]:
            runtime = RuntimeExecutor(machine, config).execute(program)
            delta = runtime / base - 1.0
            if abs(delta) < 0.02:
                continue  # only show the knobs that move this app
            env = " ".join(f"{k}={v}" for k, v in config.as_env().items())
            print(f"    {env:40s} {delta:+7.1%}")

    # ICV derivation showcase.
    print("\n=== ICV resolution (libomp default derivations) ===")
    for config in (
        EnvConfig(),
        EnvConfig(places="cores"),
        EnvConfig(library="turnaround"),
        EnvConfig(blocktime="infinite"),
        EnvConfig(num_threads=3),
    ):
        executor = RuntimeExecutor(machine, config)
        icvs = executor.icvs
        env = " ".join(f"{k}={v}" for k, v in config.as_env().items())
        print(f"  {env or '(all unset)':34s} -> bind={icvs.bind.value:7s} "
              f"wait={icvs.wait_policy.value:8s} "
              f"reduction={icvs.reduction.value:8s} "
              f"acquire={task_acquire_seconds(icvs, machine.costs) * 1e6:.2f}us")

    # Analytic vs DES for the NQueens task region.
    print("\n=== task-model fidelity: analytic vs discrete-event ===")
    program = get_workload("nqueens").program("medium")
    region = next(p for p in program.phases if isinstance(p, TaskRegion))
    print(f"  region: {region.n_tasks} tasks, depth {region.depth}, "
          f"branching {region.branching}")
    for env in ({}, {"library": "turnaround"}):
        label = env.get("library", "default")
        analytic = RuntimeExecutor(machine, EnvConfig(**env), "analytic")
        des = RuntimeExecutor(machine, EnvConfig(**env), "des")
        a = analytic.engine.task_region_seconds(region, "analytic")
        d = des.engine.task_region_seconds(region, "des", seed=7)
        print(f"  {label:10s} analytic={a * 1e3:7.3f} ms  "
              f"des={d * 1e3:7.3f} ms  "
              f"(error {abs(a - d) / d:5.1%})")


if __name__ == "__main__":
    main()
