"""Metamorphic relations on the runtime model.

These checks assert model-level *laws*: transformations of the input with
a known, provable effect on the output.  No oracle runtimes are needed —
only the relation between two runs of the model.

Relations (each raises :class:`~repro.errors.CheckFailure` on violation):

- **cost-scaling homogeneity** — the overhead model is linear in the
  time-valued cost primitives, so scaling them by ``k`` scales
  fork/join/reduction/task-acquire costs *exactly* by ``k``; whole-program
  runtimes are monotone in ``k`` and bracketed by
  ``f(1) <= f(k) <= k * f(1)`` for ``k >= 1`` (compute does not scale, and
  the dynamic dispatch-bound branch makes overhead piecewise-linear, which
  is why the whole-program law is a bracket rather than an equality),
- **serial phases and threads** — adding threads never increases a serial
  phase under the default (passive) wait policy,
- **blocktime bracketing** — ``KMP_BLOCKTIME=0`` and ``infinite`` are the
  extreme wait policies; the default (200 ms) runtime lies within their
  envelope for every workload/machine sampled,
- **default-speedup unity** — after :func:`enrich_with_speedup`, every
  all-default configuration row has speedup exactly 1.0.
"""

from __future__ import annotations

import dataclasses
import math

from repro.arch.costs import scale_costs
from repro.arch.machines import get_machine
from repro.errors import CheckFailure
from repro.runtime.affinity import compute_placement
from repro.runtime.barrier import fork_seconds, join_seconds
from repro.runtime.executor import RuntimeExecutor
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.kernel import task_acquire_seconds
from repro.runtime.reduction import reduction_seconds
from repro.workloads import get_workload

__all__ = [
    "relation_cost_scaling",
    "relation_serial_phase_threads",
    "relation_blocktime_bracketing",
    "relation_default_speedup_unity",
]

#: (arch, workload) pairs exercised by the relations — one loop-parallel
#: NPB code, one task-parallel BOTS code, across all three machines.
DEFAULT_SAMPLES = (
    ("milan", "cg"),
    ("skylake", "xsbench"),
    ("a64fx", "nqueens"),
)


def _program(workload_name: str):
    w = get_workload(workload_name)
    return w.program(w.inputs[0])


def relation_cost_scaling(factors=(2.0, 5.0, 0.5)) -> dict:
    """Homogeneity of the overhead model in the time-valued cost fields."""
    n_exact = 0
    n_bracket = 0
    for arch, workload_name in DEFAULT_SAMPLES:
        machine = get_machine(arch)
        base = machine.costs
        config = EnvConfig(num_threads=machine.n_cores)
        icvs = resolve_icvs(config, machine)
        placement = compute_placement(icvs, machine)
        program = _program(workload_name)
        f1 = RuntimeExecutor(machine, config).execute(program)

        for k in factors:
            scaled = scale_costs(base, k)
            # Exact homogeneity of the overhead primitives.
            primitives = {
                "fork": (fork_seconds(icvs, base, True),
                         fork_seconds(icvs, scaled, True)),
                "join": (join_seconds(icvs, placement, base),
                         join_seconds(icvs, placement, scaled)),
                "reduction": (reduction_seconds(icvs, placement, base, 2),
                              reduction_seconds(icvs, placement, scaled, 2)),
                "task_acquire": (task_acquire_seconds(icvs, base),
                                 task_acquire_seconds(icvs, scaled)),
            }
            for name, (v1, vk) in primitives.items():
                if not math.isclose(vk, k * v1, rel_tol=1e-12, abs_tol=0.0):
                    raise CheckFailure(
                        f"{arch}: {name} cost does not scale by k={k}: "
                        f"{v1} -> {vk} (expected {k * v1})"
                    )
                n_exact += 1

            # Whole-program bracket: monotone in k, bounded by k*f(1).
            fk = RuntimeExecutor(
                dataclasses.replace(machine, costs=scaled), config
            ).execute(program)
            lo, hi = (min(1.0, k) * f1, max(1.0, k) * f1)
            if not (lo * (1 - 1e-9) <= fk <= hi * (1 + 1e-9)):
                raise CheckFailure(
                    f"{arch}/{workload_name}: runtime at cost scale k={k} "
                    f"is {fk}, outside bracket [{lo}, {hi}] (f(1)={f1})"
                )
            n_bracket += 1
    return {"details": f"{n_exact} exact primitive scalings, "
                       f"{n_bracket} whole-program brackets",
            "n_exact": n_exact, "n_bracket": n_bracket}


def relation_serial_phase_threads() -> dict:
    """Under the default (passive) wait policy, growing the team never
    slows a serial phase."""
    n_compared = 0
    for arch, workload_name in DEFAULT_SAMPLES:
        machine = get_machine(arch)
        program = _program(workload_name)
        thread_counts = sorted(
            {1, 2, machine.n_cores // 2 or 1, machine.n_cores}
        )
        prev_serial = None
        prev_T = None
        for T in thread_counts:
            executor = RuntimeExecutor(machine, EnvConfig(num_threads=T))
            serial = sum(
                c.seconds for c in executor.phase_costs(program)
                if c.kind == "serial"
            )
            if prev_serial is not None and serial > prev_serial * (1 + 1e-12):
                raise CheckFailure(
                    f"{arch}/{workload_name}: serial-phase time grew from "
                    f"{prev_serial} (T={prev_T}) to {serial} (T={T}) under "
                    "the default wait policy"
                )
            prev_serial, prev_T = serial, T
            n_compared += 1
    return {"details": f"{n_compared} (arch, workload, T) serial-phase "
                       "evaluations, non-increasing in T",
            "n_compared": n_compared}


def relation_blocktime_bracketing() -> dict:
    """The default blocktime's runtime lies inside the [0, infinite]
    wait-policy envelope."""
    n_checked = 0
    for arch, workload_name in DEFAULT_SAMPLES:
        machine = get_machine(arch)
        program = _program(workload_name)
        T = machine.n_cores
        runtimes = {}
        for bt in ("0", "unset", "infinite"):
            config = EnvConfig(
                num_threads=T,
                blocktime=bt if bt != "unset" else "unset",
            )
            runtimes[bt] = RuntimeExecutor(machine, config).execute(program)
        lo = min(runtimes["0"], runtimes["infinite"])
        hi = max(runtimes["0"], runtimes["infinite"])
        mid = runtimes["unset"]
        if not (lo * (1 - 1e-9) <= mid <= hi * (1 + 1e-9)):
            raise CheckFailure(
                f"{arch}/{workload_name}: default-blocktime runtime {mid} "
                f"falls outside the [blocktime=0, infinite] envelope "
                f"[{lo}, {hi}]"
            )
        n_checked += 1
    return {"details": f"{n_checked} (arch, workload) envelopes verified",
            "n_checked": n_checked}


def relation_default_speedup_unity() -> dict:
    """Every all-default row has speedup exactly 1.0 after enrichment."""
    import numpy as np

    from repro.core.dataset import (
        _is_default_row,
        enrich_with_speedup,
        records_to_table,
    )
    from repro.core.sweep import SweepPlan, run_sweep

    plan = SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=2)
    table = enrich_with_speedup(records_to_table(run_sweep(plan).block))
    mask = _is_default_row(table)
    if not mask.any():
        raise CheckFailure("sweep produced no all-default rows")
    speedups = np.asarray(table.column("speedup"), dtype=float)[mask]
    off = speedups != 1.0
    if off.any():
        raise CheckFailure(
            f"{int(off.sum())} default row(s) have speedup != 1.0 "
            f"(first: {speedups[off][0]!r})"
        )
    return {"details": f"{int(mask.sum())} default rows, all speedup==1.0",
            "n_default_rows": int(mask.sum())}
