"""Systematic validation of the analytic runtime models against the
discrete-event simulators, across the parameter regimes the sweeps visit."""

import numpy as np
import pytest

from repro.arch.machines import MILAN, SKYLAKE
from repro.desim.loopsim import simulate_loop
from repro.runtime.affinity import compute_placement
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.kernel import RegionEngine, task_acquire_seconds
from repro.runtime.program import LoadPattern, LoopRegion, TaskRegion


def price(region, machine=MILAN, **env):
    icvs = resolve_icvs(EnvConfig(**env), machine)
    engine = RegionEngine(machine, icvs)
    return engine.loop_region_seconds(region)


def iter_costs(region, machine, seed=0):
    """Materialize the region's iteration costs in seconds."""
    from repro.runtime.costs import work_seconds

    rng = np.random.default_rng(seed)
    mean = work_seconds(region.iter_work, machine)
    n = region.n_iters
    if region.pattern is LoadPattern.UNIFORM:
        return np.full(n, mean)
    if region.pattern is LoadPattern.LINEAR:
        return mean * (1.0 + region.imbalance * (np.arange(n) / n - 0.5))
    return np.maximum(
        rng.normal(mean, region.imbalance * mean, size=n), 0.0
    )


class TestLoopModelVsChunkDES:
    """The analytic loop pricing vs the per-chunk DES, regime by regime.

    The analytic model omits memory effects and sync here (bw=0,
    reductions=0), so the comparison isolates scheduling."""

    @pytest.mark.parametrize(
        "n,iter_work,schedule,chunk",
        [
            (20_000, 1e-6, "dynamic", 1),
            (20_000, 1e-6, "dynamic", 64),
            (100_000, 5e-8, "dynamic", 1),     # dispatch-bound regime
            (100_000, 5e-8, "dynamic", 1000),  # rescued by chunking
            (20_000, 1e-6, "guided", 1),
        ],
    )
    def test_dynamic_guided_tracks_des(self, n, iter_work, schedule, chunk):
        machine = SKYLAKE
        region = LoopRegion(
            "l", n_iters=n, iter_work=iter_work,
            fixed_schedule=schedule, fixed_chunk=chunk,
        )
        analytic = price(region, machine=machine)

        costs = iter_costs(region, machine)
        icvs = resolve_icvs(EnvConfig(), machine)
        # The grab cost includes the shared counter's line bouncing (the
        # analytic model's (1 + 0.02 T) factor); the DES lock serializes
        # whatever per-grab holding time it is given.
        dispatch = (
            machine.costs.dispatch_ns * 1e-9
            * (1.0 + 0.02 * icvs.nthreads)
        )
        des = simulate_loop(
            costs, icvs.nthreads, schedule=schedule, chunk=chunk,
            dispatch_time=dispatch,
        )
        # Subtract the analytic join cost (the DES has no barrier).
        from repro.runtime.barrier import join_seconds

        placement = compute_placement(icvs, machine)
        body = analytic - join_seconds(icvs, placement,
                                       machine.costs)
        assert body == pytest.approx(des.makespan, rel=0.35), (
            f"analytic {body:.2e} vs DES {des.makespan:.2e}"
        )

    @pytest.mark.parametrize("imbalance", [0.3, 0.8])
    def test_random_pattern_static_tracks_des(self, imbalance):
        machine = SKYLAKE
        region = LoopRegion(
            "l", n_iters=20_000, iter_work=1e-6,
            pattern=LoadPattern.RANDOM, imbalance=imbalance,
        )
        analytic = price(region, machine=machine)
        makespans = []
        for seed in range(8):
            costs = iter_costs(region, machine, seed=seed)
            res = simulate_loop(costs, 40, schedule="static")
            makespans.append(res.makespan)
        des = float(np.mean(makespans))
        from repro.runtime.barrier import join_seconds

        icvs = resolve_icvs(EnvConfig(), machine)
        placement = compute_placement(icvs, machine)
        body = analytic - join_seconds(icvs, placement,
                                       machine.costs)
        assert body == pytest.approx(des, rel=0.15)

    def test_schedule_preference_agrees_between_models(self):
        """Both models must agree on WHICH schedule wins per regime."""
        machine = SKYLAKE
        regimes = {
            # (pattern, imbalance, n, iter_work) -> coarse+imbalanced
            "imbalanced": (LoadPattern.RANDOM, 1.0, 4_000, 2e-5),
            # fine-grained uniform: static wins, dynamic,1 catastrophic
            "fine": (LoadPattern.UNIFORM, 0.0, 200_000, 5e-8),
        }
        for name, (pattern, imb, n, iw) in regimes.items():
            analytic_times = {}
            des_times = {}
            for schedule in ("static", "dynamic", "guided"):
                region = LoopRegion(
                    "l", n_iters=n, iter_work=iw, pattern=pattern,
                    imbalance=imb, fixed_schedule=None,
                )
                analytic_times[schedule] = price(
                    region, machine=machine, schedule=schedule
                )
                costs = iter_costs(region, machine, seed=1)
                dispatch = (
                    machine.costs.dispatch_ns * 1e-9 * 1.8
                )
                des_times[schedule] = simulate_loop(
                    costs, 40, schedule=schedule, chunk=1,
                    dispatch_time=dispatch,
                ).makespan
            analytic_best = min(analytic_times, key=analytic_times.get)
            des_best = min(des_times, key=des_times.get)
            analytic_worst = max(analytic_times, key=analytic_times.get)
            des_worst = max(des_times, key=des_times.get)
            assert analytic_worst == des_worst, (name, analytic_times,
                                                 des_times)
            # Best can tie between static/guided; require agreement on the
            # static-vs-dynamic direction instead of exact identity.
            assert (analytic_times["dynamic"] > analytic_times["static"]) == (
                des_times["dynamic"] > des_times["static"]
            ), name
            del analytic_best, des_best


class TestTaskModelRegimes:
    """Analytic task model vs the work-stealing DES across granularities."""

    @pytest.mark.parametrize(
        "depth,branching,leaf_work,rel_tol",
        [
            (4, 4, 1e-4, 0.25),   # coarse tasks: throughput bound
            (6, 3, 1e-5, 0.35),   # medium
            (8, 2, 2e-6, 0.50),   # fine: overhead-dominated, roughest
        ],
    )
    def test_makespan_tracks_des(self, depth, branching, leaf_work, rel_tol):
        machine = MILAN
        region = TaskRegion("t", depth=depth, branching=branching,
                            leaf_work=leaf_work, node_work=leaf_work / 10)
        icvs = resolve_icvs(EnvConfig(library="turnaround"), machine)
        engine = RegionEngine(machine, icvs)
        analytic = engine._task_analytic(region)
        des = engine._task_des(region, seed=3)
        assert analytic == pytest.approx(des, rel=rel_tol)

    def test_speedup_scaling_direction(self):
        """Adding workers helps in both models, saturating near the
        tree's parallelism."""
        machine = MILAN
        region = TaskRegion("t", depth=7, branching=2, leaf_work=2e-5)
        times_analytic = []
        times_des = []
        for threads in (4, 16, 64):
            icvs = resolve_icvs(
                EnvConfig(num_threads=threads, library="turnaround"), machine
            )
            engine = RegionEngine(machine, icvs)
            times_analytic.append(engine._task_analytic(region))
            times_des.append(engine._task_des(region, seed=1))
        assert times_analytic == sorted(times_analytic, reverse=True)
        assert times_des == sorted(times_des, reverse=True)
