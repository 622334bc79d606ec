"""Tests for region pricing and whole-program execution — including the
analytic-vs-DES task model cross-validation."""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.machines import A64FX, MILAN, SKYLAKE
from repro.core.envspace import EnvSpace
from repro.core.sweep import SweepPlan, equivalence_groups, plan_batches
from repro.errors import SimulationError
from repro.runtime.costs import work_seconds
from repro.runtime.executor import (
    ClassPricer,
    RuntimeExecutor,
    execute,
    observe,
)
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.runtime.kernel import (
    RegionEngine,
    max_leaf_factor,
    task_acquire_seconds,
    wait_arguments,
)
from repro.runtime.program import (
    LoadPattern,
    LoopRegion,
    Program,
    SerialPhase,
    TaskRegion,
)
from repro.workloads.base import get_workload
from repro.workloads.generator import synthetic_task_workload


SRC = Path(__file__).resolve().parents[1] / "src"


def engine(machine=MILAN, **env):
    icvs = resolve_icvs(EnvConfig(**env), machine)
    return RegionEngine(machine, icvs)


def acquire(**env):
    return task_acquire_seconds(
        *wait_arguments(resolve_icvs(EnvConfig(**env), MILAN)), MILAN.costs
    )


class TestTaskAcquire:
    def test_active_cheapest(self):
        active = acquire(library="turnaround")
        passive = acquire()
        blocktime0 = acquire(blocktime="0")
        assert active < passive < blocktime0

    def test_infinite_blocktime_counts_as_active(self):
        inf = acquire(blocktime="infinite")
        active = acquire(library="turnaround")
        assert inf == active


class TestMaxLeafFactor:
    @pytest.mark.parametrize("sigma,n", [
        (0.1, 2), (0.35, 64), (0.5, 1000), (1.2, 7), (0.8, 4096),
    ])
    def test_memo_equals_direct_scipy(self, sigma, n):
        from scipy.stats import norm

        z = float(norm.ppf(1.0 - 1.0 / n))
        direct = math.exp(sigma * z) / math.exp(0.5 * sigma * sigma)
        assert max_leaf_factor(sigma, n) == direct
        assert max_leaf_factor(sigma, n) == direct  # memo hit

    def test_degenerate_inputs_and_bounded_memo(self):
        assert max_leaf_factor(0.0, 100) == 1.0
        assert max_leaf_factor(0.5, 1) == 1.0
        maxsize = max_leaf_factor.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    def test_ndtri_factor_pins_norm_ppf_bit_for_bit(self):
        # The factor's quantile comes from scipy.special.ndtri; it must
        # equal the norm.ppf form over a spread of leaf counts and
        # dispersions, from the smallest tree to far past any workload.
        from scipy.stats import norm

        ns = sorted({2, 3, 5, 7, 64, 1000, 4096, 199_999, 200_000}
                    | set(np.geomspace(2, 200_000, 60).astype(int).tolist()))
        for sigma in (0.05, 0.1, 0.35, 0.5, 0.8, 1.2, 2.0):
            for n in ns:
                z = float(norm.ppf(1.0 - 1.0 / n))
                expected = math.exp(sigma * z) / math.exp(0.5 * sigma * sigma)
                assert max_leaf_factor.__wrapped__(sigma, n) == expected, (
                    sigma, n)


class TestLoopRegionPricing:
    def test_more_threads_faster_when_parallel(self):
        region = LoopRegion("l", n_iters=100_000, iter_work=1e-6)
        t4 = engine(num_threads=4).loop_region_seconds(region)
        t32 = engine(num_threads=32).loop_region_seconds(region)
        assert t4 > 2 * t32

    def test_reduction_heavy_region_slower(self):
        base = LoopRegion("l", n_iters=1000, iter_work=1e-7)
        red = LoopRegion("l", n_iters=1000, iter_work=1e-7, n_reductions=4)
        e = engine()
        assert e.loop_region_seconds(red) > e.loop_region_seconds(base)

    def test_mem_intensity_exposes_bandwidth(self):
        cpu = LoopRegion("l", n_iters=100_000, iter_work=1e-6,
                         mem_intensity=0.0, bw_per_thread_gbps=4.5)
        mem = LoopRegion("l", n_iters=100_000, iter_work=1e-6,
                         mem_intensity=0.9, bw_per_thread_gbps=4.5)
        e = engine()  # unbound milan team: saturated
        assert e.loop_region_seconds(mem) > 1.5 * e.loop_region_seconds(cpu)

    def test_alignment_discount_applies_to_sync(self):
        region = LoopRegion("l", n_iters=1000, iter_work=1e-7, n_reductions=2)
        base = engine().loop_region_seconds(region)
        padded = engine(align_alloc=512).loop_region_seconds(region)
        assert padded < base


class TestTaskModelValidation:
    """The analytic work-stealing estimate must track the DES."""

    @pytest.mark.parametrize("env", [
        {},  # default: passive
        {"library": "turnaround"},  # active
        {"num_threads": 8},
        {"num_threads": 48, "library": "turnaround"},
    ])
    def test_analytic_within_factor_of_des(self, env):
        region = TaskRegion("t", depth=6, branching=3, leaf_work=2e-5,
                            node_work=2e-6, leaf_sigma=0.3)
        e = engine(**env)
        analytic = e.task_region_seconds(region, fidelity="analytic")
        des = e.task_region_seconds(region, fidelity="des", seed=1)
        assert analytic == pytest.approx(des, rel=0.45)

    def test_both_modes_agree_on_policy_ordering(self):
        # Whatever the absolute numbers, turnaround must beat default in
        # both fidelity modes for fine-grained tasking.
        region = TaskRegion("t", depth=7, branching=3, leaf_work=8e-7,
                            node_work=2e-7)
        for fidelity in ("analytic", "des"):
            slow = engine().task_region_seconds(region, fidelity=fidelity)
            fast = engine(library="turnaround").task_region_seconds(
                region, fidelity=fidelity
            )
            assert fast < slow, fidelity

    def test_analytic_respects_critical_path(self):
        region = TaskRegion("t", depth=12, branching=1, leaf_work=1e-4,
                            node_work=1e-4)  # a chain: no parallelism
        e = engine(library="turnaround")
        t = e.task_region_seconds(region)
        assert t >= work_seconds(region.critical_path_work, MILAN)

    def test_unknown_fidelity_rejected(self):
        region = TaskRegion("t", depth=2, branching=2, leaf_work=1e-6)
        with pytest.raises(SimulationError):
            engine().task_region_seconds(region, fidelity="quantum")


class TestProgramStructures:
    def test_task_counts(self):
        r = TaskRegion("t", depth=3, branching=2, leaf_work=1.0)
        assert r.n_leaves == 8
        assert r.n_tasks == 15
        assert r.total_work == pytest.approx(8.0)
        assert r.critical_path_work == pytest.approx(1.0)

    def test_branching_one_chain(self):
        r = TaskRegion("t", depth=5, branching=1, leaf_work=1.0, node_work=0.5)
        assert r.n_tasks == 6
        assert r.critical_path_work == pytest.approx(3.5)

    def test_program_total_work(self):
        prog = Program(
            "p",
            (
                SerialPhase(work=1.0),
                LoopRegion("l", n_iters=10, iter_work=0.1, trips=2,
                           gap_work=0.5),
            ),
        )
        assert prog.total_work == pytest.approx(1.0 + 2 * (1.0 + 0.5))
        assert not prog.uses_tasks
        assert len(prog.parallel_regions) == 1

    def test_empty_program_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            Program("p", ())


#: Regions as constructor expressions, so a fresh interpreter builds the
#: same values.  The names are strings: their hashes are salted.
REGION_EXPRS = (
    "LoopRegion('k.loop', n_iters=4096, iter_work=2e-6, mem_intensity=0.4,"
    " n_reductions=1, trips=3, gap_work=1e-5)",
    "TaskRegion('k.tasks', depth=6, branching=2, leaf_work=1e-6,"
    " node_work=2e-7, trips=2)",
)


def price(eng, region):
    if isinstance(region, LoopRegion):
        return eng.loop_region_seconds(region), eng._loop_body
    return eng.task_region_seconds(region), eng._task_body


def build_region(expr):
    return eval(expr, {"LoopRegion": LoopRegion, "TaskRegion": TaskRegion})


class TestRegionHash:
    """Regions key the region engine's memo and machines the placement
    cache; each hashes its fields once and keeps the value out of
    pickles."""

    @pytest.mark.parametrize("expr", REGION_EXPRS)
    def test_equal_regions_built_separately_share_one_entry(self, expr):
        a, b = build_region(expr), build_region(expr)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        eng = engine()
        seconds, table = price(eng, a)
        assert price(eng, b) == (seconds, table)
        assert len(table) == 1
        # One field apart is another entry.
        price(eng, dataclasses.replace(b, trips=b.trips + 1))
        assert len(table) == 2

    @pytest.mark.parametrize("value", [
        *(build_region(expr) for expr in REGION_EXPRS),
        MILAN,
        dataclasses.replace(A64FX, name="a64fx-copy"),
    ], ids=["loop", "task", "milan", "a64fx-copy"])
    def test_kept_hash_is_the_generated_one_and_never_pickled(self, value):
        generated = hash(tuple(getattr(value, f.name)
                               for f in dataclasses.fields(value)
                               if f.compare))
        assert hash(value) == generated
        assert vars(value)["_hash"] == generated
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert "_hash" not in vars(clone)
            assert clone == value and hash(clone) == generated

    @pytest.mark.parametrize("expr", REGION_EXPRS)
    def test_region_pickled_under_another_hash_seed_hits_its_entry(
        self, expr
    ):
        # The region is hashed before it is pickled, so a kept hash would
        # travel with it and miss the entry under this process's salt.
        snippet = (
            "import pickle\n"
            "from repro.runtime.program import LoopRegion, TaskRegion\n"
            f"region = {expr}\n"
            "print(hash(region))\n"
            "print(pickle.dumps(region).hex())\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True, env=env, timeout=120,
        ).stdout.split()
        remote_hash = int(out[0])
        travelled = pickle.loads(bytes.fromhex(out[1]))
        local = build_region(expr)
        assert remote_hash != hash(local)  # the salts differ
        assert travelled == local and hash(travelled) == hash(local)
        eng = engine()
        seconds, table = price(eng, local)
        assert price(eng, travelled) == (seconds, table)
        assert len(table) == 1


class TestExecutor:
    def test_execute_deterministic(self):
        prog = synthetic_task_workload()
        a = execute(prog, MILAN, EnvConfig())
        b = execute(prog, MILAN, EnvConfig())
        assert a == b

    def test_phase_costs_sum_to_execute(self):
        prog = synthetic_task_workload()
        ex = RuntimeExecutor(MILAN, EnvConfig())
        costs = ex.phase_costs(prog)
        # One phase loop, summed in order: the sum is exact.
        assert sum(c.seconds for c in costs) == ex.execute(prog)
        assert [c.kind for c in costs] == ["serial", "task"]

    def test_phases_accumulate_left_to_right(self, monkeypatch):
        # Python 3.12's compensated builtin sum() gives 1 + 2**-52 here;
        # the model's runtime must not depend on the interpreter.
        prog = synthetic_task_workload()
        monkeypatch.setattr(RuntimeExecutor, "_phase_seconds",
                            lambda self, program, seed: [1.0, 1e-16, 1e-16])
        assert RuntimeExecutor(MILAN, EnvConfig()).execute(prog) == 1.0

    def test_class_pricer_accumulates_left_to_right(self, monkeypatch):
        prog = synthetic_task_workload()
        prog = dataclasses.replace(prog, phases=prog.phases[:1] * 3)
        seconds = [1.0, 1e-16, 1e-16]
        monkeypatch.setattr(
            ClassPricer, "_phase_seconds",
            lambda self, phase, i, seed: np.full(self.n_classes, seconds[i]),
        )
        pricer = ClassPricer(MILAN, [resolve_icvs(EnvConfig(), MILAN)] * 2)
        assert pricer.runtimes(prog).tolist() == [1.0, 1.0]

    def test_reused_executor_equals_fresh_ones(self):
        # An executor memoizes its gap and fork terms on the gap's work
        # alone; reusing it across programs must not change a float.
        plan = SweepPlan(arch="milan", scale="small", seed=0)
        programs = list({
            (b.app, b.input_size): get_workload(b.app).program(b.input_size)
            for b in plan_batches(plan)
        }.values())
        grid = EnvSpace().grid(MILAN, "small", seed=0)
        assert len(programs) > 1
        for nthreads in (24, 96):
            for config in grid:
                config = config.with_threads(nthreads)
                reused = RuntimeExecutor(MILAN, config)
                for program in programs:
                    assert reused.execute(program) == RuntimeExecutor(
                        MILAN, config).execute(program)
                    assert reused.phase_costs(program) == RuntimeExecutor(
                        MILAN, config).phase_costs(program)

    def test_observe_applies_arch_noise(self):
        prog = synthetic_task_workload()
        true = execute(prog, MILAN, EnvConfig())
        obs0 = observe(prog, MILAN, EnvConfig(), run_index=0)
        obs1 = observe(prog, MILAN, EnvConfig(), run_index=1)
        # Milan's first run is ~22% slower by drift.
        assert obs0 / true > 1.1
        assert obs0 > obs1

    def test_observe_deterministic_per_identity(self):
        prog = synthetic_task_workload()
        a = observe(prog, SKYLAKE, EnvConfig(), run_index=2)
        b = observe(prog, SKYLAKE, EnvConfig(), run_index=2)
        assert a == b

    def test_blocktime_zero_pays_wakes_on_forky_program(self):
        prog = Program(
            "forky",
            (
                SerialPhase(work=1e-4),
                LoopRegion("l", n_iters=5000, iter_work=1e-7, trips=400,
                           gap_work=1e-5),
            ),
        )
        default = execute(prog, A64FX, EnvConfig())
        bt0 = execute(prog, A64FX, EnvConfig(blocktime="0"))
        assert bt0 > default * 1.02

    def test_master_binding_catastrophe(self):
        prog = synthetic_task_workload(depth=7, branching=3)
        good = execute(prog, MILAN, EnvConfig())
        bad = execute(prog, MILAN, EnvConfig(proc_bind="master"))
        assert bad > 5 * good

    def test_bad_fidelity_rejected(self):
        with pytest.raises(SimulationError):
            RuntimeExecutor(MILAN, EnvConfig(), fidelity="wrong")

    def test_runtime_positive_for_all_machines(self):
        prog = synthetic_task_workload()
        for m in (A64FX, SKYLAKE, MILAN):
            assert execute(prog, m, EnvConfig()) > 0

    @pytest.mark.parametrize("machine", [MILAN, A64FX], ids=lambda m: m.name)
    def test_grouping_icvs_match_own_resolution(self, machine):
        # The sweep hands each class's ICVs from grouping to the class
        # pricer instead of resolving again; an executor resolving its
        # own must price every class alike.
        plan = SweepPlan(arch=machine.name, scale="small")
        configs = EnvSpace().grid(machine, plan.scale, seed=plan.seed)
        for batch in plan_batches(plan):
            program = get_workload(batch.app).program(batch.input_size)
            resolved = {}
            groups = equivalence_groups(configs, machine, batch.nthreads,
                                        representatives=resolved)
            assert resolved.keys() == groups.keys()
            priced = ClassPricer(machine, list(resolved.values())).runtimes(
                program).tolist()
            for (sig, members), runtime in zip(groups.items(), priced):
                config = configs[members[0]].with_threads(batch.nthreads)
                own = RuntimeExecutor(machine, config)
                assert resolved[sig] == own.icvs
                assert runtime == own.execute(program)
