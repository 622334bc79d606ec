"""Class plans and the component memo: one grouping and one executor per
class per thread count, memoized region terms, records bit-identical to
evaluating every class with a fresh, unmemoized executor."""

import random

import pytest

import repro.core.sweep as sweep_mod
import repro.runtime.kernel as kernel_mod
from repro.arch.machines import get_machine
from repro.core.envspace import EnvSpace
from repro.core.sweep import (
    SweepPlan,
    SweepRecord,
    equivalence_groups,
    plan_batches,
    run_sweep,
)
from repro.errors import SimulationError
from repro.runtime.costs import get_costs
from repro.runtime.executor import RuntimeExecutor, measurement_noise
from repro.runtime.kernel import ComponentMemo, RegionEngine
from repro.runtime.icv import EnvConfig, resolve_icvs
from repro.workloads.base import get_workload


class _NeverHits(dict):
    """A memo table that forgets everything: every lookup misses."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def _unmemoized_memo(machine):
    return ComponentMemo(
        machine, get_costs(machine.name),
        loop_body=_NeverHits(), sync=_NeverHits(), task_body=_NeverHits(),
    )


def _reference_records(plan):
    """The sweep's records as the per-batch path computed them: group the
    batch's grid, then evaluate each class with a fresh executor that
    resolves its own ICVs and memoizes nothing."""
    machine = get_machine(plan.arch)
    configs = EnvSpace().grid(machine, plan.scale, seed=plan.seed)
    out = []
    for batch in plan_batches(plan):
        program = get_workload(batch.app).program(batch.input_size)
        cfgs = [c.with_threads(batch.nthreads) for c in configs]
        true_of = {}
        for members in equivalence_groups(cfgs, machine).values():
            executor = RuntimeExecutor(
                machine, cfgs[members[0]], fidelity=plan.fidelity,
                memo=_unmemoized_memo(machine),
            )
            true = executor.execute(program, seed=plan.seed)
            true_of.update((i, true) for i in members)
        order = sorted(true_of)
        observed = measurement_noise(
            machine, program, [cfgs[i] for i in order],
            [true_of[i] for i in order], range(plan.repetitions),
            seed=plan.seed,
        )
        out.extend(
            SweepRecord(plan.arch, batch.app, batch.suite, batch.input_size,
                        batch.nthreads, cfgs[i], runtimes)
            for i, runtimes in zip(order, observed)
        )
    return out


@pytest.fixture
def counted_terms(monkeypatch):
    """Count every evaluation of the memoized terms in this process."""
    counts = {"loop_body": 0, "task_body": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(kernel_mod, "loop_body_seconds", counting(
        "loop_body", kernel_mod.loop_body_seconds))
    monkeypatch.setattr(kernel_mod, "task_body_seconds", counting(
        "task_body", kernel_mod.task_body_seconds))
    return counts


class TestClassPlans:
    def test_one_grouping_and_executor_set_per_thread_count(
        self, monkeypatch
    ):
        plan = SweepPlan(arch="milan", workload_names=("cg", "lulesh"),
                         scale="small", repetitions=2)
        groupings, inits = [], []
        real_groups = sweep_mod.equivalence_groups
        real_init = RuntimeExecutor.__init__
        monkeypatch.setattr(
            sweep_mod, "equivalence_groups",
            lambda *a, **k: groupings.append(1) or real_groups(*a, **k),
        )
        monkeypatch.setattr(
            RuntimeExecutor, "__init__",
            lambda self, *a, **k: inits.append(1) or real_init(self, *a, **k),
        )
        result = run_sweep(plan)
        thread_counts = {b.nthreads for b in plan_batches(plan)}
        assert len(plan_batches(plan)) > len(thread_counts) > 1
        assert len(groupings) == len(thread_counts)
        per_thread = result.n_simulated_configs // result.n_computed_batches
        assert len(inits) == per_thread * len(thread_counts)

    def test_mixed_thread_counts_match_fresh_executors(self):
        plan = SweepPlan(arch="milan",
                         workload_names=("cg", "nqueens", "xsbench"),
                         scale="small", repetitions=2, seed=7)
        assert len({b.nthreads for b in plan_batches(plan)}) > 1
        assert run_sweep(plan).records == _reference_records(plan)

    def test_des_sweep_matches_the_unmemoized_path(self, counted_terms):
        # DES task bodies draw from a per-phase seed, so they bypass the
        # task-body memo entirely.
        plan = SweepPlan(arch="a64fx", workload_names=("sort",),
                         scale="small", repetitions=1, inputs_limit=2,
                         fidelity="des")
        assert run_sweep(plan).records == _reference_records(plan)
        assert counted_terms["task_body"] == 0

    def test_unpruned_sweep_matches(self):
        plan = SweepPlan(arch="skylake", workload_names=("xsbench",),
                         scale="small", repetitions=2, inputs_limit=2,
                         prune=False)
        result = run_sweep(plan)
        assert result.n_pruned_configs == 0
        assert result.records == _reference_records(plan)

    def test_no_memo_outlives_its_sweep(self, counted_terms):
        plan = SweepPlan(arch="milan", workload_names=("cg", "nqueens"),
                         scale="small", repetitions=1, inputs_limit=3)
        first = run_sweep(plan).records
        counts = dict(counted_terms)
        assert counts["loop_body"] > 0 and counts["task_body"] > 0
        assert run_sweep(plan).records == first
        assert counted_terms == {k: 2 * v for k, v in counts.items()}


class TestComponentMemo:
    def test_shared_memo_serves_one_machine_and_cost_table(self):
        milan, skylake = get_machine("milan"), get_machine("skylake")
        memo = ComponentMemo(milan, get_costs("milan"))
        icvs = resolve_icvs(EnvConfig(), skylake)
        with pytest.raises(SimulationError):
            RegionEngine(skylake, icvs, get_costs("skylake"), memo=memo)

    def test_equal_signature_slots_share_entries(self):
        # Two spellings that resolve alike hit one another's entries.
        machine = get_machine("milan")
        memo = ComponentMemo(machine, get_costs("milan"))
        program = get_workload("cg").program("A")
        for config in (EnvConfig(proc_bind="true"),
                       EnvConfig(proc_bind="spread")):
            RuntimeExecutor(machine, config, memo=memo).execute(program)
        sizes = (len(memo.loop_body), len(memo.sync))
        fresh = ComponentMemo(machine, get_costs("milan"))
        RuntimeExecutor(machine, EnvConfig(proc_bind="spread"),
                        memo=fresh).execute(program)
        assert sizes == (len(fresh.loop_body), len(fresh.sync))
        assert sizes[0] > 0

    @pytest.mark.parametrize("arch", ["milan", "skylake", "a64fx"])
    def test_shared_memo_equals_fresh_engines_over_every_slot(self, arch):
        # One memo serves configurations differing in every signature
        # slot — chunked schedules, reductions, blocktimes, alignments,
        # bindings — and each executor still prices every program exactly
        # as an unmemoized one does.
        machine = get_machine(arch)
        memo = ComponentMemo(machine, get_costs(arch))
        rng = random.Random(arch)
        programs = [get_workload(app).program(size)
                    for app, size in (("cg", "A"), ("xsbench", "default"),
                                      ("nqueens", "small"), ("health", "small"))]
        for _ in range(60):
            config = EnvConfig(
                num_threads=rng.choice([None, 1, 3, machine.n_cores // 2]),
                places=rng.choice(["unset", "cores", "sockets",
                                   "ll_caches"]),
                proc_bind=rng.choice(["unset", "false", "master", "close",
                                      "spread", "true"]),
                schedule=rng.choice(["unset", "static", "static,8",
                                     "dynamic", "dynamic,4", "dynamic,64",
                                     "guided", "guided,16", "auto"]),
                library=rng.choice(["unset", "throughput", "turnaround"]),
                blocktime=rng.choice(["unset", "0", "200", "infinite"]),
                force_reduction=rng.choice(["unset", "tree", "critical",
                                            "atomic"]),
                align_alloc=rng.choice([None, 256, 512]),
            )
            shared = RuntimeExecutor(machine, config, memo=memo)
            fresh = RuntimeExecutor(machine, config,
                                    memo=_unmemoized_memo(machine))
            for program in programs:
                assert shared.execute(program) == fresh.execute(program), (
                    config, program.name)
