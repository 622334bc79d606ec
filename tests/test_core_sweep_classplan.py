"""Class plans and the component memo: one grouping and one executor per
class per thread count, memoized region terms, noise drawn once per
observation by the sweep's own process, a window of batches at a time,
records bit-identical to evaluating every class with a fresh, unmemoized
executor and drawing each batch's noise alone."""

import math
import multiprocessing
import os
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
        machine,
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


def _block_bytes(result):
    return [block.to_bytes() for block in result.blocks]


class TestNoiseWindow:
    PLAN = SweepPlan(arch="milan", scale="small", repetitions=3, seed=3)

    @pytest.fixture(scope="class")
    def one_batch_windows(self):
        """The serial sweep with every batch's noise drawn alone."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_mod, "NOISE_WINDOW_DRAWS", 1)
            result = run_sweep(self.PLAN)
        assert result.records == _reference_records(self.PLAN)
        return _block_bytes(result)

    @pytest.mark.parametrize("backend", ["serial", "pool", "nodes"])
    @pytest.mark.parametrize("window", [1, None])
    def test_blocks_are_byte_equal_under_any_window(
        self, monkeypatch, one_batch_windows, backend, window
    ):
        # The sweep's own process draws, so the patched window holds on
        # every backend under any start method.
        if window is not None:
            monkeypatch.setattr(sweep_mod, "NOISE_WINDOW_DRAWS", window)
        result = run_sweep(self.PLAN, backend=backend,
                           n_processes=1 if backend == "serial" else 2)
        assert _block_bytes(result) == one_batch_windows

    @pytest.fixture
    def window_sizes(self, monkeypatch):
        """The draws of every noise window this process makes."""
        sizes = []
        real = sweep_mod.measurement_noise_factors

        def counting(machine, draws, run_indices):
            sizes.append(sum(len(s) for _, s in draws) * len(run_indices))
            return real(machine, draws, run_indices)

        monkeypatch.setattr(sweep_mod, "measurement_noise_factors",
                            counting)
        return sizes

    def test_windows_hold_at_most_the_bound(self, window_sizes):
        result = run_sweep(self.PLAN)
        per_batch = len(result.blocks[0]) * self.PLAN.repetitions
        per_window = sweep_mod.NOISE_WINDOW_DRAWS // per_batch
        n_batches = len(plan_batches(self.PLAN))
        assert 1 < per_window < n_batches
        # The misses are drawn once, in order, before dispatch.
        assert len(window_sizes) == math.ceil(n_batches / per_window)
        assert max(window_sizes) <= sweep_mod.NOISE_WINDOW_DRAWS
        assert sum(window_sizes) == n_batches * per_batch

    def test_a_partly_cached_sweep_draws_only_its_misses(
        self, tmp_path, window_sizes
    ):
        # The first input of every workload is cached, so the misses are
        # scattered over the plan; windows run over the misses alone.
        subset = SweepPlan(arch="milan", scale="small", repetitions=3,
                           seed=3, inputs_limit=1)
        run_sweep(subset, cache=tmp_path)
        window_sizes.clear()
        result = run_sweep(self.PLAN, cache=tmp_path)
        assert result.n_cached_batches == len(plan_batches(subset))
        per_batch = len(result.blocks[0]) * self.PLAN.repetitions
        per_window = sweep_mod.NOISE_WINDOW_DRAWS // per_batch
        n_misses = result.n_computed_batches
        assert sum(window_sizes) == n_misses * per_batch
        assert len(window_sizes) == math.ceil(n_misses / per_window)
        assert _block_bytes(result) == _block_bytes(run_sweep(self.PLAN))

    @pytest.mark.parametrize("backend", ["serial", "pool", "nodes"])
    def test_one_draw_per_observation_in_the_sweeps_process(
        self, tmp_path, monkeypatch, backend
    ):
        # Forked fleet processes inherit the wrapper, so a draw made in
        # any of them lands in the log with its own pid.
        if backend != "serial" and \
                multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked fleet processes inherit the wrapper")
        log = tmp_path / "draws.log"
        real = sweep_mod.measurement_noise_factors

        def logging(machine, draws, run_indices):
            drift, jitter = real(machine, draws, run_indices)
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {len(drift)}\n")
            return drift, jitter

        monkeypatch.setattr(sweep_mod, "measurement_noise_factors",
                            logging)
        total = 0
        for arch in ("milan", "skylake", "a64fx"):
            result = run_sweep(SweepPlan(arch=arch, scale="small", seed=0),
                               backend=backend,
                               n_processes=1 if backend == "serial" else 2)
            assert result.backend == backend
            total += result.n_measurements
        calls = [tuple(map(int, line.split()))
                 for line in log.read_text().splitlines()]
        assert {pid for pid, _ in calls} == {os.getpid()}
        assert sum(n for _, n in calls) == total


class TestComponentMemo:
    def test_shared_memo_serves_one_machine_and_cost_table(self):
        milan, skylake = get_machine("milan"), get_machine("skylake")
        memo = ComponentMemo(milan)
        icvs = resolve_icvs(EnvConfig(), skylake)
        with pytest.raises(SimulationError):
            RegionEngine(skylake, icvs, memo=memo)

    def test_equal_signature_slots_share_entries(self):
        # Two spellings that resolve alike hit one another's entries.
        machine = get_machine("milan")
        memo = ComponentMemo(machine)
        program = get_workload("cg").program("A")
        for config in (EnvConfig(proc_bind="true"),
                       EnvConfig(proc_bind="spread")):
            RuntimeExecutor(machine, config, memo=memo).execute(program)
        sizes = (len(memo.loop_body), len(memo.sync))
        fresh = ComponentMemo(machine)
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
        memo = ComponentMemo(machine)
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
