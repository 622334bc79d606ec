"""Tests for chunked schedules, the wait-policy space, per-kernel tuning
and the thread-count recommender."""

import numpy as np
import pytest

from repro.arch.machines import MILAN, SKYLAKE
from repro.core.envspace import (
    EnvSpace,
    chunked_schedule_variables,
    wait_policy_variables,
)
from repro.core.perkernel import per_kernel_tune
from repro.core.threads import recommend_threads
from repro.errors import ConfigError, InvalidEnvValue, WorkloadError
from repro.runtime.executor import execute
from repro.runtime.icv import EnvConfig, ScheduleKind, resolve_icvs
from repro.runtime.program import LoadPattern, Program, SerialPhase
from repro.workloads.base import get_workload
from repro.workloads.generator import (
    synthetic_loop_workload,
    synthetic_task_workload,
)


class TestChunkedSchedules:
    def test_parse_kind_and_chunk(self):
        icvs = resolve_icvs(EnvConfig(schedule="dynamic,64"), MILAN)
        assert icvs.schedule is ScheduleKind.DYNAMIC
        assert icvs.schedule_chunk == 64

    def test_plain_kind_has_no_chunk(self):
        icvs = resolve_icvs(EnvConfig(schedule="guided"), MILAN)
        assert icvs.schedule_chunk is None

    @pytest.mark.parametrize("bad", ["dynamic,0", "dynamic,-1", "dynamic,x",
                                     "fast,2", ",4", "dynamic,1,2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidEnvValue):
            EnvConfig(schedule=bad).validate()

    def test_chunking_rescues_fine_grained_dynamic(self):
        prog = synthetic_loop_workload(n_iters=400_000, iter_work=2e-8,
                                       trips=2)
        plain = execute(prog, MILAN, EnvConfig(schedule="dynamic"))
        chunked = execute(prog, MILAN, EnvConfig(schedule="dynamic,512"))
        assert chunked < plain / 5

    def test_static_chunk_balances_ramp_without_dispatch(self):
        ramp = synthetic_loop_workload(
            n_iters=8000, iter_work=1e-6, trips=2,
            pattern=LoadPattern.LINEAR, imbalance=1.0,
        )
        contiguous = execute(ramp, SKYLAKE, EnvConfig(schedule="static"))
        round_robin = execute(ramp, SKYLAKE, EnvConfig(schedule="static,8"))
        assert round_robin < contiguous

    def test_static_chunk_never_worse_than_contiguous(self):
        for pattern, imb in ((LoadPattern.UNIFORM, 0.0),
                             (LoadPattern.LINEAR, 1.0),
                             (LoadPattern.RANDOM, 0.8)):
            prog = synthetic_loop_workload(
                n_iters=5000, iter_work=1e-6, pattern=pattern,
                imbalance=imb, trips=1,
            )
            contiguous = execute(prog, MILAN, EnvConfig(schedule="static"))
            chunked = execute(prog, MILAN, EnvConfig(schedule="static,4"))
            assert chunked <= contiguous * 1.0001, pattern

    def test_chunked_space_valid(self):
        space = EnvSpace(chunked_schedule_variables())
        for config in space.ofat_grid(MILAN):
            config.validate()
            resolve_icvs(config.with_threads(8), MILAN)

    def test_guided_min_chunk_reduces_dispatches(self):
        from repro.arch.machines import MILAN as M
        from repro.runtime.affinity import compute_placement
        from repro.runtime.program import LoopRegion
        from repro.runtime.schedule import price_loop_schedule

        region = LoopRegion("l", n_iters=100_000, iter_work=1e-7)

        def chunks(schedule):
            icvs = resolve_icvs(EnvConfig(schedule=schedule), M)
            placement = compute_placement(icvs, M)
            speeds = placement.effective_speed()
            return price_loop_schedule(
                region, icvs, M, M.costs,
                float(speeds.sum()), float(1 / speeds.min()),
            ).n_chunks

        assert chunks("guided,512") < chunks("guided")


class TestWaitPolicySpace:
    def test_space_shrinks(self):
        full = EnvSpace()
        wp = EnvSpace(wait_policy_variables())
        assert wp.size(MILAN) == full.size(MILAN) // 2
        names = [v.env_name for v in wp.variables]
        assert "OMP_WAIT_POLICY" in names
        assert "KMP_LIBRARY" not in names and "KMP_BLOCKTIME" not in names

    def test_wait_policy_active_equals_turnaround_for_tasks(self):
        """Sec. V-3: tuning OMP_WAIT_POLICY alone captures the wait-policy
        gain the two KMP_* variables expose."""
        prog = get_workload("nqueens").program("large")
        via_kmp = execute(prog, MILAN, EnvConfig(library="turnaround"))
        via_policy = execute(prog, MILAN, EnvConfig(blocktime="infinite"))
        assert via_policy == pytest.approx(via_kmp, rel=1e-9)

    def test_tuning_wait_policy_space_matches_full_for_task_app(self):
        from repro.core.pruning import hill_climb

        prog = get_workload("nqueens").program("medium")
        full = hill_climb(prog, MILAN, EnvSpace(), restarts=0, seed=1)
        wp = hill_climb(prog, MILAN, EnvSpace(wait_policy_variables()),
                        restarts=0, seed=1)
        assert wp.evaluations < full.evaluations
        assert wp.best_runtime <= full.best_runtime * 1.05


class TestPerKernelTuning:
    @pytest.fixture(scope="class")
    def mixed_program(self):
        loop = synthetic_loop_workload(
            n_iters=3000, iter_work=1e-6, pattern=LoadPattern.LINEAR,
            imbalance=1.2, trips=5, n_regions=1,
        )
        task = synthetic_task_workload(depth=6, branching=3, leaf_work=1e-6)
        return Program("mixed", loop.phases + task.phases[1:])

    def test_per_kernel_at_least_whole_app(self, mixed_program):
        res = per_kernel_tune(mixed_program, MILAN, restarts=0)
        assert res.per_kernel_speedup >= res.whole_app_speedup - 1e-9
        assert res.per_kernel_gain >= 1.0 - 1e-9
        assert res.whole_app_speedup > 1.2

    def test_region_reports(self, mixed_program):
        res = per_kernel_tune(mixed_program, MILAN, restarts=0)
        assert {r.region for r in res.regions} == {"region0", "tree"}
        for r in res.regions:
            assert r.speedup >= 1.0 - 1e-9

    def test_serial_only_program_rejected(self):
        prog = Program("serial", (SerialPhase(work=1.0),))
        with pytest.raises(WorkloadError):
            per_kernel_tune(prog, MILAN)

    def test_deterministic(self, mixed_program):
        a = per_kernel_tune(mixed_program, MILAN, restarts=0, seed=3)
        b = per_kernel_tune(mixed_program, MILAN, restarts=0, seed=3)
        assert a == b


class TestThreadRecommender:
    def test_bandwidth_bound_app_wants_fewer_threads(self):
        rec = recommend_threads(
            get_workload("su3bench").program("default"), MILAN
        )
        assert rec.best_threads < MILAN.n_cores
        assert rec.speedup_over_full_machine > 1.5
        assert "bandwidth" in rec.reason
        assert rec.bandwidth_saturation_threads is not None

    def test_compute_bound_app_wants_full_machine(self):
        rec = recommend_threads(get_workload("ep").program("A"), MILAN)
        assert rec.best_threads == MILAN.n_cores
        assert "compute" in rec.reason

    def test_curve_is_complete(self):
        rec = recommend_threads(get_workload("ep").program("S"), SKYLAKE)
        threads = [t for t, _ in rec.curve]
        assert threads == sorted(threads)
        assert threads[-1] == SKYLAKE.n_cores

    def test_custom_candidates(self):
        rec = recommend_threads(
            get_workload("ep").program("S"), MILAN, candidates=(8, 16)
        )
        assert rec.best_threads in (8, 16)

    def test_invalid_candidates(self):
        with pytest.raises(ConfigError):
            recommend_threads(get_workload("ep").program("S"), MILAN,
                              candidates=(0,))
