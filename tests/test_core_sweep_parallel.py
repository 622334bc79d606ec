"""Regression tests for the streaming multiprocess sweep path.

The historical bug: ``run_sweep(n_processes > 1)`` used ``pool.map`` — a
full barrier — so the ``progress`` callback documented as incremental
fired only after the entire sweep had completed, and every batch payload
re-pickled the full configuration grid.  These tests pin the streaming
contract — results are consumed (and progress emitted) as each batch
lands, and workers receive only a lightweight :class:`BatchSpec` and its
noise factors — now through the supervised executor that replaced the
bare pool.
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

import repro.core.sweep as sweep_mod
from repro.arch.machines import get_machine
from repro.core.sweep import BatchSpec, SweepPlan, plan_batches, run_sweep
from repro.runtime.executor import (
    ClassPricer,
    measurement_noise_factors,
    noise_seed_suffixes,
)
from repro.workloads.base import get_workload


class _LazyFakeSupervisor:
    """In-process fleet stand-in whose ``stream`` computes lazily.

    Each task is computed only when the consumer asks for the next
    result, so the event log distinguishes streaming consumption
    (compute/progress interleaved) from a barrier (all computes, then
    all progress).
    """

    def __init__(self, plans, log):
        self.plans = plans
        self.log = log
        self.tasks = []
        self.worker_respawns = 0

    def stream(self, tasks, ledger=None):
        self.tasks = list(tasks)
        for task in self.tasks:
            batch = task.payload[1]
            self.log.append(("compute", batch.app, batch.input_size))
            yield sweep_mod._supervised_run_batch(self.plans, task.payload,
                                                  0)

    def completed_unyielded(self):
        return []

    def close(self):
        pass


@pytest.fixture
def two_batch_plan():
    return SweepPlan(arch="milan", workload_names=("cg",), scale="small",
                     repetitions=2, inputs_limit=4)


class TestStreamingProgress:
    def test_progress_interleaves_with_batch_arrival(self, monkeypatch,
                                                     two_batch_plan):
        log = []
        monkeypatch.setattr(
            sweep_mod, "_make_fleet",
            lambda backend, n, plans, chaos, policy, fail_policy:
            _LazyFakeSupervisor(plans, log),
        )

        def progress(done, total, app, inp, threads):
            log.append(("progress", done, total))

        result = run_sweep(two_batch_plan, n_processes=2, progress=progress)
        assert result.n_samples > 0

        kinds = [e[0] for e in log]
        n = len(plan_batches(two_batch_plan))
        assert n >= 2
        # Strict interleaving: compute_i is immediately followed by
        # progress_i.  Under a barrier dispatch the log would have been
        # n computes followed by n progress calls.
        assert kinds == ["compute", "progress"] * n
        dones = [e[1] for e in log if e[0] == "progress"]
        assert dones == list(range(1, n + 1))

    def test_worker_payload_is_batchspec_only(self, monkeypatch,
                                              two_batch_plan):
        """The grid must live in worker state, not in batch payloads;
        a payload carries only its batch and the batch's noise factors."""
        log = []
        supervisors = []

        def make_fleet(backend, n, plans, chaos, policy, fail_policy):
            assert (backend, n) == ("pool", 2)
            sup = _LazyFakeSupervisor(plans, log)
            supervisors.append(sup)
            return sup

        monkeypatch.setattr(sweep_mod, "_make_fleet", make_fleet)
        run_sweep(two_batch_plan, n_processes=2)
        (sup,) = supervisors
        batches = plan_batches(two_batch_plan)
        assert [t.payload[1] for t in sup.tasks] == batches
        assert all(type(t.payload[1]) is BatchSpec for t in sup.tasks)
        # Task ids are the contiguous stream order; indices address the
        # full batch list (here no cache, so they coincide).
        assert [t.task_id for t in sup.tasks] == list(range(len(batches)))
        assert [t.index for t in sup.tasks] == list(range(len(batches)))
        # The fleet got the sweep's grid once, with its class plans.
        configs = sup.plans.configs
        assert len(configs) > 1
        # The rest of a payload is its batch's slice of the serial draw.
        machine = get_machine(two_batch_plan.arch)
        reps = range(two_batch_plan.repetitions)
        for task, batch in zip(sup.tasks, batches):
            suffixes = noise_seed_suffixes(
                [c.with_threads(batch.nthreads) for c in configs],
                two_batch_plan.seed,
            )
            program = get_workload(batch.app).program(batch.input_size)
            expected = measurement_noise_factors(
                machine, [(program, suffixes)], reps
            )
            assert len(task.payload) == 4
            for got, want in zip(task.payload[2:], expected):
                assert got.tobytes() == want.tobytes()

    def test_real_supervisor_progress_fires_per_batch_in_order(self):
        plan = SweepPlan(arch="milan", workload_names=("cg", "nqueens"),
                         scale="small", repetitions=2)
        calls = []
        run_sweep(plan, n_processes=2,
                  progress=lambda *args: calls.append(args))
        batches = plan_batches(plan)
        assert [c[0] for c in calls] == list(range(1, len(batches) + 1))
        assert all(c[1] == len(batches) for c in calls)
        assert [(c[2], c[3], c[4]) for c in calls] == [
            (b.app, b.input_size, b.nthreads) for b in batches
        ]


class TestParallelParity:
    def test_parallel_bit_identical_to_serial(self):
        plan = SweepPlan(arch="skylake", workload_names=("alignment", "ep"),
                         scale="small", repetitions=2, inputs_limit=2)
        serial = run_sweep(plan, n_processes=1)
        parallel = run_sweep(plan, n_processes=3)
        assert parallel.records == serial.records

    def test_parallel_des_fidelity(self):
        plan = SweepPlan(arch="milan", workload_names=("nqueens",),
                         scale="small", repetitions=1, inputs_limit=2,
                         fidelity="des")
        serial = run_sweep(plan)
        parallel = run_sweep(plan, n_processes=2)
        assert parallel.block.to_bytes() == serial.block.to_bytes()


class TestDispatchTuning:
    def test_batch_timeout_scales_with_batch_size(self):
        small = sweep_mod._batch_timeout_s(10, 2)
        large = sweep_mod._batch_timeout_s(1000, 4)
        assert small >= sweep_mod.BASE_BATCH_TIMEOUT_S
        assert large > small

    def test_invalid_fidelity_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SweepPlan(arch="milan", fidelity="quantum")

    def test_invalid_fail_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_sweep(SweepPlan(arch="milan", workload_names=("cg",),
                                inputs_limit=1),
                      fail_policy="retry-forever")


class TestInheritedState:
    """A fleet process runs on the sweep's finished class plans: it
    builds no grouping and no pricer of its own."""

    PLAN = SweepPlan(arch="milan", workload_names=("cg", "nqueens"),
                     scale="small", repetitions=2, inputs_limit=2)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the guards reach fleet processes only by fork",
    )
    @pytest.mark.parametrize("backend", ["pool", "nodes"])
    def test_fleet_processes_build_no_class_plan(self, monkeypatch,
                                                 backend):
        serial = run_sweep(self.PLAN)
        sweep_pid = os.getpid()

        def only_in_the_sweep(original):
            def guarded(*args, **kwargs):
                if os.getpid() != sweep_pid:
                    raise RuntimeError("a fleet process built sweep state")
                return original(*args, **kwargs)
            return guarded

        monkeypatch.setattr(sweep_mod._ClassPlans, "_build",
                            only_in_the_sweep(sweep_mod._ClassPlans._build))
        monkeypatch.setattr(ClassPricer, "__init__",
                            only_in_the_sweep(ClassPricer.__init__))
        parallel = run_sweep(self.PLAN, n_processes=2, backend=backend,
                             fail_policy="raise")
        assert parallel.n_shards == 2
        assert parallel.failure_report.clean
        assert parallel.block.to_bytes() == serial.block.to_bytes()

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pickled_plans_give_the_serial_bytes(self, method):
        """Under ``spawn`` and ``forkserver`` the plans travel pickled,
        once per process; the blocks must still equal serial's."""
        snippet = (
            "import multiprocessing\n"
            "from repro.core.sweep import SweepPlan, run_sweep\n"
            f"multiprocessing.set_start_method({method!r})\n"
            f"plan = {self.PLAN!r}\n"
            "pool = run_sweep(plan, n_processes=2, backend='pool')\n"
            "serial = run_sweep(plan, backend='serial')\n"
            "print(pool.n_shards,"
            " pool.block.to_bytes() == serial.block.to_bytes())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.split() == ["2", "True"]
