"""Tests for the extension machines (the paper's 'latest CPU chips')."""

import numpy as np
import pytest

from repro.arch.extensions import GENOA, GRACE, register_machine, unregister_machine
from repro.arch.machines import ALL_MACHINES, get_machine
from repro.errors import TopologyError, UnknownMachine
from repro.runtime.executor import execute
from repro.runtime.icv import EnvConfig
from repro.workloads.base import get_workload


@pytest.fixture
def registered():
    register_machine(GENOA)
    register_machine(GRACE)
    yield
    unregister_machine("genoa")
    unregister_machine("grace")


class TestTopologies:
    def test_genoa_structure(self):
        assert GENOA.n_cores == 192
        assert GENOA.n_numa == 8
        assert GENOA.cores_per_llc == 8
        assert GENOA.mem_type == "DDR5"

    def test_grace_is_flat(self):
        assert GRACE.n_numa == 1
        assert GRACE.mean_numa_distance() == 1.0
        assert len(GRACE.places("numa_domains")) == 1


class TestRegistration:
    def test_register_roundtrip(self, registered):
        assert get_machine("genoa") is GENOA
        assert get_machine("grace") is GRACE
        unregister_machine("genoa")
        assert "genoa" not in ALL_MACHINES
        register_machine(GENOA)  # fixture teardown expects it present

    def test_study_machines_protected(self):
        with pytest.raises(TopologyError):
            unregister_machine("milan")

    def test_register_installs_cost_tables(self, registered):
        # The tables travel with the machine: registering it is all.
        assert get_machine("genoa").costs.congestion_gamma > 1.0
        assert get_machine("grace").power.uncore_w > 0
        assert get_machine("grace").noise.sigma < 0.02

    def test_unregister_leaves_no_tables(self, registered):
        from repro.core.sweep import SweepPlan, run_sweep

        unregister_machine("genoa")
        try:
            with pytest.raises(UnknownMachine):
                get_machine("genoa")
            with pytest.raises(UnknownMachine):
                run_sweep(SweepPlan(arch="genoa", workload_names=("cg",),
                                    scale="small", repetitions=1,
                                    inputs_limit=1))
        finally:
            register_machine(GENOA)  # fixture teardown expects it present

    def test_registration_idempotent(self, registered):
        register_machine(GENOA)  # same object: fine
        assert get_machine("genoa") is GENOA


class TestMethodologyPredictions:
    """The structural predictions the extension machines exist to test."""

    def test_genoa_keeps_milans_congestion_headroom(self, registered):
        su3 = get_workload("su3bench").program("default")
        default = execute(su3, GENOA, EnvConfig())
        tuned = execute(
            su3, GENOA,
            EnvConfig(num_threads=GENOA.n_cores // 2, places="ll_caches",
                      proc_bind="spread"),
        )
        assert default / tuned > 1.3  # NPS4 congestion, like Milan

    def test_grace_flat_memory_kills_binding_headroom(self, registered):
        su3 = get_workload("su3bench").program("default")
        default = execute(su3, GRACE, EnvConfig())
        best = min(
            execute(su3, GRACE, EnvConfig(places=p, proc_bind=b))
            for p in ("cores", "sockets", "ll_caches")
            for b in ("close", "spread")
        )
        assert default / best < 1.1  # nothing to gain from affinity

    def test_grace_still_rewards_turnaround_for_tasks(self, registered):
        nq = get_workload("nqueens").program("large")
        default = execute(nq, GRACE, EnvConfig())
        turn = execute(nq, GRACE, EnvConfig(library="turnaround"))
        assert default / turn > 1.5  # wait policy is memory-independent

    def test_sweep_runs_on_extension_machine(self, registered):
        from repro.core.dataset import enrich_with_speedup, records_to_table
        from repro.core.sweep import SweepPlan, run_sweep

        result = run_sweep(
            SweepPlan(arch="grace", workload_names=("nqueens",),
                      scale="small", repetitions=1, inputs_limit=1)
        )
        table = enrich_with_speedup(records_to_table(result.records))
        speedups = np.asarray(table["speedup"], float)
        assert speedups.max() > 1.3
