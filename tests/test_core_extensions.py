"""Tests for the extension modules: non-linear influence, transfer to
unseen apps, additional tuners, numa_domains space, power/EDP, release."""

import numpy as np
import pytest

from repro.arch.machines import MILAN
from repro.core.envspace import EnvSpace, extended_variables
from repro.core.nonlinear import compare_models, forest_influence
from repro.core.release import load_release, write_release
from repro.core.search import (
    exhaustive_search,
    greedy_ofat,
    random_search,
    simulated_annealing,
)
from repro.core.transfer import (
    fine_tune,
    leave_one_app_out,
    recommend_for_unseen,
)
from repro.errors import ConfigError, DatasetError, SchemaError
from repro.frame.table import Table
from repro.runtime.icv import EnvConfig
from repro.runtime.power import energy_profile
from repro.workloads.base import get_workload


class TestNonlinearInfluence:
    def test_forest_influence_shape(self, milan_dataset):
        inf = forest_influence(milan_dataset, by=("arch",))
        assert inf.row_labels == ["milan"]
        m = inf.matrix()
        assert (m >= 0).all()
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_forest_beats_or_matches_linear(self, milan_dataset):
        comparisons = compare_models(milan_dataset, by=("arch",))
        assert len(comparisons) == 1
        c = comparisons[0]
        # The non-linear model captures interactions the paper's linear
        # approach cannot: accuracy must not be worse.
        assert c.forest_accuracy >= c.linear_accuracy
        assert c.accuracy_gain >= 0.0
        assert 0.5 <= c.forest_auc <= 1.0
        assert c.forest_auc >= c.linear_auc - 0.02

    def test_forest_finds_wait_policy_for_nqueens(self, milan_dataset):
        mask = np.asarray([a == "nqueens" for a in milan_dataset["app"]])
        sub = milan_dataset.filter(mask)
        inf = forest_influence(sub, by=("app",), n_trees=10)
        scores = inf.rows[0].as_dict()
        wait = scores["KMP_LIBRARY"] + scores["KMP_BLOCKTIME"]
        assert wait > scores["KMP_ALIGN_ALLOC"]
        assert wait > scores["OMP_SCHEDULE"]

    def test_missing_columns_rejected(self):
        with pytest.raises(SchemaError):
            forest_influence(Table({"arch": ["m"], "optimal": [1]}))


class TestTransfer:
    def test_leave_one_app_out(self, milan_dataset):
        results = leave_one_app_out(milan_dataset, n_trees=8, max_depth=6)
        assert {r.app for r in results} == {"xsbench", "cg", "nqueens"}
        for r in results:
            assert 0.0 <= r.transfer_accuracy <= 1.0
            assert r.n_train + r.n_test == milan_dataset.num_rows
            # The paper's caveat: transfer may lose accuracy, but an
            # in-sample model of the same family is a sane upper bound.
            assert r.transfer_accuracy <= r.in_sample_accuracy + 0.1

    def test_recommend_for_unseen(self, milan_dataset):
        rec = recommend_for_unseen(milan_dataset, app="nqueens",
                                   arch="milan", k_donors=2)
        assert rec.app == "nqueens"
        assert len(rec.donor_apps) == 2
        assert "nqueens" not in rec.donor_apps
        assert rec.achieved_speedup > 0
        assert rec.best_speedup >= rec.achieved_speedup
        assert 0.0 <= rec.regret <= 1.0

    def test_fine_tune_regret_non_increasing(self, milan_dataset):
        curve = fine_tune(milan_dataset, app="xsbench", arch="milan",
                          budgets=(0, 8, 32, 128))
        budgets = [b for b, _ in curve]
        regrets = [r for _, r in curve]
        assert budgets == [0, 8, 32, 128]
        assert all(
            regrets[i + 1] <= regrets[i] + 1e-12
            for i in range(len(regrets) - 1)
        )
        assert regrets[-1] < 0.6  # probes close most of the gap

    def test_unknown_app_rejected(self, milan_dataset):
        with pytest.raises(DatasetError):
            recommend_for_unseen(milan_dataset, app="doom", arch="milan")


class TestTuners:
    @pytest.fixture(scope="class")
    def nqueens(self):
        return get_workload("nqueens").program("large")

    def test_random_search_improves(self, nqueens):
        res = random_search(nqueens, MILAN, EnvSpace(), budget=40, seed=0)
        assert res.speedup > 1.3
        assert res.evaluations <= 40

    def test_annealing_improves(self, nqueens):
        res = simulated_annealing(nqueens, MILAN, EnvSpace(), budget=60,
                                  seed=0)
        assert res.speedup > 1.5
        assert res.evaluations <= 60

    def test_greedy_ofat_improves(self, nqueens):
        res = greedy_ofat(nqueens, MILAN, EnvSpace(), seed=0)
        assert res.speedup > 1.5
        # One pass touches every (variable, value) at most once.
        assert res.evaluations <= 1 + sum(
            len(v.values(MILAN)) for v in EnvSpace().variables
        )

    def test_exhaustive_on_pruned_space(self, nqueens):
        from repro.core.envspace import SWEPT_VARIABLES

        small = EnvSpace(
            [v for v in SWEPT_VARIABLES
             if v.field in ("library", "blocktime")]
        )
        res = exhaustive_search(nqueens, MILAN, small)
        assert res.evaluations <= small.size(MILAN) + 1
        # Exhaustive is ground truth on its space: at least as good as
        # any other tuner restricted to it.
        rnd = random_search(nqueens, MILAN, small, budget=10, seed=1)
        assert res.best_runtime <= rnd.best_runtime + 1e-15

    def test_tuners_deterministic(self, nqueens):
        a = simulated_annealing(nqueens, MILAN, EnvSpace(), budget=30, seed=5)
        b = simulated_annealing(nqueens, MILAN, EnvSpace(), budget=30, seed=5)
        assert a == b

    def test_bad_budget(self, nqueens):
        with pytest.raises(ConfigError):
            random_search(nqueens, MILAN, EnvSpace(), budget=0)


class TestExtendedSpace:
    def test_numa_domains_included(self):
        space = EnvSpace(extended_variables())
        values = space.variable("OMP_PLACES").values(MILAN)
        assert "numa_domains" in values

    def test_extended_space_resolves_everywhere(self):
        space = EnvSpace(extended_variables())
        for config in space.ofat_grid(MILAN):
            from repro.runtime.icv import resolve_icvs

            resolve_icvs(config.with_threads(8), MILAN)

    def test_numa_domains_binding_beats_unbound_for_bandwidth(self):
        from repro.runtime.executor import execute

        su3 = get_workload("su3bench").program("default")
        unbound = execute(su3, MILAN, EnvConfig(num_threads=96))
        numa = execute(
            su3, MILAN,
            EnvConfig(num_threads=96, places="numa_domains",
                      proc_bind="spread"),
        )
        assert numa < unbound


class TestPower:
    def test_energy_positive_and_consistent(self):
        prog = get_workload("mg").program("W")
        profile = energy_profile(prog, MILAN, EnvConfig())
        assert profile.runtime_s > 0
        assert profile.energy_j > 0
        assert profile.edp == pytest.approx(
            profile.energy_j * profile.runtime_s
        )
        model = MILAN.power
        floor = model.machine_power(MILAN, 0, 0)
        ceil = model.machine_power(MILAN, MILAN.n_cores, 0)
        assert floor <= profile.avg_power_w <= ceil

    def test_turnaround_trades_energy_for_time(self):
        # A serial-heavy program: spinning through the serial phase burns
        # power without helping runtime.
        from repro.runtime.program import LoopRegion, Program, SerialPhase

        prog = Program(
            "serial-heavy",
            (
                SerialPhase(work=0.05),
                LoopRegion("l", n_iters=10_000, iter_work=1e-7, trips=3),
            ),
        )
        passive = energy_profile(prog, MILAN, EnvConfig())
        active = energy_profile(prog, MILAN, EnvConfig(library="turnaround"))
        assert active.avg_power_w > passive.avg_power_w

    def test_fewer_threads_less_power(self):
        prog = get_workload("ep").program("A")
        full = energy_profile(prog, MILAN, EnvConfig())
        half = energy_profile(prog, MILAN, EnvConfig(num_threads=48))
        assert half.avg_power_w < full.avg_power_w

    def test_unknown_arch(self):
        from repro.arch.machines import get_machine
        from repro.errors import UnknownMachine

        # A power model is reached through its machine.
        with pytest.raises(UnknownMachine):
            get_machine("sparc")


class TestRelease:
    def test_roundtrip(self, milan_dataset, tmp_path):
        manifest = write_release(milan_dataset, tmp_path / "release")
        assert manifest.n_samples == milan_dataset.num_rows
        assert set(manifest.applications) == {"xsbench", "cg", "nqueens"}
        assert (tmp_path / "release" / "README.md").exists()
        assert (tmp_path / "release" / "manifest.json").exists()

        loaded_manifest, loaded = load_release(tmp_path / "release")
        assert loaded_manifest == manifest
        assert loaded.num_rows == milan_dataset.num_rows
        total = np.sort(np.asarray(milan_dataset["speedup"], float))
        back = np.sort(np.asarray(loaded["speedup"], float))
        assert np.allclose(total, back)

    def test_per_pair_files(self, milan_dataset, tmp_path):
        manifest = write_release(milan_dataset, tmp_path / "r2")
        assert len(manifest.files) == 3  # one (arch, app) pair each
        for name in manifest.files:
            assert (tmp_path / "r2" / name).exists()

    def test_missing_columns_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            write_release(Table({"arch": ["x"]}), tmp_path / "bad")

    def test_corrupt_release_detected(self, milan_dataset, tmp_path):
        write_release(milan_dataset, tmp_path / "r3")
        # Remove a data file but keep the manifest.
        victim = next((tmp_path / "r3").glob("milan-*.csv"))
        victim.unlink()
        with pytest.raises(DatasetError):
            load_release(tmp_path / "r3")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_release(tmp_path)
