"""Tests for sweep orchestration and dataset construction."""

import re

import numpy as np
import pytest

from repro.core.dataset import (
    _is_default_row,
    aggregate_runs,
    enrich_with_speedup,
    records_to_table,
    runtime_stats_by_run,
    speedup_summary,
    validate_dataset,
)
from repro.core.envspace import EnvSpace
from repro.core.labeling import OPTIMAL_THRESHOLD, label_optimal, optimal_fraction
from repro.core.sweep import SweepPlan, SweepRecord, run_sweep
from repro.errors import ConfigError, DatasetError, SchemaError
from repro.frame.table import Table
from repro.runtime.icv import EnvConfig


class TestSweepExecution:
    def test_records_shape(self, milan_small_sweep):
        res = milan_small_sweep
        space = EnvSpace()
        from repro.arch.machines import MILAN

        n_configs = len(space.grid(MILAN, "small"))
        # xsbench: 4 thread settings; cg: 4 inputs; nqueens: 3 inputs.
        assert res.n_samples == n_configs * (4 + 4 + 3)
        assert res.n_measurements == res.n_samples * 3
        assert set(res.apps()) == {"xsbench", "cg", "nqueens"}

    def test_deterministic_rerun(self, milan_small_sweep):
        plan = milan_small_sweep.plan
        again = run_sweep(plan)
        assert [r.runtimes for r in again.records] == [
            r.runtimes for r in milan_small_sweep.records
        ]

    def test_order_independence_of_measurements(self):
        """The batching-preserves-relative-performance property: results
        keyed by identity, not execution order."""
        a = run_sweep(
            SweepPlan(arch="skylake", workload_names=("alignment",),
                      scale="small", repetitions=2, inputs_limit=1)
        )
        b = run_sweep(
            SweepPlan(arch="skylake", workload_names=("alignment", "ep"),
                      scale="small", repetitions=2, inputs_limit=1)
        )
        a_map = {(r.app, r.input_size, r.config.key()): r.runtimes
                 for r in a.records}
        b_map = {(r.app, r.input_size, r.config.key()): r.runtimes
                 for r in b.records}
        for key, runtimes in a_map.items():
            assert b_map[key] == runtimes

    def test_parallel_matches_serial(self):
        plan = SweepPlan(arch="a64fx", workload_names=("sort",),
                         scale="small", repetitions=2, inputs_limit=2)
        serial = run_sweep(plan, n_processes=1)
        parallel = run_sweep(plan, n_processes=2)
        assert [r.runtimes for r in serial.records] == [
            r.runtimes for r in parallel.records
        ]

    def test_workload_not_on_arch_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepPlan(arch="milan", workload_names=("sort",)))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ConfigError):
            SweepPlan(arch="milan", repetitions=0)

    def test_runtimes_positive(self, milan_small_sweep):
        for r in milan_small_sweep.records:
            assert all(t > 0 for t in r.runtimes)


class TestDataset:
    def test_table_schema(self, milan_small_sweep):
        table = records_to_table(milan_small_sweep.records)
        for col in (
            "arch", "app", "suite", "input_size", "num_threads", "places",
            "proc_bind", "schedule", "library", "blocktime",
            "force_reduction", "align_alloc", "runtime_0", "runtime_1",
            "runtime_2",
        ):
            assert col in table, col

    def test_empty_records_rejected(self):
        with pytest.raises(DatasetError):
            records_to_table([])

    def test_inconsistent_repetitions_rejected(self):
        base = dict(arch="milan", app="x", suite="s", input_size="a",
                    num_threads=4, config=EnvConfig())
        records = [
            SweepRecord(**base, runtimes=(1.0, 2.0)),
            SweepRecord(**base, runtimes=(1.0,)),
        ]
        with pytest.raises(DatasetError):
            records_to_table(records)

    def test_aggregate_runs_mean(self, milan_small_sweep):
        table = aggregate_runs(records_to_table(milan_small_sweep.records))
        r0 = np.asarray(table["runtime_0"], float)
        r1 = np.asarray(table["runtime_1"], float)
        r2 = np.asarray(table["runtime_2"], float)
        assert np.allclose(table["runtime_mean"], (r0 + r1 + r2) / 3)

    def test_speedup_of_default_row_is_one(self, milan_dataset):
        t = milan_dataset
        mask = np.ones(t.num_rows, dtype=bool)
        for col in ("places", "proc_bind", "schedule", "library",
                    "blocktime", "force_reduction"):
            mask &= np.asarray([v == "unset" for v in t[col]])
        mask &= np.asarray(t["align_alloc"], int) == 0
        mask &= np.asarray(t["num_threads"], int) == 96
        defaults = t.filter(mask)
        assert defaults.num_rows > 0
        assert np.allclose(np.asarray(defaults["speedup"], float), 1.0)

    def test_speedup_positive(self, milan_dataset):
        assert (np.asarray(milan_dataset["speedup"], float) > 0).all()

    def test_missing_default_rejected(self):
        rec = SweepRecord(
            arch="milan", app="x", suite="s", input_size="a", num_threads=4,
            config=EnvConfig(schedule="dynamic"), runtimes=(1.0,),
        )
        with pytest.raises(DatasetError):
            enrich_with_speedup(records_to_table([rec]))

    def test_zero_runtimes_rejected(self):
        rec = SweepRecord(arch="milan", app="x", suite="s", input_size="a",
                          num_threads=4, config=EnvConfig(), runtimes=())
        with pytest.raises(DatasetError, match="zero runtimes"):
            records_to_table([rec])

    def test_records_and_block_build_one_table(self, milan_small_sweep):
        from_records = records_to_table(milan_small_sweep.records)
        from_block = records_to_table(milan_small_sweep.block)
        assert from_records.column_names == from_block.column_names
        for name in from_block.column_names:
            assert (from_records.column(name).dtype
                    == from_block.column(name).dtype), name
        assert from_records.to_records() == from_block.to_records()

    def test_speedup_summary(self, milan_dataset):
        summary = speedup_summary(milan_dataset, by=("app",))
        assert set(summary.unique("app")) == {"xsbench", "cg", "nqueens"}
        assert (np.asarray(summary["max_speedup"], float) >= 1.0).all()

    def test_speedup_summary_missing_column(self):
        with pytest.raises(SchemaError):
            speedup_summary(Table({"app": ["x"]}))

    def test_runtime_stats_by_run(self, milan_dataset):
        stats = runtime_stats_by_run(milan_dataset)
        assert set(stats.unique("runtime_idx")) == {
            "runtime_0", "runtime_1", "runtime_2",
        }
        assert (np.asarray(stats["mean_sec"], float) > 0).all()
        # Milan's run 0 is the warm-up run: slower on average.
        for (arch, app, inp), sub in stats.group_by(["arch", "app", "input_size"]):
            by_idx = dict(zip(sub["runtime_idx"], sub["mean_sec"]))
            assert by_idx["runtime_0"] > by_idx["runtime_1"]


class TestEnrichMatchesDictOracle:
    """``enrich_with_speedup`` against the dict-keyed default-runtime
    oracle of the ``columnar-pipeline-parity`` check: per setting, the
    last all-unset row's ``runtime_mean``."""

    @staticmethod
    def _base(tri_arch_dataset, arch):
        """One machine's seed-0 small table (alignment and xsbench),
        before enrichment."""
        table = tri_arch_dataset.filter(tri_arch_dataset["arch"] == arch)
        return table.without_columns(["default_runtime", "speedup"])

    @staticmethod
    def _assert_matches_oracle(table):
        from repro.check.differential import _default_runtimes

        rows = enrich_with_speedup(table).to_records()
        defaults = _default_runtimes(rows)
        assert [r["default_runtime"] for r in rows] == defaults
        assert [r["speedup"] for r in rows] == [
            d / r["runtime_mean"] for d, r in zip(defaults, rows)]
        return rows

    @pytest.mark.parametrize("arch", ["milan", "skylake", "a64fx"])
    def test_seed0_small_tables(self, tri_arch_dataset, arch):
        self._assert_matches_oracle(self._base(tri_arch_dataset, arch))

    def test_shuffled_rows(self, tri_arch_dataset):
        table = self._base(tri_arch_dataset, "milan")
        shuffled = table.take(
            np.random.default_rng(0).permutation(table.num_rows))
        settings = shuffled.group_codes(
            ["arch", "app", "input_size", "num_threads"])
        # Not contiguous: far more runs of equal setting than settings.
        assert (np.count_nonzero(np.diff(settings)) + 1
                > 10 * (settings.max() + 1))
        self._assert_matches_oracle(shuffled)

    def test_last_duplicate_default_wins(self, tri_arch_dataset):
        from repro.frame.ops import concat_tables

        table = self._base(tri_arch_dataset, "skylake")
        duplicates = table.filter(_is_default_row(table))
        duplicates = duplicates.with_column(
            "runtime_mean", duplicates["runtime_mean"] * 2.0)
        rows = self._assert_matches_oracle(
            concat_tables([table, duplicates]))
        doubled = set(duplicates["runtime_mean"].tolist())
        assert {r["default_runtime"] for r in rows} <= doubled

    def test_missing_default_names_the_setting(self, tri_arch_dataset):
        table = self._base(tri_arch_dataset, "a64fx")
        first = int(np.nonzero(_is_default_row(table))[0][0])
        row = table.row(first)
        key = (row["arch"], row["app"], row["input_size"],
               row["num_threads"])
        keep = np.ones(table.num_rows, dtype=bool)
        keep[first] = False
        with pytest.raises(DatasetError, match=re.escape(str(key))):
            enrich_with_speedup(table.filter(keep))


class TestLabeling:
    def test_label_threshold(self, milan_dataset):
        t = milan_dataset
        speedup = np.asarray(t["speedup"], float)
        optimal = np.asarray(t["optimal"], int)
        assert ((speedup > OPTIMAL_THRESHOLD) == (optimal == 1)).all()

    def test_label_requires_speedup(self):
        with pytest.raises(SchemaError):
            label_optimal(Table({"app": ["x"]}))

    def test_custom_threshold(self, milan_dataset):
        strict = label_optimal(milan_dataset, threshold=2.0)
        lax = label_optimal(milan_dataset, threshold=1.001)
        assert (
            np.asarray(strict["optimal"], int).sum()
            < np.asarray(lax["optimal"], int).sum()
        )

    def test_optimal_fraction_between_zero_and_one(self, milan_dataset):
        f = optimal_fraction(milan_dataset)
        assert 0.0 < f < 1.0


class TestValidateDataset:
    """Failure injection: corrupted datasets are rejected with precise
    diagnostics instead of silently poisoning the analysis."""

    def test_clean_dataset_passes(self, milan_dataset):
        assert validate_dataset(milan_dataset) is milan_dataset

    @pytest.mark.parametrize("bad_value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_corrupted_runtime_rejected(self, milan_dataset, bad_value):
        runtimes = np.asarray(milan_dataset["runtime_0"], float).copy()
        runtimes[7] = bad_value
        corrupted = milan_dataset.with_column("runtime_0", runtimes)
        with pytest.raises(DatasetError, match="runtime_0.*row 7"):
            validate_dataset(corrupted)

    def test_corrupted_speedup_rejected(self, milan_dataset):
        speedups = np.asarray(milan_dataset["speedup"], float).copy()
        speedups[0] = float("nan")
        corrupted = milan_dataset.with_column("speedup", speedups)
        with pytest.raises(DatasetError):
            validate_dataset(corrupted)

    def test_missing_columns_rejected(self):
        with pytest.raises(SchemaError):
            validate_dataset(Table({"arch": ["m"]}))

    def test_no_runtime_columns_rejected(self, milan_dataset):
        stripped = milan_dataset.without_columns(
            [c for c in milan_dataset.column_names
             if c.startswith("runtime_") and c != "runtime_mean"]
        )
        with pytest.raises(DatasetError):
            validate_dataset(stripped)

    def test_cli_analyze_rejects_corrupt_csv(self, milan_dataset, tmp_path,
                                             capsys):
        from repro.cli import main
        from repro.frame.io import write_csv

        runtimes = np.asarray(milan_dataset["runtime_0"], float).copy()
        runtimes[3] = -5.0
        corrupted = milan_dataset.with_column("runtime_0", runtimes)
        path = tmp_path / "bad.csv"
        write_csv(corrupted, path)
        rc = main(["analyze", str(path)])
        assert rc == 2
        assert "invalid value" in capsys.readouterr().err
