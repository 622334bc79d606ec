"""Tests for influence analysis, recommendations and pruning."""

import numpy as np
import pytest

from repro.arch.machines import MILAN
from repro.core.envspace import EnvSpace
from repro.core.influence import (
    FEATURE_COLUMNS,
    influence_by_application,
    influence_by_arch_application,
    influence_by_architecture,
    linear_fit_quality,
)
from repro.core.pruning import hill_climb, prune_space
from repro.core.recommend import (
    Recommendation,
    WorstTrend,
    best_variable_values,
    recommend,
    worst_trends,
)
from repro.core.sweep import SweepPlan, run_sweep
from repro.errors import SchemaError
from repro.frame.table import Table
from repro.workloads.base import get_workload


class TestInfluence:
    def test_rows_and_features_per_grouping(self, milan_dataset):
        by_app = influence_by_application(milan_dataset)
        assert set(by_app.row_labels) == {"xsbench", "cg", "nqueens"}
        assert "Architecture" in by_app.feature_names
        assert "Application" not in by_app.feature_names

        by_arch = influence_by_architecture(milan_dataset)
        assert by_arch.row_labels == ["milan"]
        assert "Application" in by_arch.feature_names

        by_both = influence_by_arch_application(milan_dataset)
        assert len(by_both.rows) == 3
        assert "Application" not in by_both.feature_names
        assert "Architecture" not in by_both.feature_names

    def test_importances_are_distributions(self, milan_dataset):
        for inf in (
            influence_by_application(milan_dataset),
            influence_by_architecture(milan_dataset),
            influence_by_arch_application(milan_dataset),
        ):
            m = inf.matrix()
            assert (m >= 0).all()
            assert np.allclose(m.sum(axis=1), 1.0)

    def test_single_arch_dataset_zero_arch_influence(self, milan_dataset):
        """Sort/Strassen effect: a constant feature gets zero influence."""
        inf = influence_by_application(milan_dataset)
        idx = inf.feature_names.index("Architecture")
        assert np.allclose(inf.matrix()[:, idx], 0.0)

    def test_multi_arch_dataset_nonzero_arch_influence(self, tri_arch_dataset):
        inf = influence_by_application(tri_arch_dataset)
        row = {r.label[0]: r for r in inf.rows}
        # XSBench's tuning headroom is milan-specific -> architecture matters.
        assert row["xsbench"].as_dict()["Architecture"] > 0.05

    def test_alignment_architecture_independent(self, tri_arch_dataset):
        """Fig. 2: BOTS apps show low reliance on architecture."""
        inf = influence_by_application(tri_arch_dataset)
        row = {r.label[0]: r for r in inf.rows}
        assert (
            row["alignment"].as_dict()["Architecture"]
            < row["xsbench"].as_dict()["Architecture"]
        )

    def test_nqueens_library_dominates(self, milan_dataset):
        inf = influence_by_arch_application(milan_dataset)
        row = {r.label: r for r in inf.rows}[("milan", "nqueens")]
        scores = row.as_dict()
        active_signal = scores["KMP_LIBRARY"] + scores["KMP_BLOCKTIME"]
        assert active_signal > scores["OMP_SCHEDULE"]
        assert active_signal > scores["KMP_ALIGN_ALLOC"]

    def test_threads_matter_for_thread_swept_app(self, milan_dataset):
        inf = influence_by_arch_application(milan_dataset)
        row = {r.label: r for r in inf.rows}[("milan", "xsbench")]
        assert row.as_dict()["OMP_NUM_THREADS"] > 0.15

    def test_accuracy_beats_chance(self, milan_dataset):
        inf = influence_by_architecture(milan_dataset)
        assert inf.mean_accuracy() > 0.55

    def test_to_table_roundtrip(self, milan_dataset):
        inf = influence_by_application(milan_dataset)
        t = inf.to_table()
        assert t.num_rows == 3
        assert "accuracy" in t and "n_samples" in t

    def test_top_features(self, milan_dataset):
        inf = influence_by_architecture(milan_dataset)
        top = inf.rows[0].top_features(3)
        assert len(top) == 3
        scores = inf.rows[0].as_dict()
        assert scores[top[0]] >= scores[top[1]] >= scores[top[2]]

    def test_missing_columns_rejected(self):
        with pytest.raises(SchemaError):
            influence_by_application(Table({"app": ["x"], "optimal": [1]}))

    def test_degenerate_single_class_group(self):
        t = Table(
            {
                "arch": ["m"] * 4,
                "app": ["a"] * 4,
                "input_size": ["s"] * 4,
                "num_threads": [1, 2, 3, 4],
                "places": ["unset"] * 4,
                "proc_bind": ["unset"] * 4,
                "schedule": ["unset"] * 4,
                "library": ["unset"] * 4,
                "blocktime": ["unset"] * 4,
                "force_reduction": ["unset"] * 4,
                "align_alloc": [0] * 4,
                "optimal": [0, 0, 0, 0],
            }
        )
        inf = influence_by_application(t)
        assert np.allclose(inf.rows[0].importances, 0.0)
        assert inf.rows[0].accuracy == 1.0

    def test_linear_fit_is_poor(self, milan_dataset):
        """The paper's motivation for switching to classification."""
        r2 = linear_fit_quality(milan_dataset)
        assert r2 < 0.6

    def test_feature_columns_mapping_complete(self):
        assert set(FEATURE_COLUMNS.values()) >= {
            "OMP_NUM_THREADS", "OMP_PLACES", "OMP_PROC_BIND", "OMP_SCHEDULE",
            "KMP_LIBRARY", "KMP_BLOCKTIME", "KMP_FORCE_REDUCTION",
            "KMP_ALIGN_ALLOC", "Architecture", "Application", "Input Size",
        }


class TestRecommend:
    def test_nqueens_turnaround_recommended(self, milan_dataset):
        recs = recommend(milan_dataset, app="nqueens", arch="milan")
        by_var = {r.variable: r for r in recs}
        active = set()
        if "library" in by_var:
            active |= set(by_var["library"].values)
        if "blocktime" in by_var:
            active |= set(by_var["blocktime"].values)
        assert "turnaround" in active or "infinite" in active

    def test_recommendations_have_positive_lift(self, milan_dataset):
        for r in best_variable_values(milan_dataset):
            if r.variable != "defaults":
                assert r.lift >= 1.3
            assert r.best_speedup >= 1.0

    def test_worst_trend_is_master_binding(self, milan_dataset):
        trends = worst_trends(milan_dataset)
        assert trends, "expected at least one worst trend"
        assert trends[0].variable == "proc_bind"
        assert trends[0].value == "master"
        assert trends[0].mean_speedup < 0.5

    def test_requires_speedup_column(self):
        with pytest.raises(SchemaError):
            best_variable_values(Table({"app": ["x"], "arch": ["m"]}))
        with pytest.raises(SchemaError):
            worst_trends(Table({"app": ["x"]}))


# ----------------------------------------------------------------------
# Reference implementations: per candidate value, the mean of the
# per-row match flags over the group's (or table's) ``str`` cells.  The
# shipped functions count each variable's encoded values once per table;
# their output must equal these exactly.
# ----------------------------------------------------------------------
_ORACLE_VARIABLES = ("places", "proc_bind", "schedule", "library",
                     "blocktime", "force_reduction", "align_alloc")


def oracle_best_variable_values(table, quantile=0.05, min_lift=1.3):
    out = []
    for (app, arch), sub in table._group_by_python(["app", "arch"]):
        speedup = np.asarray(sub.column("speedup"), dtype=float)
        top = sub.filter(speedup >= np.quantile(speedup, 1.0 - quantile))
        best_speedup = float(np.max(speedup))
        group_recs = []
        for var in _ORACLE_VARIABLES:
            overall = sub.column(var)
            top_vals = top.column(var)
            candidates = []
            for value in sorted(set(str(v) for v in top_vals)):
                if value in ("unset", "0") and var != "blocktime":
                    continue
                p_top = float(np.mean([str(v) == value for v in top_vals]))
                p_all = float(np.mean([str(v) == value for v in overall]))
                if p_all == 0.0:
                    continue
                lift = p_top / p_all
                if lift >= min_lift and p_top >= 0.25:
                    candidates.append((lift, value))
            if candidates:
                candidates.sort(reverse=True)
                group_recs.append(Recommendation(
                    app=app, arch=arch, variable=var,
                    values=tuple(v for _, v in candidates),
                    lift=candidates[0][0], best_speedup=best_speedup,
                ))
        if not group_recs:
            group_recs.append(Recommendation(
                app=app, arch=arch, variable="defaults",
                values=("defaults",), lift=1.0, best_speedup=best_speedup,
            ))
        out.extend(group_recs)
    return out


def oracle_worst_trends(table, quantile=0.05, min_lift=2.0,
                        variables=("proc_bind", "places")):
    speedup = np.asarray(table.column("speedup"), dtype=float)
    worst = table.filter(speedup <= np.quantile(speedup, quantile))
    worst_speedup = np.asarray(worst.column("speedup"), dtype=float)
    out = []
    for var in variables:
        overall = [str(v) for v in table.column(var)]
        worst_vals = [str(v) for v in worst.column(var)]
        for value in sorted(set(worst_vals)):
            p_worst = float(np.mean([v == value for v in worst_vals]))
            p_all = float(np.mean([v == value for v in overall]))
            if p_all == 0.0 or p_worst < 0.2:
                continue
            lift = p_worst / p_all
            if lift >= min_lift:
                sel = np.asarray([v == value for v in worst_vals])
                out.append(WorstTrend(
                    variable=var, value=value, lift=lift,
                    mean_speedup=float(worst_speedup[sel].mean()),
                ))
    out.sort(key=lambda t: -t.lift)
    return out


@pytest.fixture(scope="module")
def machine_tables():
    """Seed-0 small sweeps of every machine, aggregated and enriched."""
    from repro.core.dataset import aggregate_runs, enrich_with_speedup
    from repro.core.dataset import records_to_table

    tables = {}
    for arch in ("milan", "skylake", "a64fx"):
        plan = SweepPlan(arch=arch, scale="small", repetitions=3, seed=0)
        tables[arch] = enrich_with_speedup(
            aggregate_runs(records_to_table(run_sweep(plan).block))
        )
    return tables


def _edge_table():
    """Hand-built groups: ties at the cutoff, a one-row group, ``unset``
    and ``"0"`` cells and a numeric ``align_alloc`` column."""
    rows = [
        # ties: three rows share the top speedup
        ("tie", "m", 1.0, "cores", "close", "static", "unset", "0", 0),
        ("tie", "m", 2.0, "cores", "close", "dynamic", "turnaround", "0", 64),
        ("tie", "m", 2.0, "threads", "spread", "dynamic", "turnaround",
         "infinite", 64),
        ("tie", "m", 2.0, "unset", "spread", "guided", "throughput",
         "infinite", 128),
        ("tie", "m", 0.5, "unset", "master", "static", "unset", "0", 0),
        ("solo", "m", 3.0, "sockets", "master", "static", "turnaround",
         "0", 0),
        ("tie", "n", 1.0, "unset", "unset", "unset", "unset", "0", 0),
        ("tie", "n", 1.0, "unset", "unset", "unset", "unset", "0", 0),
        ("dflt", "m", 1.5, "unset", "unset", "unset", "unset", "0", 0),
        ("dflt", "m", 0.7, "unset", "unset", "unset", "unset", "0", 0),
    ]
    names = ("app", "arch", "speedup", "places", "proc_bind", "schedule",
             "library", "blocktime", "align_alloc")
    columns = {n: [r[i] for r in rows] for i, n in enumerate(names)}
    columns["force_reduction"] = ["unset", "atomic", "tree", "atomic",
                                  "unset", "unset", "unset", "unset",
                                  "unset", "critical"]
    return Table(columns)


class TestRecommendOracle:
    QUANTILES = (0.0, 0.05, 0.3, 0.5, 1.0)

    @pytest.mark.parametrize("arch", ["milan", "skylake", "a64fx"])
    def test_machine_tables_match_the_oracle(self, machine_tables, arch):
        table = machine_tables[arch]
        for quantile in self.QUANTILES:
            assert best_variable_values(table, quantile=quantile) \
                == oracle_best_variable_values(table, quantile=quantile)
            assert worst_trends(table, quantile=quantile) \
                == oracle_worst_trends(table, quantile=quantile)
        assert worst_trends(table, variables=_ORACLE_VARIABLES) \
            == oracle_worst_trends(table, variables=_ORACLE_VARIABLES)

    @pytest.mark.parametrize("min_lift", [0.5, 1.0, 1.3, 2.0])
    def test_edge_table_matches_the_oracle(self, min_lift):
        table = _edge_table()
        assert table.column("align_alloc").dtype.kind == "i"
        for quantile in self.QUANTILES:
            got = best_variable_values(table, quantile, min_lift)
            assert got == oracle_best_variable_values(table, quantile,
                                                      min_lift)
            assert worst_trends(table, quantile, min_lift,
                                _ORACLE_VARIABLES) \
                == oracle_worst_trends(table, quantile, min_lift,
                                       _ORACLE_VARIABLES)

    def test_edge_table_covers_its_cases(self):
        table = _edge_table()
        recs = best_variable_values(table, quantile=0.5, min_lift=1.0)
        assert {(r.app, r.arch) for r in recs} == {
            ("tie", "m"), ("solo", "m"), ("tie", "n"), ("dflt", "m")}
        # the three rows tied at the top all count; dynamic (2 of 3 vs
        # 2 of 5) and guided (1 of 3 vs 1 of 5) tie on lift too, and
        # equal lifts order by value, descending
        tie = {r.variable: r for r in recs if r.app == "tie" and r.arch == "m"}
        assert tie["schedule"].values == ("guided", "dynamic")
        assert tie["align_alloc"].values == ("64", "128")
        # an all-default top slice falls back to the pseudo-recommendation
        recs = best_variable_values(table, quantile=0.5)
        assert [r.variable for r in recs if r.app == "dflt"] == ["defaults"]


class TestPruning:
    def test_prune_keeps_influential_variables(self, milan_dataset):
        space = EnvSpace()
        inf = influence_by_architecture(milan_dataset).rows[0]
        pruned = prune_space(space, inf, threshold=0.05)
        assert 1 <= len(pruned.variables) < len(space.variables)

    def test_prune_never_empty(self, milan_dataset):
        space = EnvSpace()
        inf = influence_by_architecture(milan_dataset).rows[0]
        pruned = prune_space(space, inf, threshold=0.99)
        assert len(pruned.variables) == 1

    def test_hill_climb_improves_nqueens(self):
        program = get_workload("nqueens").program("large")
        result = hill_climb(program, MILAN, EnvSpace(), restarts=1, seed=0)
        assert result.speedup > 1.5
        assert result.best_runtime <= result.start_runtime
        assert result.evaluations > 10

    def test_hill_climb_deterministic(self):
        program = get_workload("alignment").program("small")
        a = hill_climb(program, MILAN, EnvSpace(), restarts=0, seed=3)
        b = hill_climb(program, MILAN, EnvSpace(), restarts=0, seed=3)
        assert a == b

    def test_pruned_hill_climb_cheaper_and_close(self, milan_dataset):
        """The paper's pruning claim: near-optimal at a fraction of the
        evaluations."""
        program = get_workload("nqueens").program("large")
        space = EnvSpace()
        inf_rows = {
            r.label: r
            for r in influence_by_arch_application(milan_dataset).rows
        }
        pruned = prune_space(space, inf_rows[("milan", "nqueens")],
                             threshold=0.08)
        full = hill_climb(program, MILAN, space, restarts=1, seed=0)
        cheap = hill_climb(program, MILAN, pruned, restarts=1, seed=0)
        assert cheap.evaluations < full.evaluations
        assert cheap.best_runtime <= full.best_runtime * 1.3
