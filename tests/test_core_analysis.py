"""Tests for influence analysis, recommendations and pruning."""

import numpy as np
import pytest

import repro.core.influence as influence_mod
import repro.core.nonlinear as nonlinear_mod
import repro.core.transfer as transfer_mod
from repro.arch.machines import MILAN
from repro.core.envspace import EnvSpace
from repro.core.influence import (
    FEATURE_COLUMNS,
    influence_by_application,
    influence_by_arch_application,
    influence_by_architecture,
    linear_fit_quality,
)
from repro.core.labeling import label_optimal
from repro.core.pruning import hill_climb, prune_space
from repro.core.recommend import (
    Recommendation,
    WorstTrend,
    best_variable_values,
    recommend,
    worst_trends,
)
from repro.core.sweep import SweepPlan, run_sweep
from repro.errors import ConvergenceError, SchemaError
from repro.frame.ops import concat_tables
from repro.frame.table import Table
from repro.mlkit.logreg import LogisticRegression
from repro.mlkit.preprocess import LabelEncoder, Standardizer
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

    @pytest.mark.parametrize("fn", [influence_by_application,
                                    influence_by_architecture,
                                    influence_by_arch_application])
    def test_empty_table_without_optimal_rejected(self, fn):
        """An empty table is rejected for a missing ``optimal`` column
        exactly like one with rows, not answered with an empty matrix."""
        names = ["arch", "app"] + list(influence_mod._ENV_FEATURES)
        with pytest.raises(SchemaError, match="optimal"):
            fn(Table.empty(names))
        assert fn(Table.empty(names + ["optimal"])).rows == ()

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

    def test_empty_table_has_no_trends(self):
        empty = Table.empty(["app", "arch", "speedup"] + list(
            _ORACLE_VARIABLES))
        assert worst_trends(empty) == []
        assert best_variable_values(empty) == []
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


# ----------------------------------------------------------------------
# Influence reference: the per-group pipeline as first written — one
# sub-table per group (hash-based grouping), a fresh ``LabelEncoder`` per
# categorical feature and group, and a Newton loop that re-evaluates the
# loss and gradient at the top of every iteration.  The shipped code
# encodes each column once per table and carries accepted steps forward;
# its output must equal this exactly.
# ----------------------------------------------------------------------
class OracleNewton(LogisticRegression):
    """:class:`LogisticRegression` with the original Newton loop."""

    def _fit_newton(self, w, Xa, y, pen):
        n = Xa.shape[0]
        damping = 1e-8
        for it in range(1, self.max_iter + 1):
            loss, grad, p = self._loss_grad(w, Xa, y, pen)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < self.tol:
                self.n_iter_ = it
                self.converged_ = True
                self._store(w)
                return
            r = p * (1 - p)
            H = (Xa.T * r) @ Xa / n + np.diag(pen / n)
            step_ok = False
            local_damping = damping
            for _ in range(30):
                try:
                    delta = np.linalg.solve(
                        H + local_damping * np.eye(H.shape[0]), grad
                    )
                except np.linalg.LinAlgError:
                    local_damping = max(local_damping * 10, 1e-10)
                    continue
                new_w = w - delta
                new_loss, _, _ = self._loss_grad(new_w, Xa, y, pen)
                if new_loss <= loss + 1e-12:
                    w = new_w
                    step_ok = True
                    break
                local_damping = max(local_damping * 10, 1e-10)
            if not step_ok:
                self.n_iter_ = it
                self.converged_ = gnorm < 1e-4
                self._store(w)
                return
        self.n_iter_ = self.max_iter
        _, grad, _ = self._loss_grad(w, Xa, y, pen)
        self.converged_ = float(np.linalg.norm(grad)) < max(self.tol, 1e-4)
        self._store(w)
        if not self.converged_:
            raise ConvergenceError("oracle newton did not converge")


def oracle_design(sub, columns):
    """A group's design matrix from per-column ``LabelEncoder`` fits."""
    cols = []
    for col in columns:
        values = sub.column(col)
        if col in ("num_threads", "align_alloc"):
            cols.append(np.asarray(values, dtype=float))
        else:
            cols.append(
                LabelEncoder().fit_transform(list(values)).astype(float))
    return np.stack(cols, axis=1)


def oracle_encode_groups(table, by, columns):
    """Drop-in reference for ``influence._encode_groups``."""
    return [(label, oracle_design(table.take(rows), columns), rows)
            for label, rows in table._group_indices_python(
                [table.column(n) for n in by])]


def oracle_feature_matrix(table, columns, order=None, group_of_row=None):
    """Drop-in reference for ``influence._feature_matrix`` over the
    whole table."""
    assert order is None and group_of_row is None
    return oracle_design(table, columns)


def oracle_influence(table, by, columns, l2=1.0):
    """``(label, importances, accuracy, n_samples)`` per group."""
    out = []
    for label, sub in table._group_by_python(list(by)):
        X_raw = oracle_design(sub, columns)
        y = np.asarray(sub.column("optimal"), dtype=float)
        if np.unique(y).shape[0] < 2:
            out.append((label, np.zeros(len(columns)), 1.0, sub.num_rows))
            continue
        X = Standardizer().fit_transform(X_raw)
        model = OracleNewton(l2=l2, solver="newton", max_iter=100, tol=1e-7)
        model.fit(X, y)
        out.append((label, model.normalized_importances(),
                    model.score(X, y), sub.num_rows))
    return out


_ENV = influence_mod._ENV_FEATURES
_GROUPINGS = {
    "per-application": (influence_by_application, ("app",),
                        ("arch",) + _ENV),
    "per-architecture": (influence_by_architecture, ("arch",),
                         ("app",) + _ENV),
    "per-arch-application": (influence_by_arch_application,
                             ("arch", "app"), _ENV),
}


def matches_oracle(table, grouping):
    """Whether the shipped influence matrix equals the reference
    exactly: labels, importances, accuracies and sample counts."""
    fn, by, columns = _GROUPINGS[grouping]
    got = fn(table)
    want = oracle_influence(table, by, columns)
    assert got.grouping == grouping
    return len(got.rows) == len(want) and all(
        repr(r.label) == repr(label)  # a nan key never equals itself
        and r.feature_names == tuple(FEATURE_COLUMNS[c] for c in columns)
        and r.importances.shape == imp.shape
        and bool((r.importances == imp).all())
        and r.accuracy == acc
        and r.n_samples == n
        for r, (label, imp, acc, n) in zip(got.rows, want)
    )


@pytest.fixture(scope="module")
def labeled_tables(machine_tables):
    """The seed-0 small tables of every machine, labeled, plus their
    concatenation."""
    tables = {arch: label_optimal(t) for arch, t in machine_tables.items()}
    tables["all"] = concat_tables(
        [tables[a] for a in ("milan", "skylake", "a64fx")])
    return tables


def _edge_influence_table(nan_arch=False):
    """Hand-built groups for the encoding contract.

    - ``places``: first appearance within app ``b`` (threads, sockets,
      cores) differs from both sorted order and whole-table order;
    - ``schedule``: app ``b`` lacks ``dynamic``, so its whole-table codes
      have a gap (0, 2, 3);
    - app ``solo`` is a one-row group;
    - ``force_reduction`` is constant, ``arch`` is constant within ``b``;
    - ``blocktime`` is an object column of mixed types (``"0"``, ``0``,
      ``np.int64(0)``, ``True``, ...) and takes the dict path;
    - with ``nan_arch``, ``arch`` is a float column holding ``nan``: it
      takes the dict path too, and each ``nan`` row is its own group.
      (``LabelEncoder`` makes all ``nan`` cells one category where the
      shared encoding gives each its own code, so the reference can only
      take such a column as a group key.)
    """
    rng = np.random.default_rng(7)
    n_a, n_b = 30, 29
    app = ["a"] * n_a + ["b"] * n_b + ["solo"]
    arch = ["m" if i % 3 else "n" for i in range(n_a)] + ["n"] * (n_b + 1)
    places = (["cores", "threads", "sockets"] * 10
              + ["threads", "sockets", "cores"]
              + list(rng.choice(["cores", "threads", "sockets"], n_b - 3))
              + ["sockets"])
    schedule = (["static", "dynamic", "guided", "auto"] * 8)[:n_a] + (
        ["static", "guided", "auto"]
        + list(rng.choice(["static", "guided", "auto"], n_b - 3))
        + ["dynamic"])
    input_size = rng.choice([1.0, 2.0, 4.0], n_a + n_b + 1)
    blocktime = np.empty(n_a + n_b + 1, dtype=object)
    choices = ["0", 0, np.int64(0), "infinite", 200, np.int64(200), True]
    blocktime[:] = [choices[i] for i in rng.integers(0, len(choices),
                                                      blocktime.shape[0])]
    n = n_a + n_b + 1
    if nan_arch:
        arch = np.asarray([{"m": 1.0, "n": 2.0}[a] for a in arch])
        arch[[3, 40, 41]] = np.nan
    return Table({
        "arch": arch,
        "app": app,
        "input_size": input_size,
        "num_threads": rng.choice([1, 2, 4, 8], n),
        "places": places,
        "proc_bind": list(rng.choice(["close", "spread", "master"], n)),
        "schedule": schedule,
        "library": list(rng.choice(["throughput", "turnaround"], n)),
        "blocktime": blocktime,
        "force_reduction": ["unset"] * n,
        "align_alloc": rng.choice([0, 64, 128], n),
        "optimal": rng.integers(0, 2, n),
    })


class TestInfluenceOracle:
    @pytest.mark.parametrize("grouping", sorted(_GROUPINGS))
    @pytest.mark.parametrize("name", ["milan", "skylake", "a64fx", "all"])
    def test_machine_tables_match_the_oracle(self, labeled_tables, name,
                                             grouping):
        assert matches_oracle(labeled_tables[name], grouping)

    @pytest.mark.parametrize("grouping", sorted(_GROUPINGS))
    def test_edge_table_matches_the_oracle(self, grouping):
        assert matches_oracle(_edge_influence_table(), grouping)

    @pytest.mark.parametrize("grouping", ["per-architecture",
                                          "per-arch-application"])
    def test_nan_key_table_matches_the_oracle(self, grouping):
        table = _edge_influence_table(nan_arch=True)
        assert matches_oracle(table, grouping)
        labels = [r.label for r in _GROUPINGS[grouping][0](table).rows]
        assert sum(np.isnan(label[0]) for label in labels) == 3

    def test_edge_table_covers_its_cases(self):
        table = _edge_influence_table()
        b = table.filter(table.column("app") == "b")
        assert b.unique("places") == ["threads", "sockets", "cores"]
        assert sorted(b.unique("places")) != b.unique("places")
        assert "dynamic" not in b.unique("schedule")[:-1]
        whole = table.codes("schedule")[1][table.column("app") == "b"]
        assert sorted(set(whole[:-1].tolist())) == [0, 2, 3]
        assert [len(rows) for _, rows in table.group_indices("app")] \
            == [30, 29, 1]
        # object uniques: both columns take the dict path of ``codes``
        assert table.codes("blocktime")[0].dtype == object
        assert _edge_influence_table(True).codes("arch")[0].dtype == object
        rows = {r.label: r for r in influence_by_application(table).rows}
        assert rows[("solo",)].n_samples == 1
        assert rows[("b",)].as_dict()["Architecture"] == 0.0
        assert rows[("a",)].as_dict()["KMP_FORCE_REDUCTION"] == 0.0

    def test_nan_feature_cells_are_labels_of_their_own(self):
        """The shared encoding gives each ``nan`` float feature cell its
        own code (``LabelEncoder`` makes them one category)."""
        table = _edge_influence_table()
        size = table.column("input_size").copy()
        size[[0, 3]] = np.nan
        table = table.with_column("input_size", size)
        group_a = influence_mod._encode_groups(
            table, ("app",), ("input_size",))[0]
        codes = group_a[1][:, 0]
        assert codes[0] != codes[3]
        assert sorted(set(codes.tolist())) == list(range(len(set(
            codes.tolist()))))
        for row in influence_by_application(table).rows:
            assert np.isfinite(row.importances).all()

    @pytest.mark.parametrize("name", ["sorted-order", "whole-table"])
    def test_wrong_group_codes_fail_the_oracle(self, monkeypatch, name):
        """Group codes in sorted instead of first-appearance order, or
        the whole table's codes with their gaps, change the fits."""

        def sorted_order(codes, group_of_row, k):
            pairs, inverse = np.unique(group_of_row * k + codes,
                                       return_inverse=True)
            group = pairs // k
            return (np.arange(pairs.shape[0])
                    - np.searchsorted(group, group))[inverse]

        def whole_table(codes, group_of_row, k):
            return codes

        monkeypatch.setattr(influence_mod, "_group_local_codes",
                            {"sorted-order": sorted_order,
                             "whole-table": whole_table}[name])
        assert not matches_oracle(_edge_influence_table(), "per-application")

    @pytest.mark.parametrize("name", ["milan", "all"])
    def test_group_designs_equal_label_encoder_designs(self, labeled_tables,
                                                       name):
        table = labeled_tables[name]
        for _, by, columns in _GROUPINGS.values():
            got = influence_mod._encode_groups(table, by, columns)
            want = oracle_encode_groups(table, by, columns)
            assert [label for label, _, _ in got] \
                == [label for label, _, _ in want]
            for (_, X, rows), (_, X_ref, rows_ref) in zip(got, want):
                assert np.array_equal(rows, rows_ref)
                assert X.flags.c_contiguous
                assert np.array_equal(X, X_ref)
        assert np.array_equal(influence_mod._feature_matrix(table, _ENV),
                              oracle_design(table, _ENV))

    def test_newton_evaluates_each_iterate_once(self, labeled_tables,
                                                monkeypatch):
        """Over the seed-0 tables the 79 fits evaluate the loss and
        gradient 492 times (the original loop: 905) and land on the same
        iterates: ``n_iter_`` and ``coef_`` are unchanged."""
        evaluations = [0]
        fits = []
        real_loss_grad = LogisticRegression._loss_grad
        real_fit = LogisticRegression.fit

        def counting(self, *args):
            evaluations[0] += 1
            return real_loss_grad(self, *args)

        def recording(self, X, y):
            fits.append((np.array(X), np.array(y), self))
            return real_fit(self, X, y)

        monkeypatch.setattr(LogisticRegression, "_loss_grad", counting)
        monkeypatch.setattr(LogisticRegression, "fit", recording)
        for arch in ("milan", "skylake", "a64fx"):
            for fn, _, _ in _GROUPINGS.values():
                fn(labeled_tables[arch])
        assert len(fits) == 79
        assert evaluations[0] == 492
        evaluations[0] = 0
        for X, y, model in fits:
            ref = OracleNewton(l2=model.l2, solver=model.solver,
                               max_iter=model.max_iter, tol=model.tol)
            real_fit(ref, X, y)
            assert ref.n_iter_ == model.n_iter_
            assert ref.converged_ == model.converged_
            assert np.array_equal(ref.coef_, model.coef_)
            assert ref.intercept_ == model.intercept_
        assert evaluations[0] == 905


class TestEncodingCallers:
    """The other users of the influence encoding give what the
    per-group ``LabelEncoder`` reference gives, exactly."""

    def test_nonlinear_matches_the_reference(self, labeled_tables,
                                             monkeypatch):
        table = labeled_tables["milan"]

        def run():
            return (
                [(r.label, r.importances.tolist(), r.accuracy, r.n_samples)
                 for by in (("arch",), ("app",))
                 for r in nonlinear_mod.forest_influence(
                     table, by=by, n_trees=4, max_depth=5).rows],
                [nonlinear_mod.compare_models(table, by=by, n_trees=4,
                                              max_depth=5)
                 for by in (("arch",), ("app",))],
            )

        got = run()
        monkeypatch.setattr(nonlinear_mod, "_encode_groups",
                            oracle_encode_groups)
        assert got == run()

    def test_transfer_and_linear_fit_match_the_reference(
            self, labeled_tables, monkeypatch):
        table = labeled_tables["milan"]

        def run():
            return (transfer_mod.leave_one_app_out(
                        table, apps=table.unique("app")[:2], n_trees=3,
                        max_depth=5),
                    linear_fit_quality(table))

        got = run()
        monkeypatch.setattr(transfer_mod, "_feature_matrix",
                            oracle_feature_matrix)
        monkeypatch.setattr(influence_mod, "_feature_matrix",
                            oracle_feature_matrix)
        assert got == run()


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
