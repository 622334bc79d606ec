"""Transfer to unseen applications — the paper's closing caveat, tested.

Sec. VI: *"there is no guarantee this knowledge can be transferred to new
unseen applications or architectures"* and the future work asks for
*"methods to fine-tune these models with limited data of prior unseen
applications"*.  This module turns that caveat into a measurable
experiment:

- :func:`leave_one_app_out` — train the optimal/sub-optimal classifier on
  all-but-one application, evaluate on the held-out app; the accuracy
  drop vs in-sample quantifies (non-)transferability per app,
- :func:`recommend_for_unseen` — transfer a *configuration* instead of a
  model: take the top configurations of the k most similar seen apps
  (similarity = cosine of their influence rows) and score the regret of
  applying them to the unseen app,
- :func:`fine_tune` — the "limited data" protocol: blend the transferred
  prior with n observed samples of the new app and track how quickly the
  recommendation regret closes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.influence import _feature_matrix, influence_by_arch_application
from repro.errors import DatasetError, SchemaError
from repro.frame.table import Table
from repro.mlkit.preprocess import Standardizer
from repro.mlkit.tree import RandomForestClassifier

__all__ = [
    "TransferResult",
    "leave_one_app_out",
    "UnseenRecommendation",
    "recommend_for_unseen",
    "fine_tune",
]

_FEATURES = (
    "arch",
    "input_size",
    "num_threads",
    "places",
    "proc_bind",
    "schedule",
    "library",
    "blocktime",
    "force_reduction",
    "align_alloc",
)

_CONFIG_COLS = (
    "places",
    "proc_bind",
    "schedule",
    "library",
    "blocktime",
    "force_reduction",
    "align_alloc",
)


@dataclass(frozen=True)
class TransferResult:
    """Held-out evaluation for one application."""

    app: str
    n_train: int
    n_test: int
    #: Accuracy of a model trained *with* the app included (upper bound).
    in_sample_accuracy: float
    #: Accuracy on the app when it was held out of training.
    transfer_accuracy: float

    @property
    def transfer_gap(self) -> float:
        """How much is lost by never having seen the application."""
        return self.in_sample_accuracy - self.transfer_accuracy


def _require(table: Table, op: str) -> None:
    missing = [c for c in _FEATURES + ("app", "optimal") if c not in table]
    if missing:
        raise SchemaError(f"{op}: missing columns {missing}")


def leave_one_app_out(
    table: Table,
    apps: Sequence[str] | None = None,
    n_trees: int = 15,
    max_depth: int = 8,
    seed: int = 0,
) -> list[TransferResult]:
    """Hold out each app in turn; measure classifier transfer."""
    _require(table, "leave_one_app_out")
    all_apps = table.unique("app")
    targets = list(apps) if apps is not None else all_apps
    X_all = _feature_matrix(table, _FEATURES)
    y_all = np.asarray(table.column("optimal"), dtype=float)
    app_col = np.asarray([str(a) for a in table.column("app")], dtype=object)

    out: list[TransferResult] = []
    for app in targets:
        test_mask = app_col == app
        if not test_mask.any() or test_mask.all():
            raise DatasetError(f"cannot hold out {app!r}: degenerate split")
        X_tr, y_tr = X_all[~test_mask], y_all[~test_mask]
        X_te, y_te = X_all[test_mask], y_all[test_mask]

        transfer_model = RandomForestClassifier(
            n_trees=n_trees, max_depth=max_depth, seed=seed
        ).fit(X_tr, y_tr)
        full_model = RandomForestClassifier(
            n_trees=n_trees, max_depth=max_depth, seed=seed
        ).fit(X_all, y_all)

        out.append(
            TransferResult(
                app=app,
                n_train=int((~test_mask).sum()),
                n_test=int(test_mask.sum()),
                in_sample_accuracy=full_model.score(X_te, y_te),
                transfer_accuracy=transfer_model.score(X_te, y_te),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Configuration transfer
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UnseenRecommendation:
    """A configuration transferred to an unseen application."""

    app: str
    arch: str
    donor_apps: tuple[str, ...]
    #: The transferred configuration, as dataset config-column values.
    config: dict
    #: Speedup the config actually achieves on the unseen app.
    achieved_speedup: float
    #: Best speedup any swept config achieves on the unseen app.
    best_speedup: float

    @property
    def regret(self) -> float:
        """Fraction of the achievable speedup left on the table."""
        if self.best_speedup <= 1.0:
            return 0.0
        return max(
            0.0,
            (self.best_speedup - self.achieved_speedup)
            / (self.best_speedup - 1.0),
        )


def _config_key(row: dict) -> tuple:
    return tuple(row[c] for c in _CONFIG_COLS)


def _app_influence_vectors(table: Table, arch: str) -> dict[str, np.ndarray]:
    inf = influence_by_arch_application(table)
    return {
        r.label[1]: r.importances
        for r in inf.rows
        if r.label[0] == arch
    }


def recommend_for_unseen(
    table: Table,
    app: str,
    arch: str,
    k_donors: int = 2,
) -> UnseenRecommendation:
    """Transfer the best configuration of the most similar seen apps.

    Similarity between applications is the cosine of their influence
    rows on ``arch`` (computed *without* using the target app's rows for
    donor selection beyond its own influence signature, which a user
    could estimate from a handful of probe runs).
    """
    if "speedup" not in table:
        raise SchemaError("recommend_for_unseen needs the 'speedup' column")
    arch_mask = np.asarray([a == arch for a in table.column("arch")])
    sub = table.filter(arch_mask)
    vectors = _app_influence_vectors(sub, arch)
    if app not in vectors:
        raise DatasetError(f"no data for app {app!r} on {arch}")
    target_vec = vectors[app]

    def cosine(a: np.ndarray, b: np.ndarray) -> float:
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))

    donors = sorted(
        (other for other in vectors if other != app),
        key=lambda other: -cosine(target_vec, vectors[other]),
    )[:k_donors]
    if not donors:
        raise DatasetError("need at least two applications for transfer")

    # Donor vote: mean speedup of each config across donor apps —
    # restricted to configs the target app was actually swept with, so a
    # subsampled dataset can always score the transfer.
    app_col = np.asarray([str(a) for a in sub.column("app")], dtype=object)
    target_rows = sub.filter(app_col == app)
    target_configs: dict[tuple, float] = {}
    best = 1.0
    for row in target_rows.iter_rows():
        key = _config_key(row)
        target_configs[key] = max(target_configs.get(key, 0.0), row["speedup"])
        best = max(best, row["speedup"])

    votes: dict[tuple, list[float]] = {}
    for donor in donors:
        donor_rows = sub.filter(app_col == donor)
        for row in donor_rows.iter_rows():
            key = _config_key(row)
            if key in target_configs:
                votes.setdefault(key, []).append(row["speedup"])
    if not votes:
        raise DatasetError(
            "no overlapping configurations between donors and target"
        )
    best_config = max(votes, key=lambda key: float(np.mean(votes[key])))
    achieved = target_configs[best_config]
    return UnseenRecommendation(
        app=app,
        arch=arch,
        donor_apps=tuple(donors),
        config=dict(zip(_CONFIG_COLS, best_config)),
        achieved_speedup=float(achieved),
        best_speedup=float(best),
    )


def fine_tune(
    table: Table,
    app: str,
    arch: str,
    budgets: Sequence[int] = (0, 4, 16, 64),
    seed: int = 0,
) -> list[tuple[int, float]]:
    """The limited-data protocol: with ``n`` observed samples of the new
    app, pick the best config among {transferred prior} + {n probes}.

    Returns ``[(budget, regret), ...]`` — regret must be non-increasing
    in the budget (more probes never hurt, since the prior stays in the
    candidate set).
    """
    prior = recommend_for_unseen(table, app, arch)
    arch_mask = np.asarray([a == arch for a in table.column("arch")])
    sub = table.filter(arch_mask)
    app_col = np.asarray([str(a) for a in sub.column("app")], dtype=object)
    target = sub.filter(app_col == app)
    speedups = np.asarray(target.column("speedup"), dtype=float)
    best = float(speedups.max())

    rng = np.random.default_rng(seed)
    order = rng.permutation(target.num_rows)
    out: list[tuple[int, float]] = []
    for budget in budgets:
        probes = speedups[order[:budget]]
        achieved = max(
            prior.achieved_speedup, float(probes.max()) if budget else 0.0
        )
        regret = (
            0.0
            if best <= 1.0
            else max(0.0, (best - achieved) / (best - 1.0))
        )
        out.append((int(budget), regret))
    return out
