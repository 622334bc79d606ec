"""Non-linear influence analysis — the paper's stated future work.

The conclusion of the paper: *"The development of non-linear approaches
to model such data ... is a suitable path forward."*  This module is that
step: the same optimal/sub-optimal classification task, solved with a
random forest whose impurity importances replace the logistic
coefficients.  Interactions the linear model cannot express — "turnaround
only matters for task apps", "fewer threads only helps on Milan" — show
up both as higher accuracy and as redistributed importances.

:func:`compare_models` fits both model families per group and reports the
accuracy gap, quantifying how much signal the paper's "simplest-first"
linear approach leaves on the table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.influence import (
    GroupInfluence,
    InfluenceMatrix,
    _encode_groups,
    _feature_names,
)
from repro.errors import SchemaError
from repro.frame.table import Table
from repro.mlkit.logreg import LogisticRegression
from repro.mlkit.metrics import roc_auc_score
from repro.mlkit.preprocess import Standardizer
from repro.mlkit.tree import RandomForestClassifier

__all__ = [
    "forest_influence",
    "ModelComparison",
    "compare_models",
]

_ENV_FEATURES = (
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


def _forest_group(
    label: tuple,
    X: np.ndarray,
    y: np.ndarray,
    names: list[str],
    n_trees: int,
    max_depth: int,
    seed: int,
) -> GroupInfluence:
    if np.unique(y).shape[0] < 2:
        return GroupInfluence(
            label=label,
            feature_names=tuple(names),
            importances=np.zeros(len(names)),
            accuracy=1.0,
            n_samples=y.shape[0],
        )
    model = RandomForestClassifier(
        n_trees=n_trees, max_depth=max_depth, seed=seed
    ).fit(X, y)
    return GroupInfluence(
        label=label,
        feature_names=tuple(names),
        importances=model.normalized_importances(),
        accuracy=model.score(X, y),
        n_samples=y.shape[0],
    )


def forest_influence(
    table: Table,
    by: Sequence[str] = ("arch",),
    n_trees: int = 20,
    max_depth: int = 9,
    seed: int = 0,
) -> InfluenceMatrix:
    """Random-forest influence matrix under an arbitrary grouping.

    ``by = ("arch",)`` mirrors Fig. 3; ``("app",)`` mirrors Fig. 2 — with
    the contextual feature (application or architecture) added exactly as
    the linear pipeline does.
    """
    extra: tuple[str, ...] = ()
    if "arch" not in by:
        extra += ("arch",)
    if "app" not in by:
        extra += ("app",)
    feature_cols = extra + _ENV_FEATURES
    missing = [c for c in list(by) + list(feature_cols) if c not in table]
    if missing:
        raise SchemaError(f"forest influence: missing columns {missing}")
    if "optimal" not in table:
        raise SchemaError("forest influence needs the 'optimal' column")
    names = _feature_names(feature_cols)
    y = np.asarray(table.column("optimal"), dtype=float)
    rows = tuple(
        _forest_group(label, X, y[idx], names, n_trees, max_depth, seed)
        for label, X, idx in _encode_groups(table, by, feature_cols)
    )
    return InfluenceMatrix(grouping="forest-by-" + "-".join(by), rows=rows)


@dataclass(frozen=True)
class ModelComparison:
    """Linear vs non-linear classification quality for one group."""

    label: tuple
    n_samples: int
    linear_accuracy: float
    forest_accuracy: float
    #: Threshold-free ranking quality (area under the ROC curve).
    linear_auc: float
    forest_auc: float
    #: Features whose rank moved most between the two attributions.
    top_linear: tuple[str, ...]
    top_forest: tuple[str, ...]

    @property
    def accuracy_gain(self) -> float:
        """What the non-linear model buys at the 0.5 threshold."""
        return self.forest_accuracy - self.linear_accuracy

    @property
    def auc_gain(self) -> float:
        """What the non-linear model buys in ranking quality."""
        return self.forest_auc - self.linear_auc


def compare_models(
    table: Table,
    by: Sequence[str] = ("arch",),
    n_trees: int = 20,
    max_depth: int = 9,
    seed: int = 0,
) -> list[ModelComparison]:
    """Fit logistic and forest per group; report accuracies and top
    features of each attribution."""
    extra: tuple[str, ...] = ()
    if "arch" not in by:
        extra += ("arch",)
    if "app" not in by:
        extra += ("app",)
    feature_cols = extra + _ENV_FEATURES

    names = _feature_names(feature_cols)
    y_all = np.asarray(table.column("optimal"), dtype=float)
    out: list[ModelComparison] = []
    for label, X_raw, idx in _encode_groups(table, by, feature_cols):
        y = y_all[idx]
        if np.unique(y).shape[0] < 2:
            continue
        Xz = Standardizer().fit_transform(X_raw)
        linear = LogisticRegression(l2=1.0).fit(Xz, y)
        forest = RandomForestClassifier(
            n_trees=n_trees, max_depth=max_depth, seed=seed
        ).fit(X_raw, y)
        lin_imp = linear.normalized_importances()
        for_imp = forest.normalized_importances()
        out.append(
            ModelComparison(
                label=label,
                n_samples=y.shape[0],
                linear_accuracy=linear.score(Xz, y),
                forest_accuracy=forest.score(X_raw, y),
                linear_auc=roc_auc_score(y, linear.predict_proba(Xz)),
                forest_auc=roc_auc_score(y, forest.predict_proba(X_raw)),
                top_linear=tuple(
                    names[i] for i in np.argsort(lin_imp)[::-1][:3]
                ),
                top_forest=tuple(
                    names[i] for i in np.argsort(for_imp)[::-1][:3]
                ),
            )
        )
    return out
