"""Feature-influence analysis via logistic regression (paper Sec. IV-D, V).

For each group (per architecture-application, per application, per
architecture) a logistic classifier separates optimal from sub-optimal
samples; the weight-normalized absolute coefficients of the fitted model
are read as each feature's *influence* on tuning outcome.  Those rows,
stacked, are the heat maps of Figs. 2-4.

Features follow the paper: input size, thread count and the seven swept
environment variables everywhere, plus an application and/or architecture
code depending on grouping, all via the "naive numeric scheme" (ordinal
label encoding) and z-score standardization so coefficient magnitudes are
comparable.

A feature that is constant within a group (e.g. "architecture" for Sort,
which only ran on A64FX) standardizes to zero and receives zero influence
— exactly the paper's "no reliance" observation for Sort/Strassen.

Encoding contract.  A categorical feature's code within a group is what
:class:`~repro.mlkit.preprocess.LabelEncoder` fitted on the group's rows
would give: labels numbered ``0..k-1`` by first appearance *within the
group* (not sorted order, and without the gaps the whole-table codes
leave where a group lacks a label — gaps would change the standardized
spacing), with the encoder's ``dict`` key equality (``np.generic`` cells
as their ``.item()``), except that each ``nan`` float cell is a label of
its own where the encoder makes all ``nan`` cells one.  No encoder is
fitted, though: each column is factorized once per table
(:meth:`~repro.frame.table.Table.codes`) and re-ranked per group in one
vectorized pass (:func:`_group_local_codes`); every group's design
matrix is a row slice of one matrix per grouping.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchemaError
from repro.frame.table import Table
from repro.mlkit.linreg import LinearRegression
from repro.mlkit.logreg import LogisticRegression
from repro.mlkit.preprocess import Standardizer

__all__ = [
    "FEATURE_COLUMNS",
    "GroupInfluence",
    "InfluenceMatrix",
    "influence_by_arch_application",
    "influence_by_application",
    "influence_by_architecture",
    "linear_fit_quality",
]

#: Dataset column -> heat-map feature label, in presentation order.
FEATURE_COLUMNS: dict[str, str] = {
    "arch": "Architecture",
    "app": "Application",
    "input_size": "Input Size",
    "num_threads": "OMP_NUM_THREADS",
    "places": "OMP_PLACES",
    "proc_bind": "OMP_PROC_BIND",
    "schedule": "OMP_SCHEDULE",
    "library": "KMP_LIBRARY",
    "blocktime": "KMP_BLOCKTIME",
    "force_reduction": "KMP_FORCE_REDUCTION",
    "align_alloc": "KMP_ALIGN_ALLOC",
}

_NUMERIC_COLUMNS = {"num_threads", "align_alloc"}


@dataclass(frozen=True)
class GroupInfluence:
    """One heat-map row."""

    label: tuple
    feature_names: tuple[str, ...]
    importances: np.ndarray = field(repr=False)
    accuracy: float
    n_samples: int

    def as_dict(self) -> dict[str, float]:
        """Feature label -> influence."""
        return dict(zip(self.feature_names, self.importances.tolist()))

    def top_features(self, k: int = 3) -> list[str]:
        """The ``k`` most influential feature labels, descending."""
        order = np.argsort(self.importances)[::-1]
        return [self.feature_names[i] for i in order[:k]]


@dataclass(frozen=True)
class InfluenceMatrix:
    """A full heat map: one :class:`GroupInfluence` per row."""

    grouping: str
    rows: tuple[GroupInfluence, ...]

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Heat-map column labels (shared by every row)."""
        return self.rows[0].feature_names if self.rows else ()

    @property
    def row_labels(self) -> list[str]:
        """Heat-map row labels ("arch/app" style for composite keys)."""
        return ["/".join(str(p) for p in r.label) for r in self.rows]

    def matrix(self) -> np.ndarray:
        """(n_rows, n_features) influence array."""
        return np.stack([r.importances for r in self.rows])

    def mean_accuracy(self) -> float:
        """Average in-sample accuracy across groups."""
        return float(np.mean([r.accuracy for r in self.rows]))

    def to_table(self) -> Table:
        """Render as a :class:`~repro.frame.Table` (one row per group)."""
        records = []
        for r in self.rows:
            rec: dict = {"group": "/".join(str(p) for p in r.label)}
            rec.update(r.as_dict())
            rec["accuracy"] = r.accuracy
            rec["n_samples"] = r.n_samples
            records.append(rec)
        return Table.from_records(records)

    def column_mean(self, feature: str) -> float:
        """Average influence of one feature across all rows."""
        idx = self.feature_names.index(feature)
        return float(self.matrix()[:, idx].mean())


def _group_local_codes(
    codes: np.ndarray, group_of_row: np.ndarray, k: int
) -> np.ndarray:
    """Re-rank whole-table ``codes`` (``0..k-1``) within each group.

    Each row's code becomes the first-appearance rank of its value among
    its group's rows — what a ``LabelEncoder`` fitted on that group alone
    assigns.  One ``np.unique`` over the (group, code) pairs finds each
    pair's first row; sorting the pairs by (group, first row) and
    counting from each group's first pair ranks them.
    """
    pairs, first, inverse = np.unique(
        group_of_row * k + codes, return_index=True, return_inverse=True
    )
    pair_group = pairs // k
    ranked = np.lexsort((first, pair_group))
    local = np.empty(pairs.shape[0], dtype=np.int64)
    # ``pairs`` is sorted, so each group's pairs form one run of
    # ``pair_group`` and searchsorted finds the run's start.
    local[ranked] = (np.arange(pairs.shape[0])
                     - np.searchsorted(pair_group, pair_group))
    return local[inverse.reshape(-1)]


def _feature_matrix(
    table: Table,
    columns: Sequence[str],
    order: np.ndarray | None = None,
    group_of_row: np.ndarray | None = None,
) -> np.ndarray:
    """Design matrix (naive ordinal encoding) over rows ``order`` (every
    row when ``None``); categorical codes are local to each group of
    ``group_of_row`` when it is given, else to the whole table."""
    if order is None:
        order = np.arange(table.num_rows)
    X = np.empty((order.shape[0], len(columns)))
    for j, col in enumerate(columns):
        if col in _NUMERIC_COLUMNS:
            X[:, j] = np.asarray(table.column(col), dtype=float)[order]
            continue
        uniques, codes = table.codes(col)
        codes = codes[order]
        if group_of_row is not None:
            codes = _group_local_codes(codes, group_of_row, uniques.shape[0])
        X[:, j] = codes
    return X


def _feature_names(columns: Sequence[str]) -> list[str]:
    return [FEATURE_COLUMNS.get(col, col) for col in columns]


def _encode_groups(
    table: Table, by: Sequence[str], columns: Sequence[str]
) -> list[tuple[tuple, np.ndarray, np.ndarray]]:
    """``[(label, X, rows), ...]`` per group of ``by``, in group order.

    ``rows`` are the group's table rows (table order) and ``X`` its design
    matrix with group-local codes: a row slice of one matrix built over
    every row in group order.
    """
    groups = table.group_indices(list(by))
    if not groups:
        return []
    sizes = np.asarray([rows.shape[0] for _, rows in groups])
    order = np.concatenate([rows for _, rows in groups])
    group_of_row = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
    X = _feature_matrix(table, columns, order, group_of_row)
    stops = np.cumsum(sizes).tolist()
    return [
        (label, X[stop - rows.shape[0]:stop], rows)
        for (label, rows), stop in zip(groups, stops)
    ]


def _group_influence(
    label: tuple, X_raw: np.ndarray, y: np.ndarray, names: list[str], l2: float
) -> GroupInfluence:
    if np.unique(y).shape[0] < 2:
        # Degenerate group: nothing separates optimal from sub-optimal.
        return GroupInfluence(
            label=label,
            feature_names=tuple(names),
            importances=np.zeros(len(names)),
            accuracy=1.0,
            n_samples=y.shape[0],
        )
    X = Standardizer().fit_transform(X_raw)
    model = LogisticRegression(l2=l2, solver="newton", max_iter=100, tol=1e-7)
    model.fit(X, y)
    return GroupInfluence(
        label=label,
        feature_names=tuple(names),
        importances=model.normalized_importances(),
        accuracy=model.score(X, y),
        n_samples=y.shape[0],
    )


def _influence(
    table: Table,
    by: Sequence[str],
    feature_cols: Sequence[str],
    grouping: str,
    l2: float,
) -> InfluenceMatrix:
    missing = [c for c in list(by) + list(feature_cols) if c not in table]
    if missing:
        raise SchemaError(f"influence analysis: missing columns {missing}")
    if "optimal" not in table:
        raise SchemaError("influence analysis needs the 'optimal' column")
    names = _feature_names(feature_cols)
    y = np.asarray(table.column("optimal"), dtype=float)
    return InfluenceMatrix(grouping=grouping, rows=tuple(
        _group_influence(label, X, y[idx], names, l2)
        for label, X, idx in _encode_groups(table, by, feature_cols)
    ))


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


def influence_by_arch_application(table: Table, l2: float = 1.0) -> InfluenceMatrix:
    """Fig. 4 grouping: one row per (architecture, application)."""
    return _influence(
        table, ("arch", "app"), _ENV_FEATURES, "per-arch-application", l2
    )


def influence_by_application(table: Table, l2: float = 1.0) -> InfluenceMatrix:
    """Fig. 2 grouping: one row per application, architecture as feature."""
    return _influence(
        table, ("app",), ("arch",) + _ENV_FEATURES, "per-application", l2
    )


def influence_by_architecture(table: Table, l2: float = 1.0) -> InfluenceMatrix:
    """Fig. 3 grouping: one row per architecture, application as feature."""
    return _influence(
        table, ("arch",), ("app",) + _ENV_FEATURES, "per-architecture", l2
    )


def linear_fit_quality(table: Table, target: str = "runtime_mean") -> float:
    """R² of an OLS fit of ``target`` on the env features.

    Reproduces the paper's negative result: runtimes are not linear in the
    naive-encoded features, which is why the analysis pivots to
    classification.
    """
    if target not in table:
        raise SchemaError(f"linear_fit_quality: no column {target!r}")
    X_raw = _feature_matrix(table, _ENV_FEATURES)
    y = np.asarray(table.column(target), dtype=float)
    X = Standardizer().fit_transform(X_raw)
    model = LinearRegression().fit(X, y)
    return model.score(X, y)
