"""Feature preprocessing: standardization and categorical encoders.

The paper encodes applications, architectures and categorical environment
variables with a "naive numeric scheme" — ordinal integer codes — which is
:class:`LabelEncoder` here.  :class:`OneHotEncoder` is provided as the more
robust alternative the paper mentions, and :class:`Standardizer` implements
z-score normalization so logistic coefficients are magnitude-comparable
across features (a prerequisite for reading them as influence).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import FitError, NotFittedError

__all__ = ["Standardizer", "LabelEncoder", "OneHotEncoder"]

#: The one ``nan`` every ``nan`` cell is keyed as: ``nan != nan``, and
#: ``np.float64.item()`` makes a fresh ``float`` per call, so without it
#: no ``nan`` cell would ever find the key another one stored.
_NAN = float("nan")


def _category(v: Any) -> Any:
    """The ``dict`` key of one cell: ``np.generic`` as its ``.item()``,
    any ``nan`` as :data:`_NAN`."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and v != v:
        return _NAN
    return v


def _category_index(values: Sequence[Any]) -> dict[Any, int]:
    """Category -> code in order of first appearance; all ``nan`` cells
    form one category, as in scikit-learn's encoders."""
    index: dict[Any, int] = {}
    for v in values:
        index.setdefault(_category(v), len(index))
    return index


class Standardizer:
    """Per-feature z-score scaling: ``(x - mean) / std``.

    Constant features (std == 0) are centered but not scaled, so they map to
    all-zeros instead of NaN — matching scikit-learn's ``StandardScaler``
    handling of zero variance.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        """Learn per-column mean and scale from ``X`` (n_samples, n_features)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise FitError(f"expected 2-D design matrix, got shape {X.shape}")
        if X.shape[0] == 0:
            raise FitError("cannot fit Standardizer on zero samples")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned scaling."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("Standardizer.transform before fit")
        X = np.asarray(X, dtype=float)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        """Undo the scaling."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("Standardizer.inverse_transform before fit")
        return np.asarray(X, dtype=float) * self.scale_ + self.mean_


class LabelEncoder:
    """Ordinal encoder: category -> integer code by first appearance.

    This is the paper's "naive numeric scheme" for applications and
    architectures.  Unknown categories at transform time raise unless a
    default is configured.
    """

    def __init__(self, unknown_code: int | None = None):
        self.classes_: list[Any] | None = None
        self._index: dict[Any, int] = {}
        self.unknown_code = unknown_code

    def fit(self, values: Sequence[Any]) -> "LabelEncoder":
        """Learn the category -> code mapping (order of first appearance)."""
        self._index = _category_index(values)
        self.classes_ = list(self._index)
        return self

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        """Map categories to their integer codes."""
        if self.classes_ is None:
            raise NotFittedError("LabelEncoder.transform before fit")
        out = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            v = _category(v)
            code = self._index.get(v)
            if code is None:
                if self.unknown_code is None:
                    raise FitError(f"unknown category {v!r}")
                code = self.unknown_code
            out[i] = code
        return out

    def fit_transform(self, values: Sequence[Any]) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(values).transform(values)

    def inverse_transform(self, codes: Sequence[int]) -> list:
        """Map integer codes back to categories."""
        if self.classes_ is None:
            raise NotFittedError("LabelEncoder.inverse_transform before fit")
        out = []
        for c in codes:
            c = int(c)
            if not 0 <= c < len(self.classes_):
                raise FitError(f"code {c} out of range")
            out.append(self.classes_[c])
        return out


class OneHotEncoder:
    """Dense one-hot encoding of a single categorical column."""

    def __init__(self) -> None:
        self.classes_: list[Any] | None = None
        self._index: dict[Any, int] = {}

    def fit(self, values: Sequence[Any]) -> "OneHotEncoder":
        """Learn the category set (order of first appearance)."""
        self._index = _category_index(values)
        self.classes_ = list(self._index)
        return self

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        """(n, n_classes) indicator matrix."""
        if self.classes_ is None:
            raise NotFittedError("OneHotEncoder.transform before fit")
        out = np.zeros((len(values), len(self.classes_)))
        for i, v in enumerate(values):
            v = _category(v)
            j = self._index.get(v)
            if j is None:
                raise FitError(f"unknown category {v!r}")
            out[i, j] = 1.0
        return out

    def fit_transform(self, values: Sequence[Any]) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(values).transform(values)

    def feature_names(self, prefix: str) -> list[str]:
        """Column names for the indicator matrix, ``prefix=value`` style."""
        if self.classes_ is None:
            raise NotFittedError("OneHotEncoder.feature_names before fit")
        return [f"{prefix}={c}" for c in self.classes_]
