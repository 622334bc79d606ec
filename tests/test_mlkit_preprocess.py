"""Tests for standardization and encoders."""

import numpy as np
import pytest

from repro.errors import FitError, NotFittedError
from repro.mlkit.preprocess import LabelEncoder, OneHotEncoder, Standardizer


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = Standardizer().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = Standardizer().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)
        assert np.isfinite(Z).all()

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        sc = Standardizer().fit(X)
        assert np.allclose(sc.inverse_transform(sc.transform(X)), X)

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            Standardizer().transform(np.ones((2, 2)))

    def test_1d_rejected(self):
        with pytest.raises(FitError):
            Standardizer().fit(np.ones(5))

    def test_zero_samples_rejected(self):
        with pytest.raises(FitError):
            Standardizer().fit(np.empty((0, 3)))

    def test_transform_unseen_data_uses_train_stats(self):
        train = np.array([[0.0], [2.0]])
        sc = Standardizer().fit(train)
        assert sc.transform(np.array([[4.0]]))[0, 0] == pytest.approx(3.0)


class TestLabelEncoder:
    def test_first_appearance_order(self):
        enc = LabelEncoder().fit(["b", "a", "b", "c"])
        assert enc.classes_ == ["b", "a", "c"]
        assert list(enc.transform(["a", "c", "b"])) == [1, 2, 0]

    def test_inverse(self):
        enc = LabelEncoder().fit(["x", "y"])
        assert enc.inverse_transform([1, 0]) == ["y", "x"]

    def test_unknown_raises(self):
        enc = LabelEncoder().fit(["x"])
        with pytest.raises(FitError):
            enc.transform(["zzz"])

    def test_unknown_code_fallback(self):
        enc = LabelEncoder(unknown_code=-1).fit(["x"])
        assert list(enc.transform(["zzz"])) == [-1]

    def test_numpy_scalars_normalized(self):
        enc = LabelEncoder().fit(np.array(["a", "b"], dtype=object))
        assert list(enc.transform(["b"])) == [1]

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LabelEncoder().transform(["a"])

    def test_inverse_out_of_range(self):
        enc = LabelEncoder().fit(["a"])
        with pytest.raises(FitError):
            enc.inverse_transform([5])

    def test_mixed_type_categories(self):
        enc = LabelEncoder().fit([1, "a", 2.5])
        assert list(enc.transform([2.5, 1])) == [2, 0]

    def test_nan_cells_are_one_category(self):
        """Regression: ``.item()`` made a fresh ``nan`` per pass, so
        ``transform`` never found the ``nan`` that ``fit`` stored."""
        values = np.array([1.0, np.nan, 2.0, np.nan])
        enc = LabelEncoder()
        assert enc.fit_transform(values).tolist() == [0, 1, 2, 1]
        assert len(enc.classes_) == 3 and np.isnan(enc.classes_[1])
        mixed = np.array([float("nan"), "a", np.float64("nan")], dtype=object)
        assert LabelEncoder().fit_transform(mixed).tolist() == [0, 1, 0]


class TestOneHotEncoder:
    def test_indicator_matrix(self):
        enc = OneHotEncoder().fit(["r", "g", "b"])
        M = enc.transform(["g", "g", "r"])
        assert M.shape == (3, 3)
        assert M.sum() == 3
        assert M[0, 1] == 1.0 and M[2, 0] == 1.0

    def test_feature_names(self):
        enc = OneHotEncoder().fit(["x", "y"])
        assert enc.feature_names("col") == ["col=x", "col=y"]

    def test_nan_cells_are_one_category(self):
        M = OneHotEncoder().fit_transform(np.array([1.0, np.nan, 2.0, np.nan]))
        assert M.shape == (4, 3)
        assert M.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]]

    def test_unknown_rejected(self):
        enc = OneHotEncoder().fit(["x"])
        with pytest.raises(FitError):
            enc.transform(["q"])

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            OneHotEncoder().transform(["a"])
        with pytest.raises(NotFittedError):
            OneHotEncoder().feature_names("c")
