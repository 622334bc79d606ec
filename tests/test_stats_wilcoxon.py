"""Wilcoxon signed-rank test: own implementation vs scipy and by hand."""

import numpy as np
import pytest
import scipy.stats

from repro.errors import StatsError
from repro.stats.wilcoxon import rankdata, wilcoxon_signed_rank


class TestRankdata:
    def test_simple(self):
        assert list(rankdata(np.array([10.0, 20.0, 30.0]))) == [1, 2, 3]

    def test_ties_get_midranks(self):
        ranks = rankdata(np.array([1.0, 2.0, 2.0, 3.0]))
        assert list(ranks) == [1.0, 2.5, 2.5, 4.0]

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 10, size=50).astype(float)
        assert np.allclose(rankdata(x), scipy.stats.rankdata(x))


class TestExactPath:
    def test_small_sample_exact_matches_scipy(self):
        x = np.array([1.11, 2.33, 0.85, 4.27, 3.31, 2.21, 5.58, 1.93])
        y = np.array([1.0, 2.0, 1.2, 4.0, 3.0, 2.5, 5.0, 2.2])
        mine = wilcoxon_signed_rank(x, y)
        ref = scipy.stats.wilcoxon(x, y)
        assert mine.method == "exact"
        assert mine.statistic == pytest.approx(ref.statistic)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-10)

    def test_differences_only_signature(self):
        d = np.array([0.5, -0.2, 0.7, 0.1, -0.9, 0.3])
        mine = wilcoxon_signed_rank(d)
        ref = scipy.stats.wilcoxon(d)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-10)

    def test_all_positive_differences_significant(self):
        d = np.linspace(0.1, 1.0, 12)
        res = wilcoxon_signed_rank(d)
        assert res.statistic == 0.0
        assert res.significant()


class TestApproxPath:
    def test_large_sample_matches_scipy(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=200)
        y = x + rng.normal(scale=0.5, size=200) + 0.1
        mine = wilcoxon_signed_rank(x, y)
        ref = scipy.stats.wilcoxon(x, y, correction=True, mode="approx")
        assert mine.method == "approx"
        assert mine.statistic == pytest.approx(ref.statistic)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-6)

    def test_ties_force_approx(self):
        x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, -1.0, -1.0] * 2)
        res = wilcoxon_signed_rank(x)
        assert res.method == "approx"
        ref = scipy.stats.wilcoxon(x, correction=True, mode="approx")
        assert res.pvalue == pytest.approx(ref.pvalue, rel=1e-6)

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        y = x + rng.normal(scale=1.0, size=500)  # symmetric noise
        res = wilcoxon_signed_rank(x, y)
        assert res.pvalue > 0.01  # no systematic shift

    def test_consistent_small_shift_detected_at_scale(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=3000)
        shifted = base + 0.05 + rng.normal(scale=0.1, size=3000)
        res = wilcoxon_signed_rank(base, shifted)
        assert res.pvalue < 1e-10


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(StatsError):
            wilcoxon_signed_rank(np.ones(3), np.ones(4))

    def test_all_zero_differences(self):
        with pytest.raises(StatsError):
            wilcoxon_signed_rank(np.ones(5), np.ones(5))

    def test_2d_rejected(self):
        with pytest.raises(StatsError):
            wilcoxon_signed_rank(np.ones((2, 2)))

    def test_zero_differences_dropped(self):
        d = np.array([0.0, 0.0, 1.0, -2.0, 3.0])
        res = wilcoxon_signed_rank(d)
        assert res.n_used == 3


class TestPaperShape:
    """The Table III contrast: quiet machine vs drifting machines."""

    def test_noise_model_contrast(self):
        from repro.arch.machines import get_machine

        rng = np.random.default_rng(11)
        true_runtimes = rng.uniform(0.05, 0.5, size=800)

        def observe(arch, run_index):
            model = get_machine(arch).noise
            return np.array(
                [
                    model.apply(t, run_index, seed=i)
                    for i, t in enumerate(true_runtimes)
                ]
            )

        # A64FX: repetitions statistically indistinguishable.
        a0, a1 = observe("a64fx", 0), observe("a64fx", 1)
        assert wilcoxon_signed_rank(a0, a1).pvalue > 0.05

        # Milan: every pair differs (first-run warm-up + drift).
        m0, m1 = observe("milan", 0), observe("milan", 1)
        assert wilcoxon_signed_rank(m0, m1).pvalue < 1e-10

        # Skylake: first pair consistent, later pair drifts apart.
        s0, s1 = observe("skylake", 0), observe("skylake", 1)
        s2 = observe("skylake", 2)
        assert wilcoxon_signed_rank(s0, s1).pvalue > 0.05
        assert wilcoxon_signed_rank(s1, s2).pvalue < 1e-10
