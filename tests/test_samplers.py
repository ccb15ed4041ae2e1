import numpy as np
import pytest
from scipy import integrate, stats as sps

from phimi import (
    FgmSpec,
    FiniteMixtureSpec,
    GaussianSpec,
    sample_fgm,
    sample_finite,
    sample_finite_tables,
    sample_gaussian,
)


class TestFiniteMixture:
    def test_cell_probabilities_sum_to_one(self):
        for theta in (0.0, 0.3, 1.0):
            spec = FiniteMixtureSpec(3, theta)
            assert spec.cell_probs().sum() == pytest.approx(1.0)

    def test_independent_case_uniform_cells(self):
        spec = FiniteMixtureSpec(2, 0.0)
        s = sample_finite(spec, 100_000, seed=0)
        counts = np.zeros((2, 2))
        np.add.at(counts, (s.x - 1, s.y - 1), 1)
        gof = sps.chisquare(counts.ravel())
        assert gof.pvalue > 1e-4

    def test_full_dependence(self):
        s = sample_finite(FiniteMixtureSpec(4, 1.0), 5000, seed=1)
        assert np.all(s.x == s.y)

    def test_match_probability(self):
        # P(x = y) = (1 - theta)/K + theta = 0.75 for theta = 0.5, K = 2
        s = sample_finite(FiniteMixtureSpec(2, 0.5), 100_000, seed=2)
        match = np.mean(s.x == s.y)
        assert match == pytest.approx(0.75, abs=4 * np.sqrt(0.75 * 0.25 / 100_000))

    def test_tables_shape_and_totals(self):
        tables = sample_finite_tables(FiniteMixtureSpec(3, 0.4), 25, 400, seed=3)
        assert tables.shape == (400, 3, 3)
        assert np.all(tables.sum(axis=(1, 2)) == 25)
        assert np.all(tables >= 0)

    def test_tables_full_dependence(self):
        tables = sample_finite_tables(FiniteMixtureSpec(4, 1.0), 50, 300, seed=4)
        off = ~np.eye(4, dtype=bool)
        assert np.all(tables[:, off] == 0)

    def test_tables_mean_matches_cell_probabilities(self):
        spec, n, reps = FiniteMixtureSpec(3, 0.4), 30, 20_000
        tables = sample_finite_tables(spec, n, reps, seed=5)
        p = spec.cell_probs()
        se = np.sqrt(n * p * (1.0 - p) / reps)   # per-cell multinomial SE of the mean
        assert np.all(np.abs(tables.mean(axis=0) - n * p) <= 4.0 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteMixtureSpec(1, 0.5)
        with pytest.raises(ValueError):
            FiniteMixtureSpec(2, 1.5)


class TestGaussian:
    def test_zero_correlation(self):
        s = sample_gaussian(GaussianSpec(0.0), 10_000, seed=3)
        assert abs(np.corrcoef(s.x, s.y)[0, 1]) <= 3.0 / np.sqrt(10_000)

    def test_half_correlation(self):
        s = sample_gaussian(GaussianSpec(0.5), 100_000, seed=4)
        assert np.corrcoef(s.x, s.y)[0, 1] == pytest.approx(0.5, abs=0.01)

    def test_near_unit_correlation(self):
        s = sample_gaussian(GaussianSpec(1.0 - 1e-9), 1000, seed=5)
        assert np.corrcoef(s.x, s.y)[0, 1] > 0.999

    def test_margin_scale(self):
        s = sample_gaussian(GaussianSpec(0.3, sigma=2.5), 100_000, seed=6)
        assert s.x.std() == pytest.approx(2.5, rel=0.02)
        assert s.y.std() == pytest.approx(2.5, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(1.0)
        with pytest.raises(ValueError):
            GaussianSpec(0.0, sigma=0.0)


class TestFgm:
    def test_independent_case_copies_w(self):
        s = sample_fgm(FgmSpec(0.0), 1000, seed=7)
        # theta = 0: v is the raw second uniform, itself uniform
        ks = sps.kstest(s.y, "uniform")
        assert ks.pvalue > 1e-4

    def test_margins_uniform(self):
        for theta in (-1.0, 0.5, 1.0):
            s = sample_fgm(FgmSpec(theta), 100_000, seed=8)
            assert sps.kstest(s.x, "uniform").pvalue > 1e-4
            assert sps.kstest(s.y, "uniform").pvalue > 1e-4

    def test_spearman_rho_matches_quadrature(self):
        theta = 1.0
        # oracle: rho_S = 12 int int C(u, v) du dv - 3 for the FGM copula
        val, _ = integrate.dblquad(
            lambda v, u: u * v * (1.0 + theta * (1.0 - u) * (1.0 - v)),
            0.0, 1.0, 0.0, 1.0)
        rho_s_exact = 12.0 * val - 3.0
        assert rho_s_exact == pytest.approx(theta / 3.0, abs=1e-10)
        s = sample_fgm(FgmSpec(theta), 100_000, seed=9)
        rho_s = sps.spearmanr(s.x, s.y).statistic
        assert rho_s == pytest.approx(rho_s_exact, abs=0.01)

    def test_discriminant_nonnegative_on_grid(self):
        u, w, th = np.meshgrid(np.linspace(0, 1, 51), np.linspace(0, 1, 51),
                               np.linspace(-1, 1, 41))
        a = th * (1.0 - 2.0 * u)
        disc = (1.0 + a) ** 2 - 4.0 * a * w
        assert disc.min() >= -1e-15

    def test_values_in_unit_square(self):
        s = sample_fgm(FgmSpec(-1.0), 50_000, seed=10)
        assert np.all((s.x >= 0) & (s.x < 1))
        assert np.all((s.y >= 0) & (s.y <= 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            FgmSpec(1.2)


class TestDeterminism:
    @pytest.mark.parametrize("draw", [
        lambda seed: sample_finite(FiniteMixtureSpec(3, 0.4), 500, seed),
        lambda seed: sample_gaussian(GaussianSpec(0.6), 500, seed),
        lambda seed: sample_fgm(FgmSpec(0.8), 500, seed),
    ])
    def test_same_seed_same_sample(self, draw):
        a = draw(1234)
        b = draw(1234)
        c = draw(4321)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_same_seed_same_tables(self):
        spec = FiniteMixtureSpec(3, 0.4)
        a = sample_finite_tables(spec, 40, 200, 1234)
        assert np.array_equal(a, sample_finite_tables(spec, 40, 200, 1234))
        assert not np.array_equal(a, sample_finite_tables(spec, 40, 200, 4321))
