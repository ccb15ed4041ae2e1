import numpy as np
import pytest
from scipy import stats as sps

from phimi import (
    AsymptoticCovariances,
    DomainError,
    ExpBilinearModel,
    FiniteDiscreteModel,
    SingularityError,
    chi2_quantile,
    chi2_sf,
    chisq_df_finite,
    covariances_under_h0,
    gaussian_model,
    limit_quantile_ztz,
    sigma1_under_h0,
    sigma2_under_h0,
)
from phimi.asymptotics import _grams, normal_margin
from phimi.models import BASIS_REGISTRY


def standard_normal_margin(rng, size):
    return rng.standard_normal(size)


IDENTITY_MODEL = ExpBilinearModel(["xy"])  # d = 1, xi = zeta = identity


class TestSigma1:
    def test_identity_basis_normal_margins(self):
        sigma1 = sigma1_under_h0(IDENTITY_MODEL, standard_normal_margin,
                                 standard_normal_margin, m=1_000_000, seed=4)
        assert np.allclose(sigma1, np.eye(2), atol=5e-3)

    def test_top_left_entry_is_one(self):
        sigma1 = sigma1_under_h0(IDENTITY_MODEL, standard_normal_margin,
                                 standard_normal_margin, m=10_000, seed=1)
        assert sigma1[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_enumeration_uniform_2x2(self):
        model = FiniteDiscreteModel([0, 1], [0, 1])
        margin = (np.array([0, 1]), np.array([0.5, 0.5]))
        sigma1 = sigma1_under_h0(model, margin, margin)
        # w = (1, 1{x=0}1{y=1}, 1{x=1}1{y=0}, 1{x=1}1{y=1}); each indicator
        # has expectation 1/4 and the products of distinct indicators vanish
        expected = np.full((4, 4), 0.25)
        expected[0, 0] = 1.0
        off = ~np.eye(4, dtype=bool)
        expected[1:, 1:][off[1:, 1:].reshape(3, 3)] = 0.0
        assert np.allclose(sigma1, expected, atol=1e-14)

    def test_symmetric(self):
        sigma1 = sigma1_under_h0(IDENTITY_MODEL, standard_normal_margin,
                                 standard_normal_margin, m=20_000, seed=9)
        assert np.allclose(sigma1, sigma1.T, atol=1e-12)

    def test_singularity_detected(self):
        model = ExpBilinearModel(["xy", "xy"])  # duplicated feature
        with pytest.raises(SingularityError):
            sigma1_under_h0(model, standard_normal_margin,
                            standard_normal_margin, m=5_000, seed=0)


class TestSigma2:
    def test_first_row_and_column_zero(self):
        sigma2 = sigma2_under_h0(IDENTITY_MODEL, standard_normal_margin,
                                 standard_normal_margin, m=50_000, seed=3)
        assert np.allclose(sigma2[0, :], 0.0)
        assert np.allclose(sigma2[:, 0], 0.0)

    def test_identity_basis_variance_of_xy(self):
        sigma2 = sigma2_under_h0(IDENTITY_MODEL, standard_normal_margin,
                                 standard_normal_margin, m=1_000_000, seed=12)
        # centered margins: Var(XY) = E[X^2] E[Y^2] = 1
        assert sigma2[1, 1] == pytest.approx(1.0, abs=0.01)

    def test_against_direct_score_monte_carlo(self):
        # delta-method algebra vs the empirical variance of sqrt(n) M_n'(0)
        rng = np.random.default_rng(21)
        n, reps = 400, 2000
        scores = np.empty(reps)
        for r in range(reps):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            scores[r] = np.mean(x * y) - x.mean() * y.mean()
        mc_var = n * scores.var()
        sigma2 = sigma2_under_h0(IDENTITY_MODEL, standard_normal_margin,
                                 standard_normal_margin, m=500_000, seed=2)
        assert sigma2[1, 1] == pytest.approx(mc_var, rel=0.1)

    def test_finite_2x2_beta_block_rank_one(self):
        model = FiniteDiscreteModel([0, 1], [0, 1])
        margin = (np.array([0, 1]), np.array([0.5, 0.5]))
        sigma2 = sigma2_under_h0(model, margin, margin)
        eigvals = np.linalg.eigvalsh(sigma2[1:, 1:])
        rank = int(np.sum(eigvals > 1e-10 * eigvals.max()))
        assert rank == 1


class TestCovariances:
    def test_c_matrix_psd_and_symmetric(self):
        cov = covariances_under_h0(ExpBilinearModel(["x2", "y2", "xy"]),
                                   standard_normal_margin, standard_normal_margin,
                                   m=200_000, seed=6)
        assert np.allclose(cov.c_matrix, cov.c_matrix.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov.c_matrix)) >= -1e-10

    def test_from_sigmas_identity(self):
        cov = AsymptoticCovariances.from_sigmas(np.eye(3), np.diag([0.0, 1.0, 4.0]))
        assert np.allclose(cov.c_matrix, np.diag([0.0, 1.0, 4.0]))


def rank_one_cs():
    """Rank-one Cs: outer products, one with an eigenvalue below the rank
    tolerance, and a sample's C, whose other eigenvalues are rounding noise."""
    rng = np.random.default_rng(12)
    cs = [scale * np.outer(v, v) for scale, v in
          zip((1.0, 0.37, 8.5), rng.standard_normal((3, 4)))]
    cs.append(np.diag([1e-13, 0.0, 1.0]))
    x, y = rng.standard_normal((2, 40))
    cs.append(covariances_under_h0(gaussian_model(), x, y).c_matrix)
    return cs


class TestLimitQuantile:
    def test_identity_c_matches_chi2(self):
        assert limit_quantile_ztz(np.eye(1), alpha=0.01) == chi2_quantile(0.99, 1)

    def test_zero_c_gives_zero(self):
        assert limit_quantile_ztz(np.zeros((3, 3)), alpha=0.05) == 0.0

    def test_scaling(self):
        c = np.diag([0.0, 1.0])
        assert limit_quantile_ztz(4.0 * c, 0.05) == 4.0 * limit_quantile_ztz(c, 0.05)

    @pytest.mark.parametrize("c", rank_one_cs())
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3])
    def test_rank_one_is_exact(self, c, alpha):
        lam = np.linalg.eigvalsh(c)[-1]
        assert limit_quantile_ztz(c, alpha) == lam * chi2_quantile(1.0 - alpha, 1)

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_gaussian_model_normal_margins(self, sigma):
        margin = normal_margin(sigma)
        cov = covariances_under_h0(gaussian_model(), margin, margin)
        assert limit_quantile_ztz(cov, 0.05) == pytest.approx(3.841458820694124, rel=1e-12)

    def test_two_coupled_terms_draw_a_fixed_sample(self):
        # rank 2, as for a model with coupled terms xy and x2y2: the same
        # 10,000 draws on every call, their quantile's level within 3
        # standard errors of 0.95 under a 10^6-draw reference
        c = np.diag([0.5, 1.0])
        q = limit_quantile_ztz(c, 0.05)
        assert limit_quantile_ztz(c, 0.05) == q
        ref = np.random.default_rng(99).standard_normal((1_000_000, 2)) ** 2 @ np.diag(c)
        assert abs(np.mean(ref <= q) - 0.95) <= 3.0 * np.sqrt(0.95 * 0.05 / 10_000)

    def test_accepts_covariances_object(self):
        cov = AsymptoticCovariances.from_sigmas(np.eye(2), np.diag([0.0, 1.0]))
        q = limit_quantile_ztz(cov, 0.05)
        assert q == pytest.approx(sps.chi2.ppf(0.95, 1), rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            limit_quantile_ztz(np.eye(1), alpha=1.5)


class TestChisqDf:
    def test_values(self):
        assert chisq_df_finite(2, 2) == 1
        assert chisq_df_finite(3, 3) == 4
        assert chisq_df_finite(2, 3) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            chisq_df_finite(1, 3)
        with pytest.raises(DomainError):
            chisq_df_finite(2, 0)


class TestChi2Quantile:
    @pytest.mark.parametrize("df", [1, 2, 4, 7, 30, 100])
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.5, 0.9, 0.95, 0.99, 0.999])
    def test_matches_scipy(self, df, p):
        assert chi2_quantile(p, df) == pytest.approx(sps.chi2.ppf(p, df), rel=1e-9)

    def test_tabulated_values(self):
        assert chi2_quantile(0.99, 1) == pytest.approx(6.6349, abs=2e-4)
        assert chi2_quantile(0.95, 1) == pytest.approx(3.8415, abs=2e-4)
        assert chi2_quantile(0.99, 4) == pytest.approx(13.2767, abs=2e-4)

    def test_sf_matches_scipy(self):
        for df in (1, 3, 10):
            for x in (0.5, 2.0, 10.0):
                assert chi2_sf(x, df) == pytest.approx(sps.chi2.sf(x, df), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 2)
        with pytest.raises(DomainError):
            chi2_quantile(0.5, -1)


class TestEmpiricalMarginMode:
    def test_array_margins_accepted(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        cov = covariances_under_h0(IDENTITY_MODEL, x, y, m=100_000, seed=8)
        # plug-in moments of near-standard margins stay near the identity law
        assert cov.sigma1[1, 1] == pytest.approx(np.mean(x**2) * np.mean(y**2), rel=0.05)


def enumerated_sigmas(model, marg_x, marg_y):
    """Oracle: Sigma1 and Sigma2 over the enumerated, weighted product support."""
    (vx, px), (vy, py) = marg_x, marg_y
    xs = np.repeat(np.asarray(vx), len(vy))
    ys = np.tile(np.asarray(vy), len(vx))
    w = np.repeat(np.asarray(px, dtype=float), len(py)) * np.tile(np.asarray(py, dtype=float), len(px))
    pairs = model.feature_pairs()
    xi = np.stack([p[0](xs) for p in pairs], axis=1).astype(float)
    ze = np.stack([p[1](ys) for p in pairs], axis=1).astype(float)
    ones = np.ones((xs.size, 1))
    feats = np.hstack([ones, xi * ze])
    sigma1 = feats.T @ (feats * w[:, None])
    v = np.hstack([ones, xi, ze, xi * ze])
    mu = w @ v
    v -= mu
    cov = v.T @ (v * w[:, None])
    d = xi.shape[1]
    jac = np.zeros((1 + d, 1 + 3 * d))
    for k in range(1, d + 1):
        jac[k, k] = mu[d + k]
        jac[k, d + k] = mu[k]
        jac[k, 2 * d + k] = -1.0
    sigma2 = jac @ cov @ jac.T
    return (sigma1 + sigma1.T) / 2.0, (sigma2 + sigma2.T) / 2.0


def uniform(sample):
    sample = np.asarray(sample, dtype=float)
    return sample, np.full(sample.size, 1.0 / sample.size)


MARG_X = (np.array([-1.0, 0.3, 2.0]), np.array([0.2, 0.5, 0.3]))
MARG_Y = (np.array([-0.5, 1.5, 0.1, 3.0]), np.array([0.1, 0.4, 0.3, 0.2]))


class TestFactoredMoments:
    @pytest.mark.parametrize("model, marg_x, marg_y", [
        (gaussian_model(), MARG_X, MARG_Y),
        (ExpBilinearModel(["x", "y", "xy", "x2"]), MARG_X, MARG_Y),
        (FiniteDiscreteModel([0, 1, 2], [0, 1]),
         (np.array([0, 1, 2]), np.array([0.2, 0.5, 0.3])),
         (np.array([0, 1]), np.array([0.35, 0.65]))),
    ], ids=["gaussian", "x-y-xy-x2", "finite-3x2"])
    def test_finite_margins_match_enumeration(self, model, marg_x, marg_y):
        sigma1, sigma2 = enumerated_sigmas(model, marg_x, marg_y)
        cov = covariances_under_h0(model, marg_x, marg_y)
        np.testing.assert_allclose(cov.sigma1, sigma1, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(cov.sigma2, sigma2, rtol=0.0, atol=1e-14)

    def test_sample_margins_match_all_n2_pairs(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(200)
        y = 0.5 + 2.0 * rng.standard_normal(200)
        model = ExpBilinearModel(["x", "y", "xy", "x2", "y2"])
        sigma1, sigma2 = enumerated_sigmas(model, uniform(x), uniform(y))
        cov = covariances_under_h0(model, x, y)
        assert np.abs(cov.sigma1 - sigma1).max() <= 1e-12 * np.abs(sigma1).max()
        assert np.abs(cov.sigma2 - sigma2).max() <= 1e-12 * np.abs(sigma2).max()

    def test_mixed_tuple_and_sample_margins_are_exact(self):
        y = np.random.default_rng(32).exponential(size=150)
        model = ExpBilinearModel(["x", "y", "xy"])
        sigma1, sigma2 = enumerated_sigmas(model, MARG_X, uniform(y))
        cov = covariances_under_h0(model, MARG_X, y, m=10, seed=3)
        assert np.abs(cov.sigma1 - sigma1).max() <= 1e-12 * np.abs(sigma1).max()
        assert np.abs(cov.sigma2 - sigma2).max() <= 1e-12 * np.abs(sigma2).max()

    def test_exact_margins_ignore_seed_and_m(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal(80)
        y = rng.standard_normal(80)
        model = gaussian_model()
        for marg_x, marg_y in ((x, y), (uniform(x), uniform(y)), (MARG_X, MARG_Y)):
            ref = covariances_under_h0(model, marg_x, marg_y)
            for m, seed in ((1, 0), (7, 5), (50_000, 123)):
                cov = covariances_under_h0(model, marg_x, marg_y, m=m, seed=seed)
                assert np.array_equal(cov.sigma1, ref.sigma1)
                assert np.array_equal(cov.sigma2, ref.sigma2)
        # a sample is its (values, 1/n weights) pair, bit for bit
        a = covariances_under_h0(model, x, y)
        b = covariances_under_h0(model, uniform(x), uniform(y))
        assert np.array_equal(a.sigma1, b.sigma1)
        assert np.array_equal(a.sigma2, b.sigma2)

    def test_sampler_streams(self):
        calls = []

        def recording(rng, size):
            calls.append(rng.standard_normal(size))
            return calls[-1]

        m, seed = 1000, 17
        cov = covariances_under_h0(gaussian_model(), recording, recording, m=m, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        y = np.random.default_rng(rng.integers(2**63)).standard_normal(m)
        assert len(calls) == 2
        assert np.array_equal(calls[0], x)
        assert np.array_equal(calls[1], y)
        ref = covariances_under_h0(gaussian_model(), x, y)
        assert np.array_equal(cov.sigma1, ref.sigma1)
        assert np.array_equal(cov.sigma2, ref.sigma2)

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_m_rejected_before_any_draw(self, m):
        calls = []

        def recording(rng, size):
            calls.append(size)
            return rng.standard_normal(size)

        with pytest.raises(DomainError):
            covariances_under_h0(IDENTITY_MODEL, recording, recording, m=m, seed=1)
        assert calls == []


# (power of x in xi, power of y in zeta) of each registry term
REGISTRY_POWERS = {"1": (0, 0), "x": (1, 0), "y": (0, 1),
                   "x2": (2, 0), "y2": (0, 2), "xy": (1, 1)}


def normal_moment(p, sigma):
    """E X^p for X ~ N(0, sigma^2): (p - 1)!! sigma^p for even p, 0 for odd."""
    return 0.0 if p % 2 else float(np.prod(np.arange(p - 1, 0, -2))) * sigma**p


class TestNormalMargin:
    def test_registry_powers(self):
        t = np.linspace(-2.0, 3.0, 7)
        assert set(REGISTRY_POWERS) == set(BASIS_REGISTRY)
        for name, (a, b) in REGISTRY_POWERS.items():
            assert np.array_equal(BASIS_REGISTRY[name].xi(t), t**a)
            assert np.array_equal(BASIS_REGISTRY[name].zeta(t), t**b)

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_gram_entries_are_the_analytic_moments(self, sigma):
        margin = normal_margin(sigma)
        names = list(BASIS_REGISTRY)
        gx, gy = _grams(ExpBilinearModel(names), margin, margin, 1, 0)
        for gram, side in ((gx, 0), (gy, 1)):
            powers = [0] + [REGISTRY_POWERS[name][side] for name in names]
            expected = np.array([[normal_moment(a + b, sigma) for b in powers]
                                 for a in powers])
            np.testing.assert_allclose(gram, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    @pytest.mark.parametrize("basis", [["x2", "y2", "xy"], ["x", "y", "xy"],
                                       ["x2", "y2", "xy", "x", "y"]])
    def test_c_has_the_single_eigenvalue_one(self, basis, sigma):
        margin = normal_margin(sigma)
        cov = covariances_under_h0(ExpBilinearModel(basis), margin, margin)
        expected = np.zeros(len(basis) + 1)
        expected[-1] = 1.0
        np.testing.assert_allclose(np.linalg.eigvalsh(cov.c_matrix), expected,
                                   rtol=0.0, atol=1e-12)

    def test_agrees_with_sampled_moments(self):
        margin = normal_margin()
        exact = covariances_under_h0(gaussian_model(), margin, margin)
        drawn = covariances_under_h0(gaussian_model(), standard_normal_margin,
                                     standard_normal_margin, m=1_000_000, seed=5)
        # the largest entry, E X^4 = 3, has a Monte-Carlo sd of about 0.01
        np.testing.assert_allclose(drawn.sigma1, exact.sigma1, rtol=0.0, atol=0.06)
        np.testing.assert_allclose(drawn.sigma2, exact.sigma2, rtol=0.0, atol=0.06)
        np.testing.assert_allclose(drawn.c_matrix, exact.c_matrix, rtol=0.0, atol=1e-4)
