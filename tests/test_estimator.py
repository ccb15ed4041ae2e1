from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from phimi import (
    DivergenceSpec,
    DomainError,
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    GaussianSpec,
    ObjectiveContext,
    PairedSample,
    SupportError,
    estimate,
    gaussian_model,
    objective,
    objective_grad,
    objective_with_grad,
    plugin_estimate,
    plugin_statistics,
    sample_gaussian,
)
import phimi.estimator
from phimi.errors import LengthMismatchError
from phimi.divergence import NAMED_GAMMAS
from phimi.estimator import _projected_grad_norm, objective_terms
from phimi.models import BasisPair

KL = DivergenceSpec(1.0)
CHISQ = DivergenceSpec(2.0)
HELL = DivergenceSpec(0.5)


def table_to_sample(counts):
    counts = np.asarray(counts)
    k1, k2 = counts.shape
    x = np.repeat(np.arange(k1 * k2) // k2, counts.ravel())
    y = np.repeat(np.arange(k1 * k2) % k2, counts.ravel())
    return PairedSample(x, y, kind="categorical")


def random_table(rng, k1, k2, n):
    """Counts with no empty row or column (cells may be empty)."""
    while True:
        probs = rng.dirichlet(np.ones(k1 * k2))
        counts = rng.multinomial(n, probs).reshape(k1, k2)
        if counts.sum(axis=1).all() and counts.sum(axis=0).all():
            return counts


def finite_model(k1, k2):
    return FiniteDiscreteModel(list(range(k1)), list(range(k2)))


def direct_plugin(divergence, counts):
    """Independent oracle: the plug-in formula evaluated cell by cell."""
    counts = np.asarray(counts, dtype=float)
    p = counts / counts.sum()
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            q = px[i] * py[j]
            if q > 0.0:
                total += divergence.phi(p[i, j] / q) * q
    return total


class TestObjective:
    def test_zero_at_theta0(self):
        rng = np.random.default_rng(0)
        s = PairedSample(rng.standard_normal(50), rng.standard_normal(50))
        for model in (ExpBilinearModel(["x", "y", "xy"]), gaussian_model()):
            ctx = ObjectiveContext(KL, model, s)
            assert objective(ctx, model.theta0) == 0.0
        u = PairedSample(rng.random(50), rng.random(50))
        ctx = ObjectiveContext(CHISQ, FgmCopulaModel(), u)
        assert objective(ctx, [0.0]) == 0.0

    def test_matches_plugin_at_log_ratio_table(self):
        counts = np.array([[2, 1], [1, 2]])
        sample = table_to_sample(counts)
        model = finite_model(2, 2)
        ctx = ObjectiveContext(KL, model, sample)
        p = counts / counts.sum()
        r = p / np.outer(p.sum(1), p.sum(0))
        log_r = np.log(r).ravel()
        theta = np.concatenate([[log_r[0]], log_r[1:] - log_r[0]])
        assert objective(ctx, theta) == pytest.approx(direct_plugin(KL, counts), abs=1e-12)

    def test_double_sum_depends_only_on_margins(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        model = ExpBilinearModel(["x", "y", "xy"])
        theta = np.array([0.2, 0.1, -0.3, 0.4])
        ctx1 = ObjectiveContext(KL, model, PairedSample(x, y))
        ctx2 = ObjectiveContext(KL, model, PairedSample(x, rng.permutation(y)))
        _, g1 = objective_terms(ctx1, theta)
        _, g2 = objective_terms(ctx2, theta)
        assert g1 == pytest.approx(g2, abs=1e-12)

    def test_conjugate_domain_error_on_overflow(self):
        rng = np.random.default_rng(2)
        s = PairedSample(10.0 * rng.standard_normal(20), 10.0 * rng.standard_normal(20))
        model = ExpBilinearModel(["xy"], beta_bounds=(-10.0, 10.0))
        ctx = ObjectiveContext(KL, model, s)
        with pytest.raises(DomainError):
            objective(ctx, [10.0, 10.0])

    def test_kind_validation(self):
        s = PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(SupportError):
            ObjectiveContext(KL, finite_model(2, 2), s)
        cat = PairedSample(np.array([0, 1]), np.array([0, 1]), kind="categorical")
        with pytest.raises(SupportError):
            ObjectiveContext(KL, gaussian_model(), cat)


class TestObjectiveGrad:
    def test_zero_gradient_on_balanced_table(self):
        sample = table_to_sample(np.full((2, 2), 3))
        ctx = ObjectiveContext(KL, finite_model(2, 2), sample)
        grad = objective_grad(ctx, np.zeros(4))
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_theta0_gradient_formula_expbilinear(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        model = ExpBilinearModel(["x", "xy"])
        ctx = ObjectiveContext(KL, model, PairedSample(x, y))
        grad = objective_grad(ctx, model.theta0)
        # component k: mean(xi_k zeta_k paired) - mean(xi_k) mean(zeta_k)
        expect = np.array([
            0.0,
            np.mean(x) - np.mean(x) * 1.0,
            np.mean(x * y) - np.mean(x) * np.mean(y),
        ])
        assert np.allclose(grad, expect, atol=1e-12)

    @pytest.mark.parametrize("divergence", [KL, CHISQ, HELL, DivergenceSpec(0.0),
                                            DivergenceSpec(-1.0)])
    def test_matches_central_differences(self, divergence):
        rng = np.random.default_rng(17)
        step = 1e-5
        for trial in range(4):
            kind = trial % 3
            if kind == 0:
                model = gaussian_model()
                s = sample_gaussian(GaussianSpec(0.3), 40, 100 + trial)
            elif kind == 1:
                model = FgmCopulaModel()
                u = rng.random(40)
                v = rng.random(40)
                s = PairedSample(u, v)
            else:
                model = finite_model(2, 3)
                s = table_to_sample(rng.integers(1, 8, size=(2, 3)))
            ctx = ObjectiveContext(divergence, model, s)
            lo = np.maximum(model.bounds[:, 0], -0.5)
            hi = np.minimum(model.bounds[:, 1], 0.5)
            theta = rng.uniform(lo, hi)
            val, grad = objective_with_grad(ctx, theta)
            fd = np.empty_like(grad)
            for k in range(model.dim):
                dt = np.zeros(model.dim)
                dt[k] = step
                fd[k] = (objective(ctx, theta + dt) - objective(ctx, theta - dt)) / (2 * step)
            denom = max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(grad - fd)) / denom <= 1e-5


ORACLE_DIVERGENCES = [DivergenceSpec(g) for g in NAMED_GAMMAS.values()] + [
    DivergenceSpec(1.5), DivergenceSpec(-0.5)]
ORACLE_BASES = {
    "gaussian": ["x2", "y2", "xy"],
    "x,y,xy": ["x", "y", "xy"],
    "xy": ["xy"],
    "1,x,xy": ["1", "x", "xy"],
    "xy,x2y2": ["xy", BasisPair("x2y2", np.square, np.square)],
}


def brute_force_terms(div, model, sample, theta):
    """Paired and cross terms of M_n and its gradient, pair by pair.

    Uses only ``model.h``, ``model.h_grad`` and the divergence's functions
    on all n^2 cross pairs; raises DomainError as they do.
    """
    x, y = sample.x, sample.y
    n = x.size
    xc, yc = np.repeat(x, n), np.tile(y, n)
    with np.errstate(all="ignore"):
        h_p = model.h(theta, x, y)
        h_c = model.h(theta, xc, yc)
        paired = np.mean(div.phi_prime(h_p))
        cross = np.mean(div.conj_of_prime(h_c))
        grad = (np.mean(div.phi_second(h_p)[:, None] * model.h_grad(theta, x, y), axis=0)
                - np.mean((h_c * div.phi_second(h_c))[:, None]
                          * model.h_grad(theta, xc, yc), axis=0))
    return paired, cross, grad


def brute_force_leaves_domain(div, model, sample, theta):
    """True when h leaves the interior of dom phi on some cross pair (pairs included)."""
    n = sample.n
    with np.errstate(over="ignore"):
        h_c = model.h(theta, np.repeat(sample.x, n), np.tile(sample.y, n))
    return not div.dom_phi_interior.contains(h_c)


def tied_samples(n=80):
    """Samples with repeated values on both margins, as the cross term sees them."""
    rng = np.random.default_rng(8)
    base = sample_gaussian(GaussianSpec(0.5), n, 9)
    return {
        # one decimal, like the CLI's CSV inputs
        "rounded": PairedSample(np.round(base.x, 1), np.round(base.y, 1)),
        # a bootstrap resample: each margin drawn with replacement
        "resample": PairedSample(base.x[rng.integers(0, n, n)], base.y[rng.integers(0, n, n)]),
        "two-valued": PairedSample(rng.choice([-1.0, 2.0], n), np.round(base.y, 1)),
    }


TIED = tied_samples()


class TestExpBilinearOracle:
    """The exponent-space cross term against the pair-by-pair brute force."""

    @pytest.mark.parametrize("basis", list(ORACLE_BASES), ids=list(ORACLE_BASES))
    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_value_and_gradient(self, div, basis):
        model = ExpBilinearModel(ORACLE_BASES[basis])
        sample = sample_gaussian(GaussianSpec(0.4), 60, 3)
        ctx = ObjectiveContext(div, model, sample)
        rng = np.random.default_rng(11)
        for _ in range(3):
            theta = rng.uniform(-0.4, 0.4, model.dim)
            paired, cross, grad = brute_force_terms(div, model, sample, theta)
            assert objective_terms(ctx, theta) == pytest.approx((paired, cross), rel=1e-10)
            value, got = objective_with_grad(ctx, theta)
            assert value == pytest.approx(paired - cross, rel=1e-10)
            assert np.allclose(got, grad, rtol=1e-10, atol=1e-10 * np.max(np.abs(grad)))

    @pytest.mark.parametrize("const", ["x", "y"])
    @pytest.mark.parametrize("basis", ["gaussian", "x,y,xy"])
    def test_constant_margin_on_sample(self, const, basis):
        # a margin constant on the sample makes every term separable
        model = ExpBilinearModel(ORACLE_BASES[basis])
        rng = np.random.default_rng(12)
        free = rng.standard_normal(20)
        x, y = (np.full(20, 1.7), free) if const == "x" else (free, np.full(20, -2.3))
        sample = PairedSample(x, y)
        for div in (KL, HELL):
            ctx = ObjectiveContext(div, model, sample)
            theta = rng.uniform(-0.3, 0.3, model.dim)
            paired, cross, grad = brute_force_terms(div, model, sample, theta)
            value, got = objective_with_grad(ctx, theta)
            assert value == pytest.approx(paired - cross, rel=1e-10)
            assert np.allclose(got, grad, rtol=1e-10, atol=1e-10 * np.max(np.abs(grad)))

    @pytest.mark.parametrize("basis", list(ORACLE_BASES), ids=list(ORACLE_BASES))
    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_zero_at_theta0(self, div, basis):
        model = ExpBilinearModel(ORACLE_BASES[basis])
        ctx = ObjectiveContext(div, model, sample_gaussian(GaussianSpec(0.4), 30, 4))
        assert objective(ctx, model.theta0) == 0.0

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_domain_error_exactly_when_brute_force_leaves_domain(self, div):
        # positive data: beta > 0 overflows h, beta < 0 underflows it.  The
        # pairing is anti-sorted, so that max x_i y_i is well below max x
        # max y and only cross pairs leave the domain over a range of beta.
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(1.0, 30.0, 25))
        sample = PairedSample(x, np.sort(rng.uniform(1.0, 30.0, 25))[::-1])
        model = ExpBilinearModel(["xy"])
        ctx = ObjectiveContext(div, model, sample)
        for beta in np.linspace(-10.0, 10.0, 81):
            theta = np.array([0.0, beta])
            expect = brute_force_leaves_domain(div, model, sample, theta)
            try:
                objective_terms(ctx, theta)
                raised = False
            except DomainError:
                raised = True
            assert raised == expect, beta
        # overflow leaves every domain, underflow all but chi-square's
        for beta, leaves in ((10.0, True), (-10.0, div.gamma != 2.0)):
            theta = np.array([0.0, beta])
            with pytest.raises(DomainError) if leaves else nullcontext():
                brute_force_terms(div, model, sample, theta)
            with pytest.raises(DomainError) if leaves else nullcontext():
                objective_with_grad(ctx, theta)

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    @pytest.mark.parametrize("tied", list(TIED))
    def test_tied_value_and_gradient(self, tied, div):
        sample = TIED[tied]
        rng = np.random.default_rng(13)
        for basis in ("gaussian", "x,y,xy", "xy,x2y2"):
            model = ExpBilinearModel(ORACLE_BASES[basis])
            ctx = ObjectiveContext(div, model, sample)
            for _ in range(2):
                theta = rng.uniform(-0.3, 0.3, model.dim)
                paired, cross, grad = brute_force_terms(div, model, sample, theta)
                assert objective_terms(ctx, theta) == pytest.approx((paired, cross), rel=1e-10)
                value, got = objective_with_grad(ctx, theta)
                assert value == pytest.approx(paired - cross, rel=1e-10)
                assert np.allclose(got, grad, rtol=1e-10, atol=1e-10 * np.max(np.abs(grad)))

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_tied_domain_error_exactly_when_brute_force_leaves_domain(self, div):
        model = ExpBilinearModel(["xy"])
        for tied in TIED.values():
            sample = PairedSample(10.0 * tied.x, 10.0 * tied.y)
            ctx = ObjectiveContext(div, model, sample)
            for beta in np.linspace(-2.0, 2.0, 201):
                theta = np.array([0.0, beta])
                expect = brute_force_leaves_domain(div, model, sample, theta)
                try:
                    objective_terms(ctx, theta)
                    raised = False
                except DomainError:
                    raised = True
                assert raised == expect, beta

    @pytest.mark.parametrize("tied", list(TIED))
    @pytest.mark.parametrize("basis", [["x2", "y2", "xy"], ["x", "y"]],
                             ids=["coupled", "separable"])
    def test_cross_exponent_runs_over_distinct_values(self, tied, basis):
        sample = TIED[tied]
        model = ExpBilinearModel(basis)
        ctx = ObjectiveContext(KL, model, sample)
        s = model._cross_exponent(np.full(model.dim, 0.1), ctx._cache)
        assert s.shape == (np.unique(sample.x).size, np.unique(sample.y).size)

    @pytest.mark.parametrize("rows", [[3], [0, 5, 9, 11, 40, 41, 77]], ids=["one", "seven"])
    def test_heldout_fold_matches_brute_force(self, rows):
        sample = TIED["rounded"]
        fold = SimpleNamespace(x=sample.x[rows], y=sample.y[rows], n=len(rows))
        model = gaussian_model()
        theta = np.array([0.1, -0.2, 0.15, 0.3])
        for div in (KL, HELL, DivergenceSpec(0.0)):
            ctx = ObjectiveContext(div, model, sample, rows=rows)
            assert ctx.n == len(rows) and ctx.sample is None
            paired, cross, grad = brute_force_terms(div, model, fold, theta)
            value, got = objective_with_grad(ctx, theta)
            assert value == pytest.approx(paired - cross, rel=1e-10, abs=1e-15)
            assert np.allclose(got, grad, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("div,s_min", [(DivergenceSpec(0.0), -400.0), (HELL, -600.0),
                                           (DivergenceSpec(-0.5), -400.0)], ids=str)
    def test_paired_gradient_finite_where_h_phi_second_overflows(self, div, s_min):
        # one pair with x y = -64 puts h = exp(s_min) < 1e-154 on the
        # paired term; h * h**(gamma - 2) overflows there, exp((gamma - 1)
        # s) does not
        rng = np.random.default_rng(14)
        x = np.concatenate([[8.0], rng.uniform(-1.0, 1.0, 30)])
        y = np.concatenate([[-8.0], rng.uniform(-1.0, 1.0, 30)])
        sample = PairedSample(x, y)
        model = ExpBilinearModel(["xy"])
        ctx = ObjectiveContext(div, model, sample)
        theta = np.array([0.0, s_min / -64.0])
        h = model.h(theta, x[:1], y[:1])
        assert h[0] < 1e-154
        with np.errstate(over="ignore"):
            assert np.isinf(div.phi_second(h)[0])
        value, grad = objective_with_grad(ctx, theta)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        fd = np.empty(2)
        for k in range(2):
            dt = np.zeros(2)
            dt[k] = 1e-6
            fd[k] = (objective(ctx, theta + dt) - objective(ctx, theta - dt)) / 2e-6
        assert np.allclose(grad, fd, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("div,basis", [(KL, "gaussian"), (CHISQ, "x,y,xy")], ids=str)
    def test_tied_estimate_matches_brute_force_lbfgsb(self, div, basis):
        model = ExpBilinearModel(ORACLE_BASES[basis])
        sample = tied_samples(200)["rounded"]
        self._check_estimate(div, model, sample)

    def test_estimate_matches_brute_force_lbfgsb(self):
        self._check_estimate(KL, gaussian_model(), sample_gaussian(GaussianSpec(0.3), 500, 21))

    @staticmethod
    def _check_estimate(div, model, sample):
        ctx = ObjectiveContext(div, model, sample)

        def fun(theta):
            paired, cross, grad = brute_force_terms(div, model, sample, theta)
            return cross - paired, -grad

        res = minimize(fun, model.theta0, jac=True, method="L-BFGS-B",
                       bounds=[tuple(b) for b in model.bounds],
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-9, "maxls": 60})
        est = estimate(ctx)
        assert est.converged
        assert est.i_hat == pytest.approx(-res.fun, rel=1e-10)


class TestEstimate:
    def test_dual_equals_plugin_random_tables(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            k1, k2 = rng.integers(2, 5, size=2)
            n = int(rng.integers(30, 201))
            counts = random_table(rng, k1, k2, n)
            sample = table_to_sample(counts)
            model = finite_model(k1, k2)
            levels = (np.arange(k1), np.arange(k2))
            for div in (KL, CHISQ, HELL):
                plug = plugin_estimate(div, sample, levels)
                est = estimate(ObjectiveContext(div, model, sample))
                assert abs(est.i_hat - plug) <= 1e-6

    def test_perfect_dependence_reaches_log2(self):
        counts = np.array([[50, 0], [0, 50]])
        sample = table_to_sample(counts)
        est = estimate(ObjectiveContext(KL, finite_model(2, 2), sample))
        assert est.i_hat == pytest.approx(np.log(2.0), abs=1e-7)

    def test_i_hat_nonnegative_and_equals_objective(self):
        rng = np.random.default_rng(31)
        s = PairedSample(rng.standard_normal(60), rng.standard_normal(60))
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        est = estimate(ctx)
        assert est.i_hat >= -1e-8
        assert est.i_hat == pytest.approx(
            objective(ctx, est.theta_hat.to_array()), abs=1e-12)
        assert est.converged
        assert est.objective_evals > 0

    @pytest.mark.parametrize("case", ["gaussian-kl", "tied-chisq"])
    def test_last_evaluation_reused(self, case, monkeypatch):
        if case == "gaussian-kl":
            ctx = ObjectiveContext(KL, gaussian_model(),
                                   sample_gaussian(GaussianSpec(0.4), 200, 5))
        else:
            ctx = ObjectiveContext(CHISQ, ExpBilinearModel(["x", "y", "xy"]),
                                   tied_samples(200)["rounded"])
        calls = 0
        evaluate = phimi.estimator._evaluate

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(phimi.estimator, "_evaluate", counting)
        est = estimate(ctx)
        monkeypatch.undo()
        assert est.converged
        assert calls == est.objective_evals
        theta = est.theta_hat.to_array()
        assert est.i_hat == objective(ctx, theta)
        grad = objective_with_grad(ctx, theta)[1]
        assert est.grad_norm == _projected_grad_norm(theta, grad, ctx.model.bounds)

    def test_multistart_agreement_kl(self):
        # concave surface: independent starts land on the same maximum
        s = sample_gaussian(GaussianSpec(0.5), 120, 77)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        values = [estimate(ctx, seed=k).i_hat for k in range(3)]
        assert np.ptp(values) <= 1e-6

    def test_concave_along_segments_kl(self):
        rng = np.random.default_rng(8)
        s = sample_gaussian(GaussianSpec(0.4), 50, 5)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        for _ in range(10):
            a = rng.uniform(-0.4, 0.4, 4)
            b = rng.uniform(-0.4, 0.4, 4)
            ts = np.linspace(0.0, 1.0, 9)
            vals = [objective(ctx, (1 - t) * a + t * b) for t in ts]
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-9)

    def test_consistency_under_independence(self):
        s = sample_gaussian(GaussianSpec(0.0), 1500, 99)
        est = estimate(ObjectiveContext(KL, gaussian_model(), s))
        assert est.i_hat < 0.01
        assert np.max(np.abs(est.theta_hat.to_array())) < 0.2

    def test_consistency_under_dependence(self):
        rho = 0.6
        true_mi = -0.5 * np.log(1.0 - rho**2)
        s = sample_gaussian(GaussianSpec(rho), 2000, 17)
        est = estimate(ObjectiveContext(KL, gaussian_model(), s))
        assert est.i_hat == pytest.approx(true_mi, abs=0.05)


class TestPluginEstimate:
    def test_independent_by_construction_is_zero(self):
        # p_xy = px * py exactly: a product table
        counts = np.outer([2, 4], [3, 6])
        sample = table_to_sample(counts)
        assert plugin_estimate(KL, sample) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_uniform_values(self):
        sample = table_to_sample(np.array([[25, 0], [0, 25]]))
        levels = (np.arange(2), np.arange(2))
        assert plugin_estimate(KL, sample, levels) == pytest.approx(np.log(2.0))
        assert plugin_estimate(CHISQ, sample, levels) == pytest.approx(0.5)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(55)
        counts = random_table(rng, 3, 4, 120)
        sample = table_to_sample(counts)
        levels = (np.arange(3), np.arange(4))
        for div in (KL, CHISQ, HELL):
            assert plugin_estimate(div, sample, levels) == pytest.approx(
                direct_plugin(div, counts), abs=1e-12)

    def test_empty_cell_infinite_phi_raises(self):
        sample = table_to_sample(np.array([[5, 0], [3, 2]]))
        with pytest.raises(DomainError):
            plugin_estimate(DivergenceSpec(0.0), sample)
        with pytest.raises(DomainError):
            plugin_estimate(DivergenceSpec(-1.0), sample)

    def test_unknown_level_raises(self):
        sample = table_to_sample(np.array([[2, 2], [2, 2]]))
        with pytest.raises(SupportError):
            plugin_estimate(KL, sample, (np.array([0]), np.array([0, 1])))

    def test_levels_that_do_not_compare_raise(self):
        # levels are encoded by a sorted search, so they must be mutually
        # comparable; mixed strings and numbers are rejected
        sample = PairedSample(np.array(["a", "b"], dtype=object),
                              np.array([0, 1]), kind="categorical")
        levels = (np.array(["a", "b", 3], dtype=object), np.array([0, 1]))
        with pytest.raises(SupportError, match="do not compare"):
            plugin_estimate(KL, sample, levels)


class TestPluginStatistics:
    def test_batch_matches_per_table_oracle(self):
        rng = np.random.default_rng(71)
        tables = np.stack([random_table(rng, 3, 4, 40) for _ in range(25)])
        # an empty row and an empty column: those cells contribute nothing
        tables[3] = [[0, 0, 0, 0], [5, 0, 2, 0], [1, 0, 9, 3]]
        for div in (KL, CHISQ, HELL):
            batch = plugin_statistics(div, tables)
            assert batch.shape == (25,)
            ref = [direct_plugin(div, t) for t in tables]
            np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-15)
            # any leading shape; a single table gives a 0-d result
            assert plugin_statistics(div, tables.reshape(5, 5, 3, 4)).shape == (5, 5)
            assert plugin_statistics(div, tables[7]) == batch[7]

    def test_empty_cell_infinite_phi_raises_in_batch(self):
        tables = np.array([[[2, 2], [2, 2]], [[5, 0], [3, 2]]])
        assert np.all(np.isfinite(plugin_statistics(DivergenceSpec(0.0), tables[:1])))
        for gamma in (0.0, -1.0):
            with pytest.raises(DomainError):
                plugin_statistics(DivergenceSpec(gamma), tables)

    def test_plugin_estimate_is_the_single_table_case(self):
        rng = np.random.default_rng(72)
        counts = random_table(rng, 3, 2, 50)
        sample = table_to_sample(counts)
        for div in (KL, CHISQ, HELL):
            assert plugin_estimate(div, sample) == plugin_statistics(div, counts)

    def test_plugin_estimate_on_a_batch_of_samples(self):
        rng = np.random.default_rng(73)
        tables = [random_table(rng, 3, 2, size) for size in (20, 35, 50)]
        tables[1][2] = 0   # an empty row: that level is seen only in other samples
        samples = [table_to_sample(t) for t in tables]
        for div in (KL, CHISQ, HELL):
            batch = plugin_estimate(div, samples, (np.arange(3), np.arange(2)))
            assert batch.shape == (3,)
            ref = [direct_plugin(div, t) for t in tables]
            np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-15)
            # default levels: the values seen in any sample
            np.testing.assert_allclose(plugin_estimate(div, samples), ref,
                                       rtol=1e-12, atol=1e-15)
            assert batch[2] == plugin_estimate(div, samples[2])


class TestPairedSample:
    def test_validation(self):
        with pytest.raises(LengthMismatchError):
            PairedSample([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            PairedSample([1.0], [1.0])
        with pytest.raises(ValueError):
            PairedSample([1.0, 2.0], [1.0, 2.0], kind="weird")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_real_rejected(self, bad):
        with pytest.raises(ValueError, match=r"x\[1\]"):
            PairedSample([1.0, bad, 3.0], [4.0, 5.0, 6.0])
        with pytest.raises(ValueError, match=r"y\[2\]"):
            PairedSample([1.0, 2.0, 3.0], [4.0, 5.0, bad])

    def test_categorical_tokens_not_checked(self):
        s = PairedSample(np.array(["nan", "a"]), np.array(["b", "inf"]), kind="categorical")
        assert s.n == 2

    def test_subset(self):
        s = PairedSample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        sub = s.subset(np.array([0, 2]))
        assert sub.n == 2
        assert sub.x.tolist() == [1.0, 3.0]
