import copy
import math
import time
import tracemalloc
from contextlib import nullcontext
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from phimi import (
    BootstrapConfig,
    DivergenceSpec,
    DomainError,
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    GaussianSpec,
    ObjectiveContext,
    PairedSample,
    SupportError,
    bootstrap_statistics,
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
import phimi.models
import phimi.testing
from phimi.errors import LengthMismatchError, PhimiError
from phimi.divergence import NAMED_GAMMAS
from phimi.estimator import (
    _projected_grad_norm,
    estimate_resamples,
    estimate_samples,
    objective_terms,
)
from phimi.models import (
    _SETTLED_R,
    BASIS_REGISTRY,
    BasisPair,
    _series_sums,
    _series_terms,
    _settled,
    rank_transform,
)

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


def row0(hook, div, theta, cache, *args):
    """A model hook at a 1-D ``theta`` (beta for ``_profile``) on the cache
    of one sample, a stack of one: row 0 of the hook at ``theta[None]``."""
    return tuple(None if q is None else q[0] for q in hook(div, theta[None], cache, *args))


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

    @pytest.mark.parametrize("call", ["objective", "objective_with_grad", "objective_terms",
                                      "estimate", "estimate_resamples", "bootstrap"])
    def test_one_sample_calls_refuse_a_stack(self, call):
        samples = [sample_gaussian(GaussianSpec(0.3), 50, seed) for seed in range(3)]
        ctx = ObjectiveContext(KL, gaussian_model(), samples)
        theta = np.zeros(4)
        run = {"objective": lambda: objective(ctx, theta),
               "objective_with_grad": lambda: objective_with_grad(ctx, theta),
               "objective_terms": lambda: objective_terms(ctx, theta),
               "estimate": lambda: estimate(ctx),
               "estimate_resamples": lambda: estimate_resamples(ctx, np.zeros((2, 50), int),
                                                                np.zeros((2, 50), int)),
               "bootstrap": lambda: phimi.testing.test_independence(ctx, "bootstrap")}[call]
        with pytest.raises(PhimiError, match="stacks 3 samples.*estimate_samples"):
            run()

    def test_rows_take_one_sample_and_some_pairs(self):
        samples = [sample_gaussian(GaussianSpec(0.3), 50, seed) for seed in range(3)]
        with pytest.raises(PhimiError, match="rows= selects a held-out fold of one sample"):
            ObjectiveContext(KL, gaussian_model(), samples, rows=np.arange(10))
        for rows in ([], np.arange(0), np.zeros(50, dtype=bool)):
            with pytest.raises(PhimiError, match="rows= selects no pairs"):
                ObjectiveContext(KL, gaussian_model(), samples[0], rows=rows)


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
        s = model._cross_exponent(np.full((1, model.dim), 0.1), ctx._cache)
        assert s.shape == (1, np.unique(sample.x).size, np.unique(sample.y).size)

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
        check_estimate(div, model, sample)

    def test_estimate_matches_brute_force_lbfgsb(self):
        check_estimate(KL, gaussian_model(), sample_gaussian(GaussianSpec(0.3), 500, 21))


def check_profile(ctx, beta, step=1e-5):
    """The profile against M_n at (alpha*(beta), beta) and central differences."""
    model, div = ctx.model, ctx.divergence

    def profile(b):
        return row0(model._profile, div, b, ctx._cache)

    value, grad, hess, alpha = profile(beta)
    theta = np.concatenate([[alpha], beta])
    full, full_grad = objective_with_grad(ctx, theta)
    assert value == pytest.approx(full, rel=1e-10, abs=1e-15)
    scale = np.max(np.abs(full_grad))
    assert abs(full_grad[0]) <= 1e-12 * max(1.0, scale)   # alpha* is stationary
    assert np.allclose(grad, full_grad[1:], rtol=1e-10, atol=1e-10 * scale)
    d = beta.size
    fd_grad, fd_hess = np.empty(d), np.empty((d, d))
    for k in range(d):
        db = np.zeros(d)
        db[k] = step
        hi, lo = profile(beta + db), profile(beta - db)
        fd_grad[k] = (hi[0] - lo[0]) / (2 * step)
        fd_hess[:, k] = (hi[1] - lo[1]) / (2 * step)
    assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * max(scale, 1e-3)
    assert np.max(np.abs(fd_hess - hess)) <= 1e-6 * max(np.max(np.abs(hess)), 1e-3)


NEWTON_SAMPLES = {
    "dependent": sample_gaussian(GaussianSpec(0.4), 60, 3),
    "independent": sample_gaussian(GaussianSpec(0.0), 60, 4),
    "rounded": TIED["rounded"],
}


def brute_force_lbfgsb(div, model, sample):
    """sup M_n by L-BFGS-B on the pair-by-pair brute force."""
    def fun(theta):
        paired, cross, grad = brute_force_terms(div, model, sample, theta)
        return cross - paired, -grad

    res = minimize(fun, model.theta0, jac=True, method="L-BFGS-B",
                   bounds=[tuple(b) for b in model.bounds],
                   options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-9, "maxls": 60})
    return -res.fun


def lbfgsb_only(ctx):
    """``estimate``'s L-BFGS-B fit alone, with no Newton run before it."""
    return phimi.estimator._lbfgsb(ctx, 0, 0)


class TestProfiledNewton:
    """The profiled dual in beta and the Newton run on it."""

    @pytest.mark.parametrize("basis", list(ORACLE_BASES), ids=list(ORACLE_BASES))
    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_profile_matches_objective_and_differences(self, div, basis):
        # alpha* leaves the default box at some of these points
        model = ExpBilinearModel(ORACLE_BASES[basis], alpha_bounds=(-40.0, 40.0))
        ctx = ObjectiveContext(div, model, NEWTON_SAMPLES["dependent"])
        rng = np.random.default_rng(18)
        for _ in range(2):
            check_profile(ctx, rng.uniform(-0.3, 0.3, model.dim - 1))

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    @pytest.mark.parametrize("tied", list(TIED))
    def test_tied_profile_matches_objective_and_differences(self, tied, div):
        rng = np.random.default_rng(19)
        for basis in ("gaussian", "x,y,xy", "xy,x2y2"):
            model = ExpBilinearModel(ORACLE_BASES[basis], alpha_bounds=(-40.0, 40.0))
            ctx = ObjectiveContext(div, model, TIED[tied])
            check_profile(ctx, rng.uniform(-0.3, 0.3, model.dim - 1))

    @pytest.mark.parametrize("basis", ["gaussian", "x,y,xy", "xy", "1,x,xy", "xy,x2y2"])
    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_newton_not_below_brute_force_lbfgsb(self, div, basis):
        # below gamma = 0 the sup over the box is unbounded on dependent
        # samples (huge, at the box's edge); Newton then hands over
        names = list(NEWTON_SAMPLES) if div.gamma >= 0.0 else ["independent"]
        model = ExpBilinearModel(ORACLE_BASES[basis])
        for name in names:
            sample = NEWTON_SAMPLES[name]
            est = estimate(ObjectiveContext(div, model, sample))
            oracle = brute_force_lbfgsb(div, model, sample)
            assert est.method == "newton" and est.converged, name
            assert est.i_hat >= oracle - 1e-10 * abs(oracle), name

    @pytest.mark.parametrize("case", ["alpha-box", "beta-bound", "beta-box-off-zero",
                                      "stationary-off-box", "pass-cap"])
    def test_forced_fallback_returns_lbfgsb_result(self, case, monkeypatch):
        sample, div = NEWTON_SAMPLES["dependent"], KL
        if case == "alpha-box":      # alpha* ~ 0.07
            model = gaussian_model(alpha_bounds=(0.5, 1.0))
        elif case == "beta-bound":   # the xy coefficient wants ~0.4
            model = gaussian_model(beta_bounds=(-0.05, 0.05))
        elif case == "beta-box-off-zero":   # every beta at its lower bound
            model = gaussian_model(beta_bounds=(0.5, 2.0))
        elif case == "stationary-off-box":  # the profile peaks at beta = 0
            model = ExpBilinearModel(["x"], beta_bounds=(0.5, 2.0))
        else:                        # the sup is unbounded: no convergence
            model, div = gaussian_model(), DivergenceSpec(-1.0)
        ctx = ObjectiveContext(div, model, sample)
        est = estimate(ctx)
        ref = lbfgsb_only(ctx)
        assert est.method == ref.method == "lbfgsb"
        assert est.theta_hat == ref.theta_hat
        assert est.i_hat == ref.i_hat and est.grad_norm == ref.grad_norm
        assert est.converged == ref.converged
        assert est.objective_evals > ref.objective_evals   # Newton's passes count

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES[:2], ids=str)
    def test_starts_at_the_box_point_nearest_zero(self, div):
        # beta = 0 is outside the box; the optimum (~0.4) is inside
        model = ExpBilinearModel(["xy"], beta_bounds=(0.2, 2.0))
        sample = NEWTON_SAMPLES["dependent"]
        est = estimate(ObjectiveContext(div, model, sample))
        oracle = brute_force_lbfgsb(div, model, sample)
        assert est.method == "newton" and est.converged
        assert est.i_hat >= oracle - 1e-10 * abs(oracle)

    @pytest.mark.parametrize("div", [d for d in ORACLE_DIVERGENCES if d.gamma >= 0.0], ids=str)
    def test_flat_profile_direction_costs_no_extra_evaluations(self, div, monkeypatch):
        # the basis term "1" duplicates alpha, so the profile is flat along
        # its coefficient and -H is singular
        model = ExpBilinearModel(ORACLE_BASES["1,x,xy"])
        for name in ("dependent", "rounded"):
            ctx = ObjectiveContext(div, model, NEWTON_SAMPLES[name])
            est = estimate(ctx)
            ref = lbfgsb_only(ctx)
            assert est.method == "newton", name
            assert est.objective_evals <= ref.objective_evals, name


def cross_paths(monkeypatch):
    """Counts, from here on, of the three routes of the cross sums: series
    sums that answered some row, exact kernels formed and dense cross
    blocks built (one per call, whatever the rows)."""
    counts = {"series": 0, "kernel": 0, "dense": 0}
    series, kernel = phimi.models._series_sums, phimi.models._kernel_sums
    dense = ExpBilinearModel._cross_exponent

    def series_spy(*args):
        out = series(*args)
        counts["series"] += not np.isnan(out[..., 0]).all()
        return out

    def kernel_spy(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def dense_spy(self, *args):
        counts["dense"] += 1
        return dense(self, *args)

    monkeypatch.setattr(phimi.models, "_series_sums", series_spy)
    monkeypatch.setattr(phimi.models, "_kernel_sums", kernel_spy)
    monkeypatch.setattr(ExpBilinearModel, "_cross_exponent", dense_spy)
    return counts


def dense_cache(ctx):
    """The context's cache without the scaled coupled columns, so that the
    cross sums build the dense block: the oracle of the factored sums."""
    return {k: v for k, v in ctx._cache.items() if k not in ("scale", "scaled_x", "scaled_y")}


def lowrank_samples(rho, n=500):
    """A continuous sample and a bootstrap resample of it, each margin drawn
    with replacement: ~63% distinct values, some repeated up to 5 times."""
    base = sample_gaussian(GaussianSpec(rho), n, 7)
    rng = np.random.default_rng(23)
    return {"continuous": base,
            "tied": PairedSample(base.x[rng.integers(0, n, n)], base.y[rng.integers(0, n, n)])}


LOWRANK_BASES = {"gaussian": ["x2", "y2", "xy"], "x,y,xy": ["x", "y", "xy"],
                 "x2,y2,xy,x,y": ["x2", "y2", "xy", "x", "y"]}
LOWRANK_DIVERGENCES = [DivergenceSpec(g) for g in (1.0, 2.0, 0.5, 0.0, -1.0, 1.5)]


def assert_profiles_match(model, div, beta, cache, dense, tol=1e-12):
    """Profile value, gradient, Hessian and alpha* from the low-rank sums
    against the dense block, each to ``tol`` of its own scale."""
    got, want = row0(model._profile, div, beta, cache), row0(model._profile, div, beta, dense)
    g = div.gamma
    # gradient e^L (E_A f - E_B f): its scale is e^L times the larger mean
    u = (g - 1.0) * model._paired_exponent(beta[None], dense)
    w = dense["pw"] * np.exp(u - u.max())
    mean_a = model._paired_moments(w / w.sum(), dense)[0][0]
    m = (row0(model._cross_sums, div, np.concatenate([[0.0], beta]), dense, False, True)[0]
         if g != 0.0 else np.concatenate([[1.0], dense["cross_mean"][0, 1:]]))
    e_l = 1.0 + g * (g - 1.0) * want[0]
    grad_scale = e_l * max(np.max(np.abs(mean_a)), np.max(np.abs(m[1:] / m[0])))
    assert abs(got[0] - want[0]) <= tol * max(1.0, abs(want[0]))
    assert np.max(np.abs(got[1] - want[1])) <= tol * grad_scale
    assert np.max(np.abs(got[2] - want[2])) <= tol * np.max(np.abs(want[2]))
    assert abs(got[3] - want[3]) <= tol * max(1.0, abs(want[3]))


def assert_cross_terms_match(model, div, theta, cache, dense, tol=1e-12):
    got = row0(model._cross_term, div, theta, cache, True)
    want = row0(model._cross_term, div, theta, dense, True)
    assert abs(got[0] - want[0]) <= tol * max(1.0, abs(want[0]))
    assert np.max(np.abs(got[1] - want[1])) <= tol * np.max(np.abs(want[1]))


class TestLowRankCrossSums:
    """Cross sums of one coupled term by its series, against the dense block."""

    @pytest.mark.parametrize("basis", list(LOWRANK_BASES))
    def test_matches_dense_block(self, basis, monkeypatch):
        model = ExpBilinearModel(LOWRANK_BASES[basis])
        paths = cross_paths(monkeypatch)
        rng = np.random.default_rng(20)
        taken = checks = 0
        for rho in (0.0, 0.1, 0.3, 0.5, 0.8):
            for name, sample in lowrank_samples(rho).items():
                for div in LOWRANK_DIVERGENCES:
                    ctx = ObjectiveContext(div, model, sample)
                    assert ctx._cache["lowrank"], name
                    dense = dense_cache(ctx)
                    est = estimate(ctx)
                    with monkeypatch.context() as patch:
                        patch.setattr(ExpBilinearModel, "_factored_sums", lambda *args: None)
                        ref = estimate(ObjectiveContext(div, model, sample))
                    assert (est.method, est.objective_evals) == (ref.method, ref.objective_evals)
                    assert est.i_hat == pytest.approx(ref.i_hat, rel=1e-12, abs=1e-15)
                    fitted = np.clip(est.theta_hat.to_array(), *model.bounds.T)
                    for theta in [fitted] + [np.clip(fitted + rng.uniform(-0.05, 0.05, model.dim),
                                                     *model.bounds.T) for _ in range(2)]:
                        before = paths["series"]
                        assert_profiles_match(model, div, theta[1:], ctx._cache, dense)
                        assert_cross_terms_match(model, div, theta, ctx._cache, dense)
                        checks += 2
                        taken += paths["series"] - before
        # the series, not the exact kernel, answered most of the checks above
        assert taken >= 3 * checks // 4

    def test_value_keeps_expm1_precision_near_theta0(self):
        # sum (e^{gamma s} - 1) is tiny next to sum e^{gamma s}: subtracting
        # the two would lose about 7 digits at this theta
        rng = np.random.default_rng(21)
        sample = lowrank_samples(0.3)["continuous"]
        for basis in LOWRANK_BASES.values():
            model = ExpBilinearModel(basis)
            for div in (KL, CHISQ, HELL, DivergenceSpec(-1.0)):
                ctx = ObjectiveContext(div, model, sample)
                theta = 1e-9 * rng.uniform(-1.0, 1.0, model.dim)
                got = row0(model._cross_term, div, theta, ctx._cache, False)[0]
                want = row0(model._cross_term, div, theta, dense_cache(ctx), False)[0]
                assert got == pytest.approx(want, rel=1e-10, abs=0.0)
                assert objective_terms(ctx, model.theta0) == (0.0, 0.0)

    @pytest.mark.parametrize("r", [0.0, 1e-8, 0.24, -1.2, 3.5, -6.9, 20.0, 60.0, -90.0])
    def test_series_length(self, r):
        # K: the smallest k > |r| with |r|^k / k! at most 2^-60 of the
        # largest term, from log terms
        def log_term(k):
            return (k * math.log(abs(r)) if r else (0.0 if k == 0 else -math.inf)) \
                - math.lgamma(k + 1)

        top = max(log_term(k) for k in range(121))
        small = [k for k in range(121)
                 if k > abs(r) and log_term(k) <= top - 60.0 * math.log(2.0)]
        coef, k = _series_terms(r)
        if not small:
            assert k == 0
            return
        assert k == small[0]
        assert np.allclose(coef[:k], [r**j / math.factorial(j) for j in range(k)],
                           rtol=1e-13, atol=0.0)

    def test_two_coupled_terms_stay_dense(self, monkeypatch):
        model = ExpBilinearModel(ORACLE_BASES["xy,x2y2"])
        sample = lowrank_samples(0.3)["continuous"]
        ctx = ObjectiveContext(KL, model, sample)
        assert not ctx._cache["lowrank"]
        self.check_dense(monkeypatch, ctx, np.array([0.1, 0.2, -0.05]))

    def test_small_tied_block_takes_the_kernel(self, monkeypatch):
        # ~30 distinct values per side: nx ny < _LOWRANK_MIN (nx + ny)
        ctx = ObjectiveContext(CHISQ, gaussian_model(), TIED["rounded"])
        nx, ny = (np.unique(v).size for v in (TIED["rounded"].x, TIED["rounded"].y))
        assert nx * ny < phimi.models._LOWRANK_MIN * (nx + ny) and not ctx._cache["lowrank"]
        self.check_kernel(monkeypatch, ctx, np.array([0.1, -0.2, -0.1, 0.3]))

    def test_exponent_bound_falls_back(self, monkeypatch):
        # |x|, |y| up to ~50: the bound on |s| passes 700 while s <= 0
        base = lowrank_samples(0.3)["continuous"]
        sample = PairedSample(15.0 * base.x, 15.0 * base.y)
        theta = np.array([0.0, -0.5, -0.5, 0.1])
        for div in (CHISQ, KL):   # chi-square takes exp(s) = 0, KL does not
            ctx = ObjectiveContext(div, gaussian_model(), sample)
            assert ctx._cache["lowrank"]
            if div is KL:
                with pytest.raises(DomainError):
                    objective_terms(ctx, theta)
                # the dense block marks the row out of the domain
                with np.errstate(over="ignore", invalid="ignore"):
                    cross = row0(gaussian_model()._cross_term, div, theta, dense_cache(ctx), False)
                assert np.isnan(cross[0])
            else:
                self.check_dense(monkeypatch, ctx, theta)

    def test_rounding_guard_takes_the_kernel(self, monkeypatch):
        # positive u, v and c < 0: the series alternates and cancels to
        # about 1e-8 of the result; the guard sends it to the exact kernel
        rng = np.random.default_rng(22)
        sample = PairedSample(rng.uniform(1.0, 2.5, 500), rng.uniform(1.0, 2.5, 500))
        model = ExpBilinearModel(["x", "y", "xy"])
        theta = np.array([0.0, 0.0, 0.0, -4.0])
        ctx = ObjectiveContext(KL, model, sample)
        r = -4.0 * ctx._cache["scale"]
        assert _series_terms(r)[1] > 0 and abs(r) < 700.0 and ctx._cache["lowrank"]
        self.check_kernel(monkeypatch, ctx, theta)

    def test_dense_oracle_builds_the_block(self, monkeypatch):
        # without the scaled coupled columns, one coupled term takes the
        # dense block, on a large block and on a small one
        for sample in (lowrank_samples(0.3)["continuous"], TIED["rounded"]):
            ctx = ObjectiveContext(KL, gaussian_model(), sample)
            with monkeypatch.context() as patch:
                paths = cross_paths(patch)
                gaussian_model()._cross_term(KL, np.array([[0.1, -0.2, -0.1, 0.3]]),
                                             dense_cache(ctx), True)
            assert paths == {"series": 0, "kernel": 0, "dense": 1}

    def test_values_do_not_depend_on_earlier_evaluations(self):
        # a 13-term series, then a 44-term one: the context's evaluation
        # equals a fresh context's
        sample = sample_gaussian(GaussianSpec(0.5), 300, 0)
        warm = ObjectiveContext(KL, gaussian_model(), sample)
        objective_with_grad(warm, np.array([0.0, -0.01, -0.01, 0.04]))
        theta = np.array([0.1, -0.2, -0.2, 1.3])
        value, grad = objective_with_grad(warm, theta)
        fresh = objective_with_grad(ObjectiveContext(KL, gaussian_model(), sample), theta)
        assert value == fresh[0] and np.array_equal(grad, fresh[1])

    @staticmethod
    def evaluations(monkeypatch, ctx, theta):
        """The evaluation at theta and the profile at its beta, and the
        routes their cross sums took."""
        model, div = ctx.model, ctx.divergence
        with monkeypatch.context() as patch:
            paths = cross_paths(patch)
            got = (row0(model._cross_term, div, theta, ctx._cache, True),
                   row0(model._profile, div, theta[1:], ctx._cache))
        return got, paths

    @classmethod
    def check_dense(cls, monkeypatch, ctx, theta):
        """The evaluation at theta and the profile at its beta build the
        dense block, and give exactly what the dense block gives."""
        model, div = ctx.model, ctx.divergence
        dense = dense_cache(ctx)
        want = (row0(model._cross_term, div, theta, dense, True),
                row0(model._profile, div, theta[1:], dense))
        got, paths = cls.evaluations(monkeypatch, ctx, theta)
        assert paths == {"series": 0, "kernel": 0, "dense": 2}
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(g, w)

    @classmethod
    def check_kernel(cls, monkeypatch, ctx, theta):
        """The evaluation at theta and the profile at its beta form the
        exact kernel, and agree with the dense block to 1e-12."""
        model, div = ctx.model, ctx.divergence
        assert cls.evaluations(monkeypatch, ctx, theta)[1] == {"series": 0, "kernel": 2,
                                                                "dense": 0}
        assert_cross_terms_match(model, div, theta, ctx._cache, dense_cache(ctx))
        assert_profiles_match(model, div, theta[1:], ctx._cache, dense_cache(ctx))


def guard_everywhere():
    """The a-priori rule off: every series row forms its rounding guard's
    sums and takes the exact guard."""
    return mock.patch.object(phimi.models, "_settled",
                             lambda r, k: np.zeros(np.shape(k), dtype=bool))


# scaled coupled values, with mass at the ends; weights, some zero
COORD = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
WEIGHT = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(1e-3, 1.0))


@st.composite
def series_stacks(draw):
    """A stack of series rows: scaled coupled columns t (R, mx) and s (R,
    my) in [-1, 1], weights u (R, mx, c) and v (R, my, c), some columns
    all zero, and rates r (R,), most near the rule's bound."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mx, my = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def array(elements, shape):
        return np.array(draw(st.lists(elements, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)

    u, v = array(WEIGHT, (rows, mx, cols)), array(WEIGHT, (rows, my, cols))
    zero = draw(st.integers(0, cols))
    u[..., zero:zero + 1] = 0.0   # none where zero = cols
    rate = st.one_of(st.floats(-3.5, 3.5), st.floats(1.3, 1.6), st.floats(-1.6, -1.3))
    return array(COORD, (rows, mx)), array(COORD, (rows, my)), u, v, array(rate, (rows,))


def worst_case(r, sign):
    """One value a side with ``r t s = -|r|`` (``sign`` the sign of t) and
    unit weights: the scale is ``e^{-|r|}``, the rounding sum ``e^{|r|}``."""
    t = np.array([[sign * 1.0]])
    cache = {"scaled_x": t, "scaled_y": -np.sign(r) * t}
    one = np.ones((1, 1, 1))
    return _series_sums(cache, np.array([r]), one, one, np.arange(1), np.arange(1), True)


def settled_stacks():
    """Stacked caches with their rows' rates r = gamma c: continuous and
    resampled samples, rho 0 to 0.95, one with an x outlier, shifted both
    ways, and rates from -3 to 3 across the rows (the rule settles |r| up
    to about 1.49)."""
    model = gaussian_model()
    for rho in (0.0, 0.5, 0.95):
        for shift in (-3.0, 3.0):
            samples = [lowrank_samples(rho, n=300)[name] for name in ("continuous", "tied")]
            x = np.array([s.x for s in samples] * 4) + shift
            y = np.array([s.y for s in samples] * 4) - shift
            x[-1, 0] = 40.0
            cache = model._stack_cache(x, y)
            yield model, cache, np.linspace(-3.0, 3.0, len(x))


class TestSettledRows:
    """Series rows whose rounding guard passes for any weights skip its
    two sums; the sums and the rows declined stay those of the guard."""

    @settings(max_examples=300, deadline=None)
    @given(series_stacks())
    def test_settled_rows_pass_the_exact_guard(self, stack):
        t, s, u, v, r = stack
        lx = ly = np.arange(u.shape[-1])
        k = _series_terms(r)[1]
        settled = (k > 0) & _settled(r, k)
        for shifted in (True, False):
            with guard_everywhere():
                exact = _series_sums({"scaled_x": t, "scaled_y": s}, r, u, v, lx, ly, shifted)
            assert not np.isnan(exact[settled]).any()
            got = _series_sums({"scaled_x": t, "scaled_y": s}, r, u, v, lx, ly, shifted)
            assert got.tobytes() == exact.tobytes()

    def test_bound_is_tight_on_the_worst_case(self):
        # at K = 23 the bound is 1.487 and a rate there takes 23 terms: the
        # worst case passes the exact guard at the bound and fails it 1e-6
        # above, where the rule leaves the row to the guard
        bound = _SETTLED_R[23]
        for r in (bound, -bound):
            above = r * (1.0 + 1e-6)
            assert _series_terms(r)[1] == _series_terms(above)[1] == 23
            assert _settled(r, 23) and not _settled(above, 23)
            for sign in (1.0, -1.0):
                with guard_everywhere():
                    assert not np.isnan(worst_case(r, sign)).any()
                    assert np.isnan(worst_case(above, sign)).all()

    @pytest.mark.parametrize("gamma", [2.0, 1.0, 0.5, -1.0])
    def test_rule_changes_no_sum(self, gamma):
        # stacks mixing settled and unsettled rows, and single rows of them:
        # every sum, shift and declined row equals that of the exact guard
        div = DivergenceSpec(gamma)
        for model, cache, rates in settled_stacks():
            theta = np.zeros((len(rates), model.dim))
            theta[:, 1:3] = -0.05
            theta[:, 3] = rates / (gamma * cache["scale"])
            k = _series_terms(rates)[1]
            assert 0 < _settled(rates, k).sum() < len(rates)
            for second, shifted in ((False, False), (True, True)):
                got = model._cross_sums(div, theta, cache, second, shifted)
                with guard_everywhere():
                    want = model._cross_sums(div, theta, cache, second, shifted)
                for g, w in zip(got, want):
                    assert g is w is None or g.tobytes() == w.tobytes()
                for row in (0, len(rates) // 2, len(rates) - 1):
                    one = model._take_rows(cache, [row])
                    got = model._cross_sums(div, theta[[row]], one, second, shifted)
                    with guard_everywhere():
                        want = model._cross_sums(div, theta[[row]], one, second, shifted)
                    for g, w in zip(got, want):
                        assert g is w is None or g.tobytes() == w.tobytes()

    def test_settled_stack_forms_no_guard_sums(self, monkeypatch):
        # a settled stack forms t^k w only; a mixed one forms the guard's
        # sums on its unsettled rows alone, apart from the others
        stack = phimi.models._stack_power_sums
        calls = []

        def spy(t, w, top, guard):
            calls.append((len(t), guard))
            return stack(t, w, top, guard)

        monkeypatch.setattr(phimi.models, "_stack_power_sums", spy)
        model, cache, _ = next(settled_stacks())
        xw, yw, lx, ly = model._moments(cache, 4)
        rows = len(cache["scale"])
        for rates, want in ((np.linspace(-1.2, 1.2, rows), [(rows, False)] * 2),
                            (np.linspace(-3.0, 3.0, rows), None)):
            calls.clear()
            m = _series_sums(cache, rates, xw, yw, lx, ly, True)
            formed = list(calls)
            with guard_everywhere():
                assert m.tobytes() == _series_sums(cache, rates, xw, yw, lx, ly, True).tobytes()
            if want is None:
                settled = _settled(rates, _series_terms(rates)[1])
                want = [(settled.sum(), False), ((~settled).sum(), True)] * 2
            assert formed == want


KERNEL_BASES = {"x,y,xy": ["x", "y", "xy"], "gaussian": ["x2", "y2", "xy"],
                "1,x,xy": ["1", "x", "xy"]}


class TestExactKernel:
    """Cross sums of one coupled term on blocks below the series' size
    rule, by the exact kernel, against the dense block."""

    @pytest.mark.parametrize("div", LOWRANK_DIVERGENCES, ids=str)
    @pytest.mark.parametrize("basis", list(KERNEL_BASES))
    def test_matches_dense_block(self, basis, div, monkeypatch):
        model = ExpBilinearModel(KERNEL_BASES[basis])
        full = all_columns(model)
        rng = np.random.default_rng(26)
        # a continuous sample of 60 and a resample of it: blocks of 30 and
        # ~19 pairs per (nx + ny)
        for name, sample in lowrank_samples(0.3, n=60).items():
            ctx = ObjectiveContext(div, model, sample)
            assert not ctx._cache["lowrank"], name
            oracle = dense_cache(ObjectiveContext(div, full, sample))
            for _ in range(2):
                theta = np.concatenate([[0.1], rng.uniform(-0.5, 0.5, model.dim - 1)])
                for second in (False, True):
                    for shifted in (False, True):
                        want = row0(full._cross_sums, div, theta, oracle, second, shifted)
                        scale = TestDistinctColumns.scale(full, div, theta, oracle, second,
                                                          shifted)
                        with monkeypatch.context() as patch:
                            paths = cross_paths(patch)
                            *got, shift = row0(model._cross_sums, div, theta, ctx._cache,
                                               second, shifted)
                        assert paths == {"series": 0, "kernel": 1, "dense": 0}, name
                        # the kernel shifts by a bound on gamma s, the dense
                        # block by its largest entry
                        rescale = np.exp(shift - want[2])
                        for g, w, sc in zip(got, want, scale):
                            if w is not None:
                                assert np.all(np.abs(g * rescale - w) <= 1e-12 * sc), name

    def test_value_keeps_expm1_precision_near_theta0(self):
        # as on the series' blocks: sum (e^{gamma s} - 1) is tiny next to
        # sum e^{gamma s}, and the kernel keeps expm1's digits
        rng = np.random.default_rng(21)
        sample = lowrank_samples(0.3, n=60)["continuous"]
        for basis in KERNEL_BASES.values():
            model = ExpBilinearModel(basis)
            for div in (KL, CHISQ, HELL, DivergenceSpec(-1.0)):
                ctx = ObjectiveContext(div, model, sample)
                assert not ctx._cache["lowrank"]
                theta = 1e-9 * rng.uniform(-1.0, 1.0, model.dim)
                got = row0(model._cross_term, div, theta, ctx._cache, False)[0]
                want = row0(model._cross_term, div, theta, dense_cache(ctx), False)[0]
                assert got == pytest.approx(want, rel=1e-10, abs=0.0)
                assert objective_terms(ctx, model.theta0) == (0.0, 0.0)


def all_columns(model):
    """A copy of ``model`` that forms and sums every moment column, the
    equal ones included."""
    full = copy.copy(model)
    a, b = model._factors
    every = np.arange(a.size)
    full.__dict__["_columns"] = ((a, b, every, list(every + 1)),) * 2
    return full


# the registry's own factors: a library basis whose columns repeat
X, X2 = BASIS_REGISTRY["x"].xi, BASIS_REGISTRY["x2"].xi
DISTINCT_BASES = {
    "x,y,xy": (["x", "y", "xy"], [3, 3]),
    "gaussian": (["x2", "y2", "xy"], [5, 5]),
    "1,x,xy": (["1", "x", "xy"], [3, 3]),
    "xy,x2y2": ([BasisPair("xy", X, X), BasisPair("x2y2", X2, X2)], [5, 5]),
}


class TestDistinctColumns:
    """Each side forms and sums its distinct moment columns once; the cross
    sums equal those over every moment column, and the dense block's."""

    @pytest.mark.parametrize("basis", list(DISTINCT_BASES))
    def test_equal_columns_are_one(self, basis):
        names, widths = DISTINCT_BASES[basis]
        model = ExpBilinearModel(names)
        assert [side[3][-1] for side in model._columns] == widths
        # what is kept is what every column reads
        sample = lowrank_samples(0.3)["tied"]
        cache = ObjectiveContext(KL, model, sample)._cache
        full = ObjectiveContext(KL, all_columns(model), sample)._cache
        for key, (_, _, index, _) in zip(("xim", "zem"), model._columns):
            assert np.array_equal(cache[key][..., index], full[key])
        assert np.array_equal(cache["cross_mean"], full["cross_mean"])

    @pytest.mark.parametrize("basis", list(DISTINCT_BASES))
    def test_sums_match_every_column(self, basis, monkeypatch):
        model = ExpBilinearModel(DISTINCT_BASES[basis][0])
        full = all_columns(model)
        paths = cross_paths(monkeypatch)
        rng = np.random.default_rng(24)
        for name, sample in lowrank_samples(0.3).items():
            for div in (KL, CHISQ):
                ctx = ObjectiveContext(div, model, sample)
                every = ObjectiveContext(div, full, sample)
                oracle = dense_cache(every)
                theta = np.clip(estimate(ctx).theta_hat.to_array()
                                + rng.uniform(-0.02, 0.02, model.dim), *model.bounds.T)
                before = dict(paths)
                for second in (False, True):
                    for shifted in (False, True):
                        want = row0(full._cross_sums, div, theta, oracle, second, shifted)
                        scale = self.scale(full, div, theta, oracle, second, shifted)
                        for m, cache in ((model, ctx._cache), (model, dense_cache(ctx)),
                                         (full, every._cache)):
                            *got, shift = row0(m._cross_sums, div, theta, cache, second,
                                               shifted)
                            # the series shifts by a bound on gamma s, the
                            # dense block by its largest entry
                            rescale = np.exp(shift - want[2])
                            for g, w, sc in zip(got, want, scale):
                                if w is not None:
                                    assert np.all(np.abs(g * rescale - w) <= 1e-12 * sc), name
                # one coupled term: the series summed both caches that take
                # it, the dense block the oracle, its scale and the dense cache
                taken = {k: paths[k] - before[k] for k in paths}
                assert taken == ({"series": 0, "kernel": 0, "dense": 20} if basis == "xy,x2y2"
                                 else {"series": 8, "kernel": 0, "dense": 12}), name

    @staticmethod
    def scale(model, div, theta, cache, second, shifted):
        """The sums of the absolute weights times ``exp(gamma s)``, shifted
        as ``_cross_sums`` shifts them, plus the absolute weights where it
        sums ``expm1(gamma s)``: (first moments, second moments)."""
        size = dict(cache, xim=np.abs(cache["xim"]), zem=np.abs(cache["zem"]))
        m, pairs, shift = row0(model._cross_sums, div, theta, size, second, True)
        if shifted:
            return m, pairs
        weights = (size["xim"].sum(axis=-2) * size["zem"].sum(axis=-2))[0]
        d = model.dim - 1
        m = m * np.exp(shift) + weights[:1 + d]
        if second:
            k, l = model._pairs
            pairs = pairs * np.exp(shift)
            pairs[k, l] += weights[1 + d:]
            pairs[l, k] = pairs[k, l]
        return m, pairs

    def test_columns_equal_on_one_row_only(self):
        # x^3 equals x where x is in {-1, 0, 1}, as on row 0 only; the map
        # of equal columns holds on every row, so the stack keeps both
        cube = BasisPair("x3", lambda t: np.asarray(t, dtype=float) ** 3, BASIS_REGISTRY["x"].zeta)
        model = ExpBilinearModel([cube, "x", "xy"])
        rng = np.random.default_rng(25)
        base = lowrank_samples(0.3)["continuous"]
        samples = [PairedSample(rng.integers(-1, 2, base.n).astype(float), base.y),
                   base, lowrank_samples(0.3)["tied"]]
        index = model._columns[0][2]
        assert index[1] != index[2]   # x^3 and x
        stack = ObjectiveContext(KL, model, samples)._cache
        xi = stack["xim"][0][..., index]
        assert np.array_equal(xi[..., 1], xi[..., 2])
        assert not np.array_equal(stack["xim"][1][..., index[1]], stack["xim"][1][..., index[2]])
        assert list(stack["lowrank"]) == [False, True, True]
        theta = np.array([[0.1, 0.02, -0.05, 0.1]] * len(samples))
        for div in (KL, CHISQ):
            with np.errstate(over="ignore", invalid="ignore"):
                rows = {"cross": model._cross_term(div, theta, stack, True),
                        "profile": model._profile(div, theta[:, 1:], stack)}
                for shifted in (False, True):
                    rows[shifted] = model._cross_sums(div, theta, stack, True, shifted)
            for r, sample in enumerate(samples):
                own = ObjectiveContext(div, model, sample)._cache
                self.check([q[r] for q in rows["cross"]],
                           row0(model._cross_term, div, theta[r], own, True))
                self.check([q[r] for q in rows["profile"]],
                           row0(model._profile, div, theta[r, 1:], own))
                for shifted in (False, True):
                    self.check([q[r] for q in rows[shifted]],
                               row0(model._cross_sums, div, theta[r], own, True, shifted))

    @staticmethod
    def check(got, want):
        for g, w in zip(got, want):
            if w is not None:
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max())


def check_estimate(div, model, sample, oracle_sample=None):
    """``estimate`` against L-BFGS-B on the brute force, which sees
    ``oracle_sample`` (the sample as ``model.h`` takes it) if given."""
    ctx = ObjectiveContext(div, model, sample)
    oracle = brute_force_lbfgsb(div, model, sample if oracle_sample is None else oracle_sample)
    est = estimate(ctx)
    assert est.converged
    assert est.method == ("newton" if isinstance(model, ExpBilinearModel) else "lbfgsb")
    assert est.i_hat == pytest.approx(oracle, rel=1e-10)


def assert_terms_match_brute_force(div, model, ctx, oracle_sample, theta, abs_terms=0.0):
    paired, cross, grad = brute_force_terms(div, model, oracle_sample, theta)
    assert objective_terms(ctx, theta) == pytest.approx((paired, cross), rel=1e-10,
                                                        abs=abs_terms)
    value, got = objective_with_grad(ctx, theta)
    assert value == pytest.approx(paired - cross, rel=1e-10, abs=abs_terms)
    assert np.allclose(got, grad, rtol=1e-10, atol=1e-10 * np.max(np.abs(grad)))


FINITE_TABLES = {
    "full": np.array([[5, 3, 2], [1, 4, 6]]),
    "empty-cell": np.array([[5, 0, 2], [1, 4, 6]]),
    # level 2 of y is in the model but never observed
    "unused-level": np.array([[5, 3, 0], [1, 4, 0]]),
    # alpha* of the supremum, log p/q of cell (0, 0), is -inf
    "empty-reference-cell": np.array([[0, 3, 2], [1, 4, 6]]),
}


class TestFiniteOracle:
    """The finite model's exponent-space terms against the brute force."""

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    @pytest.mark.parametrize("table", list(FINITE_TABLES))
    def test_value_and_gradient(self, table, div):
        sample = table_to_sample(FINITE_TABLES[table])
        model = finite_model(2, 3)
        ctx = ObjectiveContext(div, model, sample)
        rng = np.random.default_rng(15)
        for _ in range(3):
            theta = rng.uniform(-1.5, 1.5, model.dim)
            assert_terms_match_brute_force(div, model, ctx, sample, theta)

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_string_levels(self, div):
        sample = PairedSample(["b", "a", "b", "b", "a"], ["u", "v", "v", "u", "u"],
                              kind="categorical")
        model = FiniteDiscreteModel(["b", "a"], ["v", "u"])
        ctx = ObjectiveContext(div, model, sample)
        assert_terms_match_brute_force(div, model, ctx, sample, np.array([0.3, -0.7, 1.1, 0.2]))

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    def test_domain_error_exactly_when_brute_force_leaves_domain(self, div):
        # exp overflows past s = 709.8 and underflows to 0 below s = -745;
        # the empty cell (0, 1) is seen only by the cross term
        sample = table_to_sample(FINITE_TABLES["empty-cell"])
        model = FiniteDiscreteModel(range(2), range(3), beta_bounds=(-800.0, 800.0))
        ctx = ObjectiveContext(div, model, sample)
        raised_any = {False: 0, True: 0}
        for cell in (1, 3):
            for beta in np.linspace(-800.0, 800.0, 161):
                theta = np.zeros(model.dim)
                theta[cell] = beta
                expect = brute_force_leaves_domain(div, model, sample, theta)
                try:
                    objective_terms(ctx, theta)
                    raised = False
                except DomainError:
                    raised = True
                assert raised == expect, (cell, beta)
                raised_any[raised] += 1
        assert raised_any[True] and raised_any[False]

    @pytest.mark.parametrize("div", [KL, CHISQ, HELL], ids=str)
    @pytest.mark.parametrize("table", ["full", "empty-cell", "empty-reference-cell"])
    def test_estimate_matches_brute_force_lbfgsb(self, table, div):
        # L-BFGS-B from theta0 checks that the plug-in start, on the box's
        # face for an empty cell, is the supremum
        check_estimate(div, finite_model(2, 3), table_to_sample(FINITE_TABLES[table]))

    @pytest.mark.parametrize("table,div,tol", [
        ("full", KL, 1e-12),
        ("full", CHISQ, 1e-12),
        ("full", HELL, 1e-12),
        ("unused-level", KL, 1e-12),
        ("unused-level", CHISQ, 1e-12),
        ("unused-level", HELL, 1e-12),
        ("empty-cell", KL, 1e-12),
        ("empty-cell", CHISQ, 1e-12),
        ("empty-cell", HELL, 1e-12),
        ("empty-reference-cell", KL, 1e-12),
        ("empty-reference-cell", CHISQ, 1e-12),
        # the empty cell's h stays above e^-40, the floor of the alpha box
        ("empty-reference-cell", HELL, 1e-9),
    ], ids=str)
    def test_estimate_equals_plugin(self, table, div, tol):
        sample = table_to_sample(FINITE_TABLES[table])
        est = estimate(ObjectiveContext(div, finite_model(2, 3), sample))
        assert est.method == "newton" and est.converged
        assert est.i_hat == pytest.approx(
            plugin_estimate(div, sample, (np.arange(2), np.arange(3))), abs=tol)

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    @pytest.mark.parametrize("table", list(FINITE_TABLES))
    def test_profile_matches_objective_and_differences(self, table, div):
        ctx = ObjectiveContext(div, finite_model(2, 3), table_to_sample(FINITE_TABLES[table]))
        rng = np.random.default_rng(22)
        for _ in range(2):
            check_profile(ctx, rng.uniform(-0.3, 0.3, 5))

    @pytest.mark.parametrize("div", [KL, CHISQ, HELL], ids=str)
    @pytest.mark.parametrize("table", list(FINITE_TABLES))
    def test_starts_at_the_supremum(self, table, div):
        # one profiled pass at the plug-in start and one full evaluation
        ctx = ObjectiveContext(div, finite_model(2, 3), table_to_sample(FINITE_TABLES[table]))
        est = estimate(ctx)
        assert est.method == "newton" and est.converged and est.objective_evals == 2

    @pytest.mark.parametrize("div", [KL, CHISQ, HELL], ids=str)
    def test_newton_on_a_15x15_table(self, div):
        rng = np.random.default_rng(23)
        counts = 1 + rng.multinomial(3000, rng.dirichlet(np.full(225, 5.0))).reshape(15, 15)
        sample = table_to_sample(counts)
        est = estimate(ObjectiveContext(div, finite_model(15, 15), sample))
        assert est.method == "newton" and est.converged
        assert est.i_hat == pytest.approx(
            plugin_estimate(div, sample, (np.arange(15), np.arange(15))), abs=1e-12)

    def test_30x30_table_fits_in_cell_sized_memory(self):
        # 899 cell terms: dense basis columns with their second moments
        # would take about 100 MB a side, each evaluation O(899^2), and h
        # on the sample an (n, 899) feature matrix
        rng = np.random.default_rng(24)
        n = 5000
        x = rng.integers(0, 30, n)
        y = np.where(rng.random(n) < 0.3, x, rng.integers(0, 30, n))
        sample = PairedSample(x, y, kind="categorical")
        model = finite_model(30, 30)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            est = estimate(ObjectiveContext(KL, model, sample))
            h = model.h(est.theta_hat.to_array(), x, y)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.converged and h.shape == (n,)
        assert est.i_hat == pytest.approx(
            plugin_estimate(KL, sample, (np.arange(30), np.arange(30))), abs=1e-6)
        assert peak < 8 * 2**20 and elapsed < 10.0


FGM_SAMPLES = {
    "gaussian": sample_gaussian(GaussianSpec(0.4), 60, 3),
    **{name: TIED[name] for name in ("rounded", "two-valued")},
}


def margins_sample(sample):
    """The rank-transformed sample, as ``FgmCopulaModel.h`` takes it."""
    m = rank_transform(sample.x, sample.y)
    return PairedSample(m.u, m.v)


class TestFgmOracle:
    """The FGM model's h-space terms against the brute force on its margins."""

    @pytest.mark.parametrize("div", ORACLE_DIVERGENCES, ids=str)
    @pytest.mark.parametrize("name", list(FGM_SAMPLES))
    def test_value_and_gradient(self, name, div):
        sample = FGM_SAMPLES[name]
        model = FgmCopulaModel()
        ctx = ObjectiveContext(div, model, sample)
        rng = np.random.default_rng(16)
        for _ in range(3):
            # mid-ranks have mean(1 - 2u) = 0, so the KL cross term and
            # the theta-linear part of the others vanish up to round-off
            assert_terms_match_brute_force(div, model, ctx, margins_sample(sample),
                                           rng.uniform(-0.95, 0.95, 1), abs_terms=1e-14)

    @pytest.mark.parametrize("div", [KL, CHISQ], ids=str)
    def test_estimate_matches_brute_force_lbfgsb(self, div):
        sample = TIED["rounded"]
        check_estimate(div, FgmCopulaModel(), sample, margins_sample(sample))


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

    @pytest.mark.parametrize("case", ["gaussian-kl", "tied-chisq", "fallback"])
    def test_last_evaluation_reused(self, case, monkeypatch):
        # objective_evals counts the profiled passes and the full
        # evaluations; L-BFGS-B's last evaluation is reused at res.x
        if case == "gaussian-kl":
            ctx = ObjectiveContext(KL, gaussian_model(),
                                   sample_gaussian(GaussianSpec(0.4), 200, 5))
        elif case == "tied-chisq":
            ctx = ObjectiveContext(CHISQ, ExpBilinearModel(["x", "y", "xy"]),
                                   tied_samples(200)["rounded"])
        else:   # alpha* ~ 0.1 lies outside the alpha box
            ctx = ObjectiveContext(KL, gaussian_model(alpha_bounds=(0.5, 1.0)),
                                   sample_gaussian(GaussianSpec(0.4), 200, 5))
        calls = 0
        evaluate = phimi.estimator._evaluate
        profile = ExpBilinearModel._profile

        def counting(fn):
            def wrapped(*args, **kwargs):
                nonlocal calls
                calls += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(phimi.estimator, "_evaluate", counting(evaluate))
        monkeypatch.setattr(ExpBilinearModel, "_profile", counting(profile))
        est = estimate(ctx)
        monkeypatch.undo()
        assert est.converged
        assert est.method == ("lbfgsb" if case == "fallback" else "newton")
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


class TestEstimateSamples:
    @pytest.mark.parametrize("model", [gaussian_model(), FgmCopulaModel()],
                             ids=["stacked", "one-at-a-time"])
    def test_one_seed_per_sample(self, monkeypatch, model):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(phimi.estimator, "estimate", no_fit)
        monkeypatch.setattr(phimi.estimator, "_profiled_newton", no_fit)
        samples = [sample_gaussian(GaussianSpec(0.3), 30, seed) for seed in range(5)]
        with pytest.raises(LengthMismatchError, match="5 samples but 2 seeds"):
            estimate_samples(KL, model, samples, [1, 2])
        assert estimate_samples(KL, model, [], []) == []

    @pytest.mark.parametrize("model", [gaussian_model(), FgmCopulaModel()],
                             ids=["stacked", "one-at-a-time"])
    def test_one_size_and_one_shape(self, monkeypatch, model):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(phimi.estimator, "estimate", no_fit)
        monkeypatch.setattr(phimi.estimator, "_profiled_newton", no_fit)
        samples = [sample_gaussian(GaussianSpec(0.3), n, 0) for n in (30, 30, 31)]
        with pytest.raises(LengthMismatchError, match="more than one size"):
            estimate_samples(KL, model, samples, [1, 2, 3])
        ctx = ObjectiveContext(KL, model, samples[0])
        with pytest.raises(LengthMismatchError, match="index matrices"):
            estimate_resamples(ctx, np.zeros((3, 30), int), np.zeros((2, 30), int))


class TestStackRows:
    """Caches are built one way: a single context's cache is a stack of
    one, and row r of a stack of several samples holds the entries of
    sample r's own row, followed by padding at zero weight."""

    WEIGHTS = ("pw", "xim", "zem", "cw")   # count-weighted: zero on padding

    def check(self, div, model, samples):
        stack = ObjectiveContext(div, model, samples)._cache
        for r, sample in enumerate(samples):
            single = ObjectiveContext(div, model, sample)._cache
            # the scaled coupled columns are there where one term is coupled
            assert single.keys() <= stack.keys() <= set(model._PER_ROW + model._SHARED)
            for key, want in single.items():
                got, want = ((stack[key], want) if key in model._SHARED
                             else (stack[key][r], want[0]))
                if key in model._SHARED or np.ndim(want) == 0:
                    assert np.array_equal(got, want), key
                    continue
                own = tuple(slice(0, size) for size in np.shape(want))
                assert got.dtype == want.dtype, key
                assert np.array_equal(got[own], want), key
                if key in self.WEIGHTS:
                    padding = got.copy()
                    padding[own] = 0
                    assert not padding.any(), key

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("basis", [["x2", "y2", "xy"], ["x", "y", "xy"], ["1", "x", "xy"]])
    def test_expbilinear(self, basis, gamma):
        # continuous, tied and bootstrap-drawn samples of one size: rows of
        # different widths, all below the series' size rule
        base = NEWTON_SAMPLES["dependent"]
        rng = np.random.default_rng(20)
        n = base.n
        samples = [base, PairedSample(np.round(base.x, 1), np.round(base.y, 1)),
                   PairedSample(rng.choice([-1.0, 2.0], n), np.round(base.y))]
        samples += [PairedSample(base.x[rng.integers(0, n, n)], base.y[rng.integers(0, n, n)])
                    for _ in range(3)]
        model = ExpBilinearModel(basis)
        lowrank = [ObjectiveContext(KL, model, s)._cache["lowrank"] for s in samples[:3]]
        assert lowrank == [False, False, False]
        self.check(DivergenceSpec(gamma), model, samples)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5, -1.0])
    def test_fgm(self, gamma):
        # continuous, tied and resampled samples of one size: row r of the
        # stack holds sample r's margins and gives its objective and
        # gradient, bit for bit
        base = NEWTON_SAMPLES["dependent"]
        rng = np.random.default_rng(22)
        n = base.n
        samples = [base, PairedSample(np.round(base.x, 1), np.round(base.y, 1)),
                   PairedSample(base.x[rng.integers(0, n, n)], base.y[rng.integers(0, n, n)])]
        div, model = DivergenceSpec(gamma), FgmCopulaModel()
        stack = ObjectiveContext(div, model, samples)
        theta = np.array([[0.4], [-0.7], [0.95]])
        value, grad = phimi.estimator._evaluate(stack, theta, True)
        for r, sample in enumerate(samples):
            single = ObjectiveContext(div, model, sample)
            for key in ("a", "b", "paired"):
                assert np.array_equal(stack._cache[key][r], single._cache[key][0]), key
            want_value, want_grad = objective_with_grad(single, theta[r])
            assert value[r] == want_value
            assert np.array_equal(grad[r], want_grad)

    def test_finite(self):
        # level order differs from the tokens' sort order; one sample
        # misses a level, one leaves the reference cell ("c", "v") empty
        rng = np.random.default_rng(21)
        n = 40
        samples = [PairedSample(rng.choice(["a", "b", "c"], n), rng.choice(["u", "v"], n),
                                kind="categorical") for _ in range(3)]
        samples.append(PairedSample(np.full(n, "a"), rng.choice(["u", "v"], n), "categorical"))
        x, y = samples[0].x.copy(), samples[0].y.copy()
        y[x == "c"] = "u"
        samples.append(PairedSample(x, y, "categorical"))
        model = FiniteDiscreteModel(["c", "a", "b"], ["v", "u"])
        # the cache is the flat contingency table, every key on every row
        keys = set(model._PER_ROW + model._SHARED)
        assert ObjectiveContext(KL, model, samples)._cache.keys() == keys
        for div in (KL, CHISQ):
            self.check(div, model, samples)


class TestStackSize:
    """Rows per stack (``ExpBilinearModel._stack_size``): the rule covers
    the cache a row holds, and the stack it cuts changes no fit."""

    @staticmethod
    def cache_row_bytes(model, samples):
        cache = ObjectiveContext(KL, model, samples)._cache
        return sum(np.asarray(cache[k]).nbytes for k in model._PER_ROW if k in cache) / len(samples)

    def test_gaussian_rows_hold_their_cache(self):
        model = gaussian_model()
        size = model._stack_size(500, 500, 500)
        assert size == 26   # a tripwire for the rule
        samples = [sample_gaussian(GaussianSpec(0.5), 500, seed) for seed in range(size)]
        # the rule charges a row more than _STACK_BYTES / (size + 1)
        assert self.cache_row_bytes(model, samples) * (size + 1) <= phimi.models._STACK_BYTES

    def test_tied_bootstrap_rows_hold_their_cache(self):
        # 45 levels a side, as on the CLI's tied n = 200 CSVs; a stack of
        # resamples is as wide as the observed sample's levels
        model = ExpBilinearModel(["x", "y", "xy"])
        size = model._stack_size(200, 45, 45)
        assert size == 187   # a tripwire for the rule
        rng = np.random.default_rng(24)
        x = np.resize(np.arange(45.0), 200)
        samples = [PairedSample(rng.permutation(x), rng.permutation(x)) for _ in range(4)]
        assert all(np.unique(v).size == 45 for s in samples for v in (s.x, s.y))
        assert self.cache_row_bytes(model, samples) * (size + 1) <= phimi.models._STACK_BYTES

    @staticmethod
    def fits_in_stacks(monkeypatch, div, samples, rows):
        with monkeypatch.context() as patch:
            if rows is not None:
                patch.setattr(ExpBilinearModel, "_stack_size", lambda self, n, nx, ny: rows)
            return estimate_samples(div, gaussian_model(), samples, range(len(samples)))

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_stack_cut_keeps_fresh_sample_fits(self, monkeypatch, rho, gamma):
        # 30 fresh samples: 26 + 4 rows under the rule, 13 + 13 + 4, or one
        # at a time.  Every row takes the same path and evaluations.  A
        # row's series runs to its stack's largest K, whose zero terms may
        # round the last bits differently in any other cut (up to 3e-14 of
        # an I_hat of 2e-7 in stacks of one)
        div = DivergenceSpec(gamma)
        samples = [sample_gaussian(GaussianSpec(rho), 500, 100 + seed) for seed in range(30)]
        want = self.fits_in_stacks(monkeypatch, div, samples, None)
        tol = 1e-12
        for rows in (13, 1):
            got = self.fits_in_stacks(monkeypatch, div, samples, rows)
            for f, e in zip(got, want):
                assert (f.objective_evals, f.method, f.converged) == \
                    (e.objective_evals, e.method, e.converged)
                theta = e.theta_hat.to_array()
                assert np.all(np.abs(f.theta_hat.to_array() - theta)
                              <= tol * np.maximum(1.0, np.abs(theta)))
                assert abs(f.i_hat - e.i_hat) <= tol * abs(e.i_hat)

    def test_stack_cut_keeps_tied_bootstrap_statistics(self, monkeypatch):
        # 300 tied replicates (45 and 48 levels): 185 + 115 rows under the
        # rule, or 145 + 145 + 10; padding may round the last bits
        rng = np.random.default_rng(25)
        x = rng.standard_normal(200)
        sample = PairedSample(np.round(x, 1), np.round(0.5 * x + rng.standard_normal(200), 1))
        model = ExpBilinearModel(["x", "y", "xy"])
        ctx = ObjectiveContext(CHISQ, model, sample)
        widths = [np.unique(v).size for v in (sample.x, sample.y)]
        assert model._stack_size(sample.n, *widths) == 185
        cfg = BootstrapConfig(b_reps=300, seed=3)
        want = bootstrap_statistics(ctx, cfg)
        monkeypatch.setattr(ExpBilinearModel, "_stack_size", lambda self, n, nx, ny: 145)
        got = bootstrap_statistics(ctx, cfg)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestResampleCodes:
    """A resample stack built from the observed sample's level codes (one
    bincount per side) holds the arrays, key by key and dtype included,
    that the argsort builder gives on the resampled values."""

    BASES = {
        "x,y,xy": ["x", "y", "xy"],
        "x2,y2,xy": ["x2", "y2", "xy"],
        "1,x,xy": ["1", "x", "xy"],
        "xy,x2y2": ["xy", BasisPair("x2y2", lambda t: t**2, lambda t: t**2)],   # two coupled
    }

    @staticmethod
    def check(model, vx, vy, ix, iy):
        (lx, cx), (ly, cy) = (np.unique(v, return_inverse=True) for v in (vx, vy))
        got = model._stack_cache(cx[ix], cy[iy], (lx, ly))
        want = model._stack_cache(vx[ix], vy[iy])
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert np.asarray(got[key]).dtype == np.asarray(w).dtype, key
            assert np.array_equal(got[key], w), key

    @staticmethod
    def draws(rng, n, rows):
        """Index matrices whose first row draws a single x value and last
        row a single y value."""
        ix, iy = rng.integers(0, n, (2, rows, n))
        ix[0], iy[-1] = ix[0, 0], iy[-1, 0]
        return ix, iy

    @pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
    def test_both_builders_match_a_per_row_unique(self, tied):
        rng = np.random.default_rng(25)
        x = rng.standard_normal(40)
        x = np.round(x, 1) if tied else x
        ix = self.draws(rng, 40, 9)[0]
        rows = [np.unique(row, return_inverse=True, return_counts=True) for row in x[ix]]
        width = max(u.size for u, _, _ in rows)
        # each row's sorted values padded with its largest at count zero
        want = (np.array([np.pad(u, (0, width - u.size), mode="edge") for u, _, _ in rows]),
                np.array([inv for _, inv, _ in rows]),
                np.array([np.pad(c, (0, width - c.size)) for _, _, c in rows]))
        lx, cx = np.unique(x, return_inverse=True)
        for got in (phimi.models._drawn_rows(cx[ix], lx), phimi.models._distinct_rows(x[ix])):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("rows", [1, 9])
    @pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
    @pytest.mark.parametrize("basis", list(BASES))
    def test_expbilinear(self, basis, tied, rows):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(70)
        y = 0.5 * x + rng.standard_normal(70)
        if tied:   # rounding to one decimal leaves -0.0 and 0.0 among the values
            x, y = np.round(x, 1), np.round(y, 1)
        self.check(ExpBilinearModel(self.BASES[basis]), x, y, *self.draws(rng, 70, rows))

    @pytest.mark.parametrize("rows", [1, 9])
    def test_finite(self, rows):
        # the level order is not the tokens' sort order, and "d" is never drawn
        rng = np.random.default_rng(23)
        model = FiniteDiscreteModel(["c", "a", "d", "b"], ["v", "u", "w"])
        x, y = rng.choice(["a", "b", "c"], 50), rng.choice(["u", "v", "w"], 50)
        self.check(model, *model._stack_values(x, y), *self.draws(rng, 50, rows))

    def test_resamples_never_sort(self, monkeypatch):
        # an exponential bilinear sample's cache takes one argsort a side,
        # its resamples one bincount a side; a finite context, observed
        # sample and resamples alike, takes neither builder
        calls = []

        def spy(name):
            builder = getattr(phimi.models, name)

            def counted(t, *levels):
                calls.append((name, len(t)))
                return builder(t, *levels)
            return counted

        for name in ("_distinct_rows", "_drawn_rows"):
            monkeypatch.setattr(phimi.models, name, spy(name))
        rng = np.random.default_rng(24)
        tied = sample_gaussian(GaussianSpec(0.3), 80, 5)
        tied = PairedSample(np.round(tied.x, 1), np.round(tied.y, 1))
        a = rng.integers(0, 3, 90)
        cats = PairedSample(a, np.where(rng.random(90) < 0.3, a, rng.integers(0, 3, 90)),
                            "categorical")
        for model, sample, observed, resampled in [
                (ExpBilinearModel(["x", "y", "xy"]), tied,
                 [("_distinct_rows", 1)] * 2, [("_drawn_rows", 20)] * 2),
                (finite_model(3, 3), cats, [], [])]:
            ctx = ObjectiveContext(KL, model, sample)
            assert calls == observed
            calls.clear()
            fits = estimate_resamples(ctx, *rng.integers(0, sample.n, (2, 20, sample.n)))
            assert {f.method for f in fits} == {"newton"} and calls == resampled
            calls.clear()
        estimate_samples(KL, finite_model(3, 3), [cats.subset(rng.permutation(90))
                                                  for _ in range(6)], range(6))
        assert calls == []
        samples = [sample_gaussian(GaussianSpec(0.3), 80, seed) for seed in range(6)]
        estimate_samples(KL, gaussian_model(), samples, range(6))
        assert calls[:2] == [("_distinct_rows", 6)] * 2


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

    def test_no_tables_give_no_statistics(self):
        # as estimate_samples gives no fits for no samples
        out = plugin_statistics(KL, np.zeros((0, 2, 3)))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

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

    def test_batch_of_sample_sizes(self):
        rng = np.random.default_rng(73)
        tables = [random_table(rng, 3, 2, size) for size in (20, 35, 50)]
        tables[1][2] = 0   # an empty row: that level is seen only in other samples
        samples = [table_to_sample(t) for t in tables]
        levels = (np.arange(3), np.arange(2))
        for div in (KL, CHISQ, HELL):
            batch = plugin_statistics(div, np.stack(tables))
            assert batch.shape == (3,)
            ref = [direct_plugin(div, t) for t in tables]
            np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-15)
            # each row is its sample's plug-in over the same levels
            assert list(batch) == [plugin_estimate(div, s, levels) for s in samples]
            assert batch[2] == plugin_estimate(div, samples[2])

    @pytest.mark.parametrize("counts, match", [
        (np.zeros((2, 2)), "the table counts has total 0"),
        ([[[1, 2], [3, 4]], [[0, 0], [0, 0]]], r"the table counts\[1\] has total 0"),
        ([[[1, 2], [3, 4]], [[1, np.nan], [3, 4]]], r"counts\[1, 0, 1\] = nan is not finite"),
        ([[[1, 2], [3, 4]], [[1, 2], [np.inf, 4]]], r"counts\[1, 1, 0\] = inf is not finite"),
        ([[[1, 2], [3, 4]], [[1, 2], [3, -1.33]]], r"counts\[1, 1, 1\] = -1.33 is negative"),
        ([1, 2, 3], "at least 2 dimensions, not 1"),
    ])
    def test_bad_counts_raise(self, counts, match):
        for div in (KL, DivergenceSpec(-1.0)):
            with pytest.raises(ValueError, match=match):
                plugin_statistics(div, counts)

    @staticmethod
    def np_sum_statistics(divergence, counts):
        """Reference statistics with every sum, the margins' included,
        taken by np.sum."""
        p = np.asarray(counts, dtype=float)
        p = p / p.sum(axis=(-2, -1), keepdims=True)
        q = p.sum(axis=-1, keepdims=True) * p.sum(axis=-2, keepdims=True)
        ratios = np.divide(p, q, out=np.ones_like(p), where=q > 0.0)
        cells = p.shape[-2] * p.shape[-1]
        rows = divergence.phi(ratios).reshape(p.shape[:-2] + (1, cells))
        return (rows @ q.reshape(p.shape[:-2] + (cells, 1)))[..., 0, 0]

    @pytest.mark.parametrize("k1, k2", [(k1, k2) for k1 in range(1, 8) for k2 in range(1, 8)]
                             + [(k, k) for k in (8, 9, 12, 17, 30)] + [(8, 1), (1, 9), (3, 12)])
    def test_cell_pass_matches_np_sum(self, k1, k2):
        rng = np.random.default_rng(100 * k1 + k2)
        # small tables far from independence and large ones close to it
        for n, probs in ((3 * k1 * k2, rng.dirichlet(np.ones(k1 * k2))),
                         (10**7, np.full(k1 * k2, 1.0 / (k1 * k2)))):
            tables = rng.multinomial(n, probs, size=200).reshape(200, k1, k2)
            tables[::7, rng.integers(k1)] = 0      # an empty row
            tables[::5, :, rng.integers(k2)] = 0   # an empty column
            tables[tables.sum(axis=(1, 2)) == 0, 0, 0] = 1
            for div in (KL, CHISQ, HELL):
                ref = self.np_sum_statistics(div, tables)
                batch = plugin_statistics(div, tables)
                if max(k1, k2) <= 7:
                    assert np.array_equal(batch, ref)
                else:
                    tol = 16 * np.finfo(float).eps * max(1.0, np.abs(ref).max())
                    np.testing.assert_allclose(batch, ref, rtol=0.0, atol=tol)


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

    def test_categorical_tokens_keep_their_value(self):
        # numpy's default conversion would give ['a' '1' 'b'] and drop the NUL
        s = PairedSample(["a", 1, "b"], ["x\x00", "y", "x"], kind="categorical")
        assert s.x.tolist() == ["a", 1, "b"]
        assert s.y.tolist() == ["x\x00", "y", "x"]
        with pytest.raises(SupportError, match="do not compare"):
            plugin_estimate(KL, s)
        # 'x\x00' and 'x' are two levels: a perfectly dependent 2x2 table
        s = PairedSample(["x\x00", "x", "x\x00", "x"], ["u", "v", "u", "v"],
                         kind="categorical")
        assert plugin_estimate(KL, s) == pytest.approx(np.log(2.0))
        # plain lists that numpy converts faithfully keep numpy's dtype
        assert PairedSample(["a", "b"], [1, 2], kind="categorical").x.dtype.kind == "U"

    def test_categorical_arrays_pass_through(self):
        x = np.array(["a", "b", "a"])
        y = np.array([0, 1, 1])
        s = PairedSample(x, y, kind="categorical")
        assert s.x is x and s.y is y

    def test_subset(self):
        s = PairedSample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        sub = s.subset(np.array([0, 2]))
        assert sub.n == 2
        assert sub.x.tolist() == [1.0, 3.0]
