import math

import numpy as np
import pytest
from scipy import stats as sps

from phimi import (
    BootstrapConfig,
    DegenerateInputError,
    DivergenceSpec,
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    FiniteMixtureSpec,
    FoldContextError,
    GaussianSpec,
    ObjectiveContext,
    OptimFailureError,
    PairedSample,
    RouteMismatchError,
    SupportError,
    estimate,
    bootstrap_critical,
    bootstrap_statistics,
    gaussian_model,
    kendall_tau,
    kendall_test,
    pearson_test,
    sample_finite,
    sample_gaussian,
    spearman_test,
    test_independence,
)
import phimi.estimator
import phimi.models
import phimi.testing
from phimi.estimator import estimate_resamples, estimate_samples
from phimi.testing import kendall_rejections, pearson_rejections, spearman_rejections
from phimi.models import BasisPair

KL = DivergenceSpec(1.0)
CHISQ = DivergenceSpec(2.0)


def categorical_sample(counts):
    counts = np.asarray(counts)
    k1, k2 = counts.shape
    x = np.repeat(np.arange(k1 * k2) // k2, counts.ravel())
    y = np.repeat(np.arange(k1 * k2) % k2, counts.ravel())
    return PairedSample(x, y, kind="categorical")


def finite_ctx(counts, divergence=KL):
    counts = np.asarray(counts)
    model = FiniteDiscreteModel(list(range(counts.shape[0])),
                                list(range(counts.shape[1])))
    return ObjectiveContext(divergence, model, categorical_sample(counts))


class TestChisqRoute:
    def test_exact_critical_value(self):
        ctx = finite_ctx([[5, 5], [5, 5]])
        res = test_independence(ctx, "chisq", alpha=0.01)
        assert res.critical_value == pytest.approx(sps.chi2.ppf(0.99, 1), rel=1e-9)
        assert res.route == "chisq"

    def test_perfect_dependence_rejects(self):
        ctx = finite_ctx([[50, 0], [0, 50]])
        res = test_independence(ctx, "chisq", alpha=0.01)
        assert res.statistic == pytest.approx(2 * 100 * np.log(2.0), abs=1e-4)
        assert res.reject
        assert res.p_value < 1e-6

    def test_balanced_table_accepts(self):
        ctx = finite_ctx([[10, 10], [10, 10]])
        res = test_independence(ctx, "chisq", alpha=0.05)
        assert res.statistic == pytest.approx(0.0, abs=1e-8)
        assert not res.reject
        assert res.p_value == pytest.approx(1.0, abs=1e-6)

    def test_p_value_consistent_with_decision(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            counts = rng.integers(1, 12, size=(2, 2))
            res = test_independence(finite_ctx(counts), "chisq", alpha=0.05)
            assert 0.0 <= res.p_value <= 1.0
            assert res.reject == (res.statistic > res.critical_value)
            assert res.reject == (res.p_value < 0.05)

    def test_route_requires_finite_model(self):
        s = sample_gaussian(GaussianSpec(0.2), 40, 0)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        with pytest.raises(RouteMismatchError):
            test_independence(ctx, "chisq")


class TestZtzRoute:
    def test_runs_with_explicit_cov_and_no_p_value(self):
        s = sample_gaussian(GaussianSpec(0.0), 60, 2)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        res = test_independence(ctx, "ztz", alpha=0.05, seed=4)
        assert res.p_value is None
        assert res.critical_value > 0.0
        assert res.reject == (res.statistic > res.critical_value)

    def test_requires_expbilinear(self):
        u = np.random.default_rng(0).random(30)
        v = np.random.default_rng(1).random(30)
        ctx = ObjectiveContext(KL, FgmCopulaModel(), PairedSample(u, v))
        with pytest.raises(RouteMismatchError):
            test_independence(ctx, "ztz")

    def test_rejects_finite_model(self):
        # a finite model is an exponential bilinear model on cell indicators,
        # calibrated by the chisq route
        with pytest.raises(RouteMismatchError, match="exponential bilinear"):
            test_independence(finite_ctx([[6, 3], [2, 7]]), "ztz")

    def test_requires_kl(self):
        s = sample_gaussian(GaussianSpec(0.0), 40, 5)
        ctx = ObjectiveContext(DivergenceSpec(2.0), gaussian_model(), s)
        with pytest.raises(RouteMismatchError):
            test_independence(ctx, "ztz")

    def test_unknown_route(self):
        s = sample_gaussian(GaussianSpec(0.0), 40, 5)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        with pytest.raises(RouteMismatchError):
            test_independence(ctx, "asymptotic")


@pytest.mark.parametrize("case,error", [
    ("chisq-on-gaussian", RouteMismatchError),
    ("ztz-on-finite", RouteMismatchError),
    ("ztz-on-fgm", RouteMismatchError),
    ("ztz-with-chisq", RouteMismatchError),
    ("alpha-zero", ValueError),
    ("alpha-one", ValueError),
])
def test_route_and_alpha_checked_before_fitting(monkeypatch, case, error):
    def no_fit(*args, **kwargs):
        raise AssertionError("estimate ran before the route was checked")

    monkeypatch.setattr(phimi.testing, "estimate", no_fit)
    s = sample_gaussian(GaussianSpec(0.2), 40, 0)
    u = PairedSample(np.linspace(0.1, 0.9, 20), np.linspace(0.9, 0.1, 20))
    route, ctx, alpha = {
        "chisq-on-gaussian": ("chisq", ObjectiveContext(KL, gaussian_model(), s), 0.05),
        "ztz-on-finite": ("ztz", finite_ctx([[6, 3], [2, 7]]), 0.05),
        "ztz-on-fgm": ("ztz", ObjectiveContext(KL, FgmCopulaModel(), u), 0.05),
        "ztz-with-chisq": ("ztz", ObjectiveContext(DivergenceSpec(2.0), gaussian_model(), s),
                           0.05),
        "alpha-zero": ("ztz", ObjectiveContext(KL, gaussian_model(), s), 0.0),
        "alpha-one": ("chisq", finite_ctx([[6, 3], [2, 7]]), 1.0),
    }[case]
    with pytest.raises(error):
        test_independence(ctx, route, alpha)


class TestBootstrap:
    def test_deterministic_given_seed(self):
        s = sample_gaussian(GaussianSpec(0.3), 30, 11)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        cfg = BootstrapConfig(b_reps=100, alpha=0.05, seed=21)
        a = bootstrap_statistics(ctx, cfg)
        b = bootstrap_statistics(ctx, cfg)
        assert np.array_equal(a, b)

    def test_quantile_convention(self):
        s = sample_gaussian(GaussianSpec(0.3), 30, 11)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        cfg = BootstrapConfig(b_reps=100, alpha=0.05, seed=21)
        draws = bootstrap_statistics(ctx, cfg)
        assert bootstrap_critical(ctx, cfg) == pytest.approx(
            float(np.quantile(draws, 0.95, method="linear")), abs=1e-12)

    def test_close_to_chisq_law_finite_2x2(self):
        # asymptotic-equivalence check: bootstrap quantile near chi2_1 at n=200
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, 200)
        y = rng.integers(0, 2, 200)
        ctx = ObjectiveContext(KL, FiniteDiscreteModel([0, 1], [0, 1]),
                               PairedSample(x, y, kind="categorical"))
        crit = bootstrap_critical(ctx, BootstrapConfig(b_reps=2000, alpha=0.01, seed=5))
        assert abs(crit - 6.635) <= 1.0

    def test_statistic_p_value_and_decision(self):
        s = sample_gaussian(GaussianSpec(0.9), 60, 3)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        res = test_independence(ctx, "bootstrap", alpha=0.05,
                                bootstrap=BootstrapConfig(200, 0.05, 9))
        assert res.reject
        assert 0.0 < res.p_value <= 1.0
        assert res.p_value == pytest.approx(1.0 / 201.0, abs=1e-12)

    def test_fits_the_two_index_matrices(self, monkeypatch):
        # one generator a side draws all B rows of indices at once
        s = sample_gaussian(GaussianSpec(0.3), 30, 11)
        ctx = ObjectiveContext(KL, gaussian_model(), s)
        cfg = BootstrapConfig(b_reps=100, seed=21)
        asked = []

        def fitted(context, ix, iy):
            asked.append((context, ix, iy))
            return [estimate(ctx)] * cfg.b_reps

        monkeypatch.setattr(phimi.testing, "estimate_resamples", fitted)
        bootstrap_statistics(ctx, cfg)
        [(context, ix, iy)] = asked
        want_x, want_y = replicate_draws(s.n, cfg)
        assert context is ctx and ix.shape == iy.shape == (100, 30)
        assert np.array_equal(ix, want_x) and np.array_equal(iy, want_y)
        assert not np.array_equal(ix, iy)

    def test_b_reps_minimum(self):
        with pytest.raises(ValueError):
            BootstrapConfig(b_reps=50)


@pytest.mark.parametrize("call", ["bootstrap_statistics", "ztz", "bootstrap"])
def test_fold_context_fails_before_fitting(monkeypatch, call):
    # a context built with rows= holds a held-out fold and no sample
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran on a fold context")

    monkeypatch.setattr(phimi.testing, "estimate", no_fit)
    monkeypatch.setattr(phimi.testing, "estimate_resamples", no_fit)
    s = sample_gaussian(GaussianSpec(0.2), 40, 0)
    ctx = ObjectiveContext(KL, gaussian_model(), s, rows=np.arange(20))
    with pytest.raises(FoldContextError, match="held-out fold"):
        if call == "bootstrap_statistics":
            bootstrap_statistics(ctx, BootstrapConfig(b_reps=100))
        else:
            test_independence(ctx, call)


def _stack_samples():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(200)
    y = 0.5 * x + np.sqrt(0.75) * rng.standard_normal(200)
    tied = PairedSample(np.round(x, 1), np.round(y, 1))   # ~45 values a side
    x = rng.standard_normal(300)
    y = 0.4 * x + np.sqrt(0.84) * rng.standard_normal(300)
    outlier = x.copy()
    outlier[7] = 1e3
    return {"tied": tied, "continuous": PairedSample(x, y),
            "outlier": PairedSample(outlier, y)}


STACK_SAMPLES = _stack_samples()
STACK_BASES = {
    "xy": ["xy"], "x,y,xy": ["x", "y", "xy"], "x2,y2,xy": ["x2", "y2", "xy"],
    # two coupled terms: always the dense block
    "xy,x2y2": [BasisPair("xy", lambda t: t, lambda t: t),
                BasisPair("x2y2", lambda t: t**2, lambda t: t**2)],
}
STACK_REPS = 100


def replicate_draws(n, cfg):
    """The index matrices that bootstrap_statistics draws, (B, n) a side,
    row b for replicate b: one generator a side from the config's seed."""
    rng_x, rng_y = (np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2))
    return rng_x.integers(0, n, (cfg.b_reps, n)), rng_y.integers(0, n, (cfg.b_reps, n))


def check_stack(monkeypatch, sample, model, gamma):
    """Stacked replicate fits against ``estimate`` on each replicate's own
    context, in stacks of about 30 rows; returns the stacked fits."""
    ctx = ObjectiveContext(DivergenceSpec(gamma), model, sample)
    widths = [np.unique(t).size for t in (sample.x, sample.y)]
    full = model._stack_size(sample.n, *widths)
    monkeypatch.setattr(phimi.models, "_STACK_BYTES", phimi.models._STACK_BYTES * 30 // full)
    size = model._stack_size(sample.n, *widths)
    assert 1 < size < STACK_REPS and STACK_REPS % size
    cfg = BootstrapConfig(b_reps=STACK_REPS, seed=17)
    ix, iy = replicate_draws(sample.n, cfg)
    draws = list(zip(ix, iy))
    loop = [estimate(ObjectiveContext(ctx.divergence, model,
                                      PairedSample(sample.x[ix], sample.y[iy], sample.kind)),
                     seed=b) for b, (ix, iy) in enumerate(draws)]
    fallbacks = []

    lbfgsb = phimi.estimator._lbfgsb

    def counted(replicate, seed, evals):
        fallbacks.append(seed)
        return lbfgsb(replicate, seed, evals)

    with monkeypatch.context() as patch:
        patch.setattr(phimi.estimator, "_lbfgsb", counted)
        fits = estimate_resamples(ctx, ix, iy)
    assert ([(f.method, f.converged, f.objective_evals) for f in fits]
            == [(e.method, e.converged, e.objective_evals) for e in loop])
    # a row goes to its own fit exactly where that fit leaves Newton
    assert fallbacks == [b for b, e in enumerate(loop) if e.method == "lbfgsb"]
    want = np.array([2.0 * sample.n * e.i_hat for e in loop])
    got = np.array([2.0 * sample.n * f.i_hat for f in fits])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # bootstrap_statistics asks for these fits, of the same index matrices
    asked = []

    def fitted(context, rows_x, rows_y):
        asked.append((context, rows_x, rows_y))
        return fits

    with monkeypatch.context() as patch:
        patch.setattr(phimi.testing, "estimate_resamples", fitted)
        if sum(not e.converged for e in loop) > 0.05 * STACK_REPS:
            with pytest.raises(OptimFailureError):
                bootstrap_statistics(ctx, cfg)
        else:
            assert np.array_equal(bootstrap_statistics(ctx, cfg), got)
    [(context, rows_x, rows_y)] = asked
    assert context is ctx
    assert np.array_equal(rows_x, ix) and np.array_equal(rows_y, iy)
    return fits


def finite_stack_samples():
    rng = np.random.default_rng(41)
    # x level 0 is drawn once: about a third of the replicates miss it, and
    # most others leave the reference cell (0, 0) or its neighbour empty
    rare = categorical_sample([[1, 0], [100, 99]])
    # the observed reference cell is empty; every margin is dependent
    probs = rng.dirichlet(np.ones(12)).reshape(3, 4) + 0.1 * np.eye(3, 4)
    probs[0, 0] = 0.0
    table = rng.multinomial(60, probs.ravel() / probs.sum()).reshape(3, 4)
    return {"2x2": rare, "3x4": categorical_sample(table),
            "5x5": categorical_sample(rng.multinomial(40, np.full(25, 0.04)).reshape(5, 5))}


FINITE_STACK_SAMPLES = finite_stack_samples()


class TestStackedReplicates:
    """bootstrap_statistics fits exponential bilinear replicates, finite
    ones included, as stacks; a loop of ``estimate`` on each replicate's
    own context is the oracle."""

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5, 0.0, -0.5])
    @pytest.mark.parametrize("basis", list(STACK_BASES))
    @pytest.mark.parametrize("name", ["tied", "continuous"])
    def test_matches_replicate_fits(self, monkeypatch, name, basis, gamma):
        model = ExpBilinearModel(STACK_BASES[basis])
        ctx = ObjectiveContext(KL, model, STACK_SAMPLES[name])
        # the tied sample takes the dense block, the continuous one the
        # series wherever the basis has one coupled term
        assert ctx._cache["lowrank"] == (name == "continuous" and basis != "xy,x2y2")
        check_stack(monkeypatch, STACK_SAMPLES[name], model, gamma)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5, 0.0, -1.0])
    @pytest.mark.parametrize("name", list(FINITE_STACK_SAMPLES))
    def test_finite_matches_replicate_fits(self, monkeypatch, name, gamma):
        sample = FINITE_STACK_SAMPLES[name]
        k1, k2 = (int(name[0]), int(name[2]))
        n = sample.n
        draws = list(zip(*replicate_draws(n, BootstrapConfig(b_reps=STACK_REPS, seed=17))))
        if name == "2x2":
            assert any(0 not in sample.x[ix] for ix, _ in draws)
        if name == "3x4":
            assert not np.any((sample.x == 0) & (sample.y == 0))
        check_stack(monkeypatch, sample, FiniteDiscreteModel(range(k1), range(k2)), gamma)

    def test_padded_finite_row_matches_its_own_fit(self):
        # a 5 x 5 resample with 15 drawn cells, stacked with the observed
        # table's 19: its pairs are padded by four, and a profile summed over
        # the padded pairs instead of the cells took one more Newton pass
        # on a flat direction than its own context does
        replicate = categorical_sample([[4, 2, 0, 4, 5], [3, 0, 1, 0, 2], [0, 0, 1, 2, 3],
                                        [1, 2, 0, 7, 2], [0, 0, 0, 0, 1]])
        companion = FINITE_STACK_SAMPLES["5x5"]
        model, div = FiniteDiscreteModel(range(5), range(5)), DivergenceSpec(0.0)
        stack = ObjectiveContext(div, model, [replicate, companion])
        assert (stack._cache["pw"][0] == 0.0).sum() == 4
        fit, _ = estimate_samples(div, model, [replicate, companion], [0, 1])
        own = estimate(ObjectiveContext(div, model, replicate))
        assert (fit.method, fit.converged, fit.objective_evals) == (
            own.method, own.converged, own.objective_evals)
        assert abs(fit.i_hat - own.i_hat) <= 1e-12 * max(1.0, abs(own.i_hat))

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 0.0])
    def test_undrawn_outlier_stays_out(self, monkeypatch, gamma):
        # x = 1e3 puts the cross exponent at the outlier far past exp's
        # range for the betas of the replicates that do not draw it
        sample = STACK_SAMPLES["outlier"]
        fits = check_stack(monkeypatch, sample, ExpBilinearModel(STACK_BASES["x2,y2,xy"]), gamma)
        methods = {f.method for f in fits}
        assert methods == {"newton", "lbfgsb"}

    def test_fallback_rows_take_the_replicate_fit(self, monkeypatch):
        # below gamma = 0 the sup is unbounded on dependent data: many
        # replicates stop Newton and go to L-BFGS-B
        fits = check_stack(monkeypatch, STACK_SAMPLES["tied"],
                           ExpBilinearModel(STACK_BASES["xy,x2y2"]), -0.5)
        assert sum(f.method == "lbfgsb" for f in fits) >= 10

    @pytest.mark.parametrize("name", ["tied", "continuous"])
    def test_basis_written_for_flat_input(self, monkeypatch, name):
        # a library basis that takes one value at a time, as math functions
        # do, gets a stack's padded values as one flat array
        def flat(f):
            return lambda t: np.array([f(v) for v in t])

        model = ExpBilinearModel([BasisPair("x", flat(float), flat(lambda v: 1.0)),
                                  BasisPair("tanh", flat(math.tanh), flat(math.tanh))])
        check_stack(monkeypatch, STACK_SAMPLES[name], model, 1.0)
        samples = [sample_gaussian(GaussianSpec(0.5), 60, seed) for seed in range(20)]
        fits = estimate_samples(KL, model, samples, range(20))
        loop = [estimate(ObjectiveContext(KL, model, s), seed=e) for e, s in enumerate(samples)]
        assert all(abs(f.i_hat - e.i_hat) <= 1e-12 * max(1.0, abs(e.i_hat))
                   and f.method == e.method for f, e in zip(fits, loop))

    def test_finite_study_samples(self):
        # fresh samples, as a study fits them; one with a token outside the
        # levels gets None, as its own context raises SupportError
        model = FiniteDiscreteModel(range(1, 4), range(1, 4))
        samples = [sample_finite(FiniteMixtureSpec(3, 0.3), 40, seed) for seed in range(30)]
        samples[7] = PairedSample(np.where(samples[7].x == 2, 9, samples[7].x), samples[7].y,
                                  "categorical")
        fits = estimate_samples(CHISQ, model, samples, range(30))
        with pytest.raises(SupportError):
            ObjectiveContext(CHISQ, model, samples[7])
        assert fits[7] is None
        for seed, (fit, sample) in enumerate(zip(fits, samples)):
            if seed != 7:
                want = estimate(ObjectiveContext(CHISQ, model, sample), seed=seed)
                assert (fit.method, fit.converged, fit.objective_evals) == (
                    want.method, want.converged, want.objective_evals)
                assert abs(fit.i_hat - want.i_hat) <= 1e-12 * max(1.0, abs(want.i_hat))


class TestPearson:
    def test_perfect_line_rejects(self):
        x = np.arange(20.0)
        res = pearson_test(PairedSample(x, 2.0 * x + 1.0), alpha=0.01)
        assert res.reject
        assert res.p_value == pytest.approx(0.0, abs=1e-12)

    def test_exactly_zero_correlation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        res = pearson_test(PairedSample(x, y))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)
        assert not res.reject

    def test_level_under_null(self):
        rng = np.random.default_rng(100)
        n, reps, alpha = 20, 10_000, 0.05
        rejections = 0
        for _ in range(reps):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            rejections += pearson_test(PairedSample(x, y), alpha).reject
        rate = rejections / reps
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rate - alpha) <= 3 * se

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson_test(PairedSample(np.ones(10), np.arange(10.0)))
        with pytest.raises(DegenerateInputError):
            pearson_test(PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))


class TestSpearman:
    def test_matches_scipy_no_ties(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(30)
        y = 0.5 * x + rng.standard_normal(30)
        res = spearman_test(PairedSample(x, y))
        ref = sps.spearmanr(x, y)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_monotone_dependence_rejects(self):
        x = np.linspace(0.1, 5.0, 25)
        res = spearman_test(PairedSample(x, np.exp(x)))
        assert res.reject


class TestKendall:
    def test_tau_matches_scipy_continuous(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(150)
        y = 0.4 * x + rng.standard_normal(150)
        assert kendall_tau(x, y) == pytest.approx(
            sps.kendalltau(x, y).statistic, abs=1e-12)

    def test_tau_matches_scipy_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.integers(0, 6, 80).astype(float)
            y = rng.integers(0, 4, 80).astype(float)
            assert kendall_tau(x, y) == pytest.approx(
                sps.kendalltau(x, y).statistic, abs=1e-12)

    def test_normal_approximation_formula(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        n = 40
        tau = kendall_tau(x, y)
        res = kendall_test(PairedSample(x, y))
        z = abs(3.0 * tau * np.sqrt(n * (n - 1)) / np.sqrt(2.0 * (2 * n + 5)))
        assert res.statistic == pytest.approx(z, abs=1e-12)
        assert res.p_value == pytest.approx(2 * sps.norm.sf(z), rel=1e-12)

    def test_perfect_dependence_rejects(self):
        x = np.arange(30.0)
        res = kendall_test(PairedSample(x, x**3))
        assert res.reject
        assert res.p_value < 1e-10

    def test_all_tied_degenerate(self):
        with pytest.raises(DegenerateInputError):
            kendall_tau(np.ones(10), np.arange(10.0))

    @pytest.mark.parametrize("n", [4, 5, 15, 16, 17, 33, 500, 777])
    def test_stacked_tau_is_scipys_bit_for_bit(self, n):
        # n on both sides of the 16-wide blocks of the inversion count
        rng = np.random.default_rng(n)
        x = rng.standard_normal((6, n))
        y = 0.4 * x + rng.standard_normal((6, n))
        # heavily tied rows: three and two values
        x[2:4] = np.arange(n) % 3
        y[2:4] = rng.integers(0, 2, (2, n))
        y[2:4, :2] = [0.0, 1.0]
        # reversed rows, without and with ties
        x[4], y[4] = np.sort(x[4]), -np.sort(x[4])
        x[5], y[5] = np.arange(n) // 3, -(np.arange(n) // 2)
        taus = kendall_tau(x, y)
        assert taus.shape == (6,)
        for row, tau in enumerate(taus):
            assert tau == sps.kendalltau(x[row], y[row]).statistic
            assert tau == kendall_tau(x[row], y[row])
        assert taus[4] == pytest.approx(-1.0)

    def test_tau_at_large_n_is_scipys(self):
        # one row of 1e5: the inversion count's memory grows as n, not n^2
        rng = np.random.default_rng(16)
        x = rng.standard_normal(100_000)
        y = 0.2 * x + rng.standard_normal(100_000)
        for y in (y, np.round(y, 1)):
            assert kendall_tau(x, y) == sps.kendalltau(x, y).statistic

    def test_2d_input_is_a_stack(self):
        x = np.arange(10.0)
        taus = kendall_tau(x[None], x[None] ** 2)
        assert isinstance(taus, np.ndarray) and taus.shape == (1,)
        # a column is ten samples of one observation each
        with pytest.raises(DegenerateInputError):
            kendall_tau(x[:, None], x[:, None] ** 2)

    def test_stacked_tau_refuses_a_tied_row(self):
        x = np.arange(20.0).reshape(2, 10)
        x[1] = 3.0
        with pytest.raises(DegenerateInputError):
            kendall_tau(x, x[::-1])


@pytest.mark.parametrize("n", [4, 12, 40, 500])
def test_stacked_correlations_match_corrcoef(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((50, n))
    y = rng.uniform(-1.0, 1.0, (50, 1)) * x + rng.standard_normal((50, n))
    y[::2] = np.round(y[::2], 1)   # ties for the mid-ranks
    rx, ry = sps.rankdata(x, axis=1), sps.rankdata(y, axis=1)
    # Pearson's r, and Spearman's as Pearson's of the mid-ranks
    for a, b in ((x, y), (rx, ry)):
        r = phimi.testing._pearson_r(a, b)
        for row in range(50):
            assert abs(r[row] - np.corrcoef(a[row], b[row])[0, 1]) <= 1e-15


def test_stacked_rejections_match_one_sample_tests():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 30))
    y = 0.4 * x + rng.standard_normal((6, 30))
    x[1] = 2.0    # refused rows: no variation in x, then in y
    y[4] = -1.0
    for stacked, one in ((pearson_rejections, pearson_test),
                         (spearman_rejections, spearman_test),
                         (kendall_rejections, kendall_test)):
        want = []
        for row in range(6):
            try:
                want.append(one(PairedSample(x[row], y[row]), 0.2).reject)
            except DegenerateInputError:
                want.append(None)
        assert [row for row in range(6) if want[row] is None] == [1, 4]
        assert stacked(x, y, 0.2) == want
        assert stacked(x[:, :3], y[:, :3], 0.2) == [None] * 6   # below 4 observations


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.37])
def test_baseline_calibration_equals_scipy_stats(alpha):
    # the baselines call scipy.special directly; scipy.stats gives the same bits
    rng = np.random.default_rng(15)
    for n in (4, 5, 12, 40, 500):
        x = rng.standard_normal(n)
        y = 0.3 * x + rng.standard_normal(n)
        sample = PairedSample(x, y)
        res = kendall_test(sample, alpha)
        assert res.critical_value == float(sps.norm.ppf(1.0 - alpha / 2.0))
        assert res.p_value == 2.0 * float(sps.norm.sf(res.statistic))
        for test in (pearson_test, spearman_test):
            res = test(sample, alpha)
            assert res.critical_value == float(sps.t.ppf(1.0 - alpha / 2.0, n - 2))
            assert res.p_value == 2.0 * float(sps.t.sf(res.statistic, n - 2))


@pytest.mark.parametrize("entry", [
    lambda x, y: phimi.models.rank_transform(x[0], y[0]),
    kendall_tau, pearson_rejections, spearman_rejections, kendall_rejections,
], ids=["rank_transform", "kendall_tau", "pearson", "spearman", "kendall"])
def test_rank_and_baseline_stacks_refuse_nan(entry):
    # a sort ranks NaN above every number: refused, naming the first one
    x = np.array([[1.0, np.nan, 2.0, 3.0, 5.0, 4.0]])
    y = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    with pytest.raises(ValueError, match=r"x\[(0, )?1\] = nan is not finite"):
        entry(x, y)
    with pytest.raises(ValueError, match=r"y\[(0, )?4\] = nan is not finite"):
        entry(y, np.where(y == 5.0, np.nan, y))


def test_baseline_needs_enough_points():
    with pytest.raises(DegenerateInputError):
        pearson_test(PairedSample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]))
