"""Independence tests built on the statistic S_n = 2n I_hat.

Three calibration routes for the phi-MI statistic:

* ``"chisq"``  -- exact chi-square law with (K1-1)(K2-1) degrees of
  freedom (finite-discrete models only);
* ``"ztz"``    -- Monte-Carlo quantile of the Z'Z limit law, with moments
  taken exactly over the product of the empirical margins (exponential
  bilinear models with the KL divergence only);
* ``"bootstrap"`` -- resampling from the product of the empirical
  margins, which breaks the pairing and mimics the null whatever the
  model.

Classical noncorrelation tests (Pearson, Spearman, Kendall) are provided
as baselines with their textbook calibrations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .asymptotics import (
    chi2_quantile,
    chi2_sf,
    chisq_df_finite,
    covariances_under_h0,
    limit_quantile_ztz,
)
from .errors import (
    DegenerateInputError,
    FoldContextError,
    OptimFailureError,
    RouteMismatchError,
)
from .estimator import ObjectiveContext, PairedSample, estimate, estimate_resamples
from .models import FiniteDiscreteModel

__all__ = [
    "TestResult",
    "BootstrapConfig",
    "ROUTES",
    "test_independence",
    "bootstrap_statistics",
    "bootstrap_critical",
    "pearson_test",
    "spearman_test",
    "kendall_test",
    "kendall_tau",
]

ROUTES = ("ztz", "chisq", "bootstrap")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one independence test; reject iff statistic > critical."""

    __test__ = False  # not a pytest case, despite the name

    statistic: float
    critical_value: float
    p_value: float | None
    reject: bool
    route: str
    alpha: float


@dataclass(frozen=True)
class BootstrapConfig:
    b_reps: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.b_reps < 100:
            raise ValueError("b_reps must be at least 100")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


def test_independence(ctx: ObjectiveContext, route: str, alpha: float = 0.05, *,
                      n_draws: int = 10_000, seed: int = 0,
                      bootstrap: BootstrapConfig | None = None) -> TestResult:
    """Test H0: X independent of Y with S_n = 2n I_hat at level alpha.

    The ztz route computes the asymptotic covariances exactly over the
    product of the observed sample's empirical margins (all n^2 pairs, no
    draws).
    ``n_draws`` and ``seed`` set the Monte-Carlo Z'Z quantile.  Raises
    OptimFailureError, on every route, when the fit of the observed
    sample does not converge.
    """
    if route not in ROUTES:
        raise RouteMismatchError(f"unknown route {route!r}; choose from {ROUTES}")
    model = ctx.model
    if route == "chisq" and not isinstance(model, FiniteDiscreteModel):
        raise RouteMismatchError("chisq route requires a finite-discrete model")
    # finite models subclass ExpBilinearModel; they take the chisq route
    if route == "ztz" and model.family != "expbilinear":
        raise RouteMismatchError("ztz route requires an exponential bilinear model")
    if route == "ztz" and ctx.divergence.gamma != 1.0:
        raise RouteMismatchError("ztz route is derived for the KL divergence only")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if route != "chisq":
        _require_sample(ctx, f"the {route} route")
    est = estimate(ctx, seed=seed)
    if not est.converged:
        raise OptimFailureError(
            f"the fit of the observed sample did not converge ({est.method}, projected "
            f"gradient {est.grad_norm:.3g} after {est.objective_evals} evaluations)")
    stat = 2.0 * ctx.n * est.i_hat

    if route == "chisq":
        df = chisq_df_finite(model.k1, model.k2)
        crit = chi2_quantile(1.0 - alpha, df)
        p_value = chi2_sf(stat, df)
    elif route == "ztz":
        cov = covariances_under_h0(model, np.asarray(ctx.sample.x, dtype=float),
                                   np.asarray(ctx.sample.y, dtype=float))
        crit = limit_quantile_ztz(cov, alpha, n_draws=n_draws, seed=seed)
        p_value = None
    else:
        cfg = bootstrap or BootstrapConfig(alpha=alpha, seed=seed)
        if cfg.alpha != alpha:
            cfg = BootstrapConfig(cfg.b_reps, alpha, cfg.seed)
        draws = bootstrap_statistics(ctx, cfg)
        crit = float(np.quantile(draws, 1.0 - cfg.alpha, method="linear"))
        p_value = (1.0 + np.count_nonzero(draws >= stat)) / (cfg.b_reps + 1.0)

    return TestResult(stat, float(crit), p_value, bool(stat > crit), route, alpha)


# not a pytest case, despite the name
test_independence.__test__ = False


def _require_sample(ctx: ObjectiveContext, what: str) -> None:
    if ctx.sample is None:
        raise FoldContextError(f"{what} needs the whole sample, but this context holds only "
                               "a held-out fold of it (built with rows=)")


def bootstrap_statistics(ctx: ObjectiveContext, cfg: BootstrapConfig) -> np.ndarray:
    """B replicates of S*_n under resampling from the product empirical law.

    The x side and the y side are drawn independently with replacement,
    each from its own generator (``SeedSequence(cfg.seed).spawn(2)``) as
    one (B, n) index matrix whose row b indexes replicate b, so the
    pairing is broken; rank and cell statistics are recomputed on each
    replicate sample.  The replicates are fitted by
    :func:`~phimi.estimator.estimate_resamples`, replicate b with
    ``seed=b``: for an exponential bilinear model, finite ones included,
    in stacks built straight from the index matrices, each row over the
    replicate's own distinct values (about 0.63 n per side for
    continuous data: the size of its cross sums), one lockstep Newton run
    per stack, with L-BFGS-B on the replicate's own context for a row
    that fails its acceptance test, as ``estimate`` runs it; for the
    copula, and finite models with more than 256 parameters, one
    ``estimate`` per replicate on its own context.
    Fails if more than 5% of the replicate optimizations do not converge.
    """
    _require_sample(ctx, "the bootstrap")
    n = ctx.n
    rng_x, rng_y = (np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2))
    ix = rng_x.integers(0, n, (cfg.b_reps, n))
    iy = rng_y.integers(0, n, (cfg.b_reps, n))
    fits = estimate_resamples(ctx, ix, iy)
    failures = sum(not est.converged for est in fits)
    if failures > 0.05 * cfg.b_reps:
        raise OptimFailureError(
            f"{failures}/{cfg.b_reps} bootstrap replicates failed to converge")
    return np.array([2.0 * n * est.i_hat for est in fits])


def bootstrap_critical(ctx: ObjectiveContext, cfg: BootstrapConfig) -> float:
    """(1 - alpha) quantile of the bootstrap statistic sequence."""
    draws = bootstrap_statistics(ctx, cfg)
    return float(np.quantile(draws, 1.0 - cfg.alpha, method="linear"))


# -- baseline noncorrelation tests ----------------------------------------


# the fewest observations the noncorrelation baselines accept
MIN_BASELINE_N = 4


def _check_baseline_sample(sample: PairedSample):
    if sample.kind != "real":
        raise DegenerateInputError("noncorrelation tests need real-valued data")
    if sample.n < MIN_BASELINE_N:
        raise DegenerateInputError(f"need at least {MIN_BASELINE_N} observations")
    x = np.asarray(sample.x, dtype=float)
    y = np.asarray(sample.y, dtype=float)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DegenerateInputError("zero variance in x or y")
    return x, y


def _t_test_result(r: float, n: int, alpha: float, route: str) -> TestResult:
    df = n - 2
    crit = float(stdtrit(df, 1.0 - alpha / 2.0))
    if 1.0 - r * r <= 1e-15:
        return TestResult(np.inf, crit, 0.0, True, route, alpha)
    t = abs(r) * np.sqrt(df / (1.0 - r * r))
    p = 2.0 * float(stdtr(df, -t))
    return TestResult(float(t), crit, p, bool(t > crit), route, alpha)


def pearson_test(sample: PairedSample, alpha: float = 0.05) -> TestResult:
    """Two-sided Pearson noncorrelation test, t = r sqrt(n-2)/sqrt(1-r^2)."""
    x, y = _check_baseline_sample(sample)
    r = float(np.corrcoef(x, y)[0, 1])
    return _t_test_result(r, sample.n, alpha, "pearson")


def spearman_test(sample: PairedSample, alpha: float = 0.05) -> TestResult:
    """Pearson's t statistic applied to the mid-rank correlation."""
    from scipy.stats import rankdata  # loaded on first use: slow to import
    x, y = _check_baseline_sample(sample)
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    r = float(np.corrcoef(rx, ry)[0, 1])
    return _t_test_result(r, sample.n, alpha, "spearman")


def kendall_test(sample: PairedSample, alpha: float = 0.05) -> TestResult:
    """Kendall tau_b with the normal approximation
    z = 3 tau sqrt(n(n-1)) / sqrt(2(2n+5))."""
    x, y = _check_baseline_sample(sample)
    n = sample.n
    tau = kendall_tau(x, y)
    z = abs(3.0 * tau * np.sqrt(n * (n - 1.0)) / np.sqrt(2.0 * (2.0 * n + 5.0)))
    crit = float(ndtri(1.0 - alpha / 2.0))
    p = 2.0 * float(ndtr(-z))
    return TestResult(float(z), crit, p, bool(z > crit), "kendall", alpha)


def kendall_tau(x, y) -> float:
    """Kendall's tau_b (tie-corrected), as computed by scipy."""
    from scipy.stats import kendalltau  # loaded on first use: slow to import
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if np.all(x == x[:1]) or np.all(y == y[:1]):
        raise DegenerateInputError("all x or all y values tied")
    return float(kendalltau(x, y).statistic)
