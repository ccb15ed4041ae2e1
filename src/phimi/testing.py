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
as baselines with their textbook calibrations.  Each runs on a stack of
samples, two (R, n) arrays with one sample per row (``*_rejections``, as
power studies call them); the one-sample ``*_test`` functions run a stack
of one.  Kendall's tau_b is computed here for a whole stack, bit for bit
as ``scipy.stats.kendalltau`` computes it for one sample.
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
    LengthMismatchError,
    OptimFailureError,
    RouteMismatchError,
)
from .estimator import (ObjectiveContext, PairedSample, _refuse_stack, estimate,
                        estimate_resamples)
from .models import FiniteDiscreteModel, _finite_floats, _flat_rows, _mid_ranks, _sorted_runs

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
    "pearson_rejections",
    "spearman_rejections",
    "kendall_rejections",
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
    _refuse_stack(ctx, what)
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
    in stacks built from the index matrices over the sample's level codes
    (one bincount per side, no sort), each row over the replicate's own
    distinct values (about 0.63 n per side for continuous data: the size
    of its cross sums), one lockstep Newton run per stack, with L-BFGS-B
    on the replicate's own context for a row that fails its acceptance
    test, as ``estimate`` runs it; for the copula, and finite models with
    more than 256 parameters, one ``estimate`` per replicate on its own
    context.
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


def _accepted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows of the (R, n) stacks ``x``, ``y`` that the baselines test:
    at least ``MIN_BASELINE_N`` observations, x and y each not all tied."""
    return (x.shape[1] >= MIN_BASELINE_N) & (np.ptp(x, axis=1) != 0.0) & (np.ptp(y, axis=1) != 0.0)


def _t_test(r: np.ndarray, n: int, alpha: float):
    """(statistic, critical value, p-value) of t = r sqrt(n-2)/sqrt(1-r^2)
    for each correlation in ``r``; t is infinite where 1 - r^2 <= 1e-15."""
    df = n - 2
    crit = float(stdtrit(df, 1.0 - alpha / 2.0))
    perfect = 1.0 - r * r <= 1e-15
    t = np.where(perfect, np.inf, np.abs(r) * np.sqrt(df / np.maximum(1.0 - r * r, 1e-15)))
    p = np.where(perfect, 0.0, 2.0 * stdtr(df, -t))
    return t, crit, p


def _pearson_r(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's product-moment correlation, in the steps of ``np.corrcoef``."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)

    def cov(a, b):
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0] / (x.shape[1] - 1)

    return np.clip(cov(xc, yc) / np.sqrt(cov(xc, xc)) / np.sqrt(cov(yc, yc)), -1.0, 1.0)


def _pearson(x, y, alpha):
    return _t_test(_pearson_r(x, y), x.shape[1], alpha)


def _spearman(x, y, alpha):
    return _t_test(_pearson_r(_mid_ranks(x), _mid_ranks(y)), x.shape[1], alpha)


def _kendall(x, y, alpha):
    n = x.shape[1]
    tau = kendall_tau(x, y)
    z = np.abs(3.0 * tau * np.sqrt(n * (n - 1.0)) / np.sqrt(2.0 * (2.0 * n + 5.0)))
    return z, float(ndtri(1.0 - alpha / 2.0)), 2.0 * ndtr(-z)


def _one_sample(statistics, sample: PairedSample, alpha: float, route: str) -> TestResult:
    x, y = sample.x[None], sample.y[None]
    if sample.kind != "real" or not _accepted(x, y)[0]:
        raise DegenerateInputError(f"need {MIN_BASELINE_N}+ real values, not all tied, in x and y")
    stat, crit, p = statistics(x, y, alpha)
    return TestResult(float(stat[0]), crit, float(p[0]), bool(stat[0] > crit), route, alpha)


def _rejections(statistics, x, y, alpha: float) -> list[bool | None]:
    """One decision per row of the stack, ``None`` on a row the baselines
    do not test (:func:`_accepted`).  Raises ValueError naming the first
    entry that is not finite."""
    x, y = _finite_floats(x=x, y=y)
    ok = _accepted(x, y)
    out: list[bool | None] = [None] * len(ok)
    if ok.any():
        stat, crit, _ = statistics(x[ok], y[ok], alpha)
        for row, reject in zip(np.flatnonzero(ok), stat > crit):
            out[row] = bool(reject)
    return out


def pearson_test(sample: PairedSample, alpha: float = 0.05) -> TestResult:
    """Two-sided Pearson noncorrelation test, t = r sqrt(n-2)/sqrt(1-r^2)."""
    return _one_sample(_pearson, sample, alpha, "pearson")


def spearman_test(sample: PairedSample, alpha: float = 0.05) -> TestResult:
    """Pearson's t statistic applied to the mid-rank correlation."""
    return _one_sample(_spearman, sample, alpha, "spearman")


def kendall_test(sample: PairedSample, alpha: float = 0.05) -> TestResult:
    """Kendall tau_b with the normal approximation
    z = 3 tau sqrt(n(n-1)) / sqrt(2(2n+5))."""
    return _one_sample(_kendall, sample, alpha, "kendall")


def pearson_rejections(x, y, alpha: float = 0.05) -> list[bool | None]:
    """:func:`pearson_test` on each row of the (R, n) stack ``x``, ``y``."""
    return _rejections(_pearson, x, y, alpha)


def spearman_rejections(x, y, alpha: float = 0.05) -> list[bool | None]:
    """:func:`spearman_test` on each row of the (R, n) stack ``x``, ``y``."""
    return _rejections(_spearman, x, y, alpha)


def kendall_rejections(x, y, alpha: float = 0.05) -> list[bool | None]:
    """:func:`kendall_test` on each row of the (R, n) stack ``x``, ``y``."""
    return _rejections(_kendall, x, y, alpha)


# positions per block of the inversion count, and elements per group of
# rows: 20 rows at n = 500 peak at ~0.9 MB of temporaries
_TAU_BLOCK = 16
_TAU_GROUP = 10_000


def kendall_tau(x, y):
    """Kendall's tau_b (tie-corrected), bit for bit as ``scipy.stats.kendalltau``.

    ``x`` and ``y`` are two samples of n, which give a float, or two (R, n)
    stacks of R samples, which give one tau_b per row.  A 2-D input is
    always read as a stack, so an (n, 1) column holds n samples of one
    observation and is refused, and a (1, n) row gives an array of one;
    ravel such an input to get one float.  The integer counts are scipy's
    (Knight 1966): pairs, ties in x, in y and in both, and discordant
    pairs, here the inversions of a permutation counted by a merge sort;
    tau_b is formed from them in scipy's order of operations.  Raises
    DegenerateInputError when all x or all y values of a sample are tied,
    ValueError naming the first entry that is not finite.
    """
    x, y = _finite_floats(x=x, y=y)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise LengthMismatchError(f"x {x.shape} and y {y.shape} must be equal 1-D or 2-D shapes")
    one = x.ndim == 1
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    if np.any((x == x[:, :1]).all(axis=1) | (y == y[:, :1]).all(axis=1)):
        raise DegenerateInputError("all x or all y values tied")
    n = x.shape[1]
    group = max(1, _TAU_GROUP // n)
    tau = np.concatenate([_tau_b(x[i:i + group], y[i:i + group])
                          for i in range(0, len(x), group)])
    return float(tau[0]) if one else tau


def _tau_b(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """tau_b of each row; no row is all tied."""
    r, n = x.shape
    (xr, xtie), (yr, ytie) = _min_ranks(x), _min_ranks(y)
    # order by x, then y, as scipy's two sorts do; ties in both are joint ties
    order, _, _, starts, lengths = _sorted_runs(xr * n + yr)
    ntie = _tied_pairs(starts, lengths, x.shape)
    # discordant pairs: the strict inversions of y's ranks in that order,
    # ties broken by position: a permutation, as many as its inverse's
    dis = _inversions(np.argsort(np.take(yr, order).reshape(r, n) * n + np.arange(n), axis=1))
    tot = n * (n - 1) // 2
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return np.clip(tau, -1.0, 1.0)


def _min_ranks(v: np.ndarray):
    """Each row's min ranks (its run's start: how many values of the row are
    smaller), which order and tie values as dense ranks do; its tied pairs."""
    order, _, _, starts, lengths = _sorted_runs(v)
    ranks = np.empty(v.size, dtype=np.intp)
    ranks[order] = np.repeat(starts, lengths)
    return _flat_rows(ranks.reshape(v.shape), -v.shape[1]), _tied_pairs(starts, lengths, v.shape)


def _tied_pairs(starts, lengths, shape):
    """Each row's tied pairs, ``sum l (l - 1) / 2 = (sum l^2 - n) / 2`` over
    its runs' lengths l, from the flat runs of rows of ``shape`` (R, n)."""
    r, n = shape
    return (np.add.reduceat(lengths * lengths, np.searchsorted(starts, n * np.arange(r))) - n) // 2


def _inversions(rho: np.ndarray) -> np.ndarray:
    """Pairs i < j with rho[i] > rho[j] in each row of a stack of
    permutations, by a merge sort run on every row and run at once:
    broadcast compares within blocks of b positions, then the sorted runs
    merged pairwise, level by level.  O(n (b + log^2 n)) time and O(n b)
    memory per row."""
    r, n = rho.shape
    b = _TAU_BLOCK
    # pad each row to b times a power of two with the identity on the
    # tail: no new inversion
    m = b << max(0, (-(-n // b) - 1).bit_length())
    runs = np.concatenate([rho, np.broadcast_to(np.arange(n, m), (r, m - n))], axis=1)
    runs = runs.reshape(r * m // b, b)
    upper = np.triu(np.ones((b, b), dtype=bool), 1)
    count = ((runs[:, :, None] > runs[:, None, :]) & upper).reshape(r, -1).sum(axis=1)
    runs = np.sort(runs, axis=1)
    while runs.shape[1] < m:
        # pairs across runs 2k and 2k + 1: for each value of the right run,
        # the values of the left run above it.  Adding k m to both runs
        # makes all the left runs one sorted array to search.
        p, s = len(runs) // 2, runs.shape[1]
        keyed = runs.reshape(p, 2, s) + (np.arange(p) * m)[:, None, None]
        below = np.searchsorted(keyed[:, 0].ravel(), keyed[:, 1].ravel()).reshape(p, s)
        count += (s * np.arange(1, p + 1)[:, None] - below).reshape(r, -1).sum(axis=1)
        runs = np.sort(runs.reshape(p, 2 * s), axis=1)
    return count
