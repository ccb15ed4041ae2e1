"""Asymptotic law of the KL statistic under independence.

Under the null, ``2n I_hat_KL`` for an exponential bilinear model
converges in distribution to ``Z'Z`` with ``Z ~ N(0, C)`` and
``C = Sigma1^{-1/2} Sigma2 Sigma1^{-1/2}``, where

* ``Sigma1 = E[w w']`` with ``w = (1, xi_1(X) zeta_1(Y), ...)`` and X, Y
  independent;
* ``Sigma2`` is the delta-method covariance of the score at theta = 0,
  built from the moment vector of ``V = (1, xi_k(X), zeta_k(Y),
  xi_k(X) zeta_k(Y))``.

Under the null every moment is an x-moment times a y-moment, so both
matrices come from the Gram matrices ``G_x = E[a a']``, ``a = (1, xi(X))``,
and ``G_y`` of ``(1, zeta(Y))``: ``Sigma1 = G_x * G_y`` entrywise, and
``E[V V']`` picks the x-slot and y-slot of each entry of V.  Each margin
is a finite ``(values, probs)`` pair, a sample (weight 1/n per
observation, so all n^2 product pairs count exactly) or a sampler that
gives ``m`` draws; :func:`normal_margin` gives N(0, sigma^2) exactly, as
a finite pair.  For the saturated finite-discrete model the limit is the
chi-square law with (K1 - 1)(K2 - 1) degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import chdtri, gammaincc

from .errors import DomainError, SingularityError
from .divergence import Interval

__all__ = [
    "AsymptoticCovariances",
    "covariances_under_h0",
    "normal_margin",
    "sigma1_under_h0",
    "sigma2_under_h0",
    "limit_quantile_ztz",
    "chisq_df_finite",
    "chi2_quantile",
    "chi2_sf",
]

_COND_LIMIT = 1e12
_EIG_FLOOR = 1e-12
_RANK_TOL = 1e-12   # share of C's largest eigenvalue below which one is zero


@dataclass(frozen=True)
class AsymptoticCovariances:
    """Sigma1, Sigma2 and the limit covariance C of the KL statistic."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    c_matrix: np.ndarray

    @classmethod
    def from_sigmas(cls, sigma1, sigma2) -> "AsymptoticCovariances":
        sigma1 = _symmetrize(np.asarray(sigma1, dtype=float))
        sigma2 = _symmetrize(np.asarray(sigma2, dtype=float))
        vals, vecs = np.linalg.eigh(sigma1)
        vals = np.maximum(vals, _EIG_FLOOR)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        c = _symmetrize(inv_sqrt @ sigma2 @ inv_sqrt)
        return cls(sigma1, sigma2, c)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _support(margin, rng, m):
    """Support points and weights of a margin: a (values, probs) pair as
    given, a sample with weight 1/n per observation, or m sampler draws."""
    if isinstance(margin, tuple) and len(margin) == 2:
        values, probs = margin
        return np.asarray(values), np.asarray(probs, dtype=float)
    values = np.asarray(margin(rng, m) if callable(margin) else margin)
    return values, np.full(values.size, 1.0 / values.size)


def normal_margin(sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """N(0, sigma^2) as five Gauss-Hermite nodes, exact to degree 9, so every
    registry basis's Gram matrix (degree <= 4) is exact."""
    if not sigma > 0.0:
        raise DomainError(sigma, Interval(0.0, np.inf), what="sigma")
    nodes, weights = hermegauss(5)
    return sigma * nodes, weights / weights.sum()


def _gram(funcs, values, weights) -> np.ndarray:
    """E[a a'] with a = (1, f_1(v), ..., f_d(v)) over weighted support points."""
    a = np.stack([np.ones(values.size)] + [f(values) for f in funcs], axis=1).astype(float)
    return _symmetrize((a.T * weights) @ a)


def _grams(model, marg_x, marg_y, m, seed):
    """Gram matrices G_x of (1, xi(X)) and G_y of (1, zeta(Y)).

    Sampler margins draw m values each: x from ``default_rng(seed)``, then
    y from a generator seeded by that stream after the x draws.
    """
    if m < 1:
        raise DomainError(m, Interval(1.0, np.inf, lo_closed=True), what="m")
    xis, zetas = zip(*model.feature_pairs())
    rng = np.random.default_rng(seed)
    gx = _gram(xis, *_support(marg_x, rng, m))
    gy = _gram(zetas, *_support(marg_y, np.random.default_rng(rng.integers(2**63)), m))
    return gx, gy


def _sigma1(gx, gy) -> np.ndarray:
    sigma1 = gx * gy
    if np.linalg.cond(sigma1) > _COND_LIMIT:
        raise SingularityError("estimated Sigma1 is numerically singular")
    return sigma1


def _sigma2(gx, gy) -> np.ndarray:
    d = gx.shape[0] - 1
    k = np.arange(1, d + 1)
    zero = np.zeros(d, dtype=int)
    # x-slot and y-slot of each entry of V = (1, xi, zeta, xi*zeta)
    p = np.concatenate([[0], k, zero, k])
    q = np.concatenate([[0], zero, k, k])
    mu = gx[0, p] * gy[0, q]
    cov = gx[np.ix_(p, p)] * gy[np.ix_(q, q)] - np.outer(mu, mu)
    jac = np.zeros((1 + d, 1 + 3 * d))
    jac[k, k] = mu[d + k]
    jac[k, d + k] = mu[k]
    jac[k, 2 * d + k] = -1.0
    return _symmetrize(jac @ cov @ jac.T)


def sigma1_under_h0(model, marg_x, marg_y, m: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """E[w w'] under the product measure, w = (1, xi_k(X) zeta_k(Y))."""
    return _sigma1(*_grams(model, marg_x, marg_y, m, seed))


def sigma2_under_h0(model, marg_x, marg_y, m: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Delta-method covariance of the score at theta = 0.

    Returns J Cov(V) J' padded with a zero first row and column, where
    row k of J reads the moments (mu_zeta_k, mu_xi_k, -1) off the slots
    of V = (1, xi, zeta, xi*zeta).
    """
    return _sigma2(*_grams(model, marg_x, marg_y, m, seed))


def covariances_under_h0(model, marg_x, marg_y, m: int = 1_000_000,
                         seed: int = 0) -> AsymptoticCovariances:
    """Sigma1, Sigma2 and C from one pair of margin Gram matrices."""
    grams = _grams(model, marg_x, marg_y, m, seed)
    return AsymptoticCovariances.from_sigmas(_sigma1(*grams), _sigma2(*grams))


def limit_quantile_ztz(cov, alpha: float) -> float:
    """Upper-alpha quantile of Z'Z, Z ~ N(0, C): of sum_i lambda_i chi2_1
    over C's eigenvalues, clipped at 0, one at most ``_RANK_TOL`` of the
    largest counting as zero.  Every registry basis couples one term
    (``xy``), so C has one nonzero lambda and the quantile is exactly
    lambda times the chi2_1 quantile (0 with none).  A model with several
    coupled terms reads it off the linearly interpolated empirical CDF of
    10,000 draws from ``default_rng(0)``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(alpha, Interval(0.0, 1.0), what="alpha")
    c = np.asarray(getattr(cov, "c_matrix", cov), dtype=float)
    vals = np.clip(np.linalg.eigvalsh(_symmetrize(c)), 0.0, None)
    nonzero = vals[vals > _RANK_TOL * vals.max()]
    if nonzero.size == 0:
        return 0.0
    if nonzero.size == 1:
        return float(nonzero[0]) * chi2_quantile(1.0 - alpha, 1)
    # Z'Z equals sum_i lambda_i eps_i^2 for orthonormal eigenvectors
    draws = np.random.default_rng(0).standard_normal((10_000, vals.size)) ** 2 @ vals
    return float(np.quantile(draws, 1.0 - alpha, method="linear"))


def chisq_df_finite(k1: int, k2: int) -> int:
    """Degrees of freedom (K1 - 1)(K2 - 1) of the finite-discrete limit."""
    interval = Interval(2.0, np.inf, lo_closed=True)
    for k in (k1, k2):
        if int(k) != k or k < 2:
            raise DomainError(k, interval, what="level count")
    return (int(k1) - 1) * (int(k2) - 1)


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if x <= 0.0:
        return 1.0
    return float(gammaincc(df / 2.0, x / 2.0))


def chi2_quantile(p: float, df: float) -> float:
    """Chi-square quantile: the q with P(chi2_df <= q) = p."""
    if not 0.0 < p < 1.0:
        raise DomainError(p, Interval(0.0, 1.0), what="probability")
    if df <= 0.0:
        raise DomainError(df, Interval(0.0, np.inf), what="df")
    return float(chdtri(df, 1.0 - p))
