"""Asymptotic law of the KL statistic under independence.

Under the null, ``2n I_hat_KL`` for an exponential bilinear model
converges in distribution to ``Z'Z`` with ``Z ~ N(0, C)`` and
``C = Sigma1^{-1/2} Sigma2 Sigma1^{-1/2}``, where

* ``Sigma1 = E[w w']`` with ``w = (1, xi_1(X) zeta_1(Y), ...)`` and X, Y
  independent;
* ``Sigma2`` is the delta-method covariance of the score at theta = 0,
  built from the moment vector of ``V = (1, xi_k(X), zeta_k(Y),
  xi_k(X) zeta_k(Y))``.

Moments are estimated from ``m`` independent product draws when the
margins are continuous, and by exact enumeration when both margins are
finite-discrete.  For the saturated finite-discrete model the limit is
the chi-square law with (K1 - 1)(K2 - 1) degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri, gammaincc

from .errors import DomainError, SingularityError
from .divergence import Interval

__all__ = [
    "AsymptoticCovariances",
    "covariances_under_h0",
    "sigma1_under_h0",
    "sigma2_under_h0",
    "limit_quantile_ztz",
    "chisq_df_finite",
    "chi2_quantile",
    "chi2_sf",
]

_COND_LIMIT = 1e12
_EIG_FLOOR = 1e-12


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


def _margin_draws(margin, rng, m):
    """Draw m values from a margin given as sampler, sample, or (values, probs)."""
    if callable(margin):
        return np.asarray(margin(rng, m))
    if isinstance(margin, tuple) and len(margin) == 2:
        values, probs = margin
        idx = rng.choice(len(values), size=m, p=np.asarray(probs, dtype=float))
        return np.asarray(values)[idx]
    arr = np.asarray(margin)
    return arr[rng.integers(0, arr.size, size=m)]


def _is_exact(margin) -> bool:
    return isinstance(margin, tuple) and len(margin) == 2


def _moment_inputs(model, marg_x, marg_y, m, seed):
    """Feature matrices Xi, Ze and point weights for moment computation.

    Exact enumeration over the product support when both margins are
    finite-discrete; otherwise m independent product draws.
    """
    pairs = model.feature_pairs()
    if _is_exact(marg_x) and _is_exact(marg_y):
        vx, px = marg_x
        vy, py = marg_y
        vx = np.asarray(vx)
        vy = np.asarray(vy)
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        xs = np.repeat(vx, vy.size)
        ys = np.tile(vy, vx.size)
        weights = np.repeat(px, py.size) * np.tile(py, px.size)
    else:
        rng = np.random.default_rng(seed)
        xs = _margin_draws(marg_x, rng, m)
        ys = _margin_draws(marg_y, np.random.default_rng(rng.integers(2**63)), m)
        weights = np.full(xs.size, 1.0 / xs.size)
    xi = np.stack([p[0](xs) for p in pairs], axis=1).astype(float)
    ze = np.stack([p[1](ys) for p in pairs], axis=1).astype(float)
    return xi, ze, weights


def _sigma1(xi, ze, w) -> np.ndarray:
    feats = np.hstack([np.ones((xi.shape[0], 1)), xi * ze])
    sigma1 = _symmetrize(feats.T @ (feats * w[:, None]))
    if np.linalg.cond(sigma1) > _COND_LIMIT:
        raise SingularityError("estimated Sigma1 is numerically singular")
    return sigma1


def _sigma2(xi, ze, w) -> np.ndarray:
    v = np.hstack([np.ones((xi.shape[0], 1)), xi, ze, xi * ze])
    mu = w @ v
    v -= mu
    cov = v.T @ (v * w[:, None])
    d = xi.shape[1]
    jac = np.zeros((1 + d, 1 + 3 * d))
    for k in range(1, d + 1):
        jac[k, k] = mu[d + k]
        jac[k, d + k] = mu[k]
        jac[k, 2 * d + k] = -1.0
    return _symmetrize(jac @ cov @ jac.T)


def sigma1_under_h0(model, marg_x, marg_y, m: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """E[w w'] under the product measure, w = (1, xi_k(X) zeta_k(Y))."""
    return _sigma1(*_moment_inputs(model, marg_x, marg_y, m, seed))


def sigma2_under_h0(model, marg_x, marg_y, m: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Delta-method covariance of the score at theta = 0.

    Returns J Cov(V) J' padded with a zero first row and column, where
    row k of J reads the moments (mu_zeta_k, mu_xi_k, -1) off the slots
    of V = (1, xi, zeta, xi*zeta).
    """
    return _sigma2(*_moment_inputs(model, marg_x, marg_y, m, seed))


def covariances_under_h0(model, marg_x, marg_y, m: int = 1_000_000,
                         seed: int = 0) -> AsymptoticCovariances:
    """Sigma1, Sigma2 and C from a single set of product draws."""
    inputs = _moment_inputs(model, marg_x, marg_y, m, seed)
    return AsymptoticCovariances.from_sigmas(_sigma1(*inputs), _sigma2(*inputs))


def limit_quantile_ztz(cov, alpha: float, n_draws: int = 10_000, seed: int = 0) -> float:
    """Upper-alpha quantile of Z'Z, Z ~ N(0, C), by Monte Carlo.

    The quantile is read off the linearly interpolated empirical CDF of
    ``n_draws`` simulated values; deterministic given the seed.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(alpha, Interval(0.0, 1.0), what="alpha")
    c = np.asarray(getattr(cov, "c_matrix", cov), dtype=float)
    vals = np.linalg.eigvalsh(_symmetrize(c))
    vals = np.clip(vals, 0.0, None)
    rng = np.random.default_rng(seed)
    # Z'Z equals sum_i lambda_i eps_i^2 for orthonormal eigenvectors
    draws = rng.standard_normal((n_draws, vals.size)) ** 2 @ vals
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
