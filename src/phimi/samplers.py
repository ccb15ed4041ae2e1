"""Seeded generators for the three simulation families.

All samplers consume a numpy ``default_rng`` seed and draw with a fixed
call sequence, so results are bit-reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import PairedSample

__all__ = [
    "FiniteMixtureSpec",
    "GaussianSpec",
    "FgmSpec",
    "sample_finite",
    "sample_finite_tables",
    "sample_gaussian",
    "sample_fgm",
]


@dataclass(frozen=True)
class FiniteMixtureSpec:
    """Uniform margins on {1..K}; Y equals X with probability theta.

    Cell probabilities p_xy = (1 - theta)/K^2 + (theta/K) 1{x = y}.
    """

    k: int
    theta: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need K >= 2 categories")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")

    @property
    def levels(self):
        lv = np.arange(1, self.k + 1)
        return lv, lv

    def cell_probs(self) -> np.ndarray:
        p = np.full((self.k, self.k), (1.0 - self.theta) / self.k**2)
        p[np.diag_indices(self.k)] += self.theta / self.k
        return p


@dataclass(frozen=True)
class GaussianSpec:
    """Centered bivariate Gaussian, unit-free correlation rho."""

    rho: float
    sigma: float = 1.0

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError("|rho| must be < 1")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class FgmSpec:
    """FGM copula parameter; |theta| <= 1 keeps the copula valid."""

    theta: float

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("|theta| must be <= 1")


def sample_finite(spec: FiniteMixtureSpec, n: int, seed) -> PairedSample:
    """X uniform on {1..K}; Y = X with probability theta, else uniform."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, spec.k + 1, size=n)
    mix = rng.random(n) < spec.theta
    y_indep = rng.integers(1, spec.k + 1, size=n)
    y = np.where(mix, x, y_indep)
    return PairedSample(x, y, kind="categorical")


def sample_finite_tables(spec: FiniteMixtureSpec, n: int, reps: int, seed) -> np.ndarray:
    """``reps`` contingency tables of n pairs each, shape (reps, K, K).

    A table is the sufficient statistic of n iid pairs from
    ``spec.cell_probs()``, so each has the law of the counts of a
    :func:`sample_finite` sample; all are drawn by one multinomial call.
    """
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, spec.cell_probs().ravel(), size=reps)
    return counts.reshape(reps, spec.k, spec.k)


def sample_gaussian(spec: GaussianSpec, n: int, seed) -> PairedSample:
    """Y = rho X + sqrt(1 - rho^2) eps, both margins N(0, sigma^2)."""
    rng = np.random.default_rng(seed)
    x = spec.sigma * rng.standard_normal(n)
    eps = spec.sigma * rng.standard_normal(n)
    y = spec.rho * x + np.sqrt(1.0 - spec.rho**2) * eps
    return PairedSample(x, y, kind="real")


def sample_fgm(spec: FgmSpec, n: int, seed) -> PairedSample:
    """Conditional-inversion draws from the FGM copula, in copula scale.

    With u, w uniform, v solves v [1 + theta (1 - v)(1 - 2u)] = w; the
    root in [0, 1] of the quadratic is evaluated in the conjugate form
    2w / (1 + a + sqrt((1 + a)^2 - 4aw)), stable as a -> 0.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    w = rng.random(n)
    a = spec.theta * (1.0 - 2.0 * u)
    disc = (1.0 + a) ** 2 - 4.0 * a * w
    if np.any(disc < 0.0):
        raise AssertionError("FGM conditional CDF discriminant went negative")
    v = np.where(np.abs(a) < 1e-12, w, 2.0 * w / (1.0 + a + np.sqrt(disc)))
    return PairedSample(u, v, kind="real")
