"""Semiparametric families for the density ratio dP/dP_perp.

Three families are provided:

* :class:`ExpBilinearModel` -- ``h_theta(x, y) = exp(alpha + sum_k beta_k
  xi_k(x) zeta_k(y))`` for univariate basis pairs ``(xi_k, zeta_k)``;
* :class:`FiniteDiscreteModel` -- the saturated exponential model on a
  known finite support, one log-ratio parameter per cell with the first
  cell's interaction folded into the normalizer;
* :class:`FgmCopulaModel` -- the Farlie-Gumbel-Morgenstern copula density
  ``1 + theta (1 - 2u)(1 - 2v)`` applied to rank-transformed margins.

All models are immutable after construction and safe to share between
threads.  The parameter space is a box, so that the feasible set is
compact; evaluation outside the box raises :class:`BoundsError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence
from urllib.parse import quote, unquote

import numpy as np
from scipy.stats import rankdata

from .errors import BoundsError, DomainError, LengthMismatchError, SupportError

__all__ = [
    "ParamVector",
    "BasisPair",
    "BASIS_REGISTRY",
    "RatioModel",
    "ExpBilinearModel",
    "FiniteDiscreteModel",
    "FgmCopulaModel",
    "EmpiricalMargins",
    "encode_tokens",
    "rank_transform",
    "gaussian_model",
    "gaussian_ratio_coefficients",
    "h_eval",
    "h_grad",
    "model_to_config",
    "model_from_config",
]


@dataclass(frozen=True)
class ParamVector:
    """Parameter ``theta``: a normalizing ``alpha`` plus coefficients ``beta``.

    ``alpha`` is ``None`` for families without a normalizer (the copula
    model, where the single dependence parameter plays the role of beta).
    """

    alpha: float | None
    beta: tuple[float, ...]

    def to_array(self) -> np.ndarray:
        if self.alpha is None:
            return np.asarray(self.beta, dtype=float)
        return np.asarray((self.alpha, *self.beta), dtype=float)

    @classmethod
    def from_array(cls, arr, has_alpha: bool) -> "ParamVector":
        arr = np.asarray(arr, dtype=float).ravel()
        if has_alpha:
            return cls(float(arr[0]), tuple(float(v) for v in arr[1:]))
        return cls(None, tuple(float(v) for v in arr))

    def __len__(self) -> int:
        return len(self.beta) + (self.alpha is not None)


@dataclass(frozen=True)
class BasisPair:
    """A separable basis term ``xi(x) * zeta(y)``."""

    name: str
    xi: Callable[[np.ndarray], np.ndarray]
    zeta: Callable[[np.ndarray], np.ndarray]


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _ident(t):
    return np.asarray(t, dtype=float)


def _square(t):
    return np.asarray(t, dtype=float) ** 2


BASIS_REGISTRY: dict[str, BasisPair] = {
    "1": BasisPair("1", _one, _one),
    "x": BasisPair("x", _ident, _one),
    "y": BasisPair("y", _one, _ident),
    "x2": BasisPair("x2", _square, _one),
    "y2": BasisPair("y2", _one, _square),
    "xy": BasisPair("xy", _ident, _ident),
}


def _as_bounds(lo_hi, dim: int) -> np.ndarray:
    arr = np.asarray(lo_hi, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError(f"bounds must be (lo, hi) or ({dim}, 2) with lo < hi")
    return arr


def encode_tokens(tokens, levels, which: str = "token") -> np.ndarray:
    """Index into ``levels`` (any order) of every token, same shape.

    One sort of the levels, one ``searchsorted`` of the tokens and an
    equality check at the found positions.  Raises SupportError naming
    the first token that is not a level, or when tokens and levels
    cannot be ordered against each other (mixed strings and numbers).
    """
    tokens = np.asarray(tokens)
    levels = np.asarray(levels)
    if levels.size == 0:
        raise SupportError(f"no {which} levels to encode against")
    try:
        order = np.argsort(levels, kind="stable")
        ranked = levels[order]
        pos = np.minimum(np.searchsorted(ranked, tokens), levels.size - 1)
        known = ranked[pos] == tokens
    except TypeError as exc:
        raise SupportError(f"{which} tokens and levels do not compare: {exc}") from None
    if not np.all(known):
        raise SupportError(f"unknown {which} level {tokens[~known].tolist()[0]!r}")
    return order[pos]


class RatioModel:
    """Base class; concrete families implement the hooks below."""

    family: str
    has_alpha: bool

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def theta0(self) -> np.ndarray:
        """Independence point: ``h_theta0`` is identically one."""
        return np.zeros(self.dim)

    def param_vector(self, theta) -> ParamVector:
        return ParamVector.from_array(theta, self.has_alpha)

    def _validate_theta(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=float).ravel()
        if arr.shape != (self.dim,):
            raise BoundsError(f"theta has length {arr.size}, expected {self.dim}")
        b = self.bounds
        if np.any(arr < b[:, 0]) or np.any(arr > b[:, 1]):
            raise BoundsError(f"theta {arr.tolist()} outside box constraints")
        return arr

    # pointwise evaluation -------------------------------------------------

    def h(self, theta, x, y):
        raise NotImplementedError

    def h_grad(self, theta, x, y):
        raise NotImplementedError

    # estimator hooks ------------------------------------------------------
    # The dual objective is sum_p w_p f(h(p)) - sum_c w_c g(h(c)) over a
    # set of "paired" evaluation points p and "cross" (product-measure)
    # points c.  Each family chooses its own point layout and weights.

    def prepare_sample(self, x, y):
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float)

    def _build_cache(self, x, y):
        raise NotImplementedError

    def _h_pair(self, theta, cache):
        raise NotImplementedError

    def _h_cross(self, theta, cache):
        raise NotImplementedError

    def _jac_pair(self, vec, h, theta, cache) -> np.ndarray:
        """Contract ``sum vec * dh/dtheta`` over the paired points."""
        raise NotImplementedError

    def _jac_cross(self, vec, h, theta, cache) -> np.ndarray:
        raise NotImplementedError

    def _paired_term(self, divergence, theta, cache, need_grad: bool):
        """``sum_p w_p phi'(h(p))`` over the paired points, and its gradient.

        Raises DomainError when some ``h(p)`` leaves the interior of
        ``dom phi``.  The gradient is ``None`` unless ``need_grad``.
        """
        h, w = self._h_pair(theta, cache)
        value = float(w @ divergence.phi_prime(h))
        if not need_grad:
            return value, None
        return value, self._jac_pair(w * divergence.phi_second(h), h, theta, cache)

    def _cross_term(self, divergence, theta, cache, need_grad: bool):
        """``sum_c w_c g(h(c))`` over the cross points, and its gradient.

        ``g(h) = h phi'(h) - phi(h)``, so ``dg/dtheta = h phi''(h) dh/dtheta``.
        Raises DomainError when some ``h(c)`` leaves the interior of
        ``dom phi``.  The gradient is ``None`` unless ``need_grad``.
        """
        h, w = self._h_cross(theta, cache)
        value = float(np.sum(w * divergence.conj_of_prime(h)))
        if not need_grad:
            return value, None
        return value, self._jac_cross(w * h * divergence.phi_second(h), h, theta, cache)

    def suggest_starts(self, cache) -> list[np.ndarray]:
        """Extra deterministic optimizer starts beyond theta0."""
        return []

    def to_config(self) -> str:
        raise NotImplementedError


class ExpBilinearModel(RatioModel):
    """Exponential model with separable bilinear exponent."""

    family = "expbilinear"
    has_alpha = True

    def __init__(self, basis: Sequence[BasisPair | str], alpha_bounds=(-10.0, 10.0),
                 beta_bounds=(-10.0, 10.0)):
        pairs = []
        for item in basis:
            if isinstance(item, str):
                if item not in BASIS_REGISTRY:
                    raise KeyError(f"unknown basis name {item!r}")
                pairs.append(BASIS_REGISTRY[item])
            else:
                pairs.append(item)
        if not pairs:
            raise ValueError("at least one basis pair required")
        self.basis = tuple(pairs)
        d = len(pairs)
        self.bounds = np.vstack([_as_bounds(alpha_bounds, 1), _as_bounds(beta_bounds, d)])
        self.bounds.setflags(write=False)

    def feature_pairs(self):
        return [(p.xi, p.zeta) for p in self.basis]

    def _features(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([p.xi(x) * p.zeta(y) for p in self.basis], axis=-1)

    def h(self, theta, x, y):
        theta = self._validate_theta(theta)
        feats = self._features(x, y)
        with np.errstate(over="ignore"):
            out = np.exp(theta[0] + feats @ theta[1:])
        return out if np.ndim(out) else float(out)

    def h_grad(self, theta, x, y):
        h = np.asarray(self.h(theta, x, y))
        feats = self._features(x, y)
        w = np.concatenate([np.ones(feats.shape[:-1] + (1,)), feats], axis=-1)
        return h[..., None] * w

    def _build_cache(self, x, y):
        # The cross pairs (x_i, y_j) run over the product of the empirical
        # margins, which sits on distinct x times distinct y values with
        # multiplicity weights c_x c_y / n^2.
        ux, ix, cx = np.unique(np.asarray(x, dtype=float), return_inverse=True,
                               return_counts=True)
        uy, iy, cy = np.unique(np.asarray(y, dtype=float), return_inverse=True,
                               return_counts=True)
        xi = np.stack([p.xi(ux) for p in self.basis], axis=1)    # (nx, d)
        ze = np.stack([p.zeta(uy) for p in self.basis], axis=1)  # (ny, d)
        n = ix.size
        # A term whose zeta (xi) is constant on the sample adds a vector
        # over x (y) to the cross exponent; the other terms are coupled.
        x_only = np.all(ze == ze[:1], axis=0)
        y_only = np.all(xi == xi[:1], axis=0) & ~x_only
        xi1 = cx[:, None] * np.hstack([np.ones((ux.size, 1)), xi])
        ze1 = cy[:, None] * np.hstack([np.ones((uy.size, 1)), ze])
        return {
            "xi": xi, "ze": ze, "paired": xi[ix] * ze[iy], "n": n, "cx": cx.astype(float),
            "a": xi[:, x_only] * ze[0, x_only], "x_only": np.flatnonzero(x_only),
            "b": xi[0, y_only] * ze[:, y_only], "y_only": np.flatnonzero(y_only),
            "coupled": np.flatnonzero(~(x_only | y_only)),
            "xi1": xi1, "ze1": ze1,   # count-weighted (1, xi) and (1, zeta)
            # mean of (1, xi_k zeta_k) over the n^2 cross pairs
            "cross_mean": xi1.sum(axis=0) * ze1.sum(axis=0) / n**2,
        }

    @staticmethod
    def _check_exponent(divergence, s):
        """DomainError iff some ``exp(s)`` leaves the interior of ``dom phi``
        (exp is monotone and the domain an interval: the extremes decide)."""
        with np.errstate(over="ignore"):
            extremes = np.exp([s.min(), s.max()])
        dom = divergence.dom_phi_interior
        if not dom.contains(extremes):
            raise DomainError(dom.first_violation(extremes), dom, what="x")

    def _paired_term(self, divergence, theta, cache, need_grad: bool):
        """Paired term in exponent space.

        With ``h = exp(s)``, ``phi'(h) = expm1((gamma - 1) s) / (gamma - 1)``
        (``s`` for KL) and ``h phi''(h) = exp((gamma - 1) s)``, which stays
        finite where ``h * h**(gamma - 2)`` would overflow.
        """
        s = theta[0] + cache["paired"] @ theta[1:]
        self._check_exponent(divergence, s)
        g1 = divergence.gamma - 1.0
        with np.errstate(over="ignore"):   # M_n itself is infinite there
            value = float(s.mean() if g1 == 0.0 else np.expm1(g1 * s).mean() / g1)
            if not need_grad:
                return value, None
            e = np.exp(g1 * s) / s.size
        return value, np.concatenate([[e.sum()], e @ cache["paired"]])

    def _cross_exponent(self, theta, cache) -> np.ndarray:
        """``s_ij = alpha + sum_k beta_k xi_k(x_i) zeta_k(y_j)`` on distinct
        values, shape (nx, ny), built by broadcasting."""
        beta = theta[1:]
        a = theta[0] + cache["a"] @ beta[cache["x_only"]]
        b = cache["b"] @ beta[cache["y_only"]]
        coupled = cache["coupled"]
        if coupled.size == 0:
            return np.add.outer(a, b)
        xi, ze = cache["xi"], cache["ze"]
        k = coupled[0]
        s = np.multiply.outer(beta[k] * xi[:, k], ze[:, k])
        for k in coupled[1:]:
            s += np.multiply.outer(beta[k] * xi[:, k], ze[:, k])
        s += a[:, None]
        s += b
        return s

    def _cross_term(self, divergence, theta, cache, need_grad: bool):
        """Cross term in exponent space, over distinct values.

        With ``h = exp(s)`` and the power kernel, ``g(h) = expm1(gamma s) /
        gamma`` (``s`` for gamma = 0) and ``dg/dtheta = exp(gamma s) (1,
        xi_k zeta_k)``.  ``M = expm1(gamma s)`` is contracted once with the
        count-weighted ``(1, zeta)``; the ``exp(gamma s) - M = 1`` part of
        the gradient is the cross mean of ``(1, xi_k zeta_k)``.
        """
        s = self._cross_exponent(theta, cache)
        self._check_exponent(divergence, s)
        mean_w = cache["cross_mean"]
        g = divergence.gamma
        if g == 0.0:
            return float(theta @ mean_w), (mean_w.copy() if need_grad else None)
        if g != 1.0:
            s *= g
        n2 = cache["n"] ** 2
        # where a product overflows, M_n is infinite and the point infeasible
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.expm1(s, out=s)
            rows = m @ cache["ze1"]                            # (nx, 1 + d)
            value = float(cache["cx"] @ rows[:, 0]) / (g * n2)
            if not need_grad:
                return value, None
            return value, np.einsum("ik,ik->k", cache["xi1"], rows) / n2 + mean_w

    def to_config(self) -> str:
        names = [p.name for p in self.basis]
        if any(n not in BASIS_REGISTRY for n in names):
            raise ValueError("only registry-named bases are serializable")
        return "\n".join([
            "family=expbilinear",
            "basis=" + ",".join(names),
            "bounds=" + _fmt_bounds(self.bounds),
        ])


class FiniteDiscreteModel(RatioModel):
    """Saturated exponential model on a known finite support.

    ``h_theta(a_i, b_j) = exp(alpha + beta_ij)`` with ``beta_11`` removed;
    free dimension ``1 + (K1 K2 - 1)``.  Category labels are strings or
    numbers, mutually comparable within each margin, and are mapped to
    indices by :func:`encode_tokens`.

    The default box is wide: with empty cells the supremum sits at the
    boundary, and the box must leave the plug-in value reachable to well
    below the 1e-6 equivalence tolerance.
    """

    family = "finite"
    has_alpha = True

    def __init__(self, levels_x: Sequence, levels_y: Sequence,
                 alpha_bounds=(-40.0, 40.0), beta_bounds=(-80.0, 80.0)):
        self.levels_x = tuple(levels_x)
        self.levels_y = tuple(levels_y)
        if len(set(self.levels_x)) != len(self.levels_x):
            raise ValueError("duplicate x levels")
        if len(set(self.levels_y)) != len(self.levels_y):
            raise ValueError("duplicate y levels")
        self.k1 = len(self.levels_x)
        self.k2 = len(self.levels_y)
        if self.k1 < 2 or self.k2 < 2:
            raise ValueError("need at least two levels per margin")
        # object arrays keep every level as given (numpy would turn mixed
        # types into strings and drop trailing NULs)
        self._lx = np.fromiter(self.levels_x, dtype=object)
        self._ly = np.fromiter(self.levels_y, dtype=object)
        for which, lv in (("x", self._lx), ("y", self._ly)):
            try:
                encode_tokens(lv, lv, which)
            except SupportError:
                raise ValueError(f"{which} levels must be mutually comparable, "
                                 "e.g. all strings or all numbers") from None
        d = self.k1 * self.k2 - 1
        self.bounds = np.vstack([_as_bounds(alpha_bounds, 1), _as_bounds(beta_bounds, d)])
        self.bounds.setflags(write=False)

    def encode_x(self, x) -> np.ndarray:
        return self._encode(x, self._lx, "x")

    def encode_y(self, y) -> np.ndarray:
        return self._encode(y, self._ly, "y")

    @staticmethod
    def _encode(tokens, levels, which) -> np.ndarray:
        return encode_tokens(np.asarray(tokens, dtype=object).ravel(), levels, which)

    def _cell_exponents(self, theta) -> np.ndarray:
        """(K1*K2,) exponent per flat cell; cell 0 carries only alpha."""
        e = np.empty(self.k1 * self.k2)
        e[0] = theta[0]
        e[1:] = theta[0] + theta[1:]
        return e

    def h(self, theta, x, y):
        theta = self._validate_theta(theta)
        ix = self.encode_x(x)
        iy = self.encode_y(y)
        if ix.size != iy.size:
            raise LengthMismatchError("x and y have different lengths")
        cells = ix * self.k2 + iy
        out = np.exp(self._cell_exponents(theta))[cells]
        return out if np.ndim(x) or np.ndim(y) else float(out[0])

    def h_grad(self, theta, x, y):
        hv = np.atleast_1d(np.asarray(self.h(theta, x, y)))
        ix = self.encode_x(x)
        iy = self.encode_y(y)
        cells = ix * self.k2 + iy
        grad = np.zeros((hv.size, self.dim))
        grad[:, 0] = hv
        sel = cells > 0
        grad[np.nonzero(sel)[0], cells[sel]] = hv[sel]
        if np.ndim(x) or np.ndim(y):
            return grad
        return grad[0]

    def prepare_sample(self, x, y):
        return self.encode_x(x), self.encode_y(y)

    def _build_cache(self, ix, iy):
        n = ix.size
        counts = np.zeros((self.k1, self.k2))
        np.add.at(counts, (ix, iy), 1.0)
        p = (counts / n).ravel()
        q = np.outer(counts.sum(axis=1), counts.sum(axis=0)).ravel() / n**2
        return {
            "pair_cells": np.nonzero(p > 0)[0],
            "pair_w": p[p > 0],
            "cross_cells": np.nonzero(q > 0)[0],
            "cross_w": q[q > 0],
            "p": p,
            "q": q,
            "n": n,
        }

    def _h_pair(self, theta, cache):
        e = self._cell_exponents(theta)
        return np.exp(e[cache["pair_cells"]]), cache["pair_w"]

    def _h_cross(self, theta, cache):
        e = self._cell_exponents(theta)
        return np.exp(e[cache["cross_cells"]]), cache["cross_w"]

    def _jac_cells(self, vec, h, cells) -> np.ndarray:
        u = vec * h
        jac = np.zeros(self.dim)
        jac[0] = u.sum()
        sel = cells > 0
        np.add.at(jac, cells[sel], u[sel])
        return jac

    def _jac_pair(self, vec, h, theta, cache):
        return self._jac_cells(vec, h, cache["pair_cells"])

    def _jac_cross(self, vec, h, theta, cache):
        return self._jac_cells(vec, h, cache["cross_cells"])

    def suggest_starts(self, cache):
        """Additively smoothed log-ratio point, clipped into the box.

        Starting from theta0 alone, quasi-Newton steps can strand
        low-count cells on the flat exp tail when the reference cell is
        empty (the normalizer must travel far and the stragglers' grad
        vanishes); a start near the saturated solution avoids the trek.
        """
        n = cache["n"]
        t = np.log(n * cache["p"] + 0.5) - np.log(n * cache["q"] + 0.5)
        theta = np.concatenate([[t[0]], t[1:] - t[0]])
        return [np.clip(theta, self.bounds[:, 0], self.bounds[:, 1])]

    def feature_pairs(self):
        """Indicator basis (on raw tokens) for cells (i, j) != (0, 0)."""
        pairs = []
        for i in range(self.k1):
            for j in range(self.k2):
                if i == 0 and j == 0:
                    continue

                def xi(x, i=i):
                    return (self.encode_x(x) == i).astype(float)

                def zeta(y, j=j):
                    return (self.encode_y(y) == j).astype(float)

                pairs.append((xi, zeta))
        return pairs

    def to_config(self) -> str:
        return "\n".join([
            "family=finite",
            "levels_x=" + ",".join(_fmt_level(t) for t in self.levels_x),
            "levels_y=" + ",".join(_fmt_level(t) for t in self.levels_y),
            "bounds=" + _fmt_bounds(self.bounds),
        ])


class FgmCopulaModel(RatioModel):
    """FGM copula density on rank-transformed margins; scalar parameter."""

    family = "fgm"
    has_alpha = False

    def __init__(self, theta_bounds=(-0.999, 0.999)):
        b = _as_bounds(theta_bounds, 1)
        if b[0, 0] < -1.0 or b[0, 1] > 1.0:
            raise ValueError("FGM parameter bounds must stay within [-1, 1]")
        self.bounds = b
        self.bounds.setflags(write=False)

    @staticmethod
    def _check_unit(t, name):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise SupportError(f"{name} must be margin-transformed into [0, 1]")
        return t

    def h(self, theta, u, v):
        theta = self._validate_theta(theta)
        u = self._check_unit(u, "u")
        v = self._check_unit(v, "v")
        out = 1.0 + theta[0] * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)
        return out if np.ndim(out) else float(out)

    def h_grad(self, theta, u, v):
        self._validate_theta(theta)
        u = self._check_unit(u, "u")
        v = self._check_unit(v, "v")
        g = (1.0 - 2.0 * u) * (1.0 - 2.0 * v)
        return np.asarray(g)[..., None]

    def prepare_sample(self, x, y):
        margins = rank_transform(x, y)
        return margins.u, margins.v

    def _build_cache(self, u, v):
        a = 1.0 - 2.0 * u
        b = 1.0 - 2.0 * v
        return {"a": a, "b": b, "paired": a * b, "n": u.size}

    def _h_pair(self, theta, cache):
        h = 1.0 + theta[0] * cache["paired"]
        return h, np.full(cache["n"], 1.0 / cache["n"])

    def _h_cross(self, theta, cache):
        h = 1.0 + theta[0] * np.outer(cache["a"], cache["b"])
        return h, 1.0 / cache["n"] ** 2

    def _jac_pair(self, vec, h, theta, cache):
        return np.array([vec @ cache["paired"]])

    def _jac_cross(self, vec, h, theta, cache):
        return np.array([cache["a"] @ vec @ cache["b"]])

    def to_config(self) -> str:
        return "\n".join(["family=fgm", "bounds=" + _fmt_bounds(self.bounds)])


@dataclass(frozen=True)
class EmpiricalMargins:
    """Rescaled empirical CDF values rank/(n+1), strictly inside (0, 1)."""

    u: np.ndarray
    v: np.ndarray


def rank_transform(x, y) -> EmpiricalMargins:
    """Mid-rank pseudo-observations ``rank/(n+1)`` for both margins."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise LengthMismatchError(f"len(x)={x.size} != len(y)={y.size}")
    if x.size < 2:
        raise LengthMismatchError("need at least two observations")
    n = x.size
    return EmpiricalMargins(rankdata(x, method="average") / (n + 1),
                            rankdata(y, method="average") / (n + 1))


def gaussian_model(alpha_bounds=(-10.0, 10.0), beta_bounds=(-10.0, 10.0)) -> ExpBilinearModel:
    """The quadratic-exponent model covering centered bivariate Gaussians.

    Basis terms x^2, y^2 and xy; the constrained equal-coefficient form of
    the centered Gaussian ratio is a subset of this three-parameter family.
    """
    return ExpBilinearModel(["x2", "y2", "xy"], alpha_bounds, beta_bounds)


def gaussian_ratio_coefficients(rho: float, sigma: float = 1.0) -> ParamVector:
    """Exact ratio parameters of a centered Gaussian with correlation rho."""
    if not -1.0 < rho < 1.0:
        raise ValueError("|rho| must be < 1")
    r2 = 1.0 - rho**2
    quad = -(rho**2) / (2.0 * sigma**2 * r2)
    return ParamVector(-0.5 * np.log(r2), (quad, quad, rho / (sigma**2 * r2)))


def h_eval(model: RatioModel, theta, x, y):
    """Operation-style alias for ``model.h``."""
    return model.h(theta, x, y)


def h_grad(model: RatioModel, theta, x, y):
    """Operation-style alias for ``model.h_grad``."""
    return model.h_grad(theta, x, y)


# -- plain-text model descriptors ---------------------------------------


def _fmt_level(tok) -> str:
    """Typed level: ``b:<0|1>``, ``i:<int>``, ``f:<float repr>`` or
    ``s:<percent-escaped>``."""
    if isinstance(tok, (bool, np.bool_)):
        return f"b:{int(tok)}"
    if isinstance(tok, (int, np.integer)):
        return f"i:{int(tok)}"
    if isinstance(tok, (float, np.floating)):
        return f"f:{float(tok)!r}"
    if isinstance(tok, str):
        return "s:" + quote(tok, safe="")
    raise ValueError(f"level {tok!r} is not serializable: use str, int, float or bool")


def _parse_level(text: str):
    kind, sep, body = text.partition(":")
    if sep and kind in _LEVEL_TYPES:
        return _LEVEL_TYPES[kind](body)
    return text   # untyped: a plain string, as written by hand


def _parse_bool(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"boolean level must be b:0 or b:1, got b:{text}")
    return text == "1"


_LEVEL_TYPES = {"b": _parse_bool, "i": int, "f": float, "s": unquote}


def _fmt_bounds(bounds: np.ndarray) -> str:
    return ",".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in bounds)


def _parse_bounds(text: str) -> np.ndarray:
    rows = []
    for chunk in text.split(","):
        lo, hi = chunk.split(":")
        rows.append((float(lo), float(hi)))
    return np.asarray(rows)


def model_to_config(model: RatioModel) -> str:
    """Serialize a model to the plain-text key=value descriptor format."""
    return model.to_config()


def model_from_config(text: str) -> RatioModel:
    """Rebuild a model from :func:`model_to_config` output."""
    fields = {}
    for raw in text.strip().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    family = fields.get("family")
    bounds = _parse_bounds(fields["bounds"]) if "bounds" in fields else None
    if family == "expbilinear":
        names = fields["basis"].split(",")
        if bounds is None:
            return ExpBilinearModel(names)
        if bounds.shape != (1 + len(names), 2):
            raise ValueError("bounds row count does not match model dimension")
        return ExpBilinearModel(names, alpha_bounds=bounds[0], beta_bounds=bounds[1:])
    if family == "finite":
        lx = [_parse_level(t) for t in fields["levels_x"].split(",")]
        ly = [_parse_level(t) for t in fields["levels_y"].split(",")]
        if bounds is None:
            return FiniteDiscreteModel(lx, ly)
        if bounds.shape != (len(lx) * len(ly), 2):
            raise ValueError("bounds row count does not match model dimension")
        return FiniteDiscreteModel(lx, ly, alpha_bounds=bounds[0], beta_bounds=bounds[1:])
    if family == "fgm":
        return FgmCopulaModel() if bounds is None else FgmCopulaModel(theta_bounds=bounds[0])
    raise ValueError(f"unknown model family {family!r}")
