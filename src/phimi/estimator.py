"""Dual estimation of phi-mutual information.

The empirical dual objective for a ratio model ``h_theta`` and a
divergence kernel ``phi`` is

    M_n(theta) = (1/n) sum_i f_theta(x_i, y_i)
                 - (1/n^2) sum_i sum_j g_theta(x_i, y_j),

with ``f_theta = phi'(h_theta)`` and ``g_theta = h_theta phi'(h_theta) -
phi(h_theta)``; the double sum runs over all n^2 cross pairs including
i = j.  The mutual-information estimate is ``sup_theta M_n(theta)`` over
the model's box, attained at ``theta_hat``.

For finite-discrete data the same maximization collapses to the direct
plug-in estimate; :func:`plugin_estimate` computes that independently and
serves as an oracle for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .divergence import DivergenceSpec
from .errors import (
    ConjugateDomainError,
    DomainError,
    LengthMismatchError,
    SupportError,
)
from .models import FiniteDiscreteModel, ParamVector, RatioModel

__all__ = [
    "PairedSample",
    "DualEstimate",
    "ObjectiveContext",
    "objective",
    "objective_grad",
    "objective_with_grad",
    "estimate",
    "plugin_estimate",
]


@dataclass(frozen=True)
class PairedSample:
    """n paired observations, real-valued or categorical tokens."""

    x: np.ndarray
    y: np.ndarray
    kind: str = "real"

    def __post_init__(self):
        x = np.asarray(self.x)
        y = np.asarray(self.y)
        if self.kind not in ("real", "categorical"):
            raise ValueError(f"kind must be 'real' or 'categorical', got {self.kind!r}")
        if self.kind == "real":
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            for name, arr in (("x", x), ("y", y)):
                if not np.isfinite(arr).all():
                    i = np.flatnonzero(~np.isfinite(arr))[0]
                    raise ValueError(f"{name}[{i}] = {arr.flat[i]} is not finite")
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("x and y must be one-dimensional")
        if x.size != y.size:
            raise LengthMismatchError(f"len(x)={x.size} != len(y)={y.size}")
        if x.size < 2:
            raise ValueError("need at least two observations")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    def subset(self, idx) -> "PairedSample":
        return PairedSample(self.x[idx], self.y[idx], self.kind)


@dataclass(frozen=True)
class DualEstimate:
    """Maximizer and value of the empirical dual objective."""

    theta_hat: ParamVector
    i_hat: float
    objective_evals: int
    converged: bool
    grad_norm: float


class ObjectiveContext:
    """Precomputed per-pair quantities for one (divergence, model, sample).

    Immutable; objective and gradient evaluations are pure functions of
    ``theta`` given the context and may run concurrently.  ``rows``
    restricts both sums to those pairs of ``sample``: a held-out fold,
    which may hold a single pair.  Such a context has no ``sample``.
    """

    def __init__(self, divergence: DivergenceSpec, model: RatioModel,
                 sample: PairedSample, rows=None):
        if isinstance(model, FiniteDiscreteModel):
            if sample.kind != "categorical":
                raise SupportError("finite-discrete models need a categorical sample")
        elif sample.kind != "real":
            raise SupportError(f"{model.family} models need a real-valued sample")
        self.divergence = divergence
        self.model = model
        self.sample = sample if rows is None else None
        x, y = (sample.x, sample.y) if rows is None else (sample.x[rows], sample.y[rows])
        self.n = x.size
        px, py = model.prepare_sample(x, y)
        self._cache = model._build_cache(px, py)


def _terms(ctx: ObjectiveContext, theta, need_grad: bool):
    """Paired term, cross term and (if asked) the gradient of M_n."""
    div = ctx.divergence
    model = ctx.model
    cache = ctx._cache
    paired, paired_grad = model._paired_term(div, theta, cache, need_grad)
    cross, cross_grad = model._cross_term(div, theta, cache, need_grad)
    if not need_grad:
        return paired, cross, None
    return paired, cross, paired_grad - cross_grad


def _evaluate(ctx: ObjectiveContext, theta, need_grad: bool):
    paired, cross, grad = _terms(ctx, theta, need_grad)
    return paired - cross, grad


def objective(ctx: ObjectiveContext, theta) -> float:
    """Empirical dual objective M_n(theta).

    Raises :class:`ConjugateDomainError` when ``theta`` is infeasible for
    the divergence (the optimizer treats this as -inf).
    """
    theta = ctx.model._validate_theta(theta)
    try:
        value, _ = _evaluate(ctx, theta, need_grad=False)
    except DomainError as exc:
        raise ConjugateDomainError(exc.value, exc.interval, what="h_theta") from exc
    if not np.isfinite(value):
        raise ConjugateDomainError(value, ctx.divergence.dom_conj, what="M_n")
    return value


def objective_grad(ctx: ObjectiveContext, theta) -> np.ndarray:
    """Analytic gradient of M_n at theta."""
    return objective_with_grad(ctx, theta)[1]


def objective_with_grad(ctx: ObjectiveContext, theta):
    """One-pass value and gradient of M_n."""
    theta = ctx.model._validate_theta(theta)
    try:
        value, grad = _evaluate(ctx, theta, need_grad=True)
    except DomainError as exc:
        raise ConjugateDomainError(exc.value, exc.interval, what="h_theta") from exc
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ConjugateDomainError(value, ctx.divergence.dom_conj, what="M_n")
    return value, grad


def objective_terms(ctx: ObjectiveContext, theta):
    """(paired term, cross term) of M_n, for diagnostics and tests."""
    paired, cross, _ = _terms(ctx, ctx.model._validate_theta(theta), need_grad=False)
    return paired, cross


def _projected_grad_norm(theta, grad, bounds, tol=1e-9):
    """Sup-norm of the maximization gradient projected on the box."""
    g = grad.copy()
    at_lo = theta <= bounds[:, 0] + tol
    at_hi = theta >= bounds[:, 1] - tol
    g[at_lo & (g < 0.0)] = 0.0
    g[at_hi & (g > 0.0)] = 0.0
    return float(np.max(np.abs(g))) if g.size else 0.0


def estimate(ctx: ObjectiveContext, *, seed: int = 0, max_iter: int = 500,
             grad_tol: float = 1e-6, multistart: int = 5) -> DualEstimate:
    """Maximize M_n over the model's box and return (theta_hat, I_hat).

    Box-constrained quasi-Newton (L-BFGS-B) with the analytic gradient,
    started at the independence point theta0 = 0 (so the returned value
    is never below M_n(theta0) = 0 for exponential families), plus any
    deterministic warm starts the model suggests; the best final value
    wins.  On non-convergence, up to ``multistart`` extra seeded starts
    are tried; the result is returned either way, flagged through
    ``converged``.
    """
    model = ctx.model
    bounds = model.bounds
    evals = 0
    last_theta, last = None, None   # the latest evaluation, reused at res.x

    def evaluate(theta):
        try:
            return _evaluate(ctx, theta, need_grad=True)
        except DomainError as exc:
            return exc

    def fun(theta):
        nonlocal evals, last_theta, last
        evals += 1
        last_theta, last = theta.copy(), evaluate(theta)
        if isinstance(last, DomainError):
            return np.inf, np.zeros(model.dim)
        value, grad = last
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            return np.inf, np.zeros(model.dim)
        return -value, -grad

    options = {"maxiter": max_iter, "ftol": 1e-14, "gtol": 1e-9, "maxls": 60}
    scipy_bounds = [(lo, hi) for lo, hi in bounds]

    def run(x0):
        res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                       bounds=scipy_bounds, options=options)
        out = last if np.array_equal(res.x, last_theta) else evaluate(res.x)
        if isinstance(out, DomainError):
            return res.x, -np.inf, np.inf
        value, grad = out
        if not np.isfinite(value):
            return res.x, -np.inf, np.inf
        return res.x, value, _projected_grad_norm(res.x, grad, bounds)

    theta, value, pgnorm = run(model.theta0)
    for x0 in model.suggest_starts(ctx._cache):
        cand = run(x0)
        if cand[1] > value:
            theta, value, pgnorm = cand
    if pgnorm > grad_tol and multistart > 0:
        rng = np.random.default_rng(seed)
        for _ in range(multistart):
            x0 = rng.uniform(bounds[:, 0], bounds[:, 1])
            cand = run(x0)
            if cand[1] > value:
                theta, value, pgnorm = cand
            if pgnorm <= grad_tol:
                break

    return DualEstimate(
        theta_hat=model.param_vector(theta),
        i_hat=value,
        objective_evals=evals,
        converged=bool(pgnorm <= grad_tol),
        grad_norm=pgnorm,
    )


def plugin_estimate(divergence: DivergenceSpec, sample: PairedSample,
                    levels=None) -> float:
    """Direct plug-in phi-MI of the empirical contingency table.

    ``sum phi(p_xy / (p_x p_y)) p_x p_y`` over all cells of the support.
    Cells with an empty margin contribute zero; an empty cell under a
    divergence with phi(0) = +inf (gamma <= 0) raises DomainError.
    """
    if levels is None:
        levels_x = np.unique(np.asarray(sample.x))
        levels_y = np.unique(np.asarray(sample.y))
    else:
        levels_x, levels_y = (np.asarray(side) for side in levels)
    ix = _codes(sample.x, levels_x, "x")
    iy = _codes(sample.y, levels_y, "y")
    counts = np.zeros((levels_x.size, levels_y.size))
    np.add.at(counts, (ix, iy), 1.0)
    p = counts / sample.n
    q = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = q > 0.0
    ratios = p[mask] / q[mask]
    return float(divergence.phi(ratios) @ q[mask])


def _codes(values, levels, which):
    table = {tok: i for i, tok in enumerate(levels.tolist())}
    out = np.empty(np.asarray(values).size, dtype=np.intp)
    for pos, tok in enumerate(np.asarray(values).tolist()):
        try:
            out[pos] = table[tok]
        except KeyError:
            raise SupportError(f"observed {which} value {tok!r} not in levels") from None
    return out
