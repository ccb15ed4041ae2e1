"""Dual estimation of phi-mutual information.

The empirical dual objective for a ratio model ``h_theta`` and a
divergence kernel ``phi`` is

    M_n(theta) = (1/n) sum_i f_theta(x_i, y_i)
                 - (1/n^2) sum_i sum_j g_theta(x_i, y_j),

with ``f_theta = phi'(h_theta)`` and ``g_theta = h_theta phi'(h_theta) -
phi(h_theta)``; the double sum runs over all n^2 cross pairs including
i = j.  The mutual-information estimate is ``sup_theta M_n(theta)`` over
the model's box, attained at ``theta_hat``.  The model evaluates both
terms over a cache it builds once per :class:`ObjectiveContext`, a stack
of samples (a single sample's, a stack of one), at an (R, dim) theta.

:func:`estimate` fits exponential bilinear models, finite-discrete ones
included, by Newton's method on the profile of M_n in beta, with the
normalizer alpha in closed form, and checks the result with one full
evaluation of M_n; finite models start at their plug-in supremum.
Where that fails, where the model has more than ``_NEWTON_MAX_DIM``
parameters, and for the copula family, L-BFGS-B on M_n does the fit.
:func:`estimate_resamples` fits the resamples of one sample that a
bootstrap draws as two index matrices, :func:`estimate_samples` the
fresh samples of a power study's grid point: an exponential bilinear
model, finite ones included, fits them as stacks.  One fit routine runs
the lockstep Newton run and its acceptance test on a context's rows,
for :func:`estimate`'s stack of one and for each stack alike; a row that
fails goes on to L-BFGS-B on its own context, as its own
:func:`estimate` would.

For finite-discrete data the same maximization collapses to the direct
plug-in estimate; :func:`plugin_estimate` computes that independently
for one sample, :func:`plugin_statistics` for a batch of contingency
tables by one cell pass, which a power study's tests share, and both
serve as oracles for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .divergence import DivergenceSpec
from .errors import (
    ConjugateDomainError,
    DomainError,
    FoldContextError,
    LengthMismatchError,
    PhimiError,
    SupportError,
)
from .models import ParamVector, RatioModel, _finite_floats, _tables, encode_tokens

__all__ = [
    "PairedSample",
    "DualEstimate",
    "ObjectiveContext",
    "objective",
    "objective_grad",
    "objective_with_grad",
    "estimate",
    "estimate_resamples",
    "estimate_samples",
    "plugin_estimate",
    "plugin_statistics",
]


def _tokens(values) -> np.ndarray:
    """Categorical tokens as given.  An ndarray passes through; other input
    becomes an object array where numpy would turn tokens into strings of
    another value (numbers among strings, trailing NULs)."""
    if isinstance(values, np.ndarray):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind in "SU" and arr.tolist() != list(values):
        return np.asarray(values, dtype=object)
    return arr


@dataclass(frozen=True)
class PairedSample:
    """n paired observations, real-valued or categorical tokens."""

    x: np.ndarray
    y: np.ndarray
    kind: str = "real"

    def __post_init__(self):
        if self.kind not in ("real", "categorical"):
            raise ValueError(f"kind must be 'real' or 'categorical', got {self.kind!r}")
        if self.kind == "categorical":
            x, y = _tokens(self.x), _tokens(self.y)
        else:
            x, y = _finite_floats(x=self.x, y=self.y)
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
    method: str   # "newton" (profiled Newton) or "lbfgsb"


class ObjectiveContext:
    """Precomputed per-pair quantities for (divergence, model, samples): a
    stack of R samples of one size, one row each.

    Immutable; objective and gradient evaluations are pure functions of
    ``theta`` given the context and may run concurrently.  ``sample`` is
    one PairedSample, a stack of one, or a sequence of samples of one
    size, whatever the model (its ``_stack_cache``).  ``rows`` restricts
    both sums of a single sample to those pairs: a held-out fold, which
    may hold a single pair.  The objective terms and the profile take an
    (R, dim) theta and give one row per sample, NaN on rows where ``h``
    leaves the domain of phi.  ``sample`` is the one sample a context holds
    whole (``None`` on a fold and on a stack of several); ``resamples`` is
    R.
    """

    def __init__(self, divergence: DivergenceSpec, model: RatioModel, sample, rows=None):
        samples = [sample] if isinstance(sample, PairedSample) else list(sample)
        if any(s.kind != model.sample_kind for s in samples):
            raise SupportError(f"{model.family} models need a {model.sample_kind} sample")
        if len({s.n for s in samples}) != 1:
            raise LengthMismatchError("a stack needs one or more samples of one size")
        if rows is not None and len(samples) > 1:
            raise PhimiError(f"rows= selects a held-out fold of one sample, but {len(samples)} "
                             "samples were given")
        self.divergence, self.model = divergence, model
        x, y = np.stack([s.x for s in samples]), np.stack([s.y for s in samples])
        if rows is not None:
            x, y = x[:, rows], y[:, rows]
            if x.size == 0:
                raise PhimiError("rows= selects no pairs")
        self.sample = samples[0] if len(samples) == 1 and rows is None else None
        self.resamples, self.n = x.shape
        self._cache = model._stack_cache(*model._stack_values(x, y))

    @classmethod
    def _stacked(cls, divergence: DivergenceSpec, model: RatioModel, x, y,
                 levels=None) -> "ObjectiveContext":
        """The stack of the samples ``(x_r, y_r)``, (R, n) arrays of the
        model's stack values, or of codes into the sorted distinct stack
        values ``levels`` = (lx, ly), built without a PairedSample."""
        ctx = cls.__new__(cls)
        ctx.divergence, ctx.model, ctx.sample = divergence, model, None
        ctx.resamples, ctx.n = x.shape
        ctx._cache = model._stack_cache(x, y, levels)
        return ctx


def _terms(ctx: ObjectiveContext, theta, need_grad: bool):
    """Paired term, cross term and (if asked) the gradient of M_n at an
    (R, dim) ``theta``, one row per sample of the context."""
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


def _refuse_stack(ctx: ObjectiveContext, what: str) -> None:
    """Refuse a context that stacks more than one sample."""
    if ctx.resamples > 1:
        raise PhimiError(f"{what} takes a context of one sample, but this one stacks "
                         f"{ctx.resamples} samples; fit a stack with estimate_samples")


def _require_sample(ctx: ObjectiveContext, what: str) -> None:
    """Refuse a stack, and a ``rows=`` fold context, which holds no sample."""
    _refuse_stack(ctx, what)
    if ctx.sample is None:
        raise FoldContextError(f"{what} needs the whole sample, but this context holds only "
                               "a held-out fold of it (built with rows=)")


def _row_terms(ctx: ObjectiveContext, theta, need_grad: bool, what: str,
               error=ConjugateDomainError):
    """:func:`_terms` at a 1-D ``theta`` on a context of one sample: row 0
    of the terms at ``theta[None]``.  Raises ``error`` where the model
    marks the row NaN: some ``h`` leaves the domain of phi."""
    _refuse_stack(ctx, what)
    theta = ctx.model._validate_theta(theta)
    paired, cross, grad = (None if q is None else q[0] for q in _terms(ctx, theta[None], need_grad))
    if np.isnan(paired) or np.isnan(cross):
        raise error(np.nan, ctx.divergence.dom_phi_interior, what="h_theta")
    return paired, cross, grad


def objective(ctx: ObjectiveContext, theta) -> float:
    """Empirical dual objective M_n(theta) on a context of one sample.

    Raises :class:`ConjugateDomainError` when ``theta`` is infeasible for
    the divergence (the optimizer treats this as -inf).
    """
    paired, cross, _ = _row_terms(ctx, theta, False, "objective")
    value = paired - cross
    if not np.isfinite(value):
        raise ConjugateDomainError(value, ctx.divergence.dom_conj, what="M_n")
    return value


def objective_grad(ctx: ObjectiveContext, theta) -> np.ndarray:
    """Analytic gradient of M_n at theta."""
    return objective_with_grad(ctx, theta)[1]


def objective_with_grad(ctx: ObjectiveContext, theta):
    """One-pass value and gradient of M_n on a context of one sample."""
    paired, cross, grad = _row_terms(ctx, theta, True, "objective_with_grad")
    value = paired - cross
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ConjugateDomainError(value, ctx.divergence.dom_conj, what="M_n")
    return value, grad


def objective_terms(ctx: ObjectiveContext, theta):
    """(paired term, cross term) of M_n on a context of one sample, for
    diagnostics and tests; raises DomainError where some ``h`` leaves the
    domain of phi."""
    return _row_terms(ctx, theta, False, "objective_terms", DomainError)[:2]


def _projected_grad_norm(theta, grad, bounds, tol=1e-9):
    """Sup-norm of the maximization gradient projected on the box, per row."""
    at_lo = (theta <= bounds[:, 0] + tol) & (grad < 0.0)
    at_hi = (theta >= bounds[:, 1] - tol) & (grad > 0.0)
    return np.abs(np.where(at_lo | at_hi, 0.0, grad)).max(axis=-1, initial=0.0)


_NEWTON_PASSES = 20
_NEWTON_MAX_DIM = 256   # -H is eigendecomposed, O(dim^3) a pass
_HALVINGS = 60
_MAX_ITER = 500       # L-BFGS-B iterations per start
_GRAD_TOL = 1e-6      # converged: projected gradient sup-norm at most this
_MULTISTART = 5       # extra seeded L-BFGS-B starts on non-convergence
_RANK_TOL = 1e-10   # -H eigenvalues below this share of the largest are null


def _ascent_step(value, grad, hess):
    """Step, slope ``grad . step`` and whether the run has converged, for
    each row of ``value`` (R,), ``grad`` (R, d) and ``hess`` (R, d, d).

    Where ``-H`` is positive semidefinite, the Newton step on its range,
    so a direction in which the profile is flat (a basis term constant on
    both margins duplicates alpha) neither blocks nor blows up the step;
    the run converges at Newton decrement ``g'(-H)^+ g <= 1e-14 max(1,
    |M|)``.  Elsewhere (gamma outside [0, 1]) a gradient step, converged at
    ``max |g| <= 1e-10 max(1, |M|)``.
    """
    scale = np.maximum(1.0, np.abs(value))
    w, v = np.linalg.eigh(-hess)
    top = np.abs(w).max(axis=1)
    coef = np.divide((grad[:, None, :] @ v)[:, 0], w, out=np.zeros_like(w),
                     where=w > _RANK_TOL * top[:, None])
    step = (v @ coef[:, :, None])[:, :, 0]
    gradient = w[:, 0] < -_RANK_TOL * top   # not semidefinite
    if gradient.any():
        step[gradient] = grad[gradient]
    slope = (grad * step).sum(axis=1)   # the Newton decrement where semidefinite
    done = slope <= 1e-14 * scale
    if gradient.any():
        done[gradient] = np.abs(grad[gradient]).max(axis=1) <= 1e-10 * scale[gradient]
    return step, slope, done


def _profiled_newton(ctx: ObjectiveContext):
    """Newton's method on the profile of M_n in beta, from the box point
    nearest the beta of the model's first suggested start (one per row),
    or nearest beta = 0 where it suggests none; in lockstep over the rows
    of the context.

    The profile maximizes over alpha in closed form (see the model's
    ``_profile``).  Each step (:func:`_ascent_step`, one stacked ``eigh``)
    backtracks, at most ``_HALVINGS`` times, until it stays in the box and
    gains the Armijo share of its slope; every backtracking round takes
    one profiled pass over the rows still searching.  Returns the number
    of profiled passes and ``(alpha*, beta_hat)`` per row with alpha*
    clipped into the box, a NaN row where the pass cap is reached or no
    halving stays in the box.
    """
    model, div, cache = ctx.model, ctx.divergence, ctx._cache
    lo, hi = model.bounds[:, 0], model.bounds[:, 1]
    d = model.dim - 1
    starts = model.suggest_starts(cache)
    rows = ctx.resamples

    def profile(beta, idx):
        """Rows ``(value, alpha*, gradient, Hessian)`` of the profile, flat."""
        sub = cache if idx.size == rows else model._take_rows(cache, idx)   # idx ascending
        value, grad, hess, alpha = model._profile(div, beta, sub)
        return np.concatenate([value[:, None], alpha[:, None], grad, hess.reshape(-1, d * d)], 1)

    beta = np.broadcast_to(np.clip(starts[0][..., 1:] if starts else 0.0, lo[1:], hi[1:]),
                           (rows, d)).copy()
    state = profile(beta, np.arange(rows))
    passes = np.ones(rows, dtype=int)
    theta = np.full((rows, 1 + d), np.nan)
    live = np.flatnonzero(np.isfinite(state[:, 2:]).all(axis=1))
    # an unbounded profile may overflow; the pass cap ends such a run
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            now = state[live]
            step, slope, done = _ascent_step(now[:, 0], now[:, 2:2 + d],
                                             now[:, 2 + d:].reshape(-1, d, d))
            if done.any():
                end = live[done]
                theta[end] = np.column_stack([np.clip(state[end, 1], lo[0], hi[0]), beta[end]])
                live, step, slope = live[~done], step[~done], slope[~done]
            # line search over the rows ``todo`` still searching
            todo, moved, t = live, [], 1.0
            for _ in range(_HALVINGS):
                trial = beta[todo] + t * step
                inside = ((trial >= lo[1:]) & (trial <= hi[1:])).all(axis=1)
                keep = ~inside   # out of the box: halve again; in it with no pass left: stop
                go = inside & (passes[todo] < _NEWTON_PASSES)
                if go.any():
                    idx = todo[go]
                    passes[idx] += 1
                    new = profile(trial[go], idx)
                    ok = ((new[:, 0] >= state[idx, 0] + 1e-4 * t * slope[go])
                          & np.isfinite(new[:, 2:]).all(axis=1))
                    moved.append(idx[ok])
                    state[moved[-1]], beta[moved[-1]] = new[ok], trial[go][ok]
                    keep[go] = ~ok
                if not keep.any():
                    break
                todo, step, slope, t = todo[keep], step[keep], slope[keep], 0.5 * t
            live = np.sort(np.concatenate(moved)) if moved else todo[:0]
    return passes, theta


def _result(model, theta, value, pgnorm, method, evals) -> DualEstimate:
    return DualEstimate(
        theta_hat=model.param_vector(theta),
        i_hat=float(value),
        objective_evals=int(evals),
        converged=bool(pgnorm <= _GRAD_TOL),
        grad_norm=float(pgnorm),
        method=method,
    )


def _runs_newton(model: RatioModel) -> bool:
    """Whether the fit routine (:func:`_newton_fits`) runs Newton for ``model``."""
    return model._profile is not None and model.dim <= _NEWTON_MAX_DIM


def _newton_fits(ctx: ObjectiveContext) -> list:
    """Per row of the context: its ``newton`` fit, or the number of
    evaluations it took where that fails.

    Models with a ``_profile`` (exponential bilinear, finite-discrete
    included) and at most ``_NEWTON_MAX_DIM`` parameters run one lockstep
    profiled Newton run (:func:`_profiled_newton`) from the model's
    suggested start (a finite model's plug-in supremum), then one
    evaluation of M_n and its gradient at every row's ``(alpha*,
    beta_hat)``, alpha* clipped into its box, which gives ``i_hat`` and
    ``grad_norm``.  A row fails where Newton hits its pass cap or cannot
    step inside the box, the point leaves the domain of phi, the value is
    not finite or the projected gradient exceeds ``_GRAD_TOL``.  Every row
    of another model fails after no evaluation.
    """
    model = ctx.model
    if not _runs_newton(model):
        return [0] * ctx.resamples
    passes, theta = _profiled_newton(ctx)
    newton = ~np.isnan(theta[:, 0])
    if not newton.any():   # no point to evaluate
        return passes.tolist()
    value, grad = _evaluate(ctx, np.where(newton[:, None], theta, 0.0), need_grad=True)
    pgnorm = _projected_grad_norm(theta, grad, model.bounds)
    accept = newton & np.isfinite(value) & (pgnorm <= _GRAD_TOL)
    evals = passes + newton
    return [_result(model, theta[i], value[i], pgnorm[i], "newton", evals[i])
            if accept[i] else int(evals[i]) for i in range(len(theta))]


def estimate(ctx: ObjectiveContext, *, seed: int = 0) -> DualEstimate:
    """Maximize M_n over the model's box and return (theta_hat, I_hat).

    The context's one sample is a stack of one, fitted by the routine that
    fits stacks (:func:`_newton_fits`): its Newton fit stands
    (``method="newton"``) where it passes its acceptance test.

    Otherwise, and for the copula family (``method="lbfgsb"``):
    box-constrained quasi-Newton (L-BFGS-B) with the analytic gradient,
    started at the independence point theta0 = 0 (so the returned value
    is never below M_n(theta0) = 0 for exponential families), plus any
    deterministic warm starts the model suggests; the best final value
    wins.  On non-convergence, up to ``_MULTISTART`` extra seeded starts
    are tried; the result is returned either way, flagged through
    ``converged``.

    ``objective_evals`` counts the profiled passes and the full
    evaluations of M_n, Newton's included where L-BFGS-B takes over.
    Raises PhimiError on a context that stacks several samples (fit those
    with :func:`estimate_samples`).
    """
    _refuse_stack(ctx, "estimate")
    fit = _newton_fits(ctx)[0]
    return fit if isinstance(fit, DualEstimate) else _lbfgsb(ctx, seed, fit)


def _lbfgsb(ctx: ObjectiveContext, seed, evals: int) -> DualEstimate:
    """The L-BFGS-B fit of :func:`estimate` on a context of one sample,
    after ``evals`` evaluations that a failed Newton run took."""
    model = ctx.model
    bounds = model.bounds
    last_theta, last = None, None   # the latest evaluation, reused at res.x

    def at(theta):
        """M_n and its gradient at a 1-D theta: row 0 of the stack of one."""
        value, grad = _evaluate(ctx, theta[None], need_grad=True)
        return value[0], grad[0]

    def fun(theta):
        nonlocal evals, last_theta, last
        evals += 1
        last_theta, last = theta.copy(), at(theta)
        value, grad = last
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            return np.inf, np.zeros(model.dim)
        return -value, -grad

    options = {"maxiter": _MAX_ITER, "ftol": 1e-14, "gtol": 1e-9, "maxls": 60}
    scipy_bounds = [(lo, hi) for lo, hi in bounds]

    def run(x0):
        res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                       bounds=scipy_bounds, options=options)
        value, grad = last if np.array_equal(res.x, last_theta) else at(res.x)
        if not np.isfinite(value):
            return res.x, -np.inf, np.inf
        return res.x, value, _projected_grad_norm(res.x, grad, bounds)

    theta, value, pgnorm = run(model.theta0)
    for x0 in model.suggest_starts(ctx._cache):
        cand = run(x0[0])
        if cand[1] > value:
            theta, value, pgnorm = cand
    if pgnorm > _GRAD_TOL:
        rng = np.random.default_rng(seed)
        for _ in range(_MULTISTART):
            x0 = rng.uniform(bounds[:, 0], bounds[:, 1])
            cand = run(x0)
            if cand[1] > value:
                theta, value, pgnorm = cand
            if pgnorm <= _GRAD_TOL:
                break

    return _result(model, theta, value, pgnorm, "lbfgsb", evals)


def _stacked_fits(divergence, model, seeds, stack_values, sample, sizes) -> list:
    """Fits of the samples of one size n, one per seed in ``seeds``: those
    of ``estimate`` on each sample's own context with its seed, or
    ``None`` where that raises a :class:`PhimiError`.  ``stack_values(a,
    b)`` gives samples a to b - 1 as the arguments of
    :meth:`ObjectiveContext._stacked` after the model: two (b - a, n)
    arrays of its stack values, or of codes and their levels;
    ``sample(r)`` gives sample r as a PairedSample; ``sizes`` is n and
    bounds on every sample's distinct values on each side.

    A model for which the fit routine runs Newton fits them in stacks of
    ``_stack_size`` rows, each built from ``stack_values`` alone, by
    ``estimate``'s fit routine (:func:`_newton_fits`).  A row it fails has
    taken the path of its own sample's ``estimate``: it goes on with
    L-BFGS-B on its own context, counting the row's evaluations.  Other
    models (the copula), and the samples of a stack that cannot be built,
    are fitted one at a time.
    """
    def own(r, evals=None):
        try:
            ctx = ObjectiveContext(divergence, model, sample(r))
            return (estimate(ctx, seed=seeds[r]) if evals is None
                    else _lbfgsb(ctx, seeds[r], evals))
        except PhimiError:
            return None

    count = len(seeds)
    if not _runs_newton(model):
        return [own(r) for r in range(count)]
    fits, size = [], model._stack_size(*sizes)
    for a in range(0, count, size):
        b = min(a + size, count)
        try:
            ctx = ObjectiveContext._stacked(divergence, model, *stack_values(a, b))
        except PhimiError:
            fits += [own(r) for r in range(a, b)]
            continue
        fits += [fit if isinstance(fit, DualEstimate) else own(a + i, fit)
                 for i, fit in enumerate(_newton_fits(ctx))]
    return fits


def estimate_resamples(ctx: ObjectiveContext, ix, iy) -> list[DualEstimate]:
    """Fits of the resamples ``(x[ix[b]], y[iy[b]])`` of the context's
    sample, one per row b of the index matrices ``ix`` and ``iy`` (B, m):
    those of ``estimate`` on the b-th resample's own context with
    ``seed=b``.  A model with a Newton fit takes them in stacks.  Each
    side of the sample's stack values (a finite model's level codes) is
    encoded once by ``np.unique``, and a stack is built from those codes
    indexed by rows of ``ix`` and ``iy`` with no sort: a bincount over
    (row, level) a side gives each row's drawn values, or one over (row,
    cell) a finite model's tables.  Only a row that goes on to
    L-BFGS-B, and every row of a model without a Newton fit, gets a
    PairedSample.  See :func:`_stacked_fits`.  Refuses a stack or a fold
    context; raises LengthMismatchError unless the two matrices have one shape.
    """
    _require_sample(ctx, "estimate_resamples")
    s, model = ctx.sample, ctx.model
    ix, iy = np.asarray(ix), np.asarray(iy)
    if ix.ndim != 2 or ix.shape != iy.shape:
        raise LengthMismatchError(f"index matrices of shapes {ix.shape} and {iy.shape}")

    def sample(b):
        return PairedSample(s.x[ix[b]], s.y[iy[b]], s.kind)

    (lx, cx), (ly, cy) = (np.unique(v, return_inverse=True)
                          for v in model._stack_values(s.x, s.y))
    return _stacked_fits(ctx.divergence, model, range(len(ix)),
                         lambda a, b: (cx[ix[a:b]], cy[iy[a:b]], (lx, ly)), sample,
                         (ix.shape[1], lx.size, ly.size))


def estimate_samples(divergence: DivergenceSpec, model: RatioModel, samples,
                     seeds) -> list[DualEstimate | None]:
    """Fits of the samples ``samples``, all of one size: those of
    ``estimate(ObjectiveContext(divergence, model, s), seed=seed)`` for each
    sample ``s`` and its seed in ``seeds``, or ``None`` where that raises a
    :class:`PhimiError`.  A model with a Newton fit takes them in stacks;
    see :func:`_stacked_fits`.  Raises LengthMismatchError, before any
    fit, unless there is one seed per sample and the samples have one size.
    """
    samples, seeds = list(samples), list(seeds)
    if len(samples) != len(seeds):
        raise LengthMismatchError(f"{len(samples)} samples but {len(seeds)} seeds")
    if len({s.n for s in samples}) > 1:
        raise LengthMismatchError("the samples have more than one size")
    n = samples[0].n if samples else 1

    def stack_values(a, b):
        return model._stack_values(np.stack([s.x for s in samples[a:b]]),
                                   np.stack([s.y for s in samples[a:b]]))

    return _stacked_fits(divergence, model, seeds, stack_values, samples.__getitem__, (n, n, n))


def _plugin_cells(counts):
    """The cell pass of :func:`plugin_statistics` on the tables ``counts``
    (..., K1, K2): rows (..., 1, K1 K2) of the ratios ``p_xy / (p_x p_y)``,
    1 where ``p_x p_y = 0``, and columns (..., K1 K2, 1) of ``p_x p_y``."""
    p, = _finite_floats(counts=counts)
    if p.ndim < 2:
        raise ValueError(f"counts must have at least 2 dimensions, not {p.ndim}")
    total = p.sum(axis=(-2, -1), keepdims=True)
    if not ((p >= 0.0).all() and (total > 0.0).all()):
        neg = np.argwhere(p < 0.0)
        at = (neg if neg.size else np.argwhere(total[..., 0, 0] == 0.0))[0].tolist()
        raise ValueError(f"counts{at} = {p[tuple(at)]} is negative" if neg.size
                         else f"the table counts{at or ''} has total 0")
    p = p / total
    # slice additions in index order, the order np.sum takes on an axis shorter than 8
    px = sum((p[..., j:j + 1] for j in range(1, p.shape[-1])), p[..., :1])
    py = sum((p[..., i:i + 1, :] for i in range(1, p.shape[-2])), p[..., :1, :])
    q = px * py
    ratios = np.divide(p, q, out=np.ones_like(p), where=q > 0.0)
    cells = p.shape[-2] * p.shape[-1]   # explicit, so that no tables give no statistics
    return ratios.reshape(p.shape[:-2] + (1, cells)), q.reshape(p.shape[:-2] + (cells, 1))


def _plugin_product(divergence: DivergenceSpec, cells) -> np.ndarray:
    """Plug-in phi-MI from a cell pass, one dot product per table."""
    ratios, q = cells
    return (divergence.phi(ratios) @ q)[..., 0, 0]


def plugin_statistics(divergence: DivergenceSpec, counts) -> np.ndarray:
    """Plug-in phi-MI of every contingency table in ``counts`` (..., K1, K2).

    ``sum phi(p_xy / (p_x p_y)) p_x p_y`` per table.  A cell with an empty
    margin gets ratio 1 and contributes zero; an empty cell under a
    divergence with phi(0) = +inf (gamma <= 0) raises DomainError, and
    counts with fewer than 2 dimensions, a negative or non-finite entry or
    a table of total 0 raise ValueError naming the first such table or entry.
    Margins are np.sum's bit for bit for K1, K2 <= 7; wider tables' statistics
    are within ``16 eps max(1, S)`` of np.sum's, S the batch's largest.
    """
    return _plugin_product(divergence, _plugin_cells(counts))


def plugin_estimate(divergence: DivergenceSpec, sample: PairedSample, levels=None) -> float:
    """Direct plug-in phi-MI of the sample's empirical contingency table.

    ``levels`` is a pair of level arrays; by default the values observed.
    See :func:`plugin_statistics`.
    """
    if levels is None:
        try:
            levels = (np.unique(sample.x), np.unique(sample.y))
        except TypeError as exc:
            raise SupportError(f"tokens do not compare: {exc}") from None
    k1, k2 = (np.size(side) for side in levels)
    ix, iy = encode_tokens(sample.x, levels[0], "x"), encode_tokens(sample.y, levels[1], "y")
    counts = _tables(ix[None], iy[None], k1, k2)[0]
    return float(plugin_statistics(divergence, counts))
