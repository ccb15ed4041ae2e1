"""Semiparametric families for the density ratio dP/dP_perp.

Three families are provided:

* :class:`ExpBilinearModel` -- ``h_theta(x, y) = exp(alpha + sum_k beta_k
  xi_k(x) zeta_k(y))`` for univariate basis pairs ``(xi_k, zeta_k)``;
* :class:`FiniteDiscreteModel` -- the saturated exponential model on a
  known finite support, one log-ratio parameter per cell with the first
  cell's interaction folded into the normalizer: the exponential bilinear
  model on the cell indicators of the level codes;
* :class:`FgmCopulaModel` -- the Farlie-Gumbel-Morgenstern copula density
  ``1 + theta (1 - 2u)(1 - 2v)`` applied to rank-transformed margins.

Each family evaluates the two terms of the dual objective (see
:mod:`phimi.estimator`) itself: the exponential bilinear models, finite
ones included, in exponent space ``s = log h``, over distinct x × distinct
y values or, for a finite model, over the cells of its table; the copula
in ``h`` space, where ``h`` is in (0, 2).  The exponential bilinear terms
reach the basis only through three feature maps; the finite model
implements them cell by cell.  Where the exponent has one coupled term
``c u(x) v(y)``, the cross sums fold the rest of the exponent into
per-side weights and leave the kernel ``exp(gamma c u v)``: a truncated
series in ``c u v``, O((nx + ny) K) per distinct moment column, on large
blocks, the kernel itself on small ones; other bases sum the dense nx ×
ny block.

All models are immutable after construction and safe to share between
threads.  The parameter space is a box, so that the feasible set is
compact; evaluation outside the box raises :class:`BoundsError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence
from urllib.parse import quote, unquote

import numpy as np

from .errors import BoundsError, LengthMismatchError, SupportError

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
            return cls(float(arr[0]), tuple(arr[1:].tolist()))
        return cls(None, tuple(arr.tolist()))

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


# The registry's factors are the powers t^e of their argument, formed as
# 1, t and t t.  With every e at most 2, a product of two of them is
# t^(e1 + e2) formed the same way whichever two they are, up to the order
# of the factors; a product with 1 is the other factor.  Another basis
# function is only equal to itself.
_POWERS = {_one: 0, _ident: 1, _square: 2}


def _factor_key(f):
    """A registry factor's power of t, else a key of the callable's
    identity."""
    return next((e for g, e in _POWERS.items() if g is f), ("call", id(f)))


def _product_key(ka, kb):
    """Key of the product of factors keyed ``ka`` and ``kb``: products with
    one key are equal on every value."""
    if isinstance(ka, int) and isinstance(kb, int):
        return ka + kb
    if ka == 0 or kb == 0:
        return kb if ka == 0 else ka
    return tuple(sorted((ka, kb), key=repr))


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


def _check_exponent(divergence, s, ndim):
    """Rows of a stack (the axes of ``s`` before its last ``ndim``) where
    some ``exp(s)`` leaves the interior of ``dom phi``.  exp is monotone
    and the domain an interval: the extremes decide."""
    axes = tuple(range(-ndim, 0))
    with np.errstate(over="ignore"):
        extremes = np.exp([s.min(axis=axes), s.max(axis=axes)])
    return ~divergence.dom_phi_interior.holds(extremes).all(axis=0)


def _exp_block(divergence, s, shifted: bool):
    """``(exp(gamma s - shift), shift)`` with ``shift = max gamma s`` per
    block where ``shifted``, else ``(expm1(gamma s), 0)`` after the domain
    check on ``s``, NaN on the blocks of a stack that fail it; computed in
    place on the trailing two axes."""
    bad = False if shifted else _check_exponent(divergence, s, 2)
    if divergence.gamma != 1.0:
        s *= divergence.gamma
    if not shifted:
        np.expm1(s, out=s)
        s[bad] = np.nan
        return s, 0.0
    shift = s.max(axis=(-2, -1))
    return np.exp(np.subtract(s, shift[..., None, None], out=s), out=s), shift


def _dot(a, b):
    """Row-wise dot product over the last axis."""
    return (a * b).sum(axis=-1)


def _rowmul(a, b):
    """Row-wise vector-matrix product: ``a`` (..., k) by ``b`` (..., k, c)."""
    return (a[..., None, :] @ b)[..., 0, :]


# ExpBilinearModel._factored_sums, for one coupled term where |s|, |gamma s|
# <= _EXP_BOUND: its Taylor series where the distinct-value block has at
# least _LOWRANK_MIN (nx + ny) pairs, the exact kernel on smaller blocks
_LOWRANK_MIN = 44   # on square blocks the two are about even at 40-44 (KL), 48-52 (chi-square)
_EXP_BOUND = 700.0
_TERM_TOL = 2.0 ** -60   # the series' last term: this share of the largest
_MAX_TERMS = 120
_TERMS = np.arange(_MAX_TERMS + 1.0)
_SERIES_RTOL = 1e-13     # rounding bound per sum, as a share of its scale (_SETTLED_R)
_EPS = np.finfo(float).eps
# The largest |r| whose series of K terms passes the rounding bound for
# any weights (_settled), so that its two sums need not be formed: with
# |t|, |s| <= 1, the rounding sum is at most e^{|r|} S and the scale at
# least e^{-|r|} S, less a truncation tail below 2^-59 e^{|r|} S (S = sum
# |u| sum |v|), so _EPS K e^{2|r|} <= _SERIES_RTOL settles a row: |r| up to
# 1.56 at K = 20, 1.49 at K = 23, the largest a rate of its own K reaches.
# The margin covers the tail (below 1e-15 of the scale on such a row) and
# the rounding of both sums.
_SETTLED_R = 0.5 * np.log(_SERIES_RTOL * (1.0 - 1e-9) / (_EPS * np.maximum(_TERMS, 1.0)))
# A stack of samples holds as many rows as keep their caches plus one
# pass's copies of them within this many bytes (ExpBilinearModel._stack_size);
# the dense blocks, exact kernels and series' power rows of a stack are
# formed in groups of rows, each within it, one group at a time.  So a
# stack's fit peaks above it: 6.5-11.7 MiB under tracemalloc for 26-row
# Gaussian stacks at n = 500 (rho 0.1-0.9, gamma 1 and 2)
_STACK_BYTES = 2 ** 22


def _row_groups(rows, per_row):
    """Slices of ``rows`` rows, each holding at most ``_STACK_BYTES`` of
    ``per_row`` floats a row (at least one row)."""
    per = max(1, _STACK_BYTES // (8 * per_row))
    return [slice(i, i + per) for i in range(0, rows, per)]


def _flat_rows(index, width):
    """``index`` (R, ...) into rows of ``width`` entries as an index into
    their flat concatenation: row r's offset by ``width`` r."""
    return index + width * np.arange(len(index)).reshape((-1,) + (1,) * (index.ndim - 1))


def _gather(a, index):
    """``a[r, index[r]]`` for every row r of ``a`` (R, m, ...) and ``index``
    (R, k): one flat take along the first axis, (R, k, ...)."""
    r, m = a.shape[:2]
    return np.take(a.reshape((r * m,) + a.shape[2:]), _flat_rows(index, m), axis=0)


def _constant_columns(v):
    """Which columns of ``v`` (R, m, d) are constant along axis 1 on every
    row, (d,): compared on a (d, R, m) copy, where a reduction over the
    first two axes of ``v`` would run d wide."""
    vt = np.ascontiguousarray(v.transpose(2, 0, 1))
    return (vt == vt[..., :1]).reshape(len(vt), -1).all(axis=1)


def _compact(per, kept, counts):
    """Rows of ``per`` (R,) distinct values each, at least one, given
    row-major and in order by their values ``kept`` and ``counts``: the
    values padded to the widest row with copies of the row's last, (R, m),
    and the counts, zero on the padding, (R, m)."""
    drawn = np.arange(per.max()) < per[:, None]   # not padding
    values = np.repeat(kept[np.cumsum(per) - 1, None], drawn.shape[1], axis=1)
    values[drawn] = kept
    tallies = np.zeros(drawn.shape, dtype=np.intp)
    tallies[drawn] = counts
    return values, tallies


def _per_row(flat, rows, width):
    """How many of the ascending flat indices ``flat`` fall in each of
    ``rows`` rows of ``width`` entries, (rows,)."""
    bounds = np.searchsorted(flat, width * np.arange(rows + 1))
    return bounds[1:] - bounds[:-1]


def _runs(ranked):
    """The runs of equal entries in the sorted rows ``ranked`` (R, n):
    where each run starts, (R, n), and the runs' flat starts and lengths,
    row by row.  Distinct values, ranks and tied pairs derive from them."""
    r, n = ranked.shape
    new = np.empty((r, n), dtype=bool)
    new[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
    starts = np.flatnonzero(new)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = r * n - starts[-1]
    return new, starts, lengths


def _sorted_runs(t):
    """Each row of ``t`` (R, n) sorted by one argsort: the order as flat
    indices, the sorted rows flat and their :func:`_runs`."""
    order = _flat_rows(np.argsort(t, axis=1), t.shape[1]).ravel()
    ranked = np.take(t, order)
    return (order, ranked, *_runs(ranked.reshape(t.shape)))


def _distinct_rows(t):
    """Per row of a fresh sample ``t`` (R, n): its distinct values and
    counts (:func:`_compact`), and the value index of every entry, (R, n);
    one argsort per row.  Resamples of one sample share its distinct
    values and take :func:`_drawn_rows` instead."""
    order, ranked, new, starts, lengths = _sorted_runs(t)
    values, counts = _compact(_per_row(starts, *t.shape), ranked[starts], lengths)
    index = np.empty(t.size, dtype=np.intp)
    index[order] = np.cumsum(new, axis=1).ravel() - 1
    return values, index.reshape(t.shape), counts


def _mid_ranks(t):
    """The mid-ranks of each row of ``t`` (R, n), from 1: a run's first
    and last positions' mean plus one, in halves and so exact, which is
    what ``scipy.stats.rankdata`` gives row by row, bit for bit."""
    order, _, _, starts, lengths = _sorted_runs(t)
    ranks = np.empty(t.size)
    ranks[order] = np.repeat(starts + (lengths + 1) / 2, lengths)
    return _flat_rows(ranks.reshape(t.shape), -t.shape[1])   # less each row's flat offset


def _finite_floats(**arrays):
    """The named arrays as float arrays; raises ValueError naming the first
    entry that is not finite (a sort would rank a NaN)."""
    out = {name: np.asarray(v, dtype=float) for name, v in arrays.items()}
    for name, v in out.items():
        if not np.isfinite(v).all():
            at = np.argwhere(~np.isfinite(v))[0].tolist()
            raise ValueError(f"{name}{at} = {v[tuple(at)]} is not finite")
    return list(out.values())


def _drawn_rows(codes, levels):
    """:func:`_distinct_rows` of ``levels[codes]``, for codes (R, n) into
    sorted distinct values ``levels`` (K,): each row's drawn levels, their
    counts and the row-local index of every entry from one bincount over
    (row, level), no sort."""
    r, k = len(codes), levels.size
    cells = _flat_rows(codes, k)
    table = np.bincount(cells.ravel(), minlength=r * k)
    drawn = np.flatnonzero(table)
    per = _per_row(drawn, r, k)
    index = np.empty(r * k, dtype=np.intp)
    index[drawn] = np.arange(drawn.size) - np.repeat(np.cumsum(per) - per, per)   # in its row
    values, counts = _compact(per, levels[drawn % k], table[drawn])
    return values, np.take(index, cells), counts


def _tables(x, y, k1, k2):
    """The contingency tables of rows of level codes, ``x`` (R, n) into k1
    levels and ``y`` into k2: the counts, (R, k1, k2), by one bincount
    over (row, flat cell ``i k2 + j``)."""
    cells = _flat_rows(x * k2 + y, k1 * k2)
    return np.bincount(cells.ravel(), minlength=len(x) * k1 * k2).reshape(len(x), k1, k2)


def _power_rows(t, top):
    """Rows ``t^0 .. t^(top - 1)`` of each row of ``t`` (g, m), (g, top, m).
    Row k is row k - j times t^j, j the largest power of two not above k
    (rows j .. 2j - 1 in one product), whatever ``top``.  The rows are
    formed power-major, (top, g, m), so that each product reads and writes
    disjoint blocks (numpy copies overlapping inputs first), and returned
    as its (g, top, m) transpose."""
    p = np.empty((top, len(t), t.shape[-1]))
    p[0] = 1.0
    i = j = 1
    while i < top:
        end = min(2 * j, top)
        np.multiply(p[i - j:end - j], p[j - 1] * t, out=p[i:end])
        i, j = end, 2 * j
    return p.transpose(1, 0, 2)


def _power_sums(cache, side, w, top, guard):
    """``sum_i t_i^k w_i``, ``sum_i t_i^k |w_i|`` and ``sum_i |t_i^k w_i|``
    for k < ``top``, in this order on axis -3 of the (R, 3, top, c)
    result, from the scaled coupled column ``t`` (R, m) of one side
    (``scaled_x`` or ``scaled_y``) and weights ``w`` (R, m, c), one column
    per distinct moment column.  The last two, which only the rounding
    guard reads, are formed on the rows where ``guard`` holds and are 0 on
    the others.  A single sample is a stack of one.  The power rows ``t^k``
    are formed in each call (:func:`_stack_power_sums`), the guarded rows
    apart from the others, so that no power rows are copied."""
    t = cache["scaled_" + side]
    held = np.count_nonzero(guard)
    if held in (0, len(t)):
        return _stack_power_sums(t, w, top, held > 0)
    sums = np.empty(w.shape[:-2] + (3, top, w.shape[-1]))
    for rows, formed in ((~guard, False), (guard, True)):
        sums[rows] = _stack_power_sums(t[rows], w[rows], top, formed)
    return sums


def _stack_power_sums(t, w, top, guard: bool):
    """The sums of :func:`_power_sums` on every row of a stack ``t`` (g,
    m), ``w`` (g, m, c), the guard's on every row or on none, with the
    power rows formed in groups of rows (:func:`_row_groups`)."""
    sums = np.zeros(w.shape[:-2] + (3, top, w.shape[-1]))
    for rows in _row_groups(len(t), top * t.shape[-1]):
        p = _power_rows(t[rows], top)
        sums[rows, 0] = p @ w[rows]
        if guard:
            size = np.abs(w[rows])
            sums[rows, 1] = p @ size
            sums[rows, 2] = np.abs(p, out=p) @ size
        del p   # before the next group's rows are formed
    return sums


def _series_terms(r):
    """``r^k / k!`` for k <= ``_MAX_TERMS``, one row per entry of ``r``, and
    the number K of terms each takes: the smallest k > |r| whose term is at
    most ``_TERM_TOL`` of the largest, or 0 where none is."""
    r = np.asarray(r, dtype=float)[..., None]
    coef = np.cumprod(np.concatenate([np.ones(r.shape), r / _TERMS[1:]], axis=-1), axis=-1)
    mag = np.abs(coef)
    last = (_TERMS > np.abs(r)) & (mag <= _TERM_TOL * mag.max(axis=-1, keepdims=True))
    return coef, last.argmax(axis=-1) * last.any(axis=-1)


def _contract(block, xw, yw):
    """``xw' block yw`` on the trailing two axes: ``block`` (..., nx, ny)
    contracted with the y columns ``yw`` (..., ny, c), in slices of at most
    4 columns (OpenBLAS's threaded path for wider products can stall),
    then with the x columns ``xw`` (..., nx, c')."""
    rows = np.concatenate([block @ yw[..., j:j + 4] for j in range(0, yw.shape[-1], 4)], axis=-1)
    return np.swapaxes(xw, -1, -2) @ rows


def _series_sums(cache, r, u, v, lx, ly, shifted):
    """``sum_ij u_i v_j e^{r t_i s_j}`` (``e^{r t_i s_j} - 1`` unless
    ``shifted``) by the Taylor series ``sum_k r^k / k! U_k V_k``, ``U_k`` the
    x columns ``u`` (..., nx, c) weighted by ``t^k`` (``V_k`` likewise), with
    ``t``, ``s`` the cache's scaled coupled columns: O((nx + ny) K) per
    column.  ``U_k`` and ``V_k`` are formed on each side's distinct columns
    and gathered by ``lx``, ``ly`` before the products and the rounding
    bound.  NaN on a row where the series needs over ``_MAX_TERMS`` terms
    or its rounding bound (the series on absolute values) passes
    ``_SERIES_RTOL`` of a sum's scale ``sum |u_i v_j| e^{r t_i s_j}``.
    Only the rows that :func:`_settled` cannot pass whatever the weights
    form the bound and the scale; on the others they are 0 and pass."""
    coef, k = _series_terms(r)
    ok = k > 0
    top = max(k.max(), 1)
    # each row's series stops at its own K
    coef = np.where(np.arange(top) < k[..., None], coef[..., :top], 0.0)
    guard = ok & ~_settled(r, k)
    # U_k V_k, and the same for the scale and the rounding bound
    prods = (_power_sums(cache, "x", u, top, guard)[..., lx]
             * _power_sums(cache, "y", v, top, guard)[..., ly])
    if np.count_nonzero(guard):
        scale = _rowmul(coef, prods[..., 1, :, :])
        rounding = _rowmul(np.abs(coef), prods[..., 2, :, :])
        ok &= (_EPS * k[..., None] * rounding <= _SERIES_RTOL * scale).all(axis=-1)
    first = 0 if shifted else 1   # e^{r t s} - 1 drops the k = 0 term
    m = _rowmul(coef[..., first:], prods[..., 0, first:, :])
    m[~ok] = np.nan
    return m


def _settled(r, k):
    """Rows whose rounding guard in :func:`_series_sums` passes whatever the
    weights, from the scaled rate ``r`` and the series length ``k``: ``|r|
    <= _SETTLED_R[k]``."""
    return np.abs(r) <= _SETTLED_R[k]


def _kernel_sums(cache, r, u, v, lx, ly, shifted):
    """The sums of :func:`_series_sums` by the exact kernel: ``e^{r t s}``
    (``expm1`` unless ``shifted``) formed by one outer product and one
    exp in place, then contracted with ``u`` and ``v``; a stack in groups
    of rows whose kernels stay within ``_STACK_BYTES``."""
    t, s = cache["scaled_x"], cache["scaled_y"]
    kernel = np.exp if shifted else np.expm1
    m = np.empty(u.shape[:-2] + (len(lx),))
    for rows in _row_groups(len(t), t.shape[-1] * s.shape[-1]):
        block = np.einsum("...i,...j->...ij", r[rows][..., None] * t[rows], s[rows])
        m[rows] = _contract(kernel(block, out=block), u[rows], v[rows])[..., lx, ly]
        del block   # before the next group's is formed
    return m


class RatioModel:
    """Base class; concrete families implement the hooks below."""

    family: str
    has_alpha: bool
    sample_kind = "real"   # the PairedSample kind the model takes

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
    # Each family evaluates the dual objective's two terms itself, over the
    # cache of a stack of R samples of kind ``sample_kind`` (a single
    # sample's is a stack of one) that one builder makes for every context:
    # _stack_cache(x, y, levels=None), from (R, n) arrays of the family's
    # stack values or, given levels = (lx, ly), of codes into those sorted
    # distinct values.  _stack_values(x, y) maps raw samples to stack
    # values elementwise (a finite model's level codes), so a resample's
    # values, and its codes, are its sample's, indexed.  The terms take an
    # (R, dim) theta.  _paired_term is the mean of phi'(h) over the n
    # pairs, _cross_term the mean of g(h) = h phi'(h) - phi(h) over all n^2
    # cross pairs; both return (value, gradient or None unless need_grad),
    # one row per sample, the value NaN on a row where some h leaves the
    # interior of dom phi.

    def _stack_cache(self, x, y, levels=None):
        raise NotImplementedError

    def _paired_term(self, divergence, theta, cache, need_grad: bool):
        raise NotImplementedError

    def _cross_term(self, divergence, theta, cache, need_grad: bool):
        raise NotImplementedError

    def suggest_starts(self, cache) -> list[np.ndarray]:
        """Extra deterministic optimizer starts beyond theta0."""
        return []

    # A family whose dual has the normalizer alpha in closed form sets
    # _profile(divergence, beta, cache) -> (value, gradient, Hessian,
    # alpha*), M_n maximized over alpha, one row each for an (R, dim - 1)
    # beta; the estimator's one fit routine then fits beta by Newton on
    # every row at once, a single sample's as a stack of one and many
    # samples of one size in stacks of _stack_size(n, nx, ny) rows (at
    # most nx and ny distinct values a side); _take_rows(cache, rows) ->
    # the cache of some rows.
    _profile = None

    def _stack_values(self, x, y):
        return x, y

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

    def _exponent(self, beta, x, y):
        """``beta . f(x, y)`` at the points (x, y)."""
        return self._features(x, y) @ beta

    def h(self, theta, x, y):
        theta = self._validate_theta(theta)
        s = theta[0] + self._exponent(theta[1:], x, y)
        with np.errstate(over="ignore"):
            out = np.exp(s)
        return out if np.ndim(out) else float(out)

    def h_grad(self, theta, x, y):
        h = np.asarray(self.h(theta, x, y))
        feats = self._features(x, y)
        w = np.concatenate([np.ones(feats.shape[:-1] + (1,)), feats], axis=-1)
        return h[..., None] * w

    def _basis_rows(self, ux, uy):
        """``xi`` on distinct x values and ``zeta`` on distinct y values,
        (..., nx, d) and (..., ny, d); each basis function is called on the
        values as one flat array."""
        return (np.stack([p.xi(ux.ravel()).reshape(ux.shape) for p in self.basis], axis=-1),
                np.stack([p.zeta(uy.ravel()).reshape(uy.shape) for p in self.basis], axis=-1))

    # What the terms and the profile read of a stacked cache: these keys
    # row by row, and the split of the terms and n as a whole
    _PER_ROW = ("pw", "paired", "a", "b", "coupled_x", "coupled_y", "xim", "zem", "cross_mean",
                "lowrank", "scale", "scaled_x", "scaled_y")
    _SHARED = ("n", "x_only", "y_only", "coupled")

    def _stack_cache(self, x, y, levels=None):
        """Cache of the R samples ``(x_r, y_r)``, (R, n) arrays; with
        ``levels`` = (lx, ly), x and y are codes into those sorted distinct
        values (the resamples of one sample).

        Each row is built over its own sorted distinct values, padded to
        the widest row with copies of the row's largest value at count
        zero, and its own distinct pairs, padded with its last pair at
        weight zero: a padded entry repeats one the row drew, so it changes
        no shift, domain check or bound, and adds zero to every sum.  Codes
        find each row's values by one bincount (:func:`_drawn_rows`), fresh
        samples by one argsort per row (:func:`_distinct_rows`); both give
        equal arrays.  The stack keeps what the terms and the profile
        read (``_PER_ROW``).  The split into x-only, y-only and coupled
        terms is shared: a term is x-only (y-only) where it is on every
        row.  With one coupled term, each row takes the series or the exact
        kernel as its own sample would.
        """
        if levels is None:
            (ux, ix, cx), (uy, iy, cy) = _distinct_rows(x), _distinct_rows(y)
        else:
            (ux, ix, cx), (uy, iy, cy) = _drawn_rows(x, levels[0]), _drawn_rows(y, levels[1])
        n, ny = x.shape[1], uy.shape[1]
        # the n pairs sit on distinct value pairs (flat cells ix ny + iy)
        cells = np.sort(ix * ny + iy, axis=1)
        _, starts, lengths = _runs(cells)
        pairs, counts = _compact(_per_row(starts, *cells.shape), cells.ravel()[starts], lengths)
        cache = {"n": n, "cx": cx.astype(float), "cy": cy.astype(float),
                 "pw": counts / n}
        cache["pix"], cache["piy"] = np.divmod(pairs, ny)
        cache.update(self._design(*self._basis_rows(ux, uy), cache))
        return self._take_rows(cache, slice(None))

    def _stack_size(self, n, nx, ny):
        """Samples per stack, for samples of size n with at most nx and ny
        distinct values: the rows' caches plus one pass's copies of them
        stay within ``_STACK_BYTES``.  With d = dim - 1 and w the wider
        side's count of distinct moment columns, a row's cache
        (``_PER_ROW``) is the paired weights and values, n (d + 1), and per
        distinct value its side's x-only or y-only and coupled columns,
        scaled coupled column and distinct moment columns, at most d + 1 +
        w; one pass's copies are the paired exponent, weights and weighted
        values, n (d + 2), and per distinct value its side's exponent and
        weighted moment columns, w + 1.  The dense blocks, the exact
        kernels and the series' power rows are formed in groups of rows,
        each group within ``_STACK_BYTES`` of its own (:func:`_row_groups`)."""
        d, w = self.dim - 1, max(len(side[0]) for side in self._columns)
        return max(1, _STACK_BYTES // (8 * (n * (2 * d + 3) + (nx + ny) * (d + 2 * w + 2))))

    def _take_rows(self, cache, rows):
        """What the terms and the profile read of the rows ``rows`` (any
        index) of a stacked cache."""
        sub = {k: cache[k] for k in self._SHARED}
        sub.update((k, cache[k][rows]) for k in self._PER_ROW if k in cache)
        return sub

    def _design(self, xi, ze, cache):
        """Basis columns and their count-weighted moments; all but the
        split of the terms carry the leading row axis of a stack.  Moment
        columns repeat (``x^2 1`` and ``x x`` are one column), so each side
        keeps only its distinct ones (``xim``, ``zem``; see
        :attr:`_columns`).  With one coupled term ``u v``, ``u`` and ``v``
        scaled to max 1 (``scaled_x``, ``scaled_y``; ``scale`` the product
        of the divisors) for :meth:`_factored_sums`, and ``lowrank`` where
        the row's block is large enough for its series."""
        # A term whose zeta (xi) is constant on the sample adds a vector
        # over x (y) to the cross exponent; the other terms are coupled.
        x_only = _constant_columns(ze)   # on every row
        y_only = _constant_columns(xi) & ~x_only
        # count-weighted (1, xi, xi_k xi_l) and (1, zeta, zeta_k zeta_l);
        # first moments read the first 1 + d columns, second ones all
        (xim, xsum), (zem, ysum) = (self._moment_columns(xi, cache["cx"], 0),
                                    self._moment_columns(ze, cache["cy"], 1))
        coupled = np.flatnonzero(~(x_only | y_only))
        nx, ny = (cache["cx"] > 0).sum(axis=-1), (cache["cy"] > 0).sum(axis=-1)
        paired = _gather(xi, cache["pix"])
        paired *= _gather(ze, cache["piy"])
        design = {
            "xi": xi, "ze": ze,
            "paired": paired,
            "a": xi[..., x_only] * ze[..., :1, x_only], "x_only": np.flatnonzero(x_only),
            "b": xi[..., :1, y_only] * ze[..., y_only], "y_only": np.flatnonzero(y_only),
            "coupled": coupled, "coupled_x": xi[..., coupled], "coupled_y": ze[..., coupled],
            "xim": xim, "zem": zem,
            # mean of (1, xi_k zeta_k) over the n^2 cross pairs
            "cross_mean": xsum * ysum / cache["n"] ** 2,
            "lowrank": (coupled.size == 1) & (nx * ny >= _LOWRANK_MIN * (nx + ny)),
        }
        if coupled.size == 1:   # the coupled columns scaled to max |t| = 1
            cols = [design["coupled_x"][..., 0], design["coupled_y"][..., 0]]
            tops = [np.abs(t).max(axis=-1) for t in cols]
            # a stack may couple a term that is constant on some row
            tops = [np.where(m > 0.0, m, 1.0) for m in tops]
            design.update(scale=tops[0] * tops[1], scaled_x=cols[0] / tops[0][..., None],
                          scaled_y=cols[1] / tops[1][..., None])
        return design

    @cached_property
    def _pairs(self):
        return np.triu_indices(self.dim - 1)   # (k, l), k <= l: the second moments

    @cached_property
    def _factors(self):
        """Moment column j of ``(1, v, v_k v_l)`` is ``w_a[j] w_b[j]`` with
        ``w = (1, v)``: the index arrays (a, b)."""
        k, l = self._pairs
        first = np.arange(self.dim)
        return np.concatenate([0 * first, 1 + k]), np.concatenate([first, 1 + l])

    @cached_property
    def _columns(self):
        """Per side (xi, then zeta): the factors (a, b) of its distinct
        moment columns, each the first of the columns equal to it on every
        value (see :data:`_POWERS`), in order; each column's index among
        them; and how many of them the first j + 1 columns hold, for each
        j.  First appearances come first, so the distinct first-moment
        columns are a prefix of them."""
        a, b = self._factors
        sides = []
        for funcs in ([p.xi for p in self.basis], [p.zeta for p in self.basis]):
            keys = [0] + [_factor_key(f) for f in funcs]   # w_0 = 1
            first, index, widths = {}, [], []
            for i, j in zip(a, b):
                index.append(first.setdefault(_product_key(keys[i], keys[j]), len(first)))
                widths.append(len(first))
            keep = [index.index(u) for u in range(len(first))]
            sides.append((a[keep], b[keep], np.array(index), widths))
        return tuple(sides)

    def _moment_columns(self, v, counts, side):
        """The distinct count-weighted moment columns ``(1, v, v_k v_l)``,
        k <= l, of one side (0 for xi, 1 for zeta), (R, len(v), u), and
        the sums of the first-moment columns ``(1, v)`` over the values,
        (R, 1 + d), from the basis on the side's distinct values and
        counts, (R, len(v), d) and (R, len(v)).

        The columns are formed one column a row, so that the passes'
        products with them run along the values.  The sums run in order
        along the values (a cumulative sum), so a padded row sums exactly
        what its own sample sums.  ``w = (1, v)`` is never formed: its
        first column is the scalar 1, and 1 x is x."""
        a, b, index, widths = self._columns[side]
        w = [1.0] + [v[..., k] for k in range(v.shape[-1])]
        moments = np.empty((len(a),) + counts.shape)
        for j, (i, l) in enumerate(zip(a, b)):
            np.multiply(w[i], w[l], out=moments[j])
        moments *= counts
        sums = np.cumsum(moments[:widths[len(w) - 1]], axis=-1)[..., -1]
        return moments.transpose(1, 2, 0), sums.T[..., index[:len(w)]]

    def _moments(self, cache, cols):
        """The distinct x and y moment columns among the first ``cols``
        (views of the cache's), and the index of each of the first ``cols``
        moment columns among them."""
        (_, _, lx, wx), (_, _, ly, wy) = self._columns
        return (cache["xim"][..., :wx[cols - 1]], cache["zem"][..., :wy[cols - 1]],
                lx[:cols], ly[:cols])

    # The feature maps: the terms and the profile below reach the basis
    # only through these three, which a basis with structure may override.
    # Over a stacked cache, beta and theta carry the leading row axis.

    def _paired_exponent(self, beta, cache) -> np.ndarray:
        """``beta . f`` on the distinct value pairs of the sample."""
        return (cache["paired"] @ beta[..., None])[..., 0]

    def _pair_sums(self, w, cache):
        """``sum w`` over the distinct value pairs."""
        return w.sum(axis=-1)

    def _paired_moments(self, w, cache, second: bool = False):
        """``sum w f`` over the distinct value pairs and, if asked, ``sum w
        f f'``."""
        f = cache["paired"]
        first = (w[..., None, :] @ f)[..., 0, :]
        return first, ((np.swapaxes(f, -1, -2) * w[..., None, :]) @ f if second else None)

    def _cross_sums(self, divergence, theta, cache, second: bool, shifted: bool):
        """(sums of ``c_x c_y E (1, f)`` over the distinct-value block, of
        ``c_x c_y E f f'`` if ``second`` else None, shift), with ``E =
        exp(gamma s - shift)`` where ``shifted`` (no exp overflows), else
        ``E = expm1(gamma s)`` and shift 0, NaN sums on the rows where some
        ``exp(s)`` leaves dom phi.  One coupled term takes the factored sums
        of :meth:`_factored_sums`; several or none, and the rows it
        declines, the dense block (:meth:`_dense_sums`).  Both sum each
        side's distinct moment columns once and return sums over all of
        them."""
        d = self.dim - 1
        cols = len(self._factors[0]) if second else 1 + d
        out = (self._factored_sums(divergence.gamma, theta, cache, cols, shifted)
               if "scale" in cache else None)
        if out is None:
            m, shift = self._dense_sums(divergence, theta, cache, cols, shifted)
        else:
            m, shift = out
            declined = np.isnan(m[..., 0])
            if declined.any():
                m[declined], shift[declined] = self._dense_sums(
                    divergence, theta[declined], self._take_rows(cache, declined), cols, shifted)
        if not second:
            return m, None, shift
        k, l = self._pairs
        pairs = np.empty(m.shape[:-1] + (d, d))
        pairs[..., k, l] = pairs[..., l, k] = m[..., 1 + d:]
        return m[..., :1 + d], pairs, shift

    def _dense_sums(self, divergence, theta, cache, cols, shifted):
        """The sums of :meth:`_cross_sums` over the first ``cols`` moment
        columns and the shift, from the dense block ``exp(gamma s -
        shift)``, shifted by its largest entry, or ``expm1(gamma s)`` after
        its domain check: for bases with several or no coupled terms, and
        as the oracle of :meth:`_factored_sums`.  In groups of rows whose
        blocks stay within ``_STACK_BYTES``."""
        m, shift = np.empty((len(theta), cols)), np.empty(len(theta))
        for rows in _row_groups(len(theta), cache["a"].shape[-2] * cache["b"].shape[-2]):
            sub = self._take_rows(cache, rows)
            block, shift[rows] = _exp_block(divergence, self._cross_exponent(theta[rows], sub),
                                            shifted)
            m[rows] = self._cross_moments(block, sub, cols)
            del block   # before the next group's is formed
        return m, shift

    def _cross_parts(self, theta, cache):
        """The x-only part of the cross exponent, alpha included, and the
        y-only part, (..., nx) and (..., ny)."""
        beta = theta[..., None, 1:]
        return (theta[..., :1] + (beta[..., cache["x_only"]] * cache["a"]).sum(axis=-1),
                (beta[..., cache["y_only"]] * cache["b"]).sum(axis=-1))

    def _factored_sums(self, gamma, theta, cache, cols, shifted):
        """The sums of :meth:`_cross_sums` over the first ``cols`` moment
        columns and the shift, for a basis with one coupled term, without
        the dense block, or ``None``.

        With ``s_ij = a_i + b_j + c u_i v_j`` (alpha in ``a``; ``t``, ``s``
        the coupled columns ``u``, ``v`` scaled to max 1 and ``r = gamma c``
        for the scaled product), ``exp(gamma s_ij) = e^{gamma a_i} e^{gamma
        b_j} e^{r t_i s_j}``: the fast Gauss transform's factorization.  The
        first two factors weight each side's distinct moment columns,
        shifted by their largest exponent (``shift = max gamma a + max
        gamma b``, a bound on ``gamma s`` up to the kernel), and only the
        coupled kernel ``e^{r t s}`` is left.  A row whose block has at
        least ``_LOWRANK_MIN (nx + ny)`` pairs (``lowrank``) sums it by its
        truncated Taylor series (:func:`_series_sums`); smaller rows, and
        the rows whose series is declined (over ``_MAX_TERMS`` terms or
        past its rounding guard), form it exactly (:func:`_kernel_sums`).  Unshifted, ``e^{gamma s} - 1`` splits as
        ``A B + A + B`` plus the kernel's ``e^{r t s} - 1`` weighted by ``(1
        + A)(1 + B)``, with ``A``, ``B`` from ``expm1`` of ``gamma a``,
        ``gamma b``.  A row is declined where the bound ``max(1, |gamma|)
        (max |a| + max |b| + |c|)`` on ``|s|`` and ``|gamma s|`` passes
        ``_EXP_BOUND``: NaN sums on such rows, ``None`` where
        every row is declined.
        """
        a, b = self._cross_parts(theta, cache)
        c = theta[..., 1 + cache["coupled"][0]] * cache["scale"]
        ok = (max(1.0, abs(gamma)) * (np.abs(a).max(axis=-1) + np.abs(b).max(axis=-1) + np.abs(c))
              <= _EXP_BOUND)
        if not ok.any():
            return None
        xw, yw, lx, ly = self._moments(cache, cols)
        ga, gb = gamma * a, gamma * b
        if shifted:
            top_a, top_b = ga.max(axis=-1), gb.max(axis=-1)
            u = xw * np.exp(ga - top_a[..., None])[..., None]
            v = yw * np.exp(gb - top_b[..., None])[..., None]
            shift = top_a + top_b
        else:
            u, v, shift = xw * np.exp(ga)[..., None], yw * np.exp(gb)[..., None], 0.0 * c
        m, r = np.full(np.shape(ok) + (len(lx),), np.nan), gamma * c
        series = ok & cache["lowrank"]
        if series.any():
            at, sub = self._rows_of(series, cache)
            m[at] = _series_sums(sub, r[at], u[at], v[at], lx, ly, shifted)
        exact = ok & np.isnan(m[..., 0])   # the smaller blocks and the series declined
        if exact.any():
            at, sub = self._rows_of(exact, cache)
            m[at] = _kernel_sums(sub, r[at], u[at], v[at], lx, ly, shifted)
        if not shifted:
            # k = 0: (1 + A)(1 + B) - 1 = A B + A + B, with A, B from expm1
            a1, b1 = _rowmul(np.expm1(ga), xw)[..., lx], _rowmul(np.expm1(gb), yw)[..., ly]
            m += a1 * b1 + a1 * yw.sum(axis=-2)[..., ly] + xw.sum(axis=-2)[..., lx] * b1
        return m, shift

    def _rows_of(self, rows, cache):
        """The index of the rows where ``rows`` holds and the cache of
        them: ``...`` and the cache itself where it holds on every row."""
        return (..., cache) if rows.all() else (rows, self._take_rows(cache, rows))

    def _cross_exponent(self, theta, cache) -> np.ndarray:
        """``s_ij = alpha + sum_k beta_k xi_k(x_i) zeta_k(y_j)`` on distinct
        values, shape (..., nx, ny), built by broadcasting."""
        beta = theta[..., 1:]
        a, b = self._cross_parts(theta, cache)
        coupled = cache["coupled"]
        if coupled.size == 0:
            return a[..., :, None] + b[..., None, :]
        s = None
        for j, k in enumerate(coupled):
            u, v = cache["coupled_x"][..., j], cache["coupled_y"][..., j]
            term = (beta[..., k, None] * u)[..., :, None] * v[..., None, :]
            s = term if s is None else np.add(s, term, out=s)
        s += a[..., :, None]
        s += b[..., None, :]
        return s

    def _cross_moments(self, block, cache, cols):
        """Sums of ``c_x c_y block`` times the first ``cols`` moment columns
        ``(1, f, f_k f_l)`` over the distinct-value block: ``block``
        contracted with the distinct count-weighted ``xi`` and ``zeta``
        columns (:func:`_contract`), and each moment column read off its
        pair of them."""
        xim, zem, lx, ly = self._moments(cache, cols)
        return _contract(block, xim, zem)[..., lx, ly]

    def _paired_term(self, divergence, theta, cache, need_grad: bool):
        """Paired term in exponent space.

        With ``h = exp(s)``, ``phi'(h) = expm1((gamma - 1) s) / (gamma - 1)``
        (``s`` for KL) and ``h phi''(h) = exp((gamma - 1) s)``, which stays
        finite where ``h * h**(gamma - 2)`` would overflow.
        """
        s = theta[..., :1] + self._paired_exponent(theta[..., 1:], cache)
        bad = _check_exponent(divergence, s, 1)
        pw = cache["pw"]
        g1 = divergence.gamma - 1.0
        # M_n itself is infinite where a product overflows, NaN on the rows
        # out of the domain
        with np.errstate(over="ignore", invalid="ignore"):
            value = (self._pair_sums(pw * s, cache) if g1 == 0.0
                     else self._pair_sums(pw * np.expm1(g1 * s), cache) / g1)
            value[bad] = np.nan
            if not need_grad:
                return value, None
            e = pw * np.exp(g1 * s)
            return value, np.concatenate([self._pair_sums(e, cache)[..., None],
                                          self._paired_moments(e, cache)[0]], axis=-1)

    def _cross_term(self, divergence, theta, cache, need_grad: bool):
        """Cross term in exponent space, over distinct values.

        With ``h = exp(s)`` and the power kernel, ``g(h) = expm1(gamma s) /
        gamma`` (``s`` for gamma = 0) and ``dg/dtheta = exp(gamma s) (1,
        xi_k zeta_k)``.  ``M = expm1(gamma s)`` is summed once against
        ``(1, f)`` by :meth:`_cross_sums`, which also checks the domain: by
        the factored sums for one coupled term, else over the dense block.  The
        ``exp(gamma s) - M = 1`` part of the gradient is the cross mean of
        ``(1, f)``.
        """
        # where a product overflows, M_n is infinite and the point infeasible
        with np.errstate(over="ignore", invalid="ignore"):
            sums = self._cross_sums(divergence, theta, cache, False, False)[0]
        mean_w = cache["cross_mean"]
        g = divergence.gamma
        if g == 0.0:   # the sums of expm1(0) are 0, NaN on rows out of the domain
            return _dot(theta, mean_w) + sums[..., 0], (mean_w.copy() if need_grad else None)
        moments = sums / cache["n"] ** 2
        return moments[..., 0] / g, (moments + mean_w if need_grad else None)

    def _profile(self, divergence, beta, cache):
        """M_n maximized over alpha in closed form, with its beta derivatives.

        Let ``A`` be the paired mean of ``exp((gamma - 1) beta.f)`` and ``B``
        the cross mean of ``exp(gamma beta.f)``.  ``dM_n/dalpha = 0`` at
        ``e^alpha* = A / B``, a maximum in alpha for every gamma, where
        ``M_n = expm1(L) / (gamma (gamma - 1))`` with ``L = gamma log A +
        (1 - gamma) log B`` (KL: ``beta.mean f_p - log B``; KLm: ``-log A -
        beta.mean f_c``).  With ``E_A``, ``E_B`` the means under the weights
        that make up ``A`` and ``B`` and ``d = E_A f - E_B f``, the gradient
        is ``e^L d`` and the Hessian ``e^L (gamma (gamma - 1) d d' + (gamma -
        1) Cov_A f - gamma Cov_B f)``: concave for gamma in [0, 1].

        ``log A`` and ``log B`` are log-sum-exps shifted by the largest
        exponent (for ``B``, a bound on it where :meth:`_cross_sums` takes
        the factored sums of one coupled term), so no exp overflows.  Returns
        (value, gradient, Hessian, alpha*), one row each for a stack; a
        non-finite value means the profile overflows there.
        """
        g = divergence.gamma
        with np.errstate(over="ignore", invalid="ignore"):
            if g == 1.0:
                log_a, mean_a, cov_a = 0.0, self._paired_moments(cache["pw"], cache)[0], 0.0
            else:
                u = (g - 1.0) * self._paired_exponent(beta, cache)
                shift = u.max(axis=-1)
                w = cache["pw"] * np.exp(u - shift[..., None])
                total = self._pair_sums(w, cache)
                log_a = shift + np.log(total)
                mean_a, second = self._paired_moments(w / total[..., None], cache, second=True)
                cov_a = second - mean_a[..., :, None] * mean_a[..., None, :]
            if g == 0.0:
                log_b, mean_b, cov_b = 0.0, cache["cross_mean"][..., 1:], 0.0
            else:
                theta = np.concatenate([np.zeros(beta.shape[:-1] + (1,)), beta], axis=-1)
                moments, second, shift = self._cross_sums(divergence, theta, cache, True, True)
                total = moments[..., 0]
                log_b = shift + np.log(total / cache["n"] ** 2)
                mean_b = moments[..., 1:] / total[..., None]
                cov_b = second / total[..., None, None] - mean_b[..., :, None] * mean_b[..., None, :]
            big_l = g * log_a + (1.0 - g) * log_b
            if g == 1.0:
                value = _dot(beta, mean_a) - log_b
            elif g == 0.0:
                value = -log_a - _dot(beta, mean_b)
            else:
                value = np.expm1(big_l) / (g * (g - 1.0))
            scale = np.exp(big_l)[..., None]
            diff = mean_a - mean_b
            hess = scale[..., None] * (g * (g - 1.0) * diff[..., :, None] * diff[..., None, :]
                                       + (g - 1.0) * cov_a - g * cov_b)
            return value, scale * diff, hess, log_a - log_b

    def to_config(self) -> str:
        names = [p.name for p in self.basis]
        if any(n not in BASIS_REGISTRY for n in names):
            raise ValueError("only registry-named bases are serializable")
        return "\n".join([
            "family=expbilinear",
            "basis=" + ",".join(names),
            "bounds=" + _fmt_bounds(self.bounds),
        ])


def _code_indicator(code):
    """``1{c = code}`` as floats, on level codes ``c``."""
    def indicator(codes):
        return (np.asarray(codes) == code).astype(float)
    return indicator


class FiniteDiscreteModel(ExpBilinearModel):
    """Saturated exponential model on a known finite support.

    ``h_theta(a_i, b_j) = exp(alpha + beta_ij)`` with ``beta_11`` removed;
    free dimension ``1 + (K1 K2 - 1)``.  This is the exponential bilinear
    model on the cell indicators ``1{x = a_i} 1{y = b_j}``, (i, j) != (1,
    1), over level codes: category labels (strings or numbers, mutually
    comparable within each margin) are mapped to codes by
    :func:`encode_tokens`, once per context, stack or bootstrap (a
    resample's codes are its sample's, indexed).  The sample enters M_n
    only through its contingency table, which is the cache.  The
    exponent-space terms, the profiled Newton fit and stacking are
    inherited; the feature maps they use work cell by cell.

    The default box is wide: with empty cells the supremum sits at the
    boundary, and the box must leave the plug-in value reachable to well
    below the 1e-6 equivalence tolerance.
    """

    family = "finite"
    sample_kind = "categorical"

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
        # flat cell i K2 + j carries beta_(i K2 + j); cell 0 only alpha
        cells = [BasisPair(f"cell_{i}_{j}", _code_indicator(i), _code_indicator(j))
                 for i in range(self.k1) for j in range(self.k2) if i or j]
        super().__init__(cells, alpha_bounds, beta_bounds)

    def encode_x(self, x) -> np.ndarray:
        return encode_tokens(np.asarray(x, dtype=object).ravel(), self._lx, "x")

    def encode_y(self, y) -> np.ndarray:
        return encode_tokens(np.asarray(y, dtype=object).ravel(), self._ly, "y")

    def _cell_index(self, x, y):
        """Flat cell ``i K2 + j`` of every token pair."""
        ix, iy = self.encode_x(x), self.encode_y(y)
        if ix.size != iy.size:
            raise LengthMismatchError("x and y have different lengths")
        cells = ix * self.k2 + iy
        return cells if np.ndim(x) or np.ndim(y) else cells[0]

    def _features(self, x, y):
        return (self._cell_index(x, y)[..., None] == np.arange(1, self.dim)).astype(float)

    def _exponent(self, beta, x, y):
        return np.concatenate([[0.0], beta])[self._cell_index(x, y)]

    # The cells are disjoint, so the feature maps work cell by cell on the
    # table: O(K1 K2) per evaluation, where basis columns take O((K1
    # K2)^2) and their second moments O((K1 K2)^3).
    _PER_ROW = ("pw", "cw", "q", "cross_mean")
    _SHARED = ("n",)

    def _stack_values(self, x, y):   # the level codes of the tokens
        return self.encode_x(x).reshape(np.shape(x)), self.encode_y(y).reshape(np.shape(y))

    def _stack_cache(self, x, y, levels=None):
        """Cache of the R samples ``(x_r, y_r)``, (R, n) level codes or codes
        into the sorted codes ``levels`` = (lx, ly): each row's table
        (:func:`_tables`) as the joint mass ``pw`` per cell, the float
        product ``cw`` of its margins' counts, ``q = cw / n^2`` and the
        cross mean of ``(1, f)``, all (R, K1 K2)."""
        if levels is not None:
            x, y = levels[0][x], levels[1][y]
        n = x.shape[1]
        counts = _tables(x, y, self.k1, self.k2)
        cw = (counts.sum(axis=2, dtype=float)[:, :, None]
              * counts.sum(axis=1, dtype=float)[:, None, :]).reshape(len(x), -1)
        q = cw / n ** 2
        return {"n": n, "pw": counts.reshape(len(x), -1) / n, "cw": cw, "q": q,
                "cross_mean": np.concatenate([np.ones((len(x), 1)), q[:, 1:]], axis=1)}

    def _stack_size(self, n, nx, ny):
        """Samples per stack: the arrays a pass holds per row (about eight
        d × d in the profile and the Newton step, d = dim - 1, and eight
        over the cells) stay within ``_STACK_BYTES``, whatever the samples."""
        return max(1, _STACK_BYTES // (64 * ((self.dim - 1) ** 2 + self.dim)))

    @staticmethod
    def _cell_exponent(beta, w):
        """Each cell's parameter (cell 0 has none), (R, K1 K2); a cell of zero
        weight ``w`` takes that of its row's first cell of positive weight,
        so it changes no shift, bound or domain check."""
        s = np.concatenate([np.zeros(beta.shape[:-1] + (1,)), beta], axis=-1)
        first = np.take_along_axis(s, np.argmax(w > 0.0, axis=-1)[..., None], axis=-1)
        return np.where(w > 0.0, s, first)

    def _paired_exponent(self, beta, cache):
        return self._cell_exponent(beta, cache["pw"])

    def _paired_moments(self, w, cache, second=False):
        m = w[..., 1:]
        return m, (m[..., :, None] * np.eye(self.dim - 1) if second else None)

    def _cross_sums(self, divergence, theta, cache, second, shifted):
        cw = cache["cw"]
        s = theta[..., :1] + self._cell_exponent(theta[..., 1:], cw)
        block, shift = _exp_block(divergence, s.reshape(-1, self.k1, self.k2), shifted)
        m = block.reshape(cw.shape) * cw
        m[..., 0] = m.sum(axis=-1)
        return m, (m[..., 1:, None] * np.eye(self.dim - 1) if second else None), shift

    def suggest_starts(self, cache):
        """The plug-in supremum ``h = p / q`` per cell, clipped into the box
        (one row per row of a stack)."""
        p, q = cache["pw"], cache["q"]
        with np.errstate(divide="ignore", invalid="ignore"):
            # a cell with q = 0 has a level absent from the sample
            t = np.where(q > 0.0, np.log(p) - np.log(q), 0.0)
        b = self.bounds
        alpha = np.clip(t[..., :1], *b[0])
        return [np.concatenate([alpha, np.clip(t[..., 1:] - alpha, b[1:, 0], b[1:, 1])], axis=-1)]

    def feature_pairs(self):
        """The cell indicators on raw tokens."""
        return [(lambda x, xi=p.xi: xi(self.encode_x(x)),
                 lambda y, zeta=p.zeta: zeta(self.encode_y(y))) for p in self.basis]

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
        if not np.all((t >= 0.0) & (t <= 1.0)):   # NaN included
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

    # h = 1 + theta a b with |a|, |b| < 1 stays inside (0, 2), in dom phi,
    # so both terms are evaluated in h space.  a, b and their products
    # carry the leading row axis of a stack; theta is (R, 1).

    def _stack_cache(self, x, y, levels=None):
        """Cache of the R samples ``(x_r, y_r)``, (R, n) arrays: each row's
        margins (:func:`_margins`) as ``a = 1 - 2u``, ``b = 1 - 2v``.  Codes
        into sorted distinct values (``levels``) have the values' ranks."""
        n = x.shape[1]
        a, b = (1.0 - 2.0 * _margins(t) for t in (x, y))
        return {"a": a, "b": b, "paired": a * b, "w": np.full(n, 1.0 / n), "n": n}

    def _paired_term(self, divergence, theta, cache, need_grad: bool):
        h = 1.0 + theta * cache["paired"]
        w = cache["w"]
        # one dot product a row, as on a stack of one
        value = _rowmul(divergence.phi_prime(h), w[:, None])[..., 0]
        if not need_grad:
            return value, None
        return value, _rowmul(w * divergence.phi_second(h), cache["paired"][..., None])

    def _cross_term(self, divergence, theta, cache, need_grad: bool):
        a, b = cache["a"], cache["b"]
        h = 1.0 + theta[..., None] * (a[..., :, None] * b[..., None, :])
        w = 1.0 / cache["n"] ** 2
        value = (w * divergence.conj_of_prime(h)).sum(axis=(-2, -1))
        if not need_grad:
            return value, None
        grad = a[..., None, :] @ (w * h * divergence.phi_second(h)) @ b[..., :, None]
        return value, grad[..., 0]

    def to_config(self) -> str:
        return "\n".join(["family=fgm", "bounds=" + _fmt_bounds(self.bounds)])


@dataclass(frozen=True)
class EmpiricalMargins:
    """Rescaled empirical CDF values rank/(n+1), strictly inside (0, 1)."""

    u: np.ndarray
    v: np.ndarray


def _margins(t):
    """Pseudo-observations ``rank/(n+1)`` of each row of ``t`` (R, n >= 2)."""
    if t.shape[1] < 2:
        raise LengthMismatchError("need at least two observations")
    return _mid_ranks(t) / (t.shape[1] + 1)


def rank_transform(x, y) -> EmpiricalMargins:
    """Mid-rank pseudo-observations ``rank/(n+1)`` for both margins.
    Raises ValueError naming the first entry that is not finite."""
    x, y = (v.ravel() for v in _finite_floats(x=x, y=y))
    if x.size != y.size:
        raise LengthMismatchError(f"len(x)={x.size} != len(y)={y.size}")
    return EmpiricalMargins(_margins(x[None])[0], _margins(y[None])[0])


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
