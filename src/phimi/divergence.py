"""Power-divergence kernels, their derivatives and convex conjugates.

The one-parameter power family indexed by ``gamma`` contains the named
divergences used throughout the package:

======== =======  ==========================  ===========================
name     gamma    kernel                      conjugate
======== =======  ==========================  ===========================
klm      0        -log x + x - 1              -log(1 - t)
kl       1        x log x - x + 1             exp(t) - 1
chisqm   -1       (x - 1)^2 / (2x)            1 - sqrt(1 - 2t)
chisq    2        (x - 1)^2 / 2               t^2/2 + t
hellinger 1/2     2 (sqrt(x) - 1)^2           2t / (2 - t)
======== =======  ==========================  ===========================

Every kernel is normalized so that ``phi(1) = phi'(1) = 0`` and
``phi''(1) = 1``.  All evaluation methods accept scalars or numpy arrays
and raise :class:`~phimi.errors.DomainError` when any entry leaves the
admissible interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Interval",
    "DivergenceSpec",
    "NAMED_GAMMAS",
    "from_name",
    "phi",
    "phi_prime",
    "phi_second",
    "phi_conj",
    "conj_of_prime",
]

# Exact-dispatch guard: gammas this close to 0 or 1 (but not equal) are
# rejected instead of being evaluated with the unstable general formula.
_GAMMA_GUARD = 1e-8

NAMED_GAMMAS = {
    "klm": 0.0,
    "kl": 1.0,
    "chisqm": -1.0,
    "chisq": 2.0,
    "hellinger": 0.5,
}


@dataclass(frozen=True)
class Interval:
    """A real interval with individually open or closed endpoints."""

    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def holds(self, x) -> np.ndarray:
        """Whether each entry of ``x`` lies in the interval."""
        x = np.asarray(x, dtype=float)
        lo_ok = x >= self.lo if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi if self.hi_closed else x < self.hi
        return lo_ok & hi_ok

    def contains(self, x) -> bool:
        return bool(np.all(self.holds(x)))

    def first_violation(self, x) -> float:
        """Some entry of ``x`` outside the interval (for error messages)."""
        x = np.asarray(x, dtype=float)
        bad = ~self.holds(x)
        return float(x[bad].flat[0]) if bad.any() else math.nan

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


_REALS = Interval(-math.inf, math.inf)
_POSITIVES = Interval(0.0, math.inf)
_NONNEGATIVES = Interval(0.0, math.inf, lo_closed=True)


@dataclass(frozen=True)
class DivergenceSpec:
    """A member ``phi_gamma`` of the power-divergence family.

    Parameters
    ----------
    gamma : float
        Family index.  Values within 1e-8 of 0 or 1 (but not exactly 0
        or 1) are rejected: only the exact family members are supported
        and the general formula is unstable there.
    """

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not math.isfinite(g):
            raise DomainError(g, _REALS, what="gamma")
        if g not in (0.0, 1.0) and (abs(g) < _GAMMA_GUARD or abs(g - 1.0) < _GAMMA_GUARD):
            raise DomainError(
                g, Interval(-math.inf, math.inf), what="gamma (too close to 0 or 1)"
            )
        object.__setattr__(self, "gamma", g)

    # -- domains ---------------------------------------------------------

    @property
    def dom_phi(self) -> Interval:
        g = self.gamma
        if g == 2.0:
            return _REALS
        if g > 0.0:
            return _NONNEGATIVES
        return _POSITIVES

    @property
    def dom_phi_interior(self) -> Interval:
        return _REALS if self.gamma == 2.0 else _POSITIVES

    @property
    def dom_conj(self) -> Interval:
        g = self.gamma
        if g in (1.0, 2.0):
            return _REALS
        edge = 1.0 / (1.0 - g)
        if g > 1.0:
            return Interval(edge, math.inf)
        if g > 0.0 or g == 0.0:
            return Interval(-math.inf, edge)
        # gamma < 0: the conjugate stays finite at the endpoint
        return Interval(-math.inf, edge, hi_closed=True)

    @property
    def name(self) -> str | None:
        for name, g in NAMED_GAMMAS.items():
            if g == self.gamma:
                return name
        return None

    # -- kernel ----------------------------------------------------------

    def phi(self, x):
        """Evaluate ``phi_gamma`` at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        self._check(x, self.dom_phi, "x")
        g = self.gamma
        if g == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                xlogx = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
            out = xlogx - x + 1.0
        elif g == 0.0:
            out = -np.log(x) + x - 1.0
        else:
            out = (np.power(x, g) - g * x + g - 1.0) / (g * (g - 1.0))
        return out if out.ndim else float(out)

    def phi_prime(self, x):
        """First derivative of the kernel on the interior of its domain."""
        x = np.asarray(x, dtype=float)
        self._check(x, self.dom_phi_interior, "x")
        g = self.gamma
        if g == 1.0:
            out = np.log(x)
        elif g == 0.0:
            out = 1.0 - 1.0 / x
        else:
            out = (np.power(x, g - 1.0) - 1.0) / (g - 1.0)
        return out if out.ndim else float(out)

    def phi_second(self, x):
        """Second derivative ``x**(gamma - 2)``."""
        x = np.asarray(x, dtype=float)
        self._check(x, self.dom_phi_interior, "x")
        out = np.power(x, self.gamma - 2.0)
        return out if out.ndim else float(out)

    # -- conjugate ---------------------------------------------------------

    def conj(self, t):
        """Convex conjugate ``phi*`` evaluated at ``t``."""
        t = np.asarray(t, dtype=float)
        self._check(t, self.dom_conj, "t")
        g = self.gamma
        if g == 1.0:
            out = np.expm1(t)
        elif g == 0.0:
            out = -np.log1p(-t)
        else:
            base = 1.0 + (g - 1.0) * t
            if g != 2.0:
                # round-off can push the closed endpoint a hair negative
                base = np.maximum(base, 0.0)
            out = (np.power(base, g / (g - 1.0)) - 1.0) / g
        return out if out.ndim else float(out)

    def conj_of_prime(self, x):
        """``x phi'(x) - phi(x)``, i.e. ``phi*(phi'(x))`` without conjugation.

        This is exactly the integrand ``g_theta`` of the dual objective
        evaluated at a density-ratio value ``x``.
        """
        x = np.asarray(x, dtype=float)
        self._check(x, self.dom_phi_interior, "x")
        g = self.gamma
        if g == 1.0:
            out = x - 1.0
        elif g == 0.0:
            out = np.log(x)
        else:
            # x phi'(x) - phi(x) collapses to (x^gamma - 1) / gamma
            out = (np.power(x, g) - 1.0) / g
        return out if out.ndim else float(out)

    # ----------------------------------------------------------------------

    def _check(self, arr, interval: Interval, what: str):
        if not interval.contains(arr):
            raise DomainError(interval.first_violation(arr), interval, what=what)

    def __str__(self) -> str:
        name = self.name
        tag = f" ({name})" if name else ""
        return f"phi_{self.gamma:g}{tag}"


def from_name(name: str) -> DivergenceSpec:
    """Look up a named divergence (kl, klm, chisq, chisqm, hellinger)."""
    key = name.strip().lower()
    if key not in NAMED_GAMMAS:
        raise KeyError(f"unknown divergence {name!r}; choose from {sorted(NAMED_GAMMAS)}")
    return DivergenceSpec(NAMED_GAMMAS[key])


# Functional aliases mirroring the operation-style API.

def phi(spec: DivergenceSpec, x):
    return spec.phi(x)


def phi_prime(spec: DivergenceSpec, x):
    return spec.phi_prime(x)


def phi_second(spec: DivergenceSpec, x):
    return spec.phi_second(x)


def phi_conj(spec: DivergenceSpec, t):
    return spec.conj(t)


def conj_of_prime(spec: DivergenceSpec, x):
    return spec.conj_of_prime(x)
