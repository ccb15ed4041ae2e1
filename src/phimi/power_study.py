"""Monte-Carlo power studies for the phi-MI independence tests.

A study draws ``reps`` samples per grid value of the family parameter,
applies each configured test with its calibration route, and tabulates
rejection frequencies.  Critical values are computed once per study:
exact chi-square quantiles for the finite family, the Z'Z limit law for
the Gaussian family (exact moments of the normal margins, Monte-Carlo
quantile), and a single bootstrap on an independence pilot sample for
the bootstrap route.

A finite-family grid point draws all its replicates' contingency tables
from one generator, as one (reps, K, K) count tensor, and its tests
share one plug-in cell pass over all of them.  Fitted families
draw each replicate's sample from its own stream and fit each phi test's
replicates together (:func:`~phimi.estimator.estimate_samples`): the
Gaussian family's exponential bilinear model in stacks, the FGM copula
one fit at a time.  Each baseline tests a grid point's samples as one
stack, one row per replicate.
A configuration is checked before any draw, each grid value by its
family's sampler spec.

Re-running with an identical configuration (seed included) reproduces
the table bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import StringIO
from typing import Mapping

import numpy as np

from .asymptotics import chi2_quantile, covariances_under_h0, limit_quantile_ztz, normal_margin
from .divergence import DivergenceSpec
from .errors import ParseError, PhimiError, RouteMismatchError
from .estimator import ObjectiveContext, _plugin_cells, _plugin_product, estimate_samples
from .models import FgmCopulaModel, gaussian_model
from .samplers import (
    FgmSpec,
    FiniteMixtureSpec,
    GaussianSpec,
    sample_fgm,
    sample_finite_tables,
    sample_gaussian,
)
from .testing import (
    MIN_BASELINE_N,
    BootstrapConfig,
    bootstrap_critical,
    kendall_rejections,
    pearson_rejections,
    spearman_rejections,
)

__all__ = [
    "PowerStudyConfig",
    "PowerRow",
    "PowerTable",
    "run_power_study",
    "emit_results",
    "parse_results",
    "write_results",
]

FORMAT_HEADER = "phimi-format=1"
_CSV_COLUMNS = "test,param,power,se,rejections,reps,n,alpha"

PHI_TESTS = ("kl", "chisq")
BASELINE_TESTS = ("pearson", "spearman", "kendall")
FAMILIES = ("finite", "gaussian", "fgm")

_DEFAULT_ROUTES = {
    "finite": {"kl": "chisq", "chisq": "chisq"},
    "gaussian": {"kl": "ztz", "chisq": "bootstrap"},
    "fgm": {"kl": "bootstrap", "chisq": "bootstrap"},
}

_DIVERGENCES = {"kl": DivergenceSpec(1.0), "chisq": DivergenceSpec(2.0)}

# each takes a grid point's samples as two (reps, n) arrays and gives one
# decision per row, None where the baseline refuses the sample
_BASELINES = {
    "pearson": pearson_rejections,
    "spearman": spearman_rejections,
    "kendall": kendall_rejections,
}


@dataclass(frozen=True)
class PowerStudyConfig:
    family: str
    grid: tuple[float, ...]
    n: int
    reps: int
    alpha: float
    tests: tuple[str, ...]
    seed: int
    calibration: Mapping[str, str] = field(default_factory=dict)
    k: int = 2
    sigma: float = 1.0
    b_reps: int = 1000
    # ignored: normal moments are exact; kept only while the benchmark's
    # Gaussian config (perfbench/workloads.py) still passes it
    moment_draws: int = 1_000_000
    ztz_draws: int = 10_000

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
        if self.reps < 100:
            raise ValueError("need at least 100 Monte-Carlo replicates")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.n < 2:
            raise ValueError("need at least two observations per sample")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        for param in self.grid:
            self._spec(param)   # raises ValueError outside the family's range
        object.__setattr__(self, "tests", tuple(self.tests))
        if not self.tests or len(set(self.tests)) != len(self.tests):
            raise ValueError(f"tests {self.tests} must be one or more distinct names")
        known = PHI_TESTS + BASELINE_TESTS
        for t in self.tests:
            if t not in known:
                raise ValueError(f"unknown test {t!r}; choose from {known}")
        baselines = [t for t in self.tests if t in BASELINE_TESTS]
        if self.family == "finite" and baselines:
            raise ValueError("noncorrelation baselines need real-valued families")
        if baselines and self.n < MIN_BASELINE_N:
            raise ValueError(f"baseline tests {tuple(baselines)} need n >= {MIN_BASELINE_N}")
        for t in self.calibration:
            if t not in PHI_TESTS:
                raise ValueError(f"calibration for unknown phi test {t!r}; choose from {PHI_TESTS}")
        routes = dict(_DEFAULT_ROUTES[self.family])
        routes.update(self.calibration)
        for t in self.tests:
            if t in PHI_TESTS:
                route = routes[t]
                if route == "chisq" and self.family != "finite":
                    raise RouteMismatchError("chisq calibration requires the finite family")
                if route == "bootstrap" and self.family == "finite":
                    raise RouteMismatchError("finite studies use the plug-in statistic and "
                                             "the chisq route")
                if route == "ztz" and (self.family != "gaussian" or t != "kl"):
                    raise RouteMismatchError("ztz calibration applies to KL on the Gaussian family")
                if route not in ("chisq", "ztz", "bootstrap"):
                    raise RouteMismatchError(f"unknown route {route!r}")
        object.__setattr__(self, "calibration", routes)

    def _spec(self, param: float):
        """The sampler spec of the family at grid value ``param``."""
        if self.family == "finite":
            return FiniteMixtureSpec(self.k, param)
        if self.family == "gaussian":
            return GaussianSpec(param, self.sigma)
        return FgmSpec(param)


@dataclass(frozen=True)
class PowerRow:
    test: str
    param: float
    rejections: int
    reps: int
    n: int
    alpha: float

    @property
    def power(self) -> float:
        return self.rejections / self.reps

    @property
    def se(self) -> float:
        p = self.power
        return float(np.sqrt(p * (1.0 - p) / self.reps))


@dataclass(frozen=True)
class PowerTable:
    rows: tuple[PowerRow, ...]

    def power(self, test: str) -> dict[float, float]:
        return {r.param: r.power for r in self.rows if r.test == test}

    def se(self, test: str) -> dict[float, float]:
        return {r.param: r.se for r in self.rows if r.test == test}


_SAMPLERS = {"gaussian": sample_gaussian, "fgm": sample_fgm}


def _draw_sample(cfg: PowerStudyConfig, param: float, seed):
    return _SAMPLERS[cfg.family](cfg._spec(param), cfg.n, seed)


def _phi_critical_values(cfg: PowerStudyConfig, calib_seq) -> dict[str, float]:
    """One critical value per phi-MI test, fixed for the whole study."""
    crits: dict[str, float] = {}
    rng = np.random.default_rng(calib_seq)
    for t in cfg.tests:
        if t not in PHI_TESTS:
            continue
        route = cfg.calibration[t]
        if route == "chisq":
            crits[t] = chi2_quantile(1.0 - cfg.alpha, (cfg.k - 1) ** 2)
        elif route == "ztz":
            # skip the integer that once seeded sampled moments, so the
            # quantile keeps its seed and tables stay reproducible
            rng.integers(2**63)
            margin = normal_margin(cfg.sigma)
            cov = covariances_under_h0(gaussian_model(), margin, margin)
            crits[t] = limit_quantile_ztz(cov, cfg.alpha, n_draws=cfg.ztz_draws,
                                          seed=int(rng.integers(2**63)))
        else:
            pilot = _draw_sample(cfg, 0.0, int(rng.integers(2**63)))
            ctx = ObjectiveContext(_DIVERGENCES[t], _study_model(cfg), pilot)
            bs = BootstrapConfig(cfg.b_reps, cfg.alpha, int(rng.integers(2**63)))
            crits[t] = bootstrap_critical(ctx, bs)
    return crits


def _study_model(cfg: PowerStudyConfig):
    return gaussian_model() if cfg.family == "gaussian" else FgmCopulaModel()


def _finite_rejections(cfg: PowerStudyConfig, param: float, gseq,
                       crits: dict[str, float]) -> tuple[dict[str, int], int]:
    """All replicates of one grid point as one batch.

    The grid point's stream ``gseq`` draws every replicate's contingency
    table in one call.  Dual and plug-in estimates coincide on the
    saturated finite-discrete model, so each test's statistic is the
    plug-in one, for every table at once; the tests share one cell pass.
    """
    cells = _plugin_cells(sample_finite_tables(cfg._spec(param), cfg.n, cfg.reps, gseq))
    rejections = {
        t: int(np.count_nonzero(
            2.0 * cfg.n * _plugin_product(_DIVERGENCES[t], cells) > crits[t]))
        for t in cfg.tests
    }
    return rejections, cfg.reps


def _fitted_rejections(cfg: PowerStudyConfig, param: float, rep_seqs,
                       crits: dict[str, float]) -> tuple[dict[str, int], int]:
    """All replicates of one grid point, dropping up to 2% that fail.

    Each replicate draws its sample and its fit's seed from its own stream
    (``spawn(2)``).  Each test takes all the samples at once: a phi test
    fits them with :func:`~phimi.estimator.estimate_samples`, a baseline
    tests the stack of their x and of their y values, one row per sample.
    A replicate is dropped when any of its tests fails on it: a fit that
    raises :class:`PhimiError`, or a sample the baseline refuses.
    """
    streams = [seq.spawn(2) for seq in rep_seqs]
    samples = [_draw_sample(cfg, param, s_sample) for s_sample, _ in streams]
    rejects: dict[str, list] = {}
    for t in cfg.tests:
        if t in PHI_TESTS:
            fits = estimate_samples(_DIVERGENCES[t], _study_model(cfg), samples,
                                    [s_est for _, s_est in streams])
            rejects[t] = [None if f is None else 2.0 * cfg.n * f.i_hat > crits[t] for f in fits]
        else:
            rejects[t] = _BASELINES[t](np.array([s.x for s in samples]),
                                       np.array([s.y for s in samples]), cfg.alpha)
    valid = [r for r in range(len(samples)) if all(rejects[t][r] is not None for t in cfg.tests)]
    failures = len(samples) - len(valid)
    if failures > 0.02 * cfg.reps:
        raise PhimiError(
            f"{failures}/{cfg.reps} replicates failed at parameter {param}")
    return {t: sum(bool(rejects[t][r]) for r in valid) for t in cfg.tests}, len(valid)


def run_power_study(cfg: PowerStudyConfig) -> PowerTable:
    """Estimate rejection frequencies over the parameter grid."""
    root = np.random.SeedSequence(cfg.seed)
    calib_seq, mc_seq = root.spawn(2)
    crits = _phi_critical_values(cfg, calib_seq)

    grid_seqs = mc_seq.spawn(len(cfg.grid))
    rows: dict[str, list[PowerRow]] = {t: [] for t in cfg.tests}
    for param, gseq in zip(cfg.grid, grid_seqs):
        if cfg.family == "finite":
            rejected, reps = _finite_rejections(cfg, param, gseq, crits)
        else:
            rejected, reps = _fitted_rejections(cfg, param, gseq.spawn(cfg.reps), crits)
        for t in cfg.tests:
            rows[t].append(PowerRow(t, param, rejected[t], reps, cfg.n, cfg.alpha))
    ordered = tuple(row for t in cfg.tests for row in rows[t])
    return PowerTable(ordered)


# -- tabular output ---------------------------------------------------------


def emit_results(table: PowerTable, fmt: str = "csv") -> str:
    """Render a PowerTable as versioned CSV or an aligned text report.

    The CSV is long-format (one row per test and grid value), with power
    and its Monte-Carlo standard error at 4 decimal places; the raw
    rejection count makes the table reconstructible exactly.
    """
    if fmt == "csv":
        out = StringIO()
        out.write(FORMAT_HEADER + "\n")
        out.write(_CSV_COLUMNS + "\n")
        for r in table.rows:
            out.write(f"{r.test},{r.param!r},{r.power:.4f},{r.se:.4f},"
                      f"{r.rejections},{r.reps},{r.n},{r.alpha!r}\n")
        return out.getvalue()
    if fmt == "text":
        out = StringIO()
        out.write(FORMAT_HEADER + "\n")
        out.write(f"{'test':<10}{'param':>10}{'power':>10}{'se':>10}"
                  f"{'reps':>8}{'n':>7}{'alpha':>8}\n")
        for r in table.rows:
            out.write(f"{r.test:<10}{r.param:>10.4g}{r.power:>10.4f}{r.se:>10.4f}"
                      f"{r.reps:>8}{r.n:>7}{r.alpha:>8.4g}\n")
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def parse_results(text: str) -> PowerTable:
    """Inverse of csv :func:`emit_results`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError(f"missing {FORMAT_HEADER} header", line=1)
    if len(lines) < 2 or lines[1].strip() != _CSV_COLUMNS:
        raise ParseError("missing column header", line=2)
    rows = []
    for lineno, ln in enumerate(lines[2:], start=3):
        parts = ln.split(",")
        if len(parts) != 8:
            raise ParseError(f"expected 8 fields, got {len(parts)}", line=lineno)
        test, param, _power, _se, rejections, reps, n, alpha = parts
        try:
            rows.append(PowerRow(test, float(param), int(rejections),
                                 int(reps), int(n), float(alpha)))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return PowerTable(tuple(rows))


def write_results(table: PowerTable, path, fmt: str = "csv") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(emit_results(table, fmt))
