"""Monte-Carlo power studies for the phi-MI independence tests.

A study draws ``reps`` samples per grid value of the family parameter,
applies each configured test with its calibration route, and tabulates
rejection frequencies.  Critical values are computed once per study:
exact chi-square quantiles for the finite family, the simulated Z'Z
limit law for the Gaussian family, and a single bootstrap on an
independence pilot sample for the bootstrap route.

A finite-family grid point is evaluated as one batch: its replicates
are drawn from their own streams, and each test's plug-in statistic is
computed for all of them at once on one (reps, K, K) count tensor.
Fitted families (Gaussian, FGM) run replicate by replicate, optionally
on ``threads`` worker threads; finite studies ignore ``threads``.

Re-running with an identical configuration (seed included) reproduces
the table bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from io import StringIO
from typing import Mapping

import numpy as np

from .asymptotics import chi2_quantile, covariances_under_h0, limit_quantile_ztz
from .divergence import DivergenceSpec
from .errors import ParseError, PhimiError, RouteMismatchError
from .estimator import ObjectiveContext, estimate, plugin_estimate
from .models import FgmCopulaModel, gaussian_model
from .samplers import (
    FgmSpec,
    FiniteMixtureSpec,
    GaussianSpec,
    sample_fgm,
    sample_finite,
    sample_gaussian,
)
from .testing import (
    BootstrapConfig,
    bootstrap_critical,
    kendall_test,
    pearson_test,
    spearman_test,
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

_BASELINES = {
    "pearson": pearson_test,
    "spearman": spearman_test,
    "kendall": kendall_test,
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
    moment_draws: int = 1_000_000
    ztz_draws: int = 10_000
    threads: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
        if self.reps < 100:
            raise ValueError("need at least 100 Monte-Carlo replicates")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "tests", tuple(self.tests))
        known = PHI_TESTS + BASELINE_TESTS
        for t in self.tests:
            if t not in known:
                raise ValueError(f"unknown test {t!r}; choose from {known}")
        if self.family == "finite" and any(t in BASELINE_TESTS for t in self.tests):
            raise ValueError("noncorrelation baselines need real-valued families")
        routes = dict(_DEFAULT_ROUTES[self.family])
        routes.update(self.calibration)
        for t in self.tests:
            if t in PHI_TESTS:
                route = routes[t]
                if route == "chisq" and self.family != "finite":
                    raise RouteMismatchError("chisq calibration requires the finite family")
                if route == "ztz" and (self.family != "gaussian" or t != "kl"):
                    raise RouteMismatchError("ztz calibration applies to KL on the Gaussian family")
                if route not in ("chisq", "ztz", "bootstrap"):
                    raise RouteMismatchError(f"unknown route {route!r}")
        object.__setattr__(self, "calibration", routes)


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


def _draw_sample(cfg: PowerStudyConfig, param: float, seed):
    if cfg.family == "finite":
        return sample_finite(FiniteMixtureSpec(cfg.k, param), cfg.n, seed)
    if cfg.family == "gaussian":
        return sample_gaussian(GaussianSpec(param, cfg.sigma), cfg.n, seed)
    return sample_fgm(FgmSpec(param), cfg.n, seed)


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
            sigma = cfg.sigma

            def margin(r, size, sigma=sigma):
                return sigma * r.standard_normal(size)

            cov = covariances_under_h0(gaussian_model(), margin, margin,
                                       m=cfg.moment_draws,
                                       seed=int(rng.integers(2**63)))
            crits[t] = limit_quantile_ztz(cov, cfg.alpha, n_draws=cfg.ztz_draws,
                                          seed=int(rng.integers(2**63)))
        else:
            pilot = _draw_sample(cfg, 0.0, int(rng.integers(2**63)))
            ctx = ObjectiveContext(_DIVERGENCES[t], _study_model(cfg), pilot)
            bs = BootstrapConfig(cfg.b_reps, cfg.alpha, int(rng.integers(2**63)))
            crits[t] = bootstrap_critical(ctx, bs)
    return crits


def _study_model(cfg: PowerStudyConfig):
    if cfg.family == "gaussian":
        return gaussian_model()
    if cfg.family == "fgm":
        return FgmCopulaModel()
    raise RouteMismatchError("finite family uses the plug-in statistic directly")


def _finite_rejections(cfg: PowerStudyConfig, param: float, rep_seqs,
                       crits: dict[str, float]) -> tuple[dict[str, int], int]:
    """All replicates of one grid point as one batch.

    Dual and plug-in estimates coincide on the saturated finite-discrete
    model, so each test's statistic is the plug-in one, for every
    replicate at once.
    """
    spec = FiniteMixtureSpec(cfg.k, param)
    # spawn(1)[0] is the sample stream a fitted replicate gets as spawn(2)[0]
    draws = [sample_finite(spec, cfg.n, seq.spawn(1)[0]) for seq in rep_seqs]
    rejections = {
        t: int(np.count_nonzero(
            2.0 * cfg.n * plugin_estimate(_DIVERGENCES[t], draws, spec.levels) > crits[t]))
        for t in cfg.tests
    }
    return rejections, len(draws)


def _one_replicate(cfg: PowerStudyConfig, param: float, seq,
                   crits: dict[str, float]) -> dict[str, bool]:
    s_sample, s_est = seq.spawn(2)
    sample = _draw_sample(cfg, param, s_sample)
    rejects: dict[str, bool] = {}
    for t in cfg.tests:
        if t in PHI_TESTS:
            ctx = ObjectiveContext(_DIVERGENCES[t], _study_model(cfg), sample)
            rejects[t] = 2.0 * cfg.n * estimate(ctx, seed=s_est).i_hat > crits[t]
        else:
            rejects[t] = _BASELINES[t](sample, cfg.alpha).reject
    return rejects


def _fitted_rejections(cfg: PowerStudyConfig, param: float, rep_seqs,
                       crits: dict[str, float]) -> tuple[dict[str, int], int]:
    """Replicate by replicate, dropping up to 2% that fail."""
    def job(seq):
        try:
            return _one_replicate(cfg, param, seq, crits)
        except PhimiError:
            return None

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(job, rep_seqs))
    else:
        results = [job(seq) for seq in rep_seqs]

    failures = sum(r is None for r in results)
    if failures > 0.02 * cfg.reps:
        raise PhimiError(
            f"{failures}/{cfg.reps} replicates failed at parameter {param}")
    valid = [r for r in results if r is not None]
    return {t: sum(r[t] for r in valid) for t in cfg.tests}, len(valid)


def run_power_study(cfg: PowerStudyConfig) -> PowerTable:
    """Estimate rejection frequencies over the parameter grid."""
    root = np.random.SeedSequence(cfg.seed)
    calib_seq, mc_seq = root.spawn(2)
    crits = _phi_critical_values(cfg, calib_seq)
    rejections = _finite_rejections if cfg.family == "finite" else _fitted_rejections

    grid_seqs = mc_seq.spawn(len(cfg.grid))
    rows: dict[str, list[PowerRow]] = {t: [] for t in cfg.tests}
    for param, gseq in zip(cfg.grid, grid_seqs):
        rejected, reps = rejections(cfg, param, gseq.spawn(cfg.reps), crits)
        for t in cfg.tests:
            rows[t].append(PowerRow(
                test=t,
                param=param,
                rejections=rejected[t],
                reps=reps,
                n=cfg.n,
                alpha=cfg.alpha,
            ))
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
