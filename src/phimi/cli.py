"""Command-line interface: estimate, test, bootstrap, select, power, limits.

Exit codes: 0 on success (including an accepted null -- the test decision
is data, not an error), 1 on usage errors, 2 on runtime errors.  Every
randomized subcommand either receives ``--seed`` or generates one and
prints it, so each run can be reproduced from its logged invocation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import secrets
import sys

import numpy as np

from .asymptotics import (chi2_quantile, chisq_df_finite, covariances_under_h0,
                          limit_quantile_ztz, normal_margin)
from .divergence import NAMED_GAMMAS, DivergenceSpec, from_name
from .errors import MissingValueError, ParseError, PhimiError
from .estimator import ObjectiveContext, PairedSample, estimate
from .models import (
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    gaussian_model,
    model_from_config,
)
from .power_study import FORMAT_HEADER, PowerStudyConfig, run_power_study, write_results
from .selection import CvConfig, cross_validate
from .testing import BootstrapConfig, bootstrap_statistics, test_independence


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):   # every subparser too: no flag matches by a prefix
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def ingest_csv(path: str, x_col: str, y_col: str, kind: str = "real") -> PairedSample:
    """Read two columns of a CSV file into a PairedSample.

    Raises ParseError (with the offending line number) for missing or
    duplicated columns or non-numeric or non-finite cells under
    kind="real", and MissingValueError for empty cells.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        cols = {}
        for name in (x_col, y_col):
            if name not in header:
                raise ParseError(f"column {name!r} not found in header {header}", line=1)
            if header.count(name) > 1:
                raise ParseError(f"column {name!r} appears {header.count(name)} times in "
                                 f"header {header}", line=1)
            cols[name] = header.index(name)
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= max(cols.values()):
                raise ParseError("row has too few fields", line=lineno)
            for name, values in ((x_col, xs), (y_col, ys)):
                cell = row[cols[name]].strip()
                if cell == "":
                    raise MissingValueError(f"empty {name!r} cell", line=lineno)
                if kind == "real":
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"non-numeric {name!r} value {cell!r}", line=lineno
                        ) from None
                    if not math.isfinite(value):
                        raise ParseError(f"non-finite {name!r} value {cell!r}", line=lineno)
                    values.append(value)
                else:
                    values.append(cell)
    if kind == "real":
        return PairedSample(np.asarray(xs), np.asarray(ys), kind="real")
    return PairedSample(np.asarray(xs, dtype=object), np.asarray(ys, dtype=object),
                        kind="categorical")


def _parse_divergence(args) -> DivergenceSpec:
    if getattr(args, "gamma", None) is not None:
        return DivergenceSpec(args.gamma)
    return from_name(getattr(args, "divergence", None) or "kl")


def _parse_model(spec: str, sample: PairedSample | None = None):
    name, _, detail = spec.partition(":")
    name = name.strip().lower()
    if name == "fgm":
        return FgmCopulaModel()
    if name == "expbilinear":
        if not detail:
            raise _UsageError("expbilinear needs basis names, e.g. expbilinear:x,y,xy")
        return ExpBilinearModel([b.strip() for b in detail.split(",")])
    if name == "gaussian":
        return gaussian_model()
    if name == "finite":
        if sample is None:
            raise _UsageError("finite model needs sample data to infer levels")
        levels_x = sorted(set(np.asarray(sample.x).tolist()))
        levels_y = sorted(set(np.asarray(sample.y).tolist()))
        return FiniteDiscreteModel(levels_x, levels_y)
    raise _UsageError(f"unknown model spec {spec!r}")


def _resolve_seed(args, out) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = secrets.randbits(32)
    print(f"seed={seed}", file=out)
    return seed


def _fmt(x) -> str:
    return repr(float(x))


def _bool(b) -> str:
    return "true" if b else "false"


def _add_data_flags(p: _Parser):
    p.add_argument("--csv", required=True, help="input CSV file")
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="y column name")
    p.add_argument("--kind", choices=["real", "categorical"], default="real")


def _add_div_flags(p: _Parser):
    p.add_argument("--divergence", choices=sorted(NAMED_GAMMAS), default=None)
    p.add_argument("--gamma", type=float, default=None,
                   help="power-family index (overrides --divergence)")


@functools.cache   # built once per process; nothing changes a parser after this
def build_parser() -> _Parser:
    parser = _Parser(prog="phimi",
                     description="Semiparametric phi-mutual-information "
                                 "estimation and independence testing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="dual estimate of phi-MI")
    _add_data_flags(p_est)
    _add_div_flags(p_est)
    p_est.add_argument("--model", required=True,
                       help="expbilinear:<basis names> | gaussian | finite | fgm")
    p_est.add_argument("--seed", type=int, default=None)

    p_test = sub.add_parser("test", help="independence test on S_n = 2n I_hat")
    _add_data_flags(p_test)
    _add_div_flags(p_test)
    p_test.add_argument("--model", required=True)
    p_test.add_argument("--route", choices=["ztz", "chisq", "bootstrap"], required=True)
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--b-reps", type=int, default=1000)
    p_test.add_argument("--seed", type=int, default=None)
    p_test.add_argument("--format", choices=["text", "csv"], default="text")
    p_test.add_argument("--out", default=None, help="also write the result here")

    p_boot = sub.add_parser("bootstrap", help="bootstrap critical value")
    _add_data_flags(p_boot)
    _add_div_flags(p_boot)
    p_boot.add_argument("--model", required=True)
    p_boot.add_argument("--alpha", type=float, default=0.05)
    p_boot.add_argument("--b-reps", type=int, default=1000)
    p_boot.add_argument("--seed", type=int, default=None)

    p_sel = sub.add_parser("select", help="k-fold cross-validated model selection")
    _add_data_flags(p_sel)
    _add_div_flags(p_sel)
    p_sel.add_argument("--candidates", default=None,
                       help="semicolon-separated model specs")
    p_sel.add_argument("--candidates-file", default=None,
                       help="file of model descriptors (key=value blocks "
                            "separated by blank lines)")
    p_sel.add_argument("--k", type=int, default=5)
    p_sel.add_argument("--seed", type=int, default=None)

    p_pow = sub.add_parser("power", help="Monte-Carlo power study from a config file")
    p_pow.add_argument("--config", required=True)
    p_pow.add_argument("--out", required=True)
    p_pow.add_argument("--format", choices=["csv", "text"], default="csv")
    p_pow.add_argument("--seed", type=int, default=None,
                       help="overrides the seed in the config file")

    p_lim = sub.add_parser("limits", help="asymptotic critical value")
    p_lim.add_argument("--alpha", type=float, default=0.05)
    p_lim.add_argument("--k1", type=int, default=None, help="finite-discrete levels of x")
    p_lim.add_argument("--k2", type=int, default=None, help="finite-discrete levels of y")
    p_lim.add_argument("--model", default=None,
                       help="expbilinear model spec for the ztz route")
    p_lim.add_argument("--margins", choices=["normal", "csv"], default="normal",
                       help="normal: N(0, sigma^2) margins, moments exact through "
                            "five Gauss-Hermite nodes; csv: the sample's margins, "
                            "exact over all n^2 pairs")
    p_lim.add_argument("--sigma", type=float, default=1.0)
    p_lim.add_argument("--csv", default=None)
    p_lim.add_argument("--x", default=None)
    p_lim.add_argument("--y", default=None)

    return parser


def _cmd_estimate(args, out) -> int:
    seed = _resolve_seed(args, out)
    sample = ingest_csv(args.csv, args.x, args.y, args.kind)
    model = _parse_model(args.model, sample)
    ctx = ObjectiveContext(_parse_divergence(args), model, sample)
    est = estimate(ctx, seed=seed)
    print(f"n={sample.n}", file=out)
    print(f"i_hat={_fmt(est.i_hat)}", file=out)
    pv = est.theta_hat
    if pv.alpha is not None:
        print(f"alpha={_fmt(pv.alpha)}", file=out)
    print("beta=" + ",".join(_fmt(b) for b in pv.beta), file=out)
    print(f"converged={_bool(est.converged)}", file=out)
    print(f"grad_norm={_fmt(est.grad_norm)}", file=out)
    print(f"objective_evals={est.objective_evals}", file=out)
    print(f"method={est.method}", file=out)
    return 0


def _format_test_result(res, fmt: str) -> str:
    p_val = "NA" if res.p_value is None else _fmt(res.p_value)
    if fmt == "csv":
        return (f"{FORMAT_HEADER}\n"
                "statistic,critical_value,p_value,reject,route,alpha\n"
                f"{_fmt(res.statistic)},{_fmt(res.critical_value)},{p_val},"
                f"{_bool(res.reject)},{res.route},{_fmt(res.alpha)}\n")
    return (f"statistic={_fmt(res.statistic)}\n"
            f"critical_value={_fmt(res.critical_value)}\n"
            f"p_value={p_val}\n"
            f"reject={_bool(res.reject)}\n"
            f"route={res.route}\n"
            f"alpha={_fmt(res.alpha)}\n")


def _cmd_test(args, out) -> int:
    seed = _resolve_seed(args, out)
    sample = ingest_csv(args.csv, args.x, args.y, args.kind)
    model = _parse_model(args.model, sample)
    ctx = ObjectiveContext(_parse_divergence(args), model, sample)
    # only the bootstrap route reads (and so validates) --b-reps
    boot = BootstrapConfig(args.b_reps, args.alpha, seed) if args.route == "bootstrap" else None
    res = test_independence(ctx, args.route, args.alpha, seed=seed, bootstrap=boot)
    text = _format_test_result(res, args.format)
    out.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _cmd_bootstrap(args, out) -> int:
    seed = _resolve_seed(args, out)
    sample = ingest_csv(args.csv, args.x, args.y, args.kind)
    model = _parse_model(args.model, sample)
    ctx = ObjectiveContext(_parse_divergence(args), model, sample)
    cfg = BootstrapConfig(args.b_reps, args.alpha, seed)
    draws = bootstrap_statistics(ctx, cfg)
    crit = float(np.quantile(draws, 1.0 - cfg.alpha, method="linear"))
    print(f"b_alpha={_fmt(crit)}", file=out)
    print(f"b_reps={cfg.b_reps}", file=out)
    print(f"replicate_mean={_fmt(draws.mean())}", file=out)
    print(f"replicate_sd={_fmt(draws.std(ddof=1))}", file=out)
    print(f"replicate_max={_fmt(draws.max())}", file=out)
    return 0


def _cmd_select(args, out) -> int:
    seed = _resolve_seed(args, out)
    sample = ingest_csv(args.csv, args.x, args.y, args.kind)
    if args.candidates_file:
        with open(args.candidates_file, encoding="utf-8") as fh:
            blocks = [b for b in fh.read().split("\n\n") if b.strip()]
        specs = [b.replace("\n", " ").strip() for b in blocks]
        models = [model_from_config(b) for b in blocks]
    elif args.candidates:
        specs = [s.strip() for s in args.candidates.split(";") if s.strip()]
        models = [_parse_model(s, sample) for s in specs]
    else:
        raise _UsageError("select needs --candidates or --candidates-file")
    cfg = CvConfig(models, _parse_divergence(args), k=args.k, seed=seed)
    report = cross_validate(sample, cfg)
    for i, (spec, score) in enumerate(zip(specs, report.scores)):
        flag = " (disqualified)" if i in report.disqualified else ""
        print(f"candidate_{i}={spec} score={_fmt(score)}{flag}", file=out)
    print(f"selected={report.selected}", file=out)
    print(f"selected_model={specs[report.selected]}", file=out)
    return 0


def _read_study_config(path: str) -> dict:
    """The ``[study]`` keys; ``;`` starts a comment, inline too."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ParseError(f"cannot read config file {path!r}")
    if "study" not in parser:
        raise ParseError("config file must contain a [study] section")
    return dict(parser["study"])


def _cmd_power(args, out) -> int:
    raw = _read_study_config(args.config)

    def take(key, default=None):
        """Remove and return a key; one without a default is required."""
        if key in raw:
            return raw.pop(key)
        if default is None:
            raise ParseError(f"[study] needs the key {key!r}")
        return default

    study = dict(
        family=take("family").strip(),
        grid=tuple(float(v) for v in take("grid").split(",")),
        n=int(take("n")),
        reps=int(take("reps")),
        alpha=float(take("alpha", "0.05")),
        tests=tuple(t.strip() for t in take("tests", "kl").split(",") if t.strip()),
        calibration={key.split(".", 1)[1]: raw.pop(key).strip()
                     for key in [k for k in raw if k.startswith("route.")]},
        k=int(take("k", "2")),
        sigma=float(take("sigma", "1.0")),
        b_reps=int(take("b_reps", "1000")),
    )
    seed = raw.pop("seed", None)
    if raw:
        raise ParseError(f"unknown [study] key {next(iter(raw))!r}")
    if args.seed is None and seed is not None:
        args.seed = int(seed)
    cfg = PowerStudyConfig(seed=_resolve_seed(args, out), **study)
    table = run_power_study(cfg)
    write_results(table, args.out, args.format)
    print(f"rows={len(table.rows)}", file=out)
    print(f"wrote={args.out}", file=out)
    return 0


def _cmd_limits(args, out) -> int:
    if args.k1 is not None or args.k2 is not None:
        if args.k1 is None or args.k2 is None:
            raise _UsageError("provide both --k1 and --k2 for the finite route")
        df = chisq_df_finite(args.k1, args.k2)
        crit = chi2_quantile(1.0 - args.alpha, df)
        print("route=chisq", file=out)
        print(f"df={df}", file=out)
        print(f"critical_value={_fmt(crit)}", file=out)
        return 0
    if args.model is None:
        raise _UsageError("limits needs either --k1/--k2 or --model")
    model = _parse_model(args.model)
    if args.margins == "csv":
        if not (args.csv and args.x and args.y):
            raise _UsageError("--margins csv needs --csv, --x and --y")
        sample = ingest_csv(args.csv, args.x, args.y, "real")
        marg_x, marg_y = np.asarray(sample.x), np.asarray(sample.y)
    else:
        marg_x = marg_y = normal_margin(args.sigma)
    cov = covariances_under_h0(model, marg_x, marg_y)
    crit = limit_quantile_ztz(cov, args.alpha)
    print("route=ztz", file=out)
    print(f"critical_value={_fmt(crit)}", file=out)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "test": _cmd_test,
    "bootstrap": _cmd_bootstrap,
    "select": _cmd_select,
    "power": _cmd_power,
    "limits": _cmd_limits,
}


def run(argv=None, out=None) -> int:
    """Parse and execute one invocation; raises on errors (see main)."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args, out)


def main(argv=None) -> int:
    try:
        return run(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PhimiError, OSError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its argument, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
