"""The benchmark's workloads: inputs from a seed, one call, output checks.

Each workload drives phimi through a public entry point
(``power_study.run_power_study`` or ``cli.run``).  The benchmark makes every
input from its ``--seed`` argument; the program receives only the generated
study configuration or CSV file and the command-line arguments.

Module attributes are looked up at call time (``power_study.run_power_study``
rather than an imported name), so the tracer's rebinding is seen.
"""

from __future__ import annotations

import io
import math
import os
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats as sps
from scipy.optimize import minimize

from phimi import cli, power_study

# Table 2 (finite mixture, K = 2, n = 30, alpha = 0.01) as pinned in the
# acceptance suite's criterion 04.
TABLE2 = {
    "kl": {0.0: 0.0123, 0.28: 0.1681, 0.48: 0.5690, 0.68: 0.9415},
    "chisq": {0.0: 0.0102, 0.28: 0.1433, 0.48: 0.5330, 0.68: 0.9288},
}

# A power must lie within this many binomial standard errors of its table
# value, the standard error taken at the table value and the study's reps.
POWER_SE_BOUND = 5.0

# Two-sided tail probability for the binomial bounds on a rejection count.
BINOM_TAIL = 1e-4

# Relative agreement between the CLI statistic and the reference solver.
STAT_RTOL = 1e-8

CSV_N = 200

# Run length of one call (phimi takes at least 100 reps per grid point).
GAUSS_REPS = 100
FINITE_REPS = 1000
# The CLI test runs on several CSVs of one seed, so that the work of a call
# (optimizer evaluations) varies less from seed to seed.
CLI_CSVS = 4
CLI_B_REPS = 125
CSV_RHO = 0.5


@dataclass
class CallResult:
    """What one workload call returned, read back after the clock stopped."""

    output: str
    dropped: int = 0
    error: str | None = None


@dataclass(frozen=True)
class Workload:
    """``prepare(seed, workdir, smoke)`` returns the inputs, with ``n`` and
    ``items`` (work items per call); ``call(inputs)`` is one timed call;
    ``check(inputs, result)`` lists what is wrong with its output.
    BENCHMARK.json and README.md say why each workload was chosen."""

    prepare: Callable
    call: Callable
    check: Callable


def input_properties(inputs, l2_bytes: int | None) -> dict:
    """Input properties a later claim about a workload may cite."""
    cross = inputs["n"] ** 2 * 8
    return {
        "n": inputs["n"],
        "cross_block_bytes_computed": cross,
        "l2_bytes": l2_bytes,
        "cross_block_over_l2": cross / l2_bytes if l2_bytes else None,
        **inputs.get("properties", {}),
    }


# -- power-study workloads ---------------------------------------------------


def _gauss_config(seed: int, smoke: bool):
    if smoke:
        return power_study.PowerStudyConfig(
            family="gaussian", grid=(0.0, 0.5), n=100, reps=100, alpha=0.05,
            tests=("kl", "kendall"), seed=seed, moment_draws=100_000, ztz_draws=2_000)
    return power_study.PowerStudyConfig(
        family="gaussian", grid=(0.0, 0.1), n=500, reps=GAUSS_REPS, alpha=0.05,
        tests=("kl", "kendall"), seed=seed)


def _table_text(table) -> str:
    """Stable text of a PowerTable, for the run-to-run identity check."""
    return "\n".join(f"{r.test},{r.param!r},{r.rejections},{r.reps}" for r in table.rows)


def _rows_from_text(text: str):
    """(test, param, rejections, reps) rows of ``_table_text`` or phimi CSV."""
    rows = []
    for line in text.splitlines():
        parts = line.split(",")
        if len(parts) == 4:
            test, param, rej, reps = parts
        elif len(parts) == 8 and parts[0] != "test":
            test, param, _power, _se, rej, reps = parts[:6]
        else:
            continue
        rows.append((test, float(param), int(rej), int(reps)))
    return rows


def _dropped(rows, items: int) -> int:
    """Replicates the study dropped: grid x reps minus the summed row reps."""
    by_test: dict[str, int] = {}
    for test, _param, _rej, r in rows:
        by_test[test] = by_test.get(test, 0) + r
    return max((items - got for got in by_test.values()), default=0)


def _prepare_gauss(seed, workdir, smoke):
    cfg = _gauss_config(seed, smoke)
    return {"cfg": cfg, "reps": cfg.reps, "n": cfg.n, "items": len(cfg.grid) * cfg.reps}


def _call_study(inputs) -> CallResult:
    cfg = inputs["cfg"]
    try:
        table = power_study.run_power_study(cfg)
    except Exception:  # a failed call is counted, not fatal to the benchmark
        return CallResult("", error=traceback.format_exc(limit=3))
    text = _table_text(table)
    return CallResult(text, dropped=_dropped(_rows_from_text(text), inputs["items"]))


def binomial_bounds(p: float, reps: int, tail: float = BINOM_TAIL) -> tuple[int, int]:
    """Smallest and largest rejection counts not rejected at ``tail`` per side."""
    lo = int(sps.binom.ppf(tail, reps, p))
    hi = int(sps.binom.isf(tail, reps, p))
    return lo, hi


def check_gauss(inputs, result: CallResult) -> list[str]:
    """Level at rho = 0 within binomial bounds of alpha; power above them at rho > 0.

    The second half catches an estimator that returns zero, which would
    pass a level check alone.
    """
    cfg = inputs["cfg"]
    problems = []
    rows = _rows_from_text(result.output)
    if len(rows) != len(cfg.grid) * len(cfg.tests):
        return [f"expected {len(cfg.grid) * len(cfg.tests)} rows, got {len(rows)}"]
    for test, param, rej, reps in rows:
        lo, hi = binomial_bounds(cfg.alpha, reps)
        if param == 0.0 and not lo <= rej <= hi:
            problems.append(f"{test} at rho=0: {rej}/{reps} rejections outside [{lo}, {hi}]")
        if param != 0.0 and rej <= hi:
            problems.append(f"{test} at rho={param}: {rej}/{reps} rejections not above {hi}")
    return problems


def check_power_table(table: dict, inputs, result: CallResult) -> list[str]:
    """Every (test, param) power within POWER_SE_BOUND standard errors."""
    reps = inputs["reps"]
    rows = {(t, p): (rej, r) for t, p, rej, r in _rows_from_text(result.output)}
    problems = []
    for test, ref_row in table.items():
        for param, ref in ref_row.items():
            if (test, param) not in rows:
                problems.append(f"missing row {test} at {param}")
                continue
            rej, r = rows[(test, param)]
            bound = POWER_SE_BOUND * math.sqrt(ref * (1.0 - ref) / reps)
            power = rej / r if r else float("nan")
            if not abs(power - ref) <= bound:
                problems.append(f"{test} at {param}: power {power:.4f} not within "
                                f"{bound:.4f} of {ref}")
    if len(rows) != sum(len(v) for v in table.values()):
        problems.append(f"unexpected rows: {sorted(rows)}")
    return problems


# -- CLI workloads -----------------------------------------------------------


def _run_cli(argv) -> tuple[int, str, str | None]:
    out = io.StringIO()
    try:
        rc = cli.run(argv, out)
    except Exception:  # the CLI's main maps these to exit codes 1 and 2
        return 2, out.getvalue(), traceback.format_exc(limit=3)
    return rc, out.getvalue(), None


def _prepare_finite(seed, workdir, smoke):
    reps = 100 if smoke else FINITE_REPS
    grid = tuple(TABLE2["kl"])
    path = os.path.join(workdir, "study.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[study]\nfamily = finite\nk = 2\ngrid = {', '.join(map(str, grid))}\n"
                 f"n = 30\nreps = {reps}\nalpha = 0.01\ntests = kl, chisq\n"
                 f"seed = {seed}\n")
    return {"config": path, "out": os.path.join(workdir, "table.csv"), "reps": reps,
            "n": 30, "items": len(grid) * reps}


def _call_finite(inputs) -> CallResult:
    rc, _stdout, err = _run_cli(["power", "--config", inputs["config"],
                                 "--out", inputs["out"]])
    if rc != 0:
        return CallResult("", error=err or f"exit code {rc}")
    with open(inputs["out"], encoding="utf-8") as fh:
        text = fh.read()
    return CallResult(text, dropped=_dropped(_rows_from_text(text), inputs["items"]))


def check_finite(inputs, result: CallResult) -> list[str]:
    if not result.output.startswith("phimi-format=1\n"):
        return ["table lacks the phimi-format=1 header"]
    return check_power_table(TABLE2, inputs, result)


def write_tied_csv(seed, path: str, n: int = CSV_N) -> None:
    """Correlated Gaussian pairs rounded to one decimal, so values tie heavily.

    ``seed`` is anything ``numpy.random.default_rng`` takes."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = CSV_RHO * x + math.sqrt(1.0 - CSV_RHO**2) * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y\n")
        fh.writelines(f"{a:.1f},{b:.1f}\n" for a, b in zip(x, y))


def reference_chisq_statistic(path: str) -> float:
    """S_n = 2n I_hat for chi-square and exp(a + b1 x + b2 y + b3 xy), solved apart from phimi.

    With gamma = 2 the dual objective is mean_i (h_ii - 1) - mean_ij
    (h_ij^2 - 1) / 2.  Maximizing over a in closed form (e^a = A / B) leaves
    A^2 / (2B) - 1/2 with A = mean_i e^{b.f_ii} and B = mean_ij e^{2 b.f_ij},
    which BFGS maximizes over b.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x, y = data[:, 0], data[:, 1]
    n = x.size
    paired = np.stack([x, y, x * y], axis=1)
    cross = np.stack([np.repeat(x, n), np.tile(y, n), np.outer(x, y).ravel()], axis=1)

    def neg_profile(beta):
        ep = np.exp(paired @ beta)
        ec = np.exp(2.0 * (cross @ beta))
        a, b = ep.mean(), ec.mean()
        grad = a * (ep @ paired) / (n * b) - a * a * (ec @ cross) / (n * n * b * b)
        return 0.5 - a * a / (2.0 * b), -grad

    res = minimize(neg_profile, np.zeros(3), jac=True, method="BFGS",
                   options={"gtol": 1e-12})
    return 2.0 * n * -float(res.fun)


def _prepare_cli_boot(seed, workdir, smoke):
    b_reps = 100 if smoke else CLI_B_REPS
    csvs, argvs, shares = [], [], []
    for k in range(CLI_CSVS):
        path = os.path.join(workdir, f"tied{k}.csv")
        write_tied_csv((seed, k), path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        shares.append([np.unique(col).size / col.size for col in data.T])
        csvs.append(path)
        argvs.append(["test", "--csv", path, "--x", "x", "--y", "y", "--divergence", "chisq",
                      "--model", "expbilinear:x,y,xy", "--route", "bootstrap",
                      "--b-reps", str(b_reps), "--alpha", "0.05", "--seed", str(seed)])
    return {"argvs": argvs, "csvs": csvs, "n": CSV_N, "items": b_reps * CLI_CSVS,
            "properties": {"csvs": CLI_CSVS,
                           "distinct_x_share": float(np.mean([s[0] for s in shares])),
                           "distinct_y_share": float(np.mean([s[1] for s in shares]))}}


def _call_cli_boot(inputs) -> CallResult:
    """``phimi test`` on each CSV in turn; each output after a ``csv=<k>`` line."""
    out = []
    for k, argv in enumerate(inputs["argvs"]):
        rc, stdout, err = _run_cli(argv)
        out.append(f"csv={k}\n{stdout}")
        if rc != 0:
            return CallResult("".join(out), error=err or f"exit code {rc}")
    return CallResult("".join(out))


def check_cli_boot(inputs, result: CallResult) -> list[str]:
    """Per CSV: statistic equal to the reference solver's; strong dependence,
    so reject=true."""
    blocks = result.output.split("csv=")[1:]
    if [b.partition("\n")[0] for b in blocks] != [str(k) for k in range(len(inputs["csvs"]))]:
        return [f"expected outputs for {len(inputs['csvs'])} CSVs: {result.output!r}"]
    refs = inputs.setdefault("references", {})
    problems = []
    for k, block in enumerate(blocks):
        if k not in refs:
            refs[k] = reference_chisq_statistic(inputs["csvs"][k])
        problems += [f"csv {k}: {p}" for p in _check_test_output(block.partition("\n")[2],
                                                                 refs[k])]
    return problems


def _check_test_output(text: str, ref: float) -> list[str]:
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    try:
        stat = float(fields["statistic"])
        crit = float(fields["critical_value"])
    except (KeyError, ValueError):
        return [f"unreadable test output: {text!r}"]
    problems = []
    if not abs(stat - ref) <= STAT_RTOL * abs(ref):
        problems.append(f"statistic {stat!r} differs from reference {ref!r}")
    if fields.get("reject") != "true":
        problems.append(f"reject={fields.get('reject')}, pinned true")
    if fields.get("route") != "bootstrap":
        problems.append(f"route={fields.get('route')}")
    if not (math.isfinite(crit) and crit > 0.0):
        problems.append(f"critical value {crit!r}")
    return problems


WORKLOADS = {
    "gauss-ztz-n500": Workload(_prepare_gauss, _call_study, check_gauss),
    "finite-power-k2-n30": Workload(_prepare_finite, _call_finite, check_finite),
    "cli-boot-chisq-n200": Workload(_prepare_cli_boot, _call_cli_boot, check_cli_boot),
}
