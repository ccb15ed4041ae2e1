"""Outside-in tracing of phimi's layers, from the benchmark's own code.

``Tracer.install`` wraps phimi functions and methods so that each call
records a span (name, start, end, parent span, run id, info).  A function
imported by name into other modules (``from .estimator import estimate``)
has one binding per importer, so every phimi module attribute that is the
original object is rebound.  Methods are wrapped once on their class, which
covers every importer of the class (``ObjectiveContext``, ``DivergenceSpec``).

Spans stay in memory until ``dump`` writes them as JSON lines.  A target
that no longer exists is skipped and its layer reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np


def _fit_info(args, kwargs, result):
    ctx = args[0] if args else kwargs["ctx"]
    return {"evals": result.objective_evals, "converged": bool(result.converged),
            "n": ctx.n}


def _elems_info(args, kwargs, result):
    return {"elems": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


def _bootstrap_info(args, kwargs, result):
    ctx = args[0] if args else kwargs["ctx"]
    x, y = np.asarray(ctx.sample.x), np.asarray(ctx.sample.y)
    return {"b_reps": int(np.size(result)), "n": ctx.n,
            "distinct_x_share": np.unique(x).size / x.size,
            "distinct_y_share": np.unique(y).size / y.size}


# (span name, module, attribute path, info from (args, kwargs, result))
TARGETS = (
    ("estimator.estimate", "phimi.estimator", "estimate", _fit_info),
    ("estimator.plugin_estimate", "phimi.estimator", "plugin_estimate", None),
    ("models.context", "phimi.estimator", "ObjectiveContext.__init__", None),
    ("models.rank_transform", "phimi.models", "rank_transform", None),
    ("divergence.phi", "phimi.divergence", "DivergenceSpec.phi", _elems_info),
    ("divergence.phi_prime", "phimi.divergence", "DivergenceSpec.phi_prime", _elems_info),
    ("divergence.phi_second", "phimi.divergence", "DivergenceSpec.phi_second", _elems_info),
    ("divergence.conj_of_prime", "phimi.divergence", "DivergenceSpec.conj_of_prime",
     _elems_info),
    ("samplers.sample_finite", "phimi.samplers", "sample_finite", None),
    ("samplers.sample_gaussian", "phimi.samplers", "sample_gaussian", None),
    ("samplers.sample_fgm", "phimi.samplers", "sample_fgm", None),
    ("asymptotics.covariances_under_h0", "phimi.asymptotics", "covariances_under_h0", None),
    ("asymptotics.limit_quantile_ztz", "phimi.asymptotics", "limit_quantile_ztz", None),
    ("asymptotics.chi2_quantile", "phimi.asymptotics", "chi2_quantile", None),
    ("testing.bootstrap_statistics", "phimi.testing", "bootstrap_statistics",
     _bootstrap_info),
    # power_study._BASELINES holds kendall_test itself, captured at import,
    # so kendall is timed through the kendall_tau it looks up on each call.
    ("testing.kendall_tau", "phimi.testing", "kendall_tau", None),
    ("power_study.run_power_study", "phimi.power_study", "run_power_study", None),
    ("power_study.calibration", "phimi.power_study", "_phi_critical_values", None),
    ("cli.run", "phimi.cli", "run", None),
    ("cli.ingest_csv", "phimi.cli", "ingest_csv", None),
    ("cli.write_results", "phimi.cli", "write_results", None),
    ("cli.format_test_result", "phimi.cli", "_format_test_result", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, run, info]
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def next_run(self) -> None:
        """Start a new workload call: later spans carry the next run id."""
        self.run_id += 1

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result
        return traced

    def install(self, targets=TARGETS) -> None:
        for name, module_name, path, info in targets:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, info)
            if owner is not module:
                setattr(owner, attr, wrapped)
                continue
            package = module_name.partition(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package
                                       or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "info": info}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's length minus the lengths of its direct children."""
    own = [end - start for _name, start, end, *_ in spans]
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(spans, calls: int, traced_walls, untraced_walls, setup) -> dict:
    """Per-layer metrics per workload call (sums divided by ``calls``).

    ``estimator.cross_pairs_per_s`` is computed as n^2 x evaluations over
    fit time, not measured.
    """
    own = self_times(spans)
    dur: dict[str, list[float]] = {}
    selft: dict[str, float] = {}
    infos: dict[str, list] = {}
    for span, s in zip(spans, own):
        name = span[0]
        dur.setdefault(name, []).append(span[2] - span[1])
        selft[name] = selft.get(name, 0.0) + s
        if span[5] is not None:
            infos.setdefault(name, []).append(span[5])

    def total(*names):
        return sum(sum(dur.get(n, ())) for n in names)

    def count(*names):
        return sum(len(dur.get(n, ())) for n in names)

    wall = sum(traced_walls)
    fits = dur.get("estimator.estimate", [])
    fit_info = infos.get("estimator.estimate", [])
    evals = sum(i["evals"] for i in fit_info)
    fit_s = sum(fits)
    div = ("divergence.phi", "divergence.phi_prime", "divergence.phi_second",
           "divergence.conj_of_prime")
    div_s = total(*div)
    elems = sum(i["elems"] for n in div for i in infos.get(n, ()))
    samplers = ("samplers.sample_finite", "samplers.sample_gaussian", "samplers.sample_fgm")
    boot_s = total("testing.bootstrap_statistics")
    boot_reps = sum(i["b_reps"] for i in infos.get("testing.bootstrap_statistics", ()))
    untraced = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    return {
        "estimator.fit_calls": (len(fits) / calls, "count"),
        "estimator.fit_s": (fit_s / calls, "s"),
        "estimator.fit_frac": (fit_s / wall if wall else 0.0, "ratio"),
        "estimator.fit_ms_p50": (_quantile(fits, 0.5) * 1e3, "ms"),
        "estimator.fit_ms_p99": (_quantile(fits, 0.99) * 1e3, "ms"),
        "estimator.evals_per_fit": (evals / len(fits) if fits else 0.0, "count"),
        "estimator.eval_ms": (fit_s / evals * 1e3 if evals else 0.0, "ms"),
        "estimator.nonconverged_frac": (
            sum(not i["converged"] for i in fit_info) / len(fit_info) if fit_info else 0.0,
            "ratio"),
        "estimator.cross_pairs_per_s": (
            sum(i["n"] ** 2 * i["evals"] for i in fit_info) / fit_s if fit_s else 0.0, "1/s"),
        "estimator.plugin_calls": (count("estimator.plugin_estimate") / calls, "count"),
        "estimator.plugin_s": (total("estimator.plugin_estimate") / calls, "s"),
        "divergence.calls": (count(*div) / calls, "count"),
        "divergence.s": (div_s / calls, "s"),
        "divergence.elems_per_s": (elems / div_s if div_s else 0.0, "1/s"),
        "models.context_calls": (count("models.context") / calls, "count"),
        "models.context_s": (total("models.context") / calls, "s"),
        "models.rank_transform_s": (total("models.rank_transform") / calls, "s"),
        "samplers.calls": (count(*samplers) / calls, "count"),
        "samplers.s": (total(*samplers) / calls, "s"),
        "asymptotics.cov_s": (total("asymptotics.covariances_under_h0") / calls, "s"),
        "asymptotics.ztz_quantile_s": (total("asymptotics.limit_quantile_ztz") / calls, "s"),
        "asymptotics.chi2_quantile_s": (total("asymptotics.chi2_quantile") / calls, "s"),
        "testing.bootstrap_calls": (count("testing.bootstrap_statistics") / calls, "count"),
        "testing.bootstrap_s": (boot_s / calls, "s"),
        "testing.bootstrap_frac": (boot_s / wall if wall else 0.0, "ratio"),
        "testing.bootstrap_rep_ms": (boot_s / boot_reps * 1e3 if boot_reps else 0.0, "ms"),
        "testing.kendall_s": (total("testing.kendall_tau") / calls, "s"),
        "power_study.self_s": (selft.get("power_study.run_power_study", 0.0) / calls, "s"),
        "power_study.calibration_s": (total("power_study.calibration") / calls, "s"),
        "cli.self_s": (selft.get("cli.run", 0.0) / calls, "s"),
        "cli.ingest_s": (total("cli.ingest_csv") / calls, "s"),
        "cli.write_s": (total("cli.write_results", "cli.format_test_result") / calls, "s"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.inputs_s": (setup["inputs_s"], "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
    }


def bootstrap_inputs(spans) -> list[dict]:
    """Size and share of distinct values of each sample the bootstrap resampled."""
    return [span[5] for span in spans if span[0] == "testing.bootstrap_statistics"
            and span[5] is not None]
