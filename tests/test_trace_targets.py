"""perfbench's tracer wraps phimi functions by name and reads a target that
no longer exists as zero calls, so a rename must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from phimi import DivergenceSpec, GaussianSpec, ObjectiveContext, estimate, gaussian_model
from phimi import sample_gaussian

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)   # defines TARGETS; installs nothing
    return tracer


@pytest.mark.parametrize("target", _tracer().TARGETS, ids=lambda t: t[0])
def test_trace_target_resolves(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_fit_info_reads_a_newton_fit():
    # the estimator.* layer metrics (evals_per_fit, eval_ms,
    # cross_pairs_per_s) divide by the evaluations _fit_info reads
    ctx = ObjectiveContext(DivergenceSpec(1.0), gaussian_model(),
                           sample_gaussian(GaussianSpec(0.3), 200, 1))
    est = estimate(ctx)
    assert est.method == "newton"
    info = _tracer()._fit_info((ctx,), {}, est)
    assert info["evals"] > 0 and info["converged"] and info["n"] == 200
