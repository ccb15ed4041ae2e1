"""perfbench's tracer wraps phimi functions by name and reads a target that
no longer exists as zero calls, so a rename must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)   # defines TARGETS; installs nothing
    return tracer.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_trace_target_resolves(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
