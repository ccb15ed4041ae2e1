"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

The smoke runs use ``--smoke`` (small studies) and take about a minute.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Reference statistics of the first tied CSV of the documented seeds (README.md).
PINNED_STATISTIC = {1: 64.46000317403029, 2: 71.9882505977198}


def run_bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def result_problems(result: dict, trace: int) -> list[str]:
    """What is wrong with a result line, against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not a whole number")
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


@pytest.fixture(scope="module")
def smoke_results():
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench("--workload", name, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(smoke_results, name, trace):
    result = smoke_results[name, trace]
    assert result_problems(result, trace) == []
    assert result["correct"] and result["failed"] == 0


def test_smoke_layer_shares_follow_the_workloads(smoke_results):
    def layer(name, metric):
        return smoke_results[name, 1]["metrics"][metric]["value"]

    assert layer("finite-power-k2-n30", "estimator.fit_calls") == 0
    assert layer("finite-power-k2-n30", "estimator.plugin_calls") > 0
    assert layer("gauss-ztz-n500", "testing.kendall_s") > 0
    assert layer("gauss-ztz-n500", "asymptotics.cov_s") > 0
    assert layer("cli-boot-chisq-n200", "cli.ingest_s") > 0
    assert layer("cli-boot-chisq-n200", "testing.bootstrap_calls") == workloads.CLI_CSVS
    assert layer("cli-boot-chisq-n200", "estimator.fit_calls") > 100


@pytest.mark.parametrize("corrupt", [
    lambda r: r.pop("correct"),
    lambda r: r["metrics"].pop("scaled_wall_s"),
    lambda r: r["metrics"]["setup_s"].update(unit="ms"),
    lambda r: r["metrics"]["peak_rss_mb"].update(value="big"),
    lambda r: r["metrics"]["scaled_items_per_s"].update(value=0.0),
    lambda r: r.update(attempted=0),
    lambda r: r["metrics"].update(extra={"value": 1.0, "unit": "s"}),
])
def test_result_check_fails_on_corrupted_line(smoke_results, corrupt):
    result = json.loads(json.dumps(smoke_results["finite-power-k2-n30", 0]))
    corrupt(result)
    assert result_problems(result, 0)


@pytest.fixture(scope="module")
def genuine_outputs(tmp_path_factory):
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.prepare(1, str(tmp_path_factory.mktemp(name)), True)
        out[name] = (wl, inputs, wl.call(inputs))
    return out


def _edit_row(text, test, param, rejections):
    lines = []
    for line in text.splitlines():
        parts = line.split(",")
        if len(parts) >= 4 and parts[0] == test and float(parts[1]) == param:
            parts[-4 if len(parts) == 8 else 2] = str(rejections)
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "gauss-ztz-n500": [
        lambda t: _edit_row(t, "kl", 0.0, 60),
        lambda t: _edit_row(t, "kl", 0.5, 0),
        lambda t: _edit_row(t, "kendall", 0.5, 2),
        lambda t: "\n".join(t.splitlines()[1:]),
    ],
    "finite-power-k2-n30": [
        lambda t: _edit_row(t, "kl", 0.48, 5),
        lambda t: _edit_row(t, "chisq", 0.0, 40),
        lambda t: t.replace("phimi-format=1", "phimi-format=2"),
        lambda t: "\n".join(t.splitlines()[:-1]),
    ],
    "cli-boot-chisq-n200": [
        lambda t: t.replace("statistic=", "statistic=1"),
        lambda t: t.replace("reject=true", "reject=false"),
        lambda t: t.replace("critical_value=", "critical_value=-"),
        lambda t: "csv=0\nseed=1\n",
        lambda t: t.replace("csv=3", "csv=2"),
    ],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_checks_pass_genuine_and_fail_corrupted(genuine_outputs, name):
    wl, inputs, result = genuine_outputs[name]
    assert result.error is None
    assert wl.check(inputs, result) == []
    for corrupt in CORRUPTIONS[name]:
        bad = replace(result, output=corrupt(result.output))
        assert bad.output != result.output
        assert wl.check(inputs, bad), bad.output


def test_statistic_check_is_tight(genuine_outputs):
    wl, inputs, result = genuine_outputs["cli-boot-chisq-n200"]
    fields = dict(line.split("=", 1) for line in result.output.splitlines())
    stat = float(fields["statistic"])
    nudged = result.output.replace(fields["statistic"], repr(stat * (1 + 1e-7)))
    assert wl.check(inputs, replace(result, output=nudged))


@pytest.mark.parametrize("seed", sorted(PINNED_STATISTIC))
def test_reference_statistic_is_pinned(tmp_path, seed):
    path = str(tmp_path / "tied.csv")
    workloads.write_tied_csv((seed, 0), path)
    ref = workloads.reference_chisq_statistic(path)
    assert ref == pytest.approx(PINNED_STATISTIC[seed], rel=1e-10)


def test_failed_calls_and_drift_count_every_item(genuine_outputs):
    wl, inputs, result = genuine_outputs["finite-power-k2-n30"]
    items = inputs["items"]
    ok = replace(result, dropped=3)
    assert child.check_calls(wl, inputs, [result, ok]) == (2 * items, 3, [])
    drifted = replace(result, output=_edit_row(result.output, "kl", 0.28, 9))
    raised = workloads.CallResult("", error="boom")
    attempted, failed, problems = child.check_calls(wl, inputs, [result, drifted, raised])
    assert (attempted, failed, len(problems)) == (3 * items, 2 * items, 2)


def test_rescale_divides_by_the_mean_probe():
    nominal = speed.NOMINAL_PROBE_S
    assert speed.rescale(2.0, [nominal, nominal]) == pytest.approx(2.0)
    assert speed.rescale(2.0, [nominal, 3 * nominal]) == pytest.approx(1.0)


def test_gauge_probes_during_a_call_and_leaves_its_time_out():
    def busy():
        t_end = time.perf_counter() + 0.35
        while time.perf_counter() < t_end:
            pass
        return workloads.CallResult("ok")

    wl = workloads.Workload(None, lambda inputs: busy(), None)
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Gauge(period=0.1) as gauge:
        walls, results = child.timed_calls(wl, {}, 0.5, gauge=gauge)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one call of 0.35 s, interrupted by probes every 0.1 s
    assert len(walls) == 1 and results[0].output == "ok"
    assert len(gauge.probes) >= 4 and gauge.spent > 0
    assert walls[0] + gauge.spent == pytest.approx(0.35, abs=0.02)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 1, None], ["b", 1.0, 3.0, 0, 1, None],
             ["c", 4.0, 8.0, 0, 1, None], ["d", 5.0, 6.0, 2, 1, None]]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_missing_trace_target_reports_zero_calls():
    tr = tracer.Tracer()
    tr.install([("estimator.estimate", "phimi.estimator", "no_such_function", None),
                ("cli.run", "no_such_module_anywhere", "run", None)])
    assert tr.missing == ["estimator.estimate", "cli.run"]
    layers = tracer.layer_metrics(tr.spans, 1, [1.0], [1.0],
                                  {"import_s": 1.0, "inputs_s": 0.1})
    assert layers["estimator.fit_calls"] == (0.0, "count")
    assert layers["cli.self_s"] == (0.0, "s")
    assert {name for name, _ in layers.items()} == {m["name"] for m in BENCHMARK["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*BENCHMARK["command"], "--workload", "finite-power-k2-n30",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
