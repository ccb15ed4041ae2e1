"""One workload process: set up, run timed calls, check outputs, report JSON.

Run by ``run.py`` in a fresh interpreter, so that set-up time covers the
interpreter start, the import of phimi and the generation of the inputs.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def timed_calls(workload, inputs, seconds: float, before_call=None, gauge=None):
    """Call the workload until the next call would end after ``seconds``.

    At least one call is made; outputs are read back after each clock stop.
    The time a ``gauge``'s probes took during a call is not counted in it.
    """
    walls, lengths, results = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        if before_call is not None:
            before_call()
        spent = gauge.spent if gauge else 0.0
        t0 = time.perf_counter()
        result = workload.call(inputs)
        lengths.append(time.perf_counter() - t0)
        walls.append(lengths[-1] - ((gauge.spent - spent) if gauge else 0.0))
        results.append(result)
        if time.perf_counter() + statistics.median(lengths) > t_end:
            return walls, results


def check_calls(workload, inputs, results) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, problems) over all calls.

    Dropped replicates fail one item each.  A call that raised, failed its
    output check or differs from the first call's output fails all its items.
    """
    items = inputs["items"]
    attempted = failed = 0
    problems: list[str] = []
    first = results[0]
    first_problems = ([first.error] if first.error else workload.check(inputs, first))
    for k, result in enumerate(results):
        attempted += items
        if result.error:
            call_problems = [result.error]
        elif k == 0:
            call_problems = first_problems
        elif result.output != first.output:
            call_problems = ["output differs from the first call's"]
        else:
            call_problems = []
        if call_problems:
            failed += items
            problems += [f"call {k}: {p}" for p in call_problems]
        else:
            failed += result.dropped
    return attempted, failed, problems


def l2_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    t0 = time.monotonic()
    import phimi
    import phimi.cli  # noqa: F401
    t1 = time.monotonic()
    sys.path.insert(0, HERE)
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inputs = workload.prepare(args.seed, args.workdir, args.smoke)
    ready = time.monotonic()
    report = {
        "setup_s": ready - args.spawned,
        "import_s": t1 - t0,
        "inputs_s": ready - t1,
        "phimi_file": phimi.__file__,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace:
        import tracer
        untraced, results = timed_calls(workload, inputs, args.seconds / 2)
        tr = tracer.Tracer()
        tr.install()
        traced, more = timed_calls(workload, inputs, args.seconds / 2, tr.next_run)
        results += more
        report["walls"] = untraced
        report["traced_walls"] = traced
        report["layers"] = tracer.layer_metrics(
            tr.spans, len(traced), traced, untraced, report)
        report["missing_spans"] = tr.missing
        report["bootstrap_inputs"] = tracer.bootstrap_inputs(tr.spans)
        if args.spans:
            tr.dump(args.spans)
    else:
        import speed
        with speed.Gauge() as gauge:
            report["walls"], results = timed_calls(workload, inputs, args.seconds,
                                                   gauge=gauge)
        report["probes"] = gauge.probes

    attempted, failed, problems = check_calls(workload, inputs, results)
    report.update(
        attempted=attempted, failed=failed, problems=problems,
        items_per_call=inputs["items"],
        properties=workloads.input_properties(inputs, l2_bytes()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=_versions(),
    )
    print(json.dumps(report))
    return 0


def _versions() -> dict:
    import numpy as np
    import scipy
    versions = {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return versions


if __name__ == "__main__":
    sys.exit(main())
