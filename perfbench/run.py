"""phimi benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree holding ``src/phimi``.  Each workload
runs in a fresh child process that imports phimi from ``src`` and makes
its inputs from ``--seed``.  With ``--trace 0`` the benchmark first times
the set-up of ``SETUP_SAMPLES`` set-up-only processes, then starts the
measuring one, and reports the end-to-end metrics, every time rescaled by
the probes of ``speed.py``; with ``--trace 1`` one process runs untraced
calls for half the time and traced calls for the other half and reports
the per-layer metrics.  Outputs are checked either way.

A summary goes to standard output, the full record to
``.bench_out/results/``, spans to ``.bench_out/spans/``; the last line of
standard output is the JSON result.  Workloads and seeds: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("gauss-ztz-n500", "finite-power-k2-n30", "cli-boot-chisq-n200")

# Set-up is timed in this many fresh set-up-only processes, each between
# groups of SETUP_PROBES probes, and reported as the median.
SETUP_SAMPLES = 3
SETUP_PROBES = 6
# Every child together must stay inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """BLAS threads pinned to nproc, as an unconfigured user gets; no thread knob."""
    env = dict(os.environ)
    env.pop("PHIMI_THREADS", None)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(extra, deadline: float) -> dict:
    # taken just before the start, so set-up covers the interpreter start too
    cmd = [sys.executable, str(HERE / "child.py"), *extra,
           "--spawned", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"child process printed no result:\n{proc.stderr}") from None
    src = (ROOT / "src").resolve()
    if not Path(report["phimi_file"]).resolve().is_relative_to(src):
        raise BenchError(f"phimi was imported from {report['phimi_file']}, not {src}")
    return report


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(report, setups) -> dict:
    """Times rescaled to a box where one probe takes ``speed.NOMINAL_PROBE_S``.

    The mean call is rescaled by the mean probe, both taken evenly over the
    same stretch of time; ``setups`` are already rescaled.
    """
    wall = speed.rescale(statistics.fmean(report["walls"]), report["probes"])
    return {
        "scaled_wall_s": (wall, "s"),
        "scaled_items_per_s": (report["items_per_call"] / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
    }


def timed_setups(common, deadline: float) -> tuple[list[float], list[float]]:
    """(raw, rescaled) set-up times of SETUP_SAMPLES set-up-only processes.

    Each is rescaled by the mean of the SETUP_PROBES probes on either side.
    """
    def probes():
        return [speed.probe() for _ in range(SETUP_PROBES)]

    raw, around = [], [probes()]
    for _ in range(SETUP_SAMPLES):
        raw.append(run_child(common + ["--seconds", "0", "--setup-only"],
                             deadline)["setup_s"])
        around.append(probes())
    return raw, [speed.rescale(s, around[k] + around[k + 1]) for k, s in enumerate(raw)]


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    env = child_env()
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="'all' runs every workload in turn, one result line each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="small workload sizes, for testing the benchmark itself")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "phimi" / "__init__.py").is_file():
        print(f"error: no phimi source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            run_workload(name, args)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    return 0


def run_workload(name: str, args) -> None:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    tag = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    for sub in ("work", "results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(args.seed),
              "--workdir", str(OUT / "work" / tag)]
    if args.smoke:
        common.append("--smoke")
    raw_setups, setups = timed_setups(common, deadline) if not args.trace else ([], [])
    report = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--spans", str(OUT / "spans" / f"{tag}.jsonl")],
                       deadline)

    metrics = report["layers"] if args.trace else end_to_end(report, setups)
    wall = statistics.median(report["walls"])
    correct = not report["problems"]
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": report["attempted"], "failed": report["failed"],
        "failed_frac": report["failed"] / report["attempted"],
        "problems": report["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_s": wall,
        "items_per_s": report["items_per_call"] / wall,
        "wall_s_quartiles": quartiles(report["walls"]),
        "wall_s_samples": report["walls"],
        "setup_s_samples": raw_setups,
        "setup_s_rescaled": setups,
        "input_properties": report["properties"],
        "environment": {**environment(), **report["versions"]},
    }
    for key in ("probes", "traced_walls", "missing_spans", "bootstrap_inputs"):
        if key in report:
            record[key] = report[key]
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_summary(record)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": record["metrics"]}),
          flush=True)


def print_summary(record) -> None:
    q1, q2, q3 = record["wall_s_quartiles"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['wall_s_samples'])} calls, wall_s quartiles "
          f"{q1:.4f} / {q2:.4f} / {q3:.4f} s")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s':32s} {record['wall_s']:.6g} s (median, not rescaled)")
    print(f"  {'items_per_s':32s} {record['items_per_s']:.6g} 1/s (not rescaled)")
    if "probes" in record:
        probes = record["probes"]
        print(f"  {'probe_s':32s} {statistics.fmean(probes):.6g} s (mean of {len(probes)}; "
              f"nominal {speed.NOMINAL_PROBE_S} s)")
    print(f"  {'failed_frac':32s} {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} items)")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    print(f"  input {json.dumps(record['input_properties'])}")
    print(f"  environment {json.dumps(record['environment'])}")


if __name__ == "__main__":
    sys.exit(main())
