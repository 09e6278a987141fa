"""Benchmark of the ``anyonbraid`` CLI: four seeded, closed-loop workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload braid-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh Python process (``bench/worker.py``),
one at a time, inside an empty temporary directory under ``.bench_run/``
so that no stray file can shadow a built-in model name.  BLAS is pinned to
one thread.  The package is imported from the checkout's ``src``; nothing
is installed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``END_TO_END``); set-up time is the median of
several fresh processes.  With ``--trace 1`` they are the per-layer ones
(``tracing.PER_LAYER``) and the spans are written to
``.bench_run/traces/``.  The exit code is 0 when every output check passed,
1 when some failed (``failed`` units, first reasons on stderr) and 2 when
the benchmark could not run at all, in which case no result is printed.

``--workload all`` runs every workload and prints the per-workload metrics
named after what each workload measures (``teleport_trials_per_s``,
``braids_per_s``, ``check_s_p50``, ``verify_s``) beside ``setup_s``,
``peak_rss_mb`` and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracing import PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
RUN_DIR = os.path.join(ROOT, ".bench_run")

#: End-to-end metrics: name, unit, better.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 5

#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: The headline metric of each workload, under the name users know it by.
NAMED = {
    "teleport-mc": ("teleport_trials_per_s", "1/s", "units_per_s"),
    "braid-long": ("braids_per_s", "1/s", "units_per_s"),
    "wide-register": ("check_s_p50", "s", "job_s_p50"),
    "model-verify": ("verify_s", "s", "round_s"),
}

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


def _child(args: list[str], cwd: str, deadline: float) -> dict:
    src = os.path.join(ROOT, "src")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": src}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, "--src", src, *args], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Run one workload; return the worker's result with ``metrics`` in
    result-line form (each metric as ``{"value", "unit"}``)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "anyonbraid", "__init__.py")):
        raise BenchError(f"no anyonbraid package under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR)
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_child([*common, "--seconds", "0", "--setup-only"],
                                     workdir, deadline)["setup_s"])
        extra = []
        if trace:
            os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
            extra = ["--trace-out",
                     os.path.join(RUN_DIR, "traces", f"{name}-seed{seed}.jsonl.gz")]
        result = _child([*common, "--seconds", str(seconds), "--trace", str(trace), *extra],
                        workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = result["metrics"]
    if trace:
        units = {m: u for m, u, _ in PER_LAYER}
    else:
        raw["setup_s"] = statistics.median(setups + [raw["setup_s"]])
        units = {m: u for m, u, _ in END_TO_END}
    result["metrics"] = {m: {"value": raw[m], "unit": u} for m, u in units.items()}
    result["raw"] = raw
    return result


def result_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def named(name: str, result: dict) -> tuple[str, float, str, int]:
    """(metric, value, unit, samples) of the workload's headline metric."""
    metric, unit, source = NAMED[name]
    value = result[source] if source in result else result["raw"][source]
    samples = result["rounds"] if source == "round_s" else result["jobs"]
    return metric, value, unit, samples


def describe(name: str, result: dict, trace: int) -> list[str]:
    """Human-readable lines about one workload's run."""
    lines = [f"{name}: {result['rounds']} rounds, {result['jobs']} jobs, "
             f"{result['attempted']} {result['unit']}s attempted, {result['failed']} failed "
             f"(fail_frac {result['failed'] / result['attempted']:.6g}); "
             f"BLAS threads {BLAS_ENV['OPENBLAS_NUM_THREADS']}"]
    if not trace:
        metric, value, unit, samples = named(name, result)
        lines.append(f"{name}: {metric} = {value:.6g} {unit} (n={samples})")
    return lines


def summary(results: dict) -> list[str]:
    """Table of the seven headline metrics by workload."""
    units = {m: u for m, u, _ in END_TO_END}
    rows = [f"{'workload':<14} {'metric':<22} {'value':>12} unit"]
    for name, result in results.items():
        metric, value, unit, samples = named(name, result)
        rows.append(f"{name:<14} {metric:<22} {value:>12.6g} {unit} (n={samples})")
        for key in ("setup_s", "peak_rss_mb"):
            rows.append(f"{name:<14} {key:<22} {result['raw'][key]:>12.6g} {units[key]}")
        rows.append(f"{name:<14} {'fail_frac':<22} "
                    f"{result['failed'] / result['attempted']:>12.6g} ratio")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anyonbraid benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.scale)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print("\n".join(describe(name, result, args.trace)))
        for reason in result["reasons"]:
            print(f"{name}: FAILED {reason}", file=sys.stderr)
    if args.workload == "all":
        if not args.trace:
            print("\n".join(summary(results)))
        total = {"failed": sum(r["failed"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
        print(result_line(total))
    else:
        print(result_line(results[args.workload]))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
