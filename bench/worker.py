"""One benchmark workload in one fresh process.

Started by ``run.py`` inside an empty temporary working directory with
``PYTHONPATH`` pointing at the checkout's ``src``.  It times set-up (import
``anyonbraid`` and build each model the workload uses once), then runs
closed-loop rounds of CLI calls (``anyonbraid.cli.main(argv)`` with output
captured in-process) until the time is spent, checks every output, and
prints one JSON object as its last line.

With ``--setup-only`` it stops after set-up.  With ``--trace 1`` rounds
alternate between untraced and traced, the traced copy re-running the same
inputs, which gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads

#: Reasons of failed jobs kept in the result (the count is always exact).
MAX_REASONS = 5


def invoke(cli, argv: list[str]) -> workloads.Invocation:
    """Run one CLI call in-process; a raised exception becomes ``code=None``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a dead run
            code = None
            err.write(traceback.format_exc())
    return workloads.Invocation(code, out.getvalue(), err.getvalue(),
                                time.perf_counter() - start)


class Tally:
    """Units attempted and failed, and wall times of jobs and rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.job_seconds: list[float] = []
        self.round_seconds: list[float] = []

    def run_round(self, cli, jobs) -> float:
        total = 0.0
        for job in jobs:
            calls = [invoke(cli, argv) for argv in job.argvs]
            seconds = sum(c.seconds for c in calls)
            reason = job.check(calls)
            self.attempted += job.units
            if reason is not None:
                self.failed += job.units
                if len(self.reasons) < MAX_REASONS:
                    self.reasons.append(f"{job.label}: {reason}")
            self.job_seconds.append(seconds)
            total += seconds
        self.round_seconds.append(total)
        return total

    def units_per_s(self) -> float:
        """Units per second of CLI time.  A total, not a median of jobs: on
        a machine whose speed flips between two levels, the median of jobs
        flips with it while the total moves in proportion."""
        return self.attempted / sum(self.round_seconds)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons, "rounds": len(self.round_seconds),
                "jobs": len(self.job_seconds),
                "job_s_p50": statistics.median(self.job_seconds),
                "round_s": statistics.median(self.round_seconds)}


def _keep_going(started: float, seconds: float, last: float) -> bool:
    """Start another round only if it should end within the time budget."""
    return time.perf_counter() - started + last <= seconds


def measure(workload, cli, seed: int, seconds: float) -> Tally:
    tally = Tally()
    started = time.perf_counter()
    r = 0
    while True:
        tally.run_round(cli, workload.jobs(seed, r))
        r += 1
        if not _keep_going(started, seconds, statistics.median(tally.round_seconds)):
            break
    return tally


def measure_traced(workload, cli, seed: int, seconds: float, trace_path: str):
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    started = time.perf_counter()
    r = 0
    while True:
        jobs = workload.jobs(seed, r)
        plain = untraced.run_round(cli, jobs)
        tracer.install()
        try:
            with_spans = traced.run_round(cli, jobs)
        finally:
            tracer.uninstall()
        r += 1
        if not _keep_going(started, seconds, plain + with_spans):
            break
    overhead = sum(traced.round_seconds) / sum(untraced.round_seconds) - 1.0
    metrics = tracer.metrics(r, overhead)
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed, "rounds": r,
                             "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.reasons = (untraced.reasons + traced.reasons)[:MAX_REASONS]
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--trace-out", default=None, help="span file of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.scale)

    start = time.perf_counter()
    import anyonbraid
    from anyonbraid import cli

    built = [anyonbraid.load_builtin(name, k=k) for name, k in workload.models]
    setup_s = time.perf_counter() - start
    src = os.path.realpath(args.src)
    if not os.path.realpath(anyonbraid.__file__).startswith(src + os.sep):
        print(f"anyonbraid imported from {anyonbraid.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.prepare(os.getcwd(), args.seed, built)
    del built
    if args.trace:
        tally, metrics = measure_traced(workload, cli, args.seed, args.seconds,
                                        args.trace_out)
    else:
        tally = measure(workload, cli, args.seed, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "units_per_s": tally.units_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({**tally.summary(), "metrics": metrics, "unit": workload.unit}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
