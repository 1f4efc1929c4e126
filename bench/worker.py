"""Workload process: set up one workload, run its closed loop, print a report.

Started by run.py in a fresh interpreter, with `src` on PYTHONPATH and the
BLAS/OpenMP thread count pinned.  The last line of stdout is a JSON object.

    --mode setup   set up only and report the set-up time
    --mode run     set up, then run operations until --seconds have passed;
                   with --trace 1 the second half of the time runs traced
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".bench_work")


def run_ops(wl, deadline: float, tracer=None) -> tuple[list[float], int, list[dict]]:
    """Closed loop with one client: each operation starts when the last returns.

    Returns the wall time of every operation, the number that raised or
    disagreed with the reference, and, when traced, the counts each
    operation added.  Checks run after the timer stops and with tracing off.
    """
    times: list[float] = []
    failed = 0
    op_counts: list[dict] = []
    while True:
        before = tracer.snapshot_counts() if tracer else None
        error = None
        result = None
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = wl.run()
        except Exception:  # a failed operation is counted, never retried
            error = traceback.format_exc()
        finally:
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.enabled = False
        if tracer:
            after = tracer.snapshot_counts()
            op_counts.append({key: n - before.get(key, 0) for key, n in after.items()})
        if error is None:
            try:
                problems = wl.check(result)
            except Exception:  # a result the check cannot read is a disagreement
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failed += 1
            print(f"operation {len(times)} failed:", *problems, sep="\n  ", file=sys.stderr)
        if time.perf_counter() >= deadline:
            return times, failed, op_counts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    args = parser.parse_args()

    # set-up time covers importing the package and its CLI and making inputs
    import numpy as np

    import workloads

    wl = workloads.make(args.workload)
    try:
        wl.setup(np.random.default_rng(args.seed), WORKDIR)
        setup_s = time.perf_counter() - START
        report: dict = {"setup_s": setup_s, "items_per_op": wl.items_per_op}
        if args.mode == "run":
            begin = time.perf_counter()
            if args.trace:
                report.update(traced_run(wl, begin, args.seconds))
            else:
                times, failed, _ = run_ops(wl, begin + args.seconds)
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                report.update(times=times, failed=failed, peak_rss_mb=rss_mb)
    finally:
        wl.close()
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)
    print(json.dumps(report))
    return 0


def traced_run(wl, begin: float, seconds: float) -> dict:
    """Half the time untraced, then half traced; per-layer totals per operation."""
    import tracing

    plain, plain_failed, _ = run_ops(wl, begin + seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_failed, op_counts = run_ops(wl, begin + seconds, tracer)
    finally:
        tracer.uninstall()
    return {
        "times": plain + traced,
        "failed": plain_failed + traced_failed,
        "untraced_times": plain,
        "traced_times": traced,
        "layers": tracer.per_operation(len(traced)),
        "counts_repeat": all(c == op_counts[0] for c in op_counts),
        "observer_errors": dict(tracer.observer_errors),
    }


if __name__ == "__main__":
    sys.exit(main())
