"""Benchmark for dirac-obstruction: one workload per run, one JSON result line.

    python3 bench/run.py --workload grid_cover --seed 1 --seconds 38 --trace 0

Workloads (see README.md in this directory for the reasons and predictions):
grid_cover, grid_conjugated_bounded, flow_family.  Each runs in a fresh
worker process with one client in a closed loop and checks every result
against an independent reference.  With --trace 0 the result carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.

Lines before the last describe the run: its environment, every metric with
its unit, and the sample counts.  The last line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
This script uses only the standard library; numpy and the package are
imported by the worker processes alone.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("grid_cover", "grid_conjugated_bounded", "flow_family")

# extra fresh-process set-ups per untraced run; setup_s is the median of
# these and the measured run's own set-up
SETUP_PROBES = 2
IMPORT_PROBES = 3
# one BLAS/OpenMP thread per worker: the benchmark has one client, and the
# small dense solves gain nothing from threads on a shared machine
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
JOBS_ENV_VAR = "DIRAC_OBSTRUCTION_JOBS"
# each run must finish well within three minutes
RUN_LIMIT_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # cache compiled bytecode, as an installed package has it, so set-up
    # time does not depend on the caller's environment
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next worker process")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, env=worker_env(), timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline: float) -> tuple[float, float]:
    """Package and scipy.linalg import times, from `-X importtime` in a fresh process.

    The package time is the cumulative time of the top-level imports of
    `dirac_obstruction` and `dirac_obstruction.cli`; scipy.linalg counts
    only if the package imports it (0 otherwise).
    """
    code = "import dirac_obstruction, dirac_obstruction.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        stderr=subprocess.PIPE,
        text=True,
        env=worker_env(),
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise BenchError("importing the package failed")
    package_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        top_level = not parts[2].startswith("  ")
        if top_level and name in ("dirac_obstruction", "dirac_obstruction.cli"):
            package_us += cumulative
        elif name == "scipy.linalg":
            scipy_us = max(scipy_us, cumulative)
    return package_us / 1e6, scipy_us / 1e6


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(p / 100.0 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail(times: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    A run of a few long operations has too few samples for that, so the
    requirement drops to a quarter of the samples (at least one): an upper
    quartile of a few samples is steadier than their maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(MIN_BEYOND_TAIL, max(n // 4, 1))
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= beyond:
            return percentile(ordered, p), p
    return ordered[-1], 100.0


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "dirac_obstruction"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(report: dict, setups: list[float]) -> tuple[dict, dict]:
    times = report["times"]
    tail_value, tail_p = tail(times)
    completed = len(times) - report["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail_value,
        "items_per_s": report["items_per_op"] * completed / sum(times),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "call_p50_s": f"{len(times)} samples",
        "call_tail_s": f"p{tail_p:g} of {len(times)} samples",
        "items_per_s": f"{report['items_per_op']} items per operation",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def per_layer(report: dict, imports: list[tuple[float, float]]) -> tuple[dict, dict]:
    metrics = dict(report["layers"])
    metrics["import.dirac_obstruction_s"] = statistics.median(t[0] for t in imports)
    metrics["import.scipy_linalg_s"] = statistics.median(t[1] for t in imports)
    metrics["trace.overhead_ratio"] = statistics.median(report["traced_times"]) / statistics.median(report["untraced_times"])
    notes = {
        "per-operation values": f"{len(report['traced_times'])} traced operations",
        "counts repeat across traced operations": str(report["counts_repeat"]).lower(),
        "imports": f"median of {len(imports)} fresh `-X importtime` processes",
        "count observers that could not read a call": json.dumps(report["observer_errors"]),
    }
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if JOBS_ENV_VAR in os.environ:
        raise BenchError(f"{JOBS_ENV_VAR} is set; the benchmark measures the package's default threading, unset it")
    if not os.path.isfile(os.path.join(SRC, "dirac_obstruction", "__init__.py")):
        raise BenchError(f"package sources not found under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = environment(args.seed)
    print("env", json.dumps(env, sort_keys=True))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    report = run_worker([*common, "--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    if args.trace:
        imports = [import_times(deadline) for _ in range(IMPORT_PROBES)]
        metrics, notes = per_layer(report, imports)
    else:
        setups = [report["setup_s"]]
        setups += [run_worker([*common, "--mode", "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        metrics, notes = end_to_end(report, setups)

    attempted = len(report["times"])
    failed = report["failed"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in out.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}" + (f"  ({notes[name]})" if name in notes else ""))
    for key, note in notes.items():
        if key not in out:
            print(f"{args.workload} {key}: {note}")
    print(f"{args.workload} operation times (s): " + " ".join(f"{t:.4f}" for t in report["times"]))
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
