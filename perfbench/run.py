"""Benchmark of the wavekin W -> B -> U -> Lambda stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample runs in a fresh interpreter
(``bench_worker.py``) with one client driving the library closed-loop.  With
``--trace 0`` the run reports the end-to-end metrics; set-up is measured
SETUP_SAMPLES times and its median reported.  Timings are scaled to the
reference speed of a calibration kernel timed in the same process (see
``bench_worker.calibration_pass``).  With ``--trace 1`` an untraced and a
traced process each run half the time and the per-layer metrics are
reported.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench_workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
#: the whole run, every child included, ends within this many seconds on
#: top of the --seconds asked for: set-ups, cross-route pairs, start-up
RUN_OVERHEAD_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "success_rate": "fraction",
    "err_est_rel_p50": "ratio",
    "xroute_ratio_max": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A child failed or the run overran its budget; no result is printed."""


def child_env():
    """Environment of the measuring processes.

    BLAS/OpenMP threads are capped at one, below nproc: the single client
    hands BLAS only small matrices (the Filon panel products of one query),
    where a second thread measured slower and noisier.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # identical import cost on every run, and nothing written into src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, env, deadline):
    """Run bench_worker.py with args; returns (parsed JSON, spawn time)."""
    cmd = [sys.executable, os.path.join(HERE, "bench_worker.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned), text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: over the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)}: no output")
    return json.loads(lines[-1]), spawned


def run_plain(opts, env, deadline):
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES):
        mode = ["--mode", "setup"] if i < SETUP_SAMPLES - 1 else [
            "--mode", "run", "--seconds", str(opts.seconds)]
        res, spawned = spawn(base + mode, env, deadline)
        raw_setups.append(res["ready_at"] - spawned - res["setup_cal_s"])
        setups.append(raw_setups[-1] / res["setup_slowness"])
    cross = res["cross"]
    ratios = [c["ratio"] for c in cross if c["ratio"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "success_rate": res["success_rate"],
        "err_est_rel_p50": res["err_est_rel_p50"],
        "xroute_ratio_max": max(ratios) if ratios else None,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {"setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
              "slowness": res["slowness"], "raw": res["raw"],
              "cross": cross, "tail_percentile": res["tail_percentile"],
              "latency_p90_ms": res["latency_p90_ms"],
              "failures": res["failures"]}
    correct = (all(c["sane"] for c in cross)
               and all(v is not None for v in metrics.values()))
    units = END_TO_END_UNITS
    return res, correct, {k: (v, units[k]) for k, v in metrics.items()}, detail


def run_traced(opts, env, deadline):
    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds / 2.0)]
    plain, _ = spawn(base + ["--mode", "run", "--cross", "0"], env, deadline)
    res, _ = spawn(base + ["--mode", "trace"], env, deadline)
    layer = dict(res["per_layer"])
    layer["fundsol.first_t_ms"] = plain["first_t_ms"]
    layer["fundsol.seen_t_ms"] = plain["seen_t_ms"]
    layer["trace.overhead_frac"] = 1.0 - res["ops_per_s"] / plain["ops_per_s"]
    correct = all(c["sane"] for c in res["cross"])
    metrics = {k: (v, per_layer_unit(k)) for k, v in layer.items()}
    detail = {"spans_file": res["spans_file"],
              "untraced_ops_per_s": plain["ops_per_s"],
              "traced_ops_per_s": res["ops_per_s"], "cross": res["cross"]}
    return res, correct, metrics, detail


def per_layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    return {"points": "count", "calls": "count", "evals": "count",
            "builds": "count", "points_computed": "count",
            "us_per_point": "us", "build_ms": "ms", "self_s": "s",
            "hit_ratio": "ratio", "first_t_ms": "ms", "seen_t_ms": "ms",
            "overhead_frac": "fraction"}[last]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wavekin", "__init__.py")):
        print("perfbench: src/wavekin not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    if not opts.seconds > 0.0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_OVERHEAD_S + opts.seconds
    env = child_env()
    try:
        if opts.trace:
            res, correct, metrics, detail = run_traced(opts, env, deadline)
        else:
            res, correct, metrics, detail = run_plain(opts, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    import numpy
    import scipy
    info = {"workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds, "trace": opts.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: env.get(v) for v in THREAD_VARS}, **detail}
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value!s:>24} {unit}")
    if not opts.trace and res["latency_p90_ms"] is not None:
        # only runs of >= 100 ops have >= 10 samples beyond p90
        print(f"{'latency_p90_ms':52s} {res['latency_p90_ms']!s:>24} ms")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
