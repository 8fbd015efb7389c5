"""One measuring process: import, warm up, drive one workload, report JSON.

``run.py`` starts this script in a fresh interpreter for every sample, so
fundsol's module-level caches (keyed by ``id`` of the evaluator) never carry
over from one run to the next.  Modes:

setup   import + BEvaluator() + warm-up, then report when warm-up ended
run     setup, the timed closed loop, then the cross-route pairs
trace   as run, with every public callable of the layers wrapped in spans

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from scipy.special import loggamma  # noqa: E402

from bench_stats import (  # noqa: E402
    OK,
    all_finite,
    at_reference_speed,
    classify,
    local_slowness,
    slowness_of,
    summarize_ops,
)
from bench_trace import Tracer, first_seen_ms, per_layer  # noqa: E402
from bench_workloads import (  # noqa: E402
    INTEGRAL_REL_TOL,
    RADIAL_GRID,
    WORKLOADS,
)

#: cross-route pairs must agree to this share of their size to count as
#: correct; the ratio to the reported errors is the stricter figure, and
#: exceeding 1 there is reported, not treated as incorrect
SANITY_REL = 0.05

#: time of one calibration pass at the reference speed: the fast
#: state of the 2-vCPU VM the benchmark was written on, whose CPU also
#: spends minutes at a time about 1.5x slower
CAL_REF_S = 1.75e-3
#: the timed loop runs a calibration pass whenever this much time has passed
CAL_EVERY_S = 0.25
#: an op is scaled by the passes taken this long before and after it
CAL_WINDOW_S = 1.0
#: calibration passes at each end of set-up
CAL_SETUP_PASSES = 5
#: per-op deadline of the cross-route pairs, which run outside the timed loop
CROSS_DEADLINE_S = 15.0
#: op kinds whose error is INTEGRAL_REL_TOL * |value|, not a reported one
STAND_IN_ERR = ("l1", "pairing")
_CAL_Z = np.linspace(0.1, 3.0, 4096) + 0.5j


def calibration_pass():
    """Time one pass of a fixed kernel that never touches wavekin.

    It mixes what the library spends its time on (dict traffic in Python,
    elementwise complex transcendentals, an FFT, loggamma), so its time
    follows the machine's speed.  Over 15 s windows it tracked a 1.5x slow
    phase: the window medians of a library loop spread by 0.39 and its
    ratio to this kernel by 0.08.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        table[(i, i & 7)] = i * 0.5
    x = np.exp(_CAL_Z) * np.log(_CAL_Z)
    np.fft.ifft(np.fft.fft(x) * x)
    loggamma(_CAL_Z)
    return time.perf_counter() - t0


class DeadlineExceeded(BaseException):
    """Raised by the per-op alarm; a BaseException, so nothing swallows it."""


#: True while an op runs under its deadline; an alarm arriving after the op
#: has been disarmed is ignored
_armed = False


def _alarm(_signum, _frame):
    if _armed:
        raise DeadlineExceeded()


def with_deadline(fn, deadline_s):
    """Call fn() under a SIGALRM deadline; returns (result, exception name).

    The exception name is None if fn returned.  An alarm that fires after
    fn returned but before the timer is disarmed still lands inside the
    outer try, so it counts as a miss instead of escaping; once ``_armed``
    is cleared, a late alarm is ignored.
    """
    global _armed
    signal.signal(signal.SIGALRM, _alarm)
    try:
        try:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            return fn(), None
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except (Exception, DeadlineExceeded) as exc:  # noqa: BLE001
        return None, type(exc).__name__


def execute(mods, ev, op):
    """Run one op through the public API; returns (value, error or None)."""
    fundsol, ufunc = mods
    k, a = op.kind, op.args
    if k == "lambda":
        t, x, regime = a
        return fundsol.eval_lambda_with_error(
            fundsol.LambdaQuery(t, x, regime), ev)
    if k == "l1":
        v = fundsol.l1_norm_lambda(a[0], rel_tol=INTEGRAL_REL_TOL,
                                   evaluator=ev)
        return v, INTEGRAL_REL_TOL * abs(v)
    if k == "pairing":
        t, lo, hi = a
        v = fundsol.delta_pairing(t, fundsol.TestFunction.bump(lo, hi),
                                  rel_tol=INTEGRAL_REL_TOL, evaluator=ev)
        return v, INTEGRAL_REL_TOL * abs(v)
    if k == "radial":
        return fundsol.radial_profile(a[0], *RADIAL_GRID,
                                      evaluator=ev).values, None
    if k == "series":
        return fundsol.eval_lambda_series(*a, evaluator=ev), None
    if k == "large_t":
        return fundsol.eval_lambda_with_error(
            fundsol.LambdaQuery(*a, "large_t_asymptotic"), ev)
    if k == "U":
        r = ufunc.eval_U(*a, evaluator=ev)
        return r.value, r.err
    if k == "U_mass":
        # the Mellin transform at s = 1 is the mass: int Lambda dx
        r = ufunc.eval_U(a[0], 1.0, evaluator=ev)
        return ufunc.SQRT_2PI * r.value.real, ufunc.SQRT_2PI * r.err
    if k == "U_small":
        r = ufunc.eval_U_small_t(*a, evaluator=ev)
        return r.value, r.err
    if k == "dU":
        return ufunc.eval_dU_ds(*a, evaluator=ev), None
    if k == "V":
        return ufunc.eval_V(*a, evaluator=ev), None
    if k == "U_line":
        t, re, im_lo, im_hi, n = a
        return ufunc.eval_U_line(t, re + 1j * np.linspace(im_lo, im_hi, n),
                                 evaluator=ev)
    raise ValueError(f"unknown op kind {k!r}")


def _traced(mods, ev, op, tracer, prefix):
    if tracer is None:
        return execute(mods, ev, op)
    with tracer.root(f"{prefix}.{op.kind}"):
        return execute(mods, ev, op)


def timed_phase(mods, ev, workload, seed, seconds, tracer):
    """Closed loop, one client: whole rounds until `seconds` have passed.

    Returns one (status, latency_s, start_s, first touch of its t, kind,
    exception name) record per attempted op, and (time, duration) of each
    calibration pass, taken before the first op and then between ops
    whenever CAL_EVERY_S have passed.
    """
    records, seen = [], set()
    rounds = workload.ops(seed)
    cal = [_timed_calibration()]
    start = last_cal = time.perf_counter()
    while True:
        for op in next(rounds):
            first = None if op.t is None else op.t not in seen
            seen.add(op.t)
            t0 = time.perf_counter()
            out, raised = with_deadline(
                lambda: _traced(mods, ev, op, tracer, "op"),
                workload.deadline_s)
            lat = time.perf_counter() - t0
            value = None if out is None else out[0]
            status = classify(raised is None and all_finite(value), lat,
                              workload.deadline_s, raised)
            records.append((status, lat, t0, first, op.kind, raised))
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                cal.append(_timed_calibration())
                last_cal = time.perf_counter()
        in_cal = sum(d for _, d in cal[1:])
        if time.perf_counter() - start - in_cal >= seconds:
            return records, cal


def _timed_calibration():
    t = time.perf_counter()
    return t, calibration_pass()


def _scalar(value, err):
    v = complex(np.ravel(value)[0])
    e = float(np.ravel(err)[0]) if err is not None else 0.0
    return v, e


def cross_checks(mods, ev, workload):
    """Run the fixed pairs of independent routes, each op under a deadline.

    Returns one record per pair (label, values, errors, ratio, sane) and the
    error / |value| of every op that ran.  That is the reported error, or
    for an op whose error is a stand-in (STAND_IN_ERR) its realised
    distance from the other route, which does report its error.
    """
    out, rel = [], []
    for label, op_a, op_b in workload.cross:
        res_a, raised = with_deadline(lambda: execute(mods, ev, op_a),
                                      CROSS_DEADLINE_S)
        if raised is None:
            res_b, raised = with_deadline(lambda: execute(mods, ev, op_b),
                                          CROSS_DEADLINE_S)
        if raised is not None:
            out.append({"pair": label, "ratio": None, "sane": False,
                        "error": raised})
            continue
        a, ea = _scalar(*res_a)
        b, eb = _scalar(*res_b)
        for op, v, e, other in ((op_a, a, ea, b), (op_b, b, eb, a)):
            if op.kind in STAND_IN_ERR:
                rel.append(abs(v - other) / abs(other))
            elif v != 0.0:
                rel.append(e / abs(v))
        diff = abs(a - b)
        ratio = diff / (ea + eb) if ea + eb > 0.0 else math.inf
        sane = (math.isfinite(diff)
                and diff <= SANITY_REL * max(abs(a), abs(b)))
        out.append({"pair": label, "a": [a.real, a.imag], "err_a": ea,
                    "b": [b.real, b.imag], "err_b": eb, "ratio": ratio,
                    "sane": sane})
    return out, rel


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--cross", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cal = [calibration_pass() for _ in range(CAL_SETUP_PASSES)]
    from wavekin import bfunc, complexfn, fundsol, ufunc

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(complexfn, bfunc, ufunc, fundsol)
    mods = (fundsol, ufunc)
    ev = bfunc.BEvaluator()
    growth = {}
    n0 = len(ev.cache)
    for op in workload.warmup:
        _traced(mods, ev, op, tracer, "warmup")
    growth["setup"] = len(ev.cache) - n0
    cal += [calibration_pass() for _ in range(CAL_SETUP_PASSES)]
    ready_at = time.monotonic()
    result = {"ready_at": ready_at, "setup_cal_s": sum(cal),
              "setup_slowness": slowness_of(cal, CAL_REF_S)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is not None:
        tracer.phase = "timed"
    n0 = len(ev.cache)
    records, cal = timed_phase(mods, ev, workload, args.seed, args.seconds,
                               tracer)
    growth["timed"] = len(ev.cache) - n0
    slowness = local_slowness([(r[2], r[2] + r[1]) for r in records], cal,
                              CAL_REF_S, CAL_WINDOW_S)
    scaled = at_reference_speed([r[:2] for r in records], slowness)
    raw = summarize_ops([r[:2] for r in records], workload.deadline_s)
    first_ms, seen_ms = first_seen_ms(
        [(status, lat, r[3]) for (status, lat), r in zip(scaled, records)])
    result.update(summarize_ops(scaled, workload.deadline_s))
    result.update({
        "raw": {k: raw[k] for k in ("ops_per_s", "latency_p50_ms",
                                    "latency_p90_ms")},
        "slowness": statistics.fmean(slowness),
        "first_t_ms": first_ms,
        "seen_t_ms": seen_ms,
        "failures": sorted({f"{r[4]}:{r[0]}:{r[5]}" for r in records
                            if r[0] != OK}),
    })
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = per_layer(tracer, growth)
        spans = os.path.join(HERE, "out",
                             f"spans-{args.workload}-{args.seed}.tsv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.write(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    if args.cross:
        result["cross"], rel = cross_checks(mods, ev, workload)
        result["err_est_rel_p50"] = float(np.median(rel)) if rel else None
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
