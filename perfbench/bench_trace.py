"""Spans around the library's public callables, and the per-layer figures.

Each callable is wrapped under the name its caller imports it by, so a call
is attributed to the module that made it: ``fundsol.integrate_vertical`` and
``ufunc.integrate_vertical`` become two span names.  Spans are kept in memory
as [name, start, end, parent, work, phase] and written out when the run ends.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from bench_stats import median_or_zero, self_times

UFUNC_NAMES = ("eval_U", "eval_U_small_t", "eval_U_line", "eval_V",
               "eval_dU_ds")
FUNDSOL_NAMES = ("eval_lambda_with_error", "eval_lambda_series", "eval_Q1",
                 "eval_Q2", "l1_norm_lambda", "delta_pairing",
                 "radial_profile")
RESIDUE_NAMES = ("residue_B", "residue_inv_B", "eval_B_prime",
                 "derived_constants")
B_METHODS = ("eval_B", "eval_B_many", "line_interpolator") + RESIDUE_NAMES
VERTICAL_CALLERS = ("fundsol", "ufunc")
CIRCLE_CALLERS = ("bfunc", "complexfn")


def _points(args, _out):
    return int(np.size(args[0]))


def _method_points(args, _out):
    return int(np.size(args[1]))


def _evaluations(_args, out):
    return int(out.evaluations)


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patches = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def root(self, name):
        """Context manager for a span the benchmark opens itself."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.depth = len(tracer._stack)
                self.rec = tracer._enter(name)

            def __exit__(self, *exc):
                self.rec[2] = time.perf_counter()
                # the deadline alarm may land inside a wrapper's own
                # bookkeeping; drop whatever it left on the stack
                del tracer._stack[self.depth:]
                return False

        return _Root()

    def wrap(self, owner, attr, name, work=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig, updated=())
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                out = orig(*args, **kwargs)
                if work is not None:
                    rec[4] = work(args, out)
                return out
            finally:
                self._exit(rec)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self, complexfn, bfunc, ufunc, fundsol):
        for mod in (bfunc, ufunc, fundsol):
            self.wrap(mod, "eval_W", "complexfn.eval_W", _points)
        for mod in (fundsol, ufunc):
            self.wrap(mod, "integrate_vertical",
                      f"contour.integrate_vertical.{_short(mod)}",
                      _evaluations)
        for mod in (bfunc, complexfn):
            self.wrap(mod, "integrate_circle",
                      f"contour.integrate_circle.{_short(mod)}", _evaluations)
        for meth in B_METHODS:
            self.wrap(bfunc.BEvaluator, meth, f"bfunc.{meth}",
                      _method_points if meth == "eval_B_many" else None)
        self.wrap(bfunc, "BLineInterpolator", "bfunc.BLineInterpolator")
        for name in UFUNC_NAMES:
            self.wrap(ufunc, name, f"ufunc.{name}")
        for name in FUNDSOL_NAMES:
            self.wrap(fundsol, name, f"fundsol.{name}")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\twork\tphase\n")
            for name, start, end, parent, work, phase in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{work}"
                         f"\t{phase}\n")


def _short(mod):
    return mod.__name__.rsplit(".", 1)[-1]


class _Totals:
    """calls, work, self time and total time per span name in one phase."""

    def __init__(self, spans, phase):
        selfs = self_times([s[:4] for s in spans])
        self.calls, self.work, self.self_s, self.total_s = {}, {}, {}, {}
        for rec, own in zip(spans, selfs):
            name, start, end, _parent, work, ph = rec
            if ph != phase:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.work[name] = self.work.get(name, 0) + work
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + end - start

    def get(self, table, *names):
        return sum(table.get(n, 0) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_figures(tot, strip_growth, prefix=""):
    """Figures shared by the set-up and timed phases."""
    out = {}
    w = "complexfn.eval_W"
    out[f"{prefix}{w}.points"] = tot.get(tot.work, w)
    out[f"{prefix}{w}.us_per_point"] = 1e6 * _ratio(tot.get(tot.self_s, w),
                                                   tot.get(tot.work, w))
    builds = tot.get(tot.calls, "bfunc.BLineInterpolator")
    out[f"{prefix}bfunc.line_interpolator.builds"] = builds
    out[f"{prefix}bfunc.line_interpolator.build_ms"] = 1e3 * tot.get(
        tot.total_s, "bfunc.BLineInterpolator")
    res = [f"bfunc.{n}" for n in RESIDUE_NAMES]
    out[f"{prefix}bfunc.residue.calls"] = tot.get(tot.calls, *res)
    out[f"{prefix}bfunc.residue.self_s"] = tot.get(tot.self_s, *res)
    out[f"{prefix}bfunc.strip.points_computed"] = strip_growth
    for caller in CIRCLE_CALLERS:
        n = f"contour.integrate_circle.{caller}"
        out[f"{prefix}{n}.calls"] = tot.get(tot.calls, n)
        out[f"{prefix}{n}.evals"] = tot.get(tot.work, n)
        out[f"{prefix}{n}.self_s"] = tot.get(tot.self_s, n)
    return out


def per_layer(tracer, strip_growth):
    """Per-layer metric values from the spans of a traced run.

    ``strip_growth`` maps phase -> growth of the evaluator's strip-point
    cache in that phase.  Names without a prefix cover the timed phase;
    ``setup.`` names cover the set-up phase.
    """
    timed = _Totals(tracer.spans, "timed")
    setup = _Totals(tracer.spans, "setup")
    out = _layer_figures(timed, strip_growth["timed"])
    out.update(_layer_figures(setup, strip_growth["setup"], prefix="setup."))

    lines = timed.get(timed.calls, "bfunc.line_interpolator")
    builds = out["bfunc.line_interpolator.builds"]
    out["bfunc.line_interpolator.hit_ratio"] = (
        1.0 - _ratio(builds, lines) if lines else 0.0)
    b_points = timed.get(timed.work, "bfunc.eval_B_many")
    out["bfunc.eval_B_many.points"] = b_points
    out["bfunc.eval_B_many.us_per_point"] = 1e6 * _ratio(
        timed.get(timed.self_s, "bfunc.eval_B_many"), b_points)
    out["bfunc.strip.hit_ratio"] = (
        max(0.0, 1.0 - strip_growth["timed"] / b_points) if b_points else 0.0)
    for caller in VERTICAL_CALLERS:
        n = f"contour.integrate_vertical.{caller}"
        out[f"{n}.calls"] = timed.get(timed.calls, n)
        out[f"{n}.evals"] = timed.get(timed.work, n)
        out[f"{n}.self_s"] = timed.get(timed.self_s, n)
    for name in UFUNC_NAMES:
        out[f"ufunc.{name}.calls"] = timed.get(timed.calls, f"ufunc.{name}")
        out[f"ufunc.{name}.self_s"] = timed.get(timed.self_s, f"ufunc.{name}")
    for name in FUNDSOL_NAMES:
        n = f"fundsol.{name}"
        if name not in ("l1_norm_lambda", "delta_pairing", "radial_profile"):
            out[f"{n}.calls"] = timed.get(timed.calls, n)
        out[f"{n}.self_s"] = timed.get(timed.self_s, n)
    return out


def first_seen_ms(op_records):
    """p50 latency (ms) of successful ops at a t first touched vs already seen.

    ``op_records`` holds (status, latency_s, first) in run order; first is
    None for ops that take no t.
    """
    ok = [(lat, f) for status, lat, f in op_records
          if status == "ok" and f is not None]
    first = [lat for lat, f in ok if f]
    seen = [lat for lat, f in ok if not f]
    return 1e3 * median_or_zero(first), 1e3 * median_or_zero(seen)
