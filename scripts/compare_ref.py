"""Compare the working tree's Lambda lines, values and timings with a git ref.

Run from anywhere inside the repository:

    python3 scripts/compare_ref.py [REF] [--time] [--rounds N]

REF (default HEAD) is extracted with ``git archive`` into a temporary
directory, and each tree, REF's and the working tree's ``src``, runs in
one subprocess of its own, so the two imports never meet.  The script
prints:

- per line kind ("u", "du", "q2", "su") at t = 0.7 and 2 ("su" at 2
  only), on a fixed q grid: the largest |value difference| over the
  working tree's reported error, the largest |error difference| over that
  error, whether the two trees' values and errors are bit-identical, and
  whether an array call equals the scalar calls exactly in each tree;
- ``l1_norm_lambda`` at t = 0.3, 0.59, 0.7, 1, 1.5 and 4, and
  ``delta_pairing`` of the bump on [0.5, 2], which holds x = 1, at
  t = 0.3, 0.7 and 1.5, in both trees, each with the number of line
  points it took;
- ``delta_pairing`` of the bumps on [0.5, 2] and on [20, 40] at t = 0.3, 1
  and 3 (``ROUTE_PAIRINGS``): the ref tree's value beside the working
  tree's, their relative difference, and each tree's median time per call
  over 5 calls at new t next to the case's (line assembly included), so a
  route change shows its values and its cost side by side;
- the four cross pairs of the benchmark's ``symbol`` workload, eval_U
  against eval_U_small_t and against a one-point eval_U_line at
  (t, s) = (0.5, 1 + 5i) and (0.8, 0.6 + 20i), as |a - b| over the summed
  errors, on a fresh evaluator in each tree;
- per B line of ``B_LINES``, the largest relative disagreement between the
  line interpolant at its own Chebyshev nodes and eval_B_many there: the
  rounding that B's two routes leave, which the cross pairs read;
- per ``eval_U_line`` line of ``U_LINES`` (Re s, t), 121 points on
  Im s in [-60, 60]: the largest |value difference| between the trees
  over their summed errors, the share of points where it exceeds 1, and
  whether the two trees' values are bit-identical;
- ``eval_dU_ds`` on the (t, s) grid ``DU_POINTS``, t down to 1e-6: the
  relative gap between the trees, and each tree's relative distance to a
  fourth-order central difference (step 0.01 in Re s) of eval_U_small_t,
  or of eval_U at t >= 1;
- ``eval_V`` on the (z, s) grid ``V_POINTS``: |V| and the relative gap
  between the trees, and whether their values are bit-identical;
- ``eval_dlambda_dt`` on the (t, x) grid ``DT_POINTS``: each tree's value
  and its distance to a fourth-order central difference in t (step
  ``DT_STEP``) of ``eval_lambda`` on the "direct" regime, which reads only
  public routes, and the work tree's distance over the ref tree's;
- ``eval_B_prime`` at the points ``B_PRIME_POINTS``: each tree's relative
  distance to a Cauchy derivative circle of radius 0.05 on eval_B_many;
- B' on the output grid of the c = 1 lines (``line._b_prime_grid``),
  which the "du" line reads: per tree, the largest and the median relative
  distance to eval_B_prime at every 97th grid node.

With ``--time`` it then times, interleaved between the two trees round
by round, a one-q query at a new t (line assembly included), one
``large_t_asymptotic`` point at a new t (a "q2" assembly, Q1 and one
query), one ``eval_dU_ds`` and one ``eval_V`` at a new Im s (B's point
cache cold, its line blocks warm; ``dU_new_s``, ``V_new_s``), a 100-point
``eval_U_line`` line of step 20/99 at a new off-grid Re s, as the
benchmark's ``symbol`` workload draws it (``U_line_new_s``), a warm 256-point ``radial_profile``, a warm
``l1_norm_lambda``, a warm ``delta_pairing`` of that bump at t = 1.5, and
a 256-point ``radial_profile`` on the fixed grid of the benchmark's
``lambda_integrals`` workload and an ``l1_norm_lambda``, each at a new t
(line assembly included), and that profile at a new t after two untimed
profiles on the grid in the same round, so a store that admits an array
on its second sighting holds it (``radial_third_t``), then
``eval_lambda`` at x = 1 and ``l1_norm_lambda`` at new t next to 0.55
and 0.3, where the ray integrals at q = log x next to 0 decide the cost
(``x_one_new_t``, ``l1_stall_new_t``), and ``delta_pairing`` of that bump
at new t next to 0.3 (``pairing_stall_new_t``), and that profile on the
benchmark's grid and an ``l1_norm_lambda`` at the same new t, timed
together, as the ``lambda_integrals`` workload interleaves them
(``l1_after_radial_new_t``).  It prints per case the median and quartiles
of the per-round ratio working tree / REF (below 1 is faster).  It then
prints, per tree, the store of q-only query rows: the entry count, hits
and misses of ``line._q_store.cache_info()`` where the tree has that
cache; the entry count and bytes of ``_Q_ROWS``, with the keys held for
arrays seen once (``_Q_SEEN``), where it has those; or n/a where the tree
has no store.  Each private name is read from the module that defines it
in that tree: ``line``, or ``fundsol`` in a tree that has no ``line``.
BLAS runs one thread.  Only the standard library and numpy are used; no
test runs this script.
"""

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (kind, abscissa, t) of the compared lines
LINES = [(kind, 1.0, t) for kind in ("u", "du", "q2", "su")
         for t in (0.7, 2.0) if kind != "su" or t > 1.0]
L1_TS = (0.3, 0.59, 0.7, 1.0, 1.5, 4.0)
#: (t, lo, hi) of the compared pairings: bumps whose support holds x = 1
PAIRINGS = ((0.3, 0.5, 2.0), (0.7, 0.5, 2.0), (1.5, 0.5, 2.0))
#: (t, lo, hi) of the pairings compared with per-call timings: a bump that
#: holds x = 1 and one far right of it
ROUTE_PAIRINGS = [(t, lo, hi) for lo, hi in ((0.5, 2.0), (20.0, 40.0))
                  for t in (0.3, 1.0, 3.0)]
TIME_CASES = ("one_q_new_t", "large_t_new_t", "dU_new_s", "V_new_s",
              "U_line_new_s", "radial_256",
              "l1_norm", "pairing", "radial_new_t", "l1_new_t",
              "radial_third_t", "x_one_new_t", "l1_stall_new_t",
              "pairing_stall_new_t", "l1_after_radial_new_t")
#: untimed calls of a case before its timed ones; "radial_third_t" makes
#: two, so that its grid has been seen twice
WARM_CALLS = {"radial_third_t": 2}
#: (t, s) of the symbol workload's cross pairs
SYMBOL_PAIRS = ((0.5, 1.0 + 5.0j), (0.8, 0.6 + 20.0j))
#: (abscissa, Im s from, to) of the compared B lines
B_LINES = ((0.3, -6.0, 4.0), (1.0, -2.0, 20.0), (1.3, -7.0, 47.0),
           (1.5, -22.0, 32.0), (1.35, 170.0, 196.0), (3.5, -196.0, -170.0))
#: (Re s, t) of the compared eval_U_line lines
U_LINES = [(re, t) for re in (0.6, 1.0, 1.3, 1.81, 1.9)
           for t in (0.3, 1.0, 3.0)]
#: (t, s) of the compared eval_dU_ds values
DU_POINTS = [(t, s) for t in (1e-6, 1e-4, 0.01, 0.2, 0.9, 2.5)
             for s in (0.5 + 10.0j, 1.2 + 3.0j, 1.7 + 50.0j)]
#: (z, s) of the compared eval_V values
V_POINTS = [(z, s) for z in (1.0, 2.0 + 3.0j, 0.3 - 2.5j, 1e3 + 50.0j)
            for s in (1.2 + 0.5j, 0.7 - 40.0j, 1.9 + 20.0j)]
#: (t, x) of the compared eval_dlambda_dt values
DT_POINTS = [(t, x) for t in (0.55, 0.8, 1.0, 1.5, 2.5)
             for x in (1e-3, 0.5, 0.999, 1.0, 1.001, 2.0, 100.0)]
#: step in t of the central difference they are held to
DT_STEP = 1e-3
#: points of the compared eval_B_prime values: walks of -4 to 6 steps
B_PRIME_POINTS = [complex(re, im) for re in (-2.6, -0.7, 0.6, 1.2, 2.3, 7.3)
                  for im in (0.5, -40.0)]

# The worker reads one JSON request per line on stdin and answers one JSON
# line on stdout.  argv[1] is the src directory to import from.
WORKER = r'''
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from wavekin import fundsol, ufunc
try:                        # the assembled line and its store
    from wavekin import line as home
except ImportError:         # a tree where fundsol holds them
    home = fundsol
from wavekin.bfunc import BEvaluator
from wavekin.contour import integrate_circle

ev = BEvaluator()
Q = np.concatenate(([0.0], -np.logspace(-16, 1.6, 48),
                    np.logspace(-16, 1.6, 48)))
new_t = [0.7]
large_t = [3.0]
du_im = [12.0]
v_im = [12.0]
line_re = [0.733]
radial_t = [1.3]
l1_t = [1.2]
x_one_t = [0.55]
l1_stall_t = [0.3]
pairing_stall_t = [0.3]
after_radial_t = [1.1]


def with_points(fn, *args):
    """(fn(*args, evaluator=ev), the line points it took)."""
    points = [0]
    real = home._LineAssembly.__call__

    def counted(self, q):
        points[0] += np.size(q)
        return real(self, q)

    home._LineAssembly.__call__ = counted
    try:
        return fn(*args, evaluator=ev), points[0]
    finally:
        home._LineAssembly.__call__ = real


def values(req):
    out = {}
    for kind, c, t in req["lines"]:
        line = home._line_assembly(ev, t, c, kind)
        q = Q[1:] if kind == "du" else Q
        vals, errs = line(q)
        scalar = [line(float(x)) for x in q]
        same = (np.array_equal(vals, [v for v, _ in scalar])
                and np.array_equal(errs, [e for _, e in scalar]))
        out[f"{kind} {c} {t}"] = {"val": vals.tolist(), "err": errs.tolist(),
                                  "array_is_scalar": bool(same)}
    out["l1"] = [with_points(fundsol.l1_norm_lambda, t) for t in req["l1"]]
    bump = fundsol.TestFunction.bump
    out["pairing"] = [with_points(fundsol.delta_pairing, t, bump(lo, hi))
                      for t, lo, hi in req["pairing"]]
    return out


def pairings(req):
    bump = fundsol.TestFunction.bump
    out = []
    for t, lo, hi in req["cases"]:
        value = fundsol.delta_pairing(t, bump(lo, hi), evaluator=ev)
        times = []
        for k in range(1, 6):
            t0 = time.perf_counter()
            fundsol.delta_pairing(t * (1.0 + k * 1e-7), bump(lo, hi),
                                  evaluator=ev)
            times.append(time.perf_counter() - t0)
        out.append([value, sorted(times)[2]])
    return {"pairings": out}


def symbol(req):
    fresh = BEvaluator()
    ratios = []
    for t, s in req["pairs"]:
        s = complex(*s)
        a = ufunc.eval_U(t, s, evaluator=fresh)
        b = ufunc.eval_U_small_t(t, s, evaluator=fresh)
        v, e = ufunc.eval_U_line(t, np.array([s]), evaluator=fresh)
        ratios.append([abs(a.value - b.value) / (a.err + b.err),
                       abs(a.value - v[0]) / (a.err + e[0])])
    x = np.cos(np.pi * (np.arange(24) + 0.5) / 24)
    lines = []
    for re, lo, hi in req["lines"]:
        line = fresh.line_interpolator(re, lo, hi)
        half = np.broadcast_to(line.half, line.mids.shape)
        nodes = re + 1j * (line.mids[:, None] + half[:, None] * x)
        pts = fresh.eval_B_many(nodes)
        lines.append(float(np.max(np.abs(line(nodes) - pts) / np.abs(pts))))
    u_lines = []
    for re, t in req["u_lines"]:
        v, e = ufunc.eval_U_line(t, re + 1j * np.linspace(-60.0, 60.0, 121),
                                 evaluator=fresh)
        u_lines.append([v.real.tolist(), v.imag.tolist(), e.tolist()])
    return {"ratios": ratios, "lines": lines, "u_lines": u_lines}


def derivative(req):
    fresh = BEvaluator()
    du = []
    for t, (re, im) in req["du"]:
        s = complex(re, im)
        d = ufunc.eval_dU_ds(t, s, evaluator=fresh)
        route = ufunc.eval_U_small_t if t < 1.0 else ufunc.eval_U
        u = {k: route(t, s + 0.01 * k, evaluator=fresh).value
             for k in (-2, -1, 1, 2)}
        fd = (8.0 * (u[1] - u[-1]) - (u[2] - u[-2])) / 0.12
        du.append([d.real, d.imag, abs(d - fd) / abs(fd)])
    v = [ufunc.eval_V(complex(*z), complex(*s), evaluator=fresh)
         for z, s in req["v"]]
    b_prime = []
    for re, im in req["b_prime"]:
        s = complex(re, im)
        circle = integrate_circle(
            lambda z: fresh.eval_B_many(z) / (z - s) ** 2, s, 0.05,
            n_min=32).value
        b_prime.append(abs(fresh.eval_B_prime(s) - circle) / abs(circle))
    grid = home._b_prime_grid(fresh, 1.0)[::97]
    ref = np.array([fresh.eval_B_prime(1.0 + 1j * v)
                    for v in home._V_GRID[::97]])
    rel = np.abs(grid - ref) / np.abs(ref)
    dt = []
    for t, x in req["dt"]:
        h = req["dt_step"]
        lam = {k: fundsol.eval_lambda(
                   fundsol.LambdaQuery(t + k * h, x, "direct"), fresh)
               for k in (-2, -1, 1, 2)}
        fd = (8.0 * (lam[1] - lam[-1]) - (lam[2] - lam[-2])) / (12.0 * h)
        d = fundsol.eval_dlambda_dt(t, x, fresh)
        dt.append([d, abs(d - fd)])
    return {"du": du, "v": [[x.real, x.imag] for x in v], "b_prime": b_prime,
            "grid": [float(rel.max()), float(np.median(rel))], "dt": dt}


def run(case):
    if case == "one_q_new_t":
        new_t[0] += 1e-6
        fundsol.eval_lambda_with_error(fundsol.LambdaQuery(new_t[0], 1.35),
                                       ev)
    elif case == "large_t_new_t":
        large_t[0] += 1e-6
        fundsol.eval_lambda_with_error(
            fundsol.LambdaQuery(large_t[0], 2.0, "large_t_asymptotic"), ev)
    elif case == "dU_new_s":
        du_im[0] += 1e-3
        ufunc.eval_dU_ds(0.7, complex(1.0, du_im[0]), evaluator=ev)
    elif case == "V_new_s":
        v_im[0] += 1e-3
        ufunc.eval_V(1.2 + 0.4j, complex(1.0, v_im[0]), evaluator=ev)
    elif case == "U_line_new_s":
        line_re[0] += 1.1e-3
        ufunc.eval_U_line(
            0.9, line_re[0] + 1j * np.linspace(13.3, 33.3, 100),
            evaluator=ev)
    elif case == "radial_256":
        fundsol.radial_profile(1.0, 1e-3, 1e3, 256, evaluator=ev)
    elif case == "pairing":
        fundsol.delta_pairing(1.5, fundsol.TestFunction.bump(0.5, 2.0),
                              evaluator=ev)
    elif case in ("radial_new_t", "radial_third_t"):
        radial_t[0] += 1e-6
        fundsol.radial_profile(radial_t[0], 1e-2, 1e2, 256, evaluator=ev)
    elif case == "l1_new_t":
        l1_t[0] += 1e-6
        fundsol.l1_norm_lambda(l1_t[0], evaluator=ev)
    elif case == "x_one_new_t":
        x_one_t[0] += 1e-6
        fundsol.eval_lambda_with_error(fundsol.LambdaQuery(x_one_t[0], 1.0),
                                       ev)
    elif case == "l1_stall_new_t":
        l1_stall_t[0] += 1e-6
        fundsol.l1_norm_lambda(l1_stall_t[0], evaluator=ev)
    elif case == "pairing_stall_new_t":
        pairing_stall_t[0] += 1e-6
        fundsol.delta_pairing(pairing_stall_t[0],
                              fundsol.TestFunction.bump(0.5, 2.0),
                              evaluator=ev)
    elif case == "l1_after_radial_new_t":
        after_radial_t[0] += 1e-6
        fundsol.radial_profile(after_radial_t[0], 1e-2, 1e2, 256,
                               evaluator=ev)
        fundsol.l1_norm_lambda(after_radial_t[0], evaluator=ev)
    else:
        fundsol.l1_norm_lambda(1.0, evaluator=ev)


def timing(req):
    for _ in range(req["warm"]):
        run(req["case"])    # warm: B grids, spectra, assemblies, store
    times = []
    for _ in range(req["reps"]):
        t0 = time.perf_counter()
        run(req["case"])
        times.append(time.perf_counter() - t0)
    return {"s": sorted(times)[len(times) // 2]}


def store(req):
    if hasattr(home, "_q_store"):
        info = home._q_store.cache_info()
        return {"entries": info.currsize, "hits": info.hits,
                "misses": info.misses}
    rows = getattr(home, "_Q_ROWS", None)
    if rows is None:
        return {"entries": None}
    seen = getattr(home, "_Q_SEEN", None)
    if hasattr(home, "_q_store_bytes"):
        used = home._q_store_bytes()
    else:   # a tree that keeps every array: (key, rows) entries alone
        used = sum(map(home._q_rows_bytes, rows.items()))
    return {"entries": len(rows), "bytes": used,
            "keys": None if seen is None else len(seen)}


for line in sys.stdin:
    req = json.loads(line)
    ans = {"values": values, "pairings": pairings, "symbol": symbol,
           "derivative": derivative, "time": timing,
           "store": store}[req["op"]](req)
    print(json.dumps(ans), flush=True)
'''


class Tree:
    """One subprocess importing wavekin from one src directory."""

    def __init__(self, src):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(src)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env)

    def ask(self, **req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker exited; see its traceback above")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def extract(ref, dest):
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return pathlib.Path(dest) / "src"


def compare_values(ref, work):
    req = {"op": "values", "lines": LINES, "l1": L1_TS, "pairing": PAIRINGS}
    a, b = ref.ask(**req), work.ask(**req)
    print(f"{'line':<14}{'max|dval|/err':>15}{'max|derr|/err':>15}"
          f"{'identical':>11}{'array==scalar ref/work':>24}")
    for kind, c, t in LINES:
        key = f"{kind} {c} {t}"
        ra, rb = a[key], b[key]
        dval = max(abs(x - y) / e for x, y, e in
                   zip(ra["val"], rb["val"], rb["err"]))
        derr = max(abs(x - y) / e for x, y, e in
                   zip(ra["err"], rb["err"], rb["err"]))
        same = ra["val"] == rb["val"] and ra["err"] == rb["err"]
        flags = f"{ra['array_is_scalar']}/{rb['array_is_scalar']}"
        print(f"{kind:<4}c={c:<4}t={t:<4}{dval:>15.3g}{derr:>15.3g}"
              f"{str(same):>11}{flags:>24}")
    names = ([f"l1_norm_lambda(t={t})" for t in L1_TS]
             + [f"delta_pairing(t={t}, bump({lo}, {hi}))"
                for t, lo, hi in PAIRINGS])
    for name, (x, nx), (y, ny) in zip(names, a["l1"] + a["pairing"],
                                      b["l1"] + b["pairing"]):
        print(f"{name}: ref {x!r}  work {y!r}  "
              f"rel diff {abs(x - y) / abs(x):.3g}  "
              f"line points ref {nx}  work {ny}")


def compare_pairings(ref, work):
    req = {"op": "pairings", "cases": ROUTE_PAIRINGS}
    a, b = ref.ask(**req), work.ask(**req)
    print(f"\n{'delta_pairing':<26}{'ref':>24}{'work':>24}{'rel diff':>10}"
          f"{'ref ms':>9}{'work ms':>9}")
    for (t, lo, hi), (x, tx), (y, ty) in zip(ROUTE_PAIRINGS, a["pairings"],
                                             b["pairings"]):
        print(f"{f't={t}, bump({lo}, {hi})':<26}{x!r:>24}{y!r:>24}"
              f"{abs(x - y) / abs(x):>10.2g}{1e3 * tx:>9.3f}{1e3 * ty:>9.3f}")


def compare_symbol(ref, work):
    req = {"op": "symbol", "lines": B_LINES, "u_lines": U_LINES,
           "pairs": [(t, (s.real, s.imag)) for t, s in SYMBOL_PAIRS]}
    a, b = ref.ask(**req), work.ask(**req)
    print(f"\n{'symbol cross pair, |a - b| / (err_a + err_b)':<52}"
          f"{'ref':>10}{'work':>10}")
    for (t, s), ra, rb in zip(SYMBOL_PAIRS, a["ratios"], b["ratios"]):
        for name, x, y in zip(("eval_U_small_t", "eval_U_line"), ra, rb):
            print(f"{f'eval_U~{name}@({t},{s})':<52}{x:>10.4g}{y:>10.4g}")
    print(f"{'B line vs points, max relative difference':<52}"
          f"{'ref':>10}{'work':>10}")
    for (re, lo, hi), x, y in zip(B_LINES, a["lines"], b["lines"]):
        print(f"{f'Re s = {re}, Im s in [{lo}, {hi}]':<52}"
              f"{x:>10.3g}{y:>10.3g}")
    print(f"{'eval_U_line, |dvalue| / (err_a + err_b)':<40}{'max':>10}"
          f"{'share > 1':>11}{'identical':>11}")
    for (re, t), (ra, ia, ea), (rb, ib, eb) in zip(U_LINES, a["u_lines"],
                                                   b["u_lines"]):
        ratio = [abs(complex(x, y) - complex(u, v)) / (e + f)
                 for x, y, e, u, v, f in zip(ra, ia, ea, rb, ib, eb)]
        share = sum(r > 1.0 for r in ratio) / len(ratio)
        same = (ra, ia, ea) == (rb, ib, eb)
        print(f"{f'Re s = {re}, t = {t}':<40}{max(ratio):>10.3g}"
              f"{share:>11.3f}{str(same):>11}")


def compare_derivative(ref, work):
    req = {"op": "derivative",
           "du": [(t, (s.real, s.imag)) for t, s in DU_POINTS],
           "v": [((complex(z).real, complex(z).imag), (s.real, s.imag))
                 for z, s in V_POINTS],
           "b_prime": [(s.real, s.imag) for s in B_PRIME_POINTS],
           "dt": DT_POINTS, "dt_step": DT_STEP}
    a, b = ref.ask(**req), work.ask(**req)
    print(f"\n{'eval_dU_ds':<28}{'|dU|':>10}{'tree gap':>10}"
          f"{'ref ~ diff':>12}{'work ~ diff':>12}   (relative)")
    for (t, s), (ra, ia, da), (rb, ib, db) in zip(DU_POINTS, a["du"],
                                                  b["du"]):
        x, y = complex(ra, ia), complex(rb, ib)
        print(f"{f't = {t:g}, s = {s}':<28}{abs(x):>10.3g}"
              f"{abs(x - y) / abs(x):>10.2g}{da:>12.2g}{db:>12.2g}")
    print(f"{'eval_V':<36}{'|V|':>10}{'tree gap':>10}{'identical':>11}")
    for (z, s), (ra, ia), (rb, ib) in zip(V_POINTS, a["v"], b["v"]):
        x, y = complex(ra, ia), complex(rb, ib)
        print(f"{f'z = {z}, s = {s}':<36}{abs(x):>10.3g}"
              f"{abs(x - y) / abs(x):>10.2g}{str(x == y):>11}")
    print(f"{'eval_B_prime ~ circle, relative':<40}{'ref':>10}{'work':>10}")
    for s, x, y in zip(B_PRIME_POINTS, a["b_prime"], b["b_prime"]):
        print(f"{f's = {s}':<40}{x:>10.2g}{y:>10.2g}")
    for name, x, y in zip(("max", "median"), a["grid"], b["grid"]):
        label = "B' grid c = 1 ~ eval_B_prime, " + name
        print(f"{label:<40}{x:>10.2g}{y:>10.2g}")
    print(f"{'eval_dlambda_dt':<20}{'ref':>20}{'work':>20}{'ref ~ diff':>12}"
          f"{'work ~ diff':>12}{'work/ref':>10}")
    for (t, x), (va, da), (vb, db) in zip(DT_POINTS, a["dt"], b["dt"]):
        print(f"{f't = {t}, x = {x}':<20}{va:>20.12g}{vb:>20.12g}"
              f"{da:>12.2g}{db:>12.2g}{db / da:>10.3g}")


def compare_times(ref, work, rounds):
    print(f"\n{'case':<22}{'median':>9}{'q1':>9}{'q3':>9}   "
          f"(work / ref, {rounds} interleaved rounds)")
    reps = {"one_q_new_t": 20, "large_t_new_t": 20, "dU_new_s": 20,
            "V_new_s": 20, "U_line_new_s": 20,
            "radial_256": 5, "l1_norm": 1, "pairing": 3, "radial_new_t": 5,
            "l1_new_t": 3, "radial_third_t": 5, "x_one_new_t": 20,
            "l1_stall_new_t": 3, "pairing_stall_new_t": 3,
            "l1_after_radial_new_t": 3}
    for case in TIME_CASES:
        ratios = []
        for k in range(rounds):
            order = (ref, work) if k % 2 == 0 else (work, ref)
            got = {id(tree): tree.ask(op="time", case=case, reps=reps[case],
                                      warm=WARM_CALLS.get(case, 1))
                   for tree in order}
            ratios.append(got[id(work)]["s"] / got[id(ref)]["s"])
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        print(f"{case:<22}{med:>9.3f}{q1:>9.3f}{q3:>9.3f}")
    for name, tree in (("ref", ref), ("work", work)):
        got = tree.ask(op="store")
        if got["entries"] is None:
            print(f"q-row store, {name}: n/a")
            continue
        if "hits" in got:
            print(f"q-row store, {name}: {got['entries']} entries, "
                  f"{got['hits']:,} hits, {got['misses']:,} misses")
            continue
        keys = ("" if got["keys"] is None
                else f", {got['keys']} keys of arrays seen once")
        print(f"q-row store, {name}: {got['entries']} entries{keys}, "
              f"{got['bytes']:,} bytes")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("ref", nargs="?", default="HEAD")
    ap.add_argument("--time", action="store_true")
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        try:
            trees.append(Tree(extract(args.ref, tmp)))
            trees.append(Tree(ROOT / "src"))
            compare_values(*trees)
            compare_pairings(*trees)
            compare_symbol(*trees)
            compare_derivative(*trees)
            if args.time:
                compare_times(*trees, args.rounds)
        finally:
            for tree in trees:
                tree.close()


if __name__ == "__main__":
    main()
