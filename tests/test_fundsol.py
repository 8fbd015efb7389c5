"""Tests for the fundamental solution Lambda(t, x) and its derived quantities.

The direct line is checked against independent routes: the log-regularized
line (dU/ds), the long-time decomposition Q1/Q2, the near-one exponent
2t - 1, the Mellin mass sqrt(2 pi) U(t, 1) = int Lambda dx, and finite
differences of Lambda itself.  One array call of an assembled line must
give exactly what scalar calls give, and an assembly at a new t, which reads
B from the line table of an earlier t, exactly what a cold build gives.
The tabulated Mellin--Barnes lines of the asymptotic routes are checked
against adaptive vertical quadrature and an independent trapezoid rule,
both on B at scattered points.
"""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.integrate
from scipy.special import loggamma

from wavekin import bfunc, fundsol
from wavekin.bfunc import BEvaluator, default_evaluator
from wavekin.contour import ContourSpec, TailModel, integrate_vertical
from wavekin.errors import ConvergenceError
from wavekin.fundsol import (
    LambdaQuery,
    _C_DT,
    _adaptive_panels,
    _core_mass,
    _h_casc,
    _ledger,
    _line_assembly,
    _line_table,
    _mb_line,
    _nu_hat,
    _q1_with_error,
    _series_constants,
    delta_pairing,
    eval_dlambda_dt,
    eval_dlambda_dx,
    eval_G,
    eval_lambda,
    eval_lambda_log,
    eval_lambda_series,
    eval_lambda_with_error,
    eval_Q1,
    eval_Q2,
    l1_norm_lambda,
    radial_profile,
    transport_apply,
)
from wavekin.kernels import eval_H
from wavekin.ufunc import SQRT_2PI, eval_U


@pytest.fixture(scope="module")
def ev():
    return default_evaluator()


def _lam(t, x, regime, ev):
    return eval_lambda_with_error(LambdaQuery(t, x, regime), ev)


# ---------------- the direct line and its oracles ----------------


@pytest.mark.parametrize("t, x", [(0.25, 1.1), (0.4, 1e-3), (0.5, 2.0),
                                  (0.52, 0.9), (1.5, 1e3)])
def test_auto_is_the_direct_line(ev, t, x):
    assert _lam(t, x, "auto", ev) == _lam(t, x, "direct", ev)


@pytest.mark.parametrize("t", [0.25, 0.5])
@pytest.mark.parametrize("regime", ["auto", "direct"])
def test_lambda_is_infinite_at_x_one_for_t_up_to_half(ev, t, regime):
    assert _lam(t, 1.0, regime, ev) == (math.inf, math.inf)


@pytest.mark.parametrize("t", [0.25, 0.4])
@pytest.mark.parametrize("x", [0.5, 0.9, 1.1, 2.0])
def test_direct_agrees_with_log_regularized(ev, t, x):
    val, err = _lam(t, x, "direct", ev)
    ref, ref_err = _lam(t, x, "log_regularized", ev)
    assert abs(val - ref) <= err + ref_err


def test_near_one_exponent(ev):
    # Lambda ~ A |x-1|^(2t-1): the scaled value settles to A
    t = 0.25
    amp = [eval_lambda_log(t, math.log1p(u), "auto", ev) * u ** (1 - 2 * t)
           for u in (1e-14, 1e-30)]
    assert amp[0] == pytest.approx(amp[1], rel=1e-6)


def test_direct_agrees_with_large_t_asymptotic(ev):
    val, _ = _lam(3.0, 2.0, "direct", ev)
    ref, _ = _lam(3.0, 2.0, "large_t_asymptotic", ev)
    assert abs(val - ref) < 5e-10


@pytest.mark.parametrize("t, x", [(1.5, 0.5), (1.5, 4.0), (3.0, 0.3),
                                  (3.0, 8.0), (5.0, 2.0), (5.0, 12.0),
                                  (2.0, 1.0)])
def test_direct_agrees_with_large_t_asymptotic_within_errors(ev, t, x):
    val, err = _lam(t, x, "direct", ev)
    ref, ref_err = _lam(t, x, "large_t_asymptotic", ev)
    assert abs(val - ref) <= err + ref_err


# ---------------- array evaluation of the line ----------------

_Q = np.array([-30.0, -2.0, -0.3, -1e-9, -4e-18, 4e-18, 1e-9, 0.3, 2.0,
               30.0])


@pytest.mark.parametrize("kind, t, c, with_zero", [
    ("u", 3.0, 1.0, True),
    ("u", 0.25, 1.0, False),
    ("du", 0.4, 1.0, False),
    ("ut", 1.5, _C_DT, True),
    ("su", 2.0, 1.0, True),
    ("q2", 3.0, 1.0, True),
])
def test_array_call_equals_scalar_calls(ev, kind, t, c, with_zero):
    # q = 0 is left out where the route refuses it: u for t <= 1/2, and du
    q = np.sort(np.append(_Q, 0.0)) if with_zero else _Q
    line = _line_assembly(ev, t, c, kind)
    vals, errs = line(q)
    assert vals.shape == errs.shape == q.shape
    scalar = [line(x) for x in q]
    assert np.array_equal(vals, [v for v, _ in scalar])
    assert np.array_equal(errs, [e for _, e in scalar])


def test_batches_of_a_long_call_change_no_value(ev, monkeypatch):
    line = _line_assembly(ev, 0.7, 1.0, "u")
    q = np.linspace(-9.0, 9.0, 2 * fundsol._Q_BATCH + 37)
    vals, errs = line(q)
    monkeypatch.setattr(fundsol, "_Q_BATCH", q.size)
    whole = line(q)
    assert np.array_equal(vals, whole[0]) and np.array_equal(errs, whole[1])


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_radial_profile_is_pointwise_lambda(ev, t):
    prof = radial_profile(t, 1e-2, 1e2, 64, evaluator=ev)
    pointwise = [eval_lambda(LambdaQuery(t, float(x)), ev) for x in prof.grid]
    assert np.array_equal(prof.values, pointwise)


@pytest.mark.parametrize("t, ref, ref_err", [
    (0.55, 3.8065152615146576, 4.5e-8),
    (3.0, 0.09310705393108326, 1.6e-8),
])
def test_vertical_ray_at_x_one(ev, t, ref, ref_err):
    # reference values from a panel-by-panel sweep of the same vertical ray
    val, err = _lam(t, 1.0, "auto", ev)
    assert abs(val - ref) <= ref_err
    assert err == pytest.approx(ref_err, rel=0.05)


# ---------------- tabulated lines of the asymptotic routes ----------------


def _vertical(f, c, abs_tol, lt):
    """(1/2 i pi) int_{Re s = c} f ds by adaptive panels, real part."""
    spec = ContourSpec(abscissa=c, half_height=48.0, rel_tol=1e-11,
                       abs_tol=abs_tol)
    res = integrate_vertical(f, spec, tail=TailModel("exp", 1.35),
                             osc_freq=abs(lt))
    return (res.value / (2j * math.pi)).real


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 1.7, 3.0, 6.0])
def test_q1_line_matches_vertical_quadrature(ev, theta):
    c1, lt = _ledger(ev).c1.real, math.log(theta)

    def f(s):
        return c1 * ev.eval_B_many(s) * np.exp(loggamma(3.0 - s) - s * lt)

    ref = _vertical(f, 1.5, 1e-16, lt)
    assert _q1_with_error(theta, ev)[0] == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("t", [0.52, 0.65])
@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_nu_hat_line_matches_vertical_quadrature(ev, m, t):
    lt = math.log(t)

    def f(w):
        return np.exp(loggamma(w - m) - w * lt) / ev.eval_B_many(w)

    ref = _vertical(f, m - 0.5, 1e-18, lt)
    assert _nu_hat(m, t, ev)[0] == pytest.approx(ref, rel=1e-11)


def test_cascade_profiles_match_a_finer_trapezoid(ev):
    # B(z - w) straight from eval_B_many, on the full line, at half the step
    theta = 1.7 / 0.65
    h = fundsol._MB_H / 2.0
    n = int(round(fundsol._MB_V / h))
    w = -0.5 + 1j * h * np.arange(-n, n + 1)
    weights = np.full(w.size, h)
    weights[[0, -1]] *= 0.5
    casc = _series_constants(ev).casc
    assert len(casc) == 6
    for z, _ in casc:
        f = np.exp(loggamma(w) + w * math.log(theta)) * ev.eval_B_many(z - w)
        ref = (weights @ f).real / (2.0 * math.pi)
        assert _h_casc(z, theta, ev)[0] == pytest.approx(ref, rel=1e-11)


def test_unresolved_line_raises():
    # a pole 1e-3 from the line keeps the h and 2h rules apart down to h/8
    line = fundsol._MBLine(lambda s: 1.0 / (s - (1e-3 + 5j)), 0.0, 1e-18)
    with pytest.raises(ConvergenceError):
        line(0.0)


def test_asymptotic_routes_need_no_vertical_quadrature(ev, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrate_vertical was called")

    monkeypatch.setattr(fundsol, "integrate_vertical", refuse)
    assert math.isfinite(eval_lambda_series(0.55, 2.5, evaluator=ev))
    val, err = _lam(3.0, 2.0, "large_t_asymptotic", ev)
    assert math.isfinite(val) and math.isfinite(err)


def test_q1_small_theta_law(ev):
    # Q1(0+) = 2 c1 Res(B, 0), approached linearly in theta (slope -1.567)
    led = _ledger(ev)
    q1_0 = 2.0 * led.c1.real * led.resB0.real
    dev = [eval_Q1(theta, ev) / q1_0 - 1.0 for theta in (1e-3, 1e-4)]
    assert abs(dev[0]) <= 2e-3 and abs(dev[1]) <= 2e-4
    assert dev[0] / dev[1] == pytest.approx(10.0, rel=0.01)


@pytest.mark.parametrize("theta", [1e-5, 1e-6])
def test_q1_tiny_theta_meets_small_theta_law(ev, theta):
    # the terms of the line sum grow like theta^(-3/2), so the h and 2h
    # rules differ by rounding alone; the rounding floor accepts that and
    # enters the error.  The slope 1.567 is known to about 5e-4.
    led = _ledger(ev)
    q1_0 = 2.0 * led.c1.real * led.resB0.real
    value, err = _q1_with_error(theta, ev)
    law = q1_0 * (1.0 - 1.567 * theta)
    assert abs(value - law) <= err + 5e-4 * theta * q1_0
    assert err <= 1e-6 * q1_0


@pytest.mark.parametrize("theta", [100.0, 300.0])
def test_q1_large_theta_law(ev, theta):
    # Q1 ~ (c1 B(5)/2) theta^-5, the residue of Gamma(3 - s) at s = 5
    limit = _ledger(ev).c1.real * ev.eval_B(5.0).real / 2.0
    assert abs(theta ** 5 * eval_Q1(theta, ev) / limit - 1.0) <= 2.0 / theta


def test_q2_small_theta_law_is_its_large_t_term(ev):
    # Q2(t, 0+) t^4 -> -6 Res(1/B, 4) Res(B, 0) only as t grows: at
    # theta = 1e-4 the miss is 21 % at t = 1.5 and 0.41 % at t = 5
    led = _ledger(ev)
    law = -6.0 * (led.rho4 * led.resB0).real
    miss = [abs(t ** 4 * eval_Q2(t, 1e-4, ev) / law - 1.0)
            for t in (1.5, 3.0, 5.0)]
    assert miss[0] > miss[1] > miss[2]
    assert miss[2] < 1e-2


# ---------------- integrals ----------------


@pytest.mark.parametrize("t", [0.1, 0.3, 1.0])
def test_l1_norm_is_the_mellin_mass(ev, t):
    rel_tol = 1e-6
    l1 = l1_norm_lambda(t, rel_tol=rel_tol, evaluator=ev)
    mass = SQRT_2PI * eval_U(t, 1.0, evaluator=ev).value.real
    assert abs(l1 - mass) <= 2 * rel_tol * mass


def test_delta_pairing_across_the_core_returns(ev):
    # imported through the module: pytest would try to collect the class
    val = delta_pairing(0.3, fundsol.TestFunction.bump(0.5, 3.0),
                        evaluator=ev)
    assert math.isfinite(val) and val > 0.0


@pytest.mark.parametrize("lo, hi", [(1.2, 2.5), (0.62, 1.9)])
def test_delta_pairing_matches_quad(ev, lo, hi):
    # scalar Lambda points under quad in tau = log x, split at x = 1; the
    # core |x-1| < exp(-40) adds its near-one mass as in delta_pairing
    t, rel_tol = 1.5, 1e-7
    phi = fundsol.TestFunction.bump(lo, hi)

    def g(tau):
        x = math.exp(tau)
        return eval_lambda(LambdaQuery(t, x), ev) * phi(x) * x

    cuts = [math.log(lo), math.log(hi)]
    ref = 0.0
    if lo < 1.0 < hi:
        cuts.insert(1, 0.0)
        ref += float(phi(1.0)) * _core_mass(t, ev)
    ref += sum(scipy.integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-11,
                                    limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))
    val = delta_pairing(t, phi, rel_tol=rel_tol, evaluator=ev)
    assert abs(val - ref) <= rel_tol * abs(ref)


def _count_line_calls(monkeypatch):
    calls = []
    real_call = fundsol._LineAssembly.__call__

    def spy(self, q):
        calls.append(np.size(q))
        return real_call(self, q)

    monkeypatch.setattr(fundsol._LineAssembly, "__call__", spy)
    return calls


def test_delta_pairing_takes_one_line_call_per_sweep(ev, monkeypatch):
    # 58 intervals across the core ladder, one panel sweep each call
    phi = fundsol.TestFunction.bump(0.5, 3.0)
    _line_assembly(ev, 1.5, 1.0, "u")
    calls = _count_line_calls(monkeypatch)
    delta_pairing(1.5, phi, evaluator=ev)
    assert len(calls) <= 8


def test_l1_norm_takes_one_line_call_per_sweep(ev, monkeypatch):
    _line_assembly(ev, 1.0, 1.0, "u")
    calls = _count_line_calls(monkeypatch)
    l1_norm_lambda(1.0, evaluator=ev)
    assert len(calls) <= 50


def _jumpy(x):
    # smooth, oscillating, and a jump at 1/3, which no bisection of [0, 1]
    # puts on a panel edge
    return np.exp(-x) * np.cos(7.0 * x) + (x > 1.0 / 3.0)


_INTERVALS = [(0.0, 1.0), (1.0, 2.5), (-3.0, -0.5), (2.5, 2.6), (3.0, 9.0)]


@pytest.mark.parametrize("absolute", [False, True])
def test_lockstep_panels_equal_one_interval_calls(absolute):
    points = []

    def f(x):
        points.append(x)
        return _jumpy(x)

    def per_interval():
        xs = np.concatenate(points)
        counts = [int(((xs > a) & (xs < b)).sum()) for a, b in _INTERVALS]
        n_calls = len(points)
        points.clear()
        return counts, n_calls

    batch = _adaptive_panels(f, _INTERVALS, 1e-12, max_depth=10,
                             absolute=absolute)
    batch_counts, batch_calls = per_interval()
    singles, single_calls = [], []
    for i, iv in enumerate(_INTERVALS):
        singles += _adaptive_panels(f, [iv], 1e-12, max_depth=10,
                                    absolute=absolute)
        counts, n_calls = per_interval()
        single_calls.append(n_calls)
        # the same points as in the batch, all inside the interval
        assert counts == [n if j == i else 0
                          for j, n in enumerate(batch_counts)]
    assert batch == singles
    # every interval's sweeps share the calls of the longest one
    assert batch_calls == max(single_calls)
    # the jump stops at max_depth short of the tolerance, long before the
    # 4000-bisection cap; the smooth intervals converge
    total, err = batch[0]
    assert err > 1e-12 * abs(total)
    assert batch_counts[0] < 18 * 100
    for total, err in (batch[1], batch[3], batch[4]):
        assert err <= 1e-12 * abs(total)


def test_lockstep_panels_integrate():
    vals = _adaptive_panels(np.exp, [(0.0, 1.0), (-2.0, 3.0)], 1e-12)
    assert [v for v, _ in vals] == pytest.approx(
        [math.e - 1.0, math.exp(3.0) - math.exp(-2.0)], rel=1e-13)


@pytest.mark.parametrize("x", [0.8, 1.2, 1.6])
def test_transport_apply_matches_quad_across_the_kink(x):
    phi = fundsol.TestFunction.bump(0.6, 1.8)

    def f(r):
        return eval_H(r) * r * phi.deriv(r * x)

    ref = sum(scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12,
                                   limit=400)[0]
              for a, b in ((0.6 / x, 1.0), (1.0, 1.8 / x)))
    assert abs(transport_apply(phi, x) - ref) < 1e-8


def test_bump_is_flat_at_its_support_ends():
    phi = fundsol.TestFunction.bump(0.5, 3.0)
    ends = np.array([0.5, 3.0])
    assert np.all(phi(ends) == 0.0) and np.all(phi.deriv(ends) == 0.0)
    assert phi(1.75) == pytest.approx(1.0)


# ---------------- derivatives and the rescaled kernel ----------------


def test_dlambda_dt_matches_central_difference(ev):
    t, x, h = 1.5, 2.0, 1e-4
    fd = (eval_lambda(LambdaQuery(t + h, x), ev)
          - eval_lambda(LambdaQuery(t - h, x), ev)) / (2 * h)
    assert eval_dlambda_dt(t, x, ev) == pytest.approx(fd, rel=1e-6)


def test_dlambda_dx_matches_central_difference(ev):
    t, x, h = 2.0, 1.5, 1e-4
    fd = (eval_lambda(LambdaQuery(t, x + h), ev)
          - eval_lambda(LambdaQuery(t, x - h), ev)) / (2 * h)
    assert eval_dlambda_dx(t, x, ev) == pytest.approx(fd, rel=1e-7)


def test_green_kernel_scaling_covariance(ev):
    assert 2.0 * eval_G(1.6, 2.6, 1.4, ev) == eval_G(0.8, 1.3, 0.7, ev)


# ---------------- caches ----------------


class _FlatB:
    """Just enough of BEvaluator for the cached helpers, with B = 1.

    ``calls`` counts the calls that reach it, that is the cache misses.
    """

    def __init__(self):
        self._memo = {}
        self.calls = 0

    def _count(self, val):
        self.calls += 1
        return val

    def line_interpolator(self, re_line, im_lo, im_hi):
        return self._count(np.ones_like)

    def laurent(self, s):
        return self._count((0, 1.0 + 0j))     # B = 1: order 0 everywhere

    def derived_constants(self):
        return self._count(_FlatLedger())


class _FlatLedger:
    c1 = 1.0
    rho4 = 1.0


@pytest.mark.parametrize("call", [
    lambda ev: _line_assembly(ev, 0.8, 1.0, "u"),
    lambda ev: _mb_line(ev, "nu", 8.5, 9),
    _series_constants,
    _ledger,
    lambda ev: _line_table(ev, 1.0, "u"),
    lambda ev: fundsol._b_at(ev, -3),
], ids=["line_assembly", "nu_hat", "series_constants", "ledger",
        "line_table", "b_at"])
def test_fresh_evaluator_recomputes(call):
    ev = _FlatB()
    first = call(ev)
    reads = ev.calls
    assert reads > 0
    assert call(ev) is first and ev.calls == reads   # a hit reads no B
    fresh = _FlatB()
    assert call(fresh) is not first
    assert fresh.calls == reads


def test_residues_and_integer_values_draw_no_circle(monkeypatch):
    # the ladder reads them off strip values and W alone; bfunc's circles
    # (residue_B, residue_inv_B, the walk's collision fallback) are oracles
    circles = []
    monkeypatch.setattr(bfunc, "integrate_circle",
                        lambda *args, **kwargs: circles.append(args))
    ev = BEvaluator()
    fundsol._ledger(ev)
    fundsol._series_constants(ev)
    for k in (-5, -4, -3, -2, 4, 5, 6, 7, 8):   # all the series reads
        fundsol._b_at(ev, k)
    fundsol._series_with_error(0.3, 0.6, ev)
    fundsol._series_with_error(0.2, 3.0, ev)
    assert circles == []


_KINDS = [("u", 1.0), ("du", 1.0), ("q2", 1.0), ("su", 1.0), ("ut", _C_DT)]


@pytest.fixture
def line_builds(monkeypatch):
    """The windows of every B line interpolant built while the test runs."""
    builds = []
    real_init = bfunc.BLineInterpolator.__init__

    def spy(self, evaluator, re_line, im_lo, im_hi):
        builds.append((re_line, im_lo, im_hi))
        real_init(self, evaluator, re_line, im_lo, im_hi)

    monkeypatch.setattr(bfunc.BLineInterpolator, "__init__", spy)
    return builds


def test_new_t_reads_no_b(monkeypatch, line_builds):
    ev = BEvaluator()
    for kind, c in _KINDS:
        _line_assembly(ev, 0.9, c, kind)
    assert line_builds
    del line_builds[:]
    calls = []
    real_call = bfunc.BLineInterpolator.__call__

    def spy(self, s):
        calls.append(np.size(s))
        return real_call(self, s)

    monkeypatch.setattr(bfunc.BLineInterpolator, "__call__", spy)
    for kind, c in _KINDS:
        _line_assembly(ev, 1.7, c, kind)
    assert calls == []
    assert line_builds == []


@pytest.mark.parametrize("kind, c", _KINDS)
def test_warm_line_equals_a_cold_one(kind, c, line_builds):
    # the warm evaluator assembles each t from the table built at t = 0.45;
    # the cold side builds its own on a fresh evaluator
    warm_ev = BEvaluator()
    fundsol._symbol_line(warm_ev, 0.45, c, kind)
    q = np.linspace(-6.0, 6.0, 31)
    for t in (0.3, 1.0, 2.2):
        n = len(line_builds)
        warm = _line_assembly(warm_ev, t, c, kind)
        assert len(line_builds) == n
        cold = _line_assembly(BEvaluator(), t, c, kind)
        assert len(line_builds) > n
        for f in ("coeffs", "mids", "model_a", "fit_resid", "err_window"):
            assert np.array_equal(getattr(warm, f), getattr(cold, f))
        assert all(np.array_equal(a, b) for a, b in zip(warm(q), cold(q)))


def _touch_every_cached_kind(ev):
    for kind, c in _KINDS:                  # tables, assemblies, B lines
        _line_assembly(ev, 0.9, c, kind)
    eval_Q1(2.0, evaluator=ev)              # the ledger and the q1 line
    eval_lambda_series(0.2, 3.0, evaluator=ev)   # series constants, B at
    # integers, the nu and casc lines


def test_a_dropped_evaluator_is_freed():
    ev = BEvaluator()
    _touch_every_cached_kind(ev)
    # line interpolants, tables, assemblies, MB lines, ledger, series
    # constants and B at integers each hold entries
    assert len(ev._memo) == 7
    ref = weakref.ref(ev)
    del ev
    gc.collect()
    assert ref() is None


def test_dropped_evaluators_hold_no_memory():
    _line_assembly(BEvaluator(), 0.8, 1.0, "u")   # warm the module tables
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            ev = BEvaluator()
            _line_assembly(ev, 0.8, 1.0, "u")
            del ev
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 1e6


def test_line_table_is_read_only_and_per_evaluator(ev):
    tab = _line_table(ev, 1.0, "du")
    for f in dataclasses.fields(tab):
        with pytest.raises(ValueError):
            getattr(tab, f.name)[0] = 0.0
    other = _line_table(BEvaluator(), 1.0, "du")
    assert other is not tab
    assert not np.shares_memory(other.inv_b, tab.inv_b)
    assert np.array_equal(other.inv_b, tab.inv_b)
