"""Tests for the fundamental solution Lambda(t, x) and its derived quantities.

The direct line is checked against independent routes: the log-regularized
line (dU/ds), the long-time decomposition Q1/Q2, the near-one exponent
2t - 1, the Mellin mass sqrt(2 pi) U(t, 1) = int Lambda dx, and finite
differences of Lambda itself.  One array call of an assembled line must
give exactly what scalar calls give.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from wavekin import fundsol
from wavekin.bfunc import default_evaluator
from wavekin.fundsol import (
    LambdaQuery,
    _C_DT,
    _ledger,
    _line_assembly,
    _nu_hat,
    _series_constants,
    delta_pairing,
    eval_dlambda_dt,
    eval_dlambda_dx,
    eval_G,
    eval_lambda,
    eval_lambda_log,
    eval_lambda_with_error,
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
    """Just enough of BEvaluator for the cached helpers, with B = 1."""

    def line_interpolator(self, re_line, im_lo, im_hi):
        return np.ones_like

    def eval_B_many(self, s):
        return np.ones_like(s)

    def eval_B(self, s):
        return 1.0

    def residue_B(self, s):
        return 1.0

    def residue_inv_B(self, s, radius=None):
        return 1.0

    def derived_constants(self):
        return _FlatLedger()


class _FlatLedger:
    c1 = 1.0
    rho4 = 1.0


@pytest.mark.parametrize("cached, call", [
    (_line_assembly, lambda ev: _line_assembly(ev, 0.8, 1.0, "u")),
    (_nu_hat, lambda ev: _nu_hat(9, 0.5, ev)),
    (_series_constants, _series_constants),
    (_ledger, _ledger),
], ids=["line_assembly", "nu_hat", "series_constants", "ledger"])
def test_fresh_evaluator_recomputes(cached, call):
    first = call(_FlatB())
    misses = cached.cache_info().misses
    second = call(_FlatB())
    assert second is not first
    assert cached.cache_info().misses == misses + 1
