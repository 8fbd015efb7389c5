"""Tests for the symbol U(t, s), its derivative, and the resolvent V(z, s).

Two independent representations of U (right-contour and small-t residue
series), an entire-series oracle, the delay ODE in t, a Bromwich-line
inverse of V, and frozen decay-envelope constants from the calibration
record ``data/calibration.json`` cross-check one another.  Frozen point
values were measured with this package's own contour engine after the
dual-representation and functional-equation suites first passed.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from wavekin.bfunc import BEvaluator, BranchError, default_evaluator
from wavekin.complexfn import eval_W
from wavekin.errors import ConvergenceError, RegimeError, WavekinError
from wavekin import bfunc, ufunc
from wavekin.ufunc import (
    INV_SQRT_2PI,
    SymbolSample,
    envelope,
    eval_dU_ds,
    eval_U,
    eval_U_line,
    eval_U_small_t,
    eval_V,
    laplace_inverse_U,
    taylor_terms,
)


# Each "there exists C such that ..." constant of an envelope or bound is
# measured once by scripts/calibrate.py, rounded up to four significant
# digits and frozen in data/calibration.json with where and how it was
# measured.  The tests assert the inequalities with the frozen values, so a
# regression that weakens a decay rate fails instead of being papered over
# by a silent recalibration.
CALIBRATION = json.loads((pathlib.Path(__file__).parent / "data"
                          / "calibration.json").read_text(encoding="utf-8"))


def constant(name):
    """The frozen value of one calibrated constant, by key."""
    return float(CALIBRATION[name]["value"])


def eval_U_taylor(t, s, n_terms=24):
    """Sum the entire t-series of U (independent small-time route)."""
    c = taylor_terms(s, n_terms)
    powers = np.power(complex(t), np.arange(n_terms))
    return complex(np.dot(c, powers)) * INV_SQRT_2PI


def check_U_ode(t, s, dt, evaluator=None):
    """Residual of the delay equation at (t, s) by central differences.

    Returns |(U(t+dt) - U(t-dt))/(2 dt) - W(s-1) U(t, s-1)|; needs
    Re s in (1, 2) so the shifted point stays in the strip, and t > dt.
    """
    s = complex(s)
    if not 1.0 < s.real < 2.0:
        raise ValueError(f"the shifted point needs Re s in (1, 2), got {s}")
    if not t > dt > 0.0:
        raise ValueError(f"need t > dt > 0, got t = {t}, dt = {dt}")
    ev = evaluator if evaluator is not None else default_evaluator()
    u_plus = eval_U(t + dt, s, evaluator=ev)
    u_minus = eval_U(t - dt, s, evaluator=ev)
    lhs = (u_plus.value - u_minus.value) / (2.0 * dt)
    w = complex(eval_W(np.array([s - 1.0]))[0])
    rhs = w * eval_U(t, s - 1.0, evaluator=ev).value
    return float(abs(lhs - rhs))


@pytest.fixture(scope="module")
def ev():
    return default_evaluator()


# ---------------- sample type ----------------


def test_sample_rejects_negative_time():
    with pytest.raises(ValueError):
        SymbolSample(t=-0.1, s=1.0 + 0j, value=0.1 + 0j, err=0.0)


def test_sample_rejects_negative_error():
    with pytest.raises(ValueError):
        SymbolSample(t=0.5, s=1.0 + 0j, value=0.1 + 0j, err=-1e-16)


def test_sample_rejects_s_outside_strip():
    for s in (0.0 + 0j, 2.0 + 0j, -0.5 + 3j, 2.7 + 0j):
        with pytest.raises(ValueError):
            SymbolSample(t=0.5, s=s, value=0.1 + 0j, err=0.0)


def test_sample_pins_initial_value():
    # at t = 0 the only admissible value is the constant 1/sqrt(2 pi)
    ok = SymbolSample(t=0.0, s=1.3 + 2j, value=INV_SQRT_2PI + 0j, err=0.0)
    assert ok.value == INV_SQRT_2PI
    with pytest.raises(ValueError):
        SymbolSample(t=0.0, s=1.3 + 2j, value=0.4 + 0j, err=0.0)


# ---------------- eval_U: contract and limits ----------------


def test_u_regression_anchor(ev):
    # measured once after the dual-representation suite first passed
    u = eval_U(0.2, 1.5, evaluator=ev)
    assert u.value == pytest.approx(0.3746051753556217, rel=1e-11)
    assert abs(u.value.imag) <= 1e-13
    assert u.err <= 1e-9


def test_u_initial_limit(ev):
    # value -> 1/sqrt(2 pi) as t -> 0+ at s = 1, monotonically here
    diffs = [abs(eval_U(t, 1.0, evaluator=ev).value - INV_SQRT_2PI)
             for t in (0.05, 0.02, 0.01)]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] <= 1e-6


def test_u_beta_independence_pinned_pair(ev):
    a = eval_U(0.3, 1.2, beta=1.6, evaluator=ev)
    b = eval_U(0.3, 1.2, beta=1.9, evaluator=ev)
    assert abs(a.value - b.value) <= 1e-8


def test_u_beta_independence_random(ev):
    rng = np.random.default_rng(20250814)
    for _ in range(8):
        s = complex(rng.uniform(0.25, 1.75), rng.uniform(-6.0, 6.0))
        t = rng.uniform(0.05, 1.5)
        lo = s.real + 0.05
        b1, b2 = rng.uniform(lo, 1.97, size=2)
        a = eval_U(t, s, beta=b1, evaluator=ev)
        b = eval_U(t, s, beta=b2, evaluator=ev)
        assert abs(a.value - b.value) <= 1e-8


def test_u_rejects_bad_arguments(ev):
    with pytest.raises(ValueError):
        eval_U(-0.1, 1.2, evaluator=ev)
    with pytest.raises(ValueError):
        eval_U(0.5, 2.3, evaluator=ev)
    with pytest.raises(ValueError):
        eval_U(0.5, 2.0 - 1e-9, evaluator=ev)  # no room left for the contour
    with pytest.raises(ValueError):
        eval_U(0.5, 1.2, beta=1.1, evaluator=ev)  # beta must exceed Re s


def test_u_at_t_zero_is_exact(ev):
    u = eval_U(0.0, 0.7 + 3j, evaluator=ev)
    assert u.value == INV_SQRT_2PI
    assert u.err == 0.0


def test_u_conjugate_symmetry(ev):
    a = eval_U(0.4, 1.3 + 5j, evaluator=ev).value
    b = eval_U(0.4, 1.3 - 5j, evaluator=ev).value
    assert abs(np.conj(a) - b) <= 1e-12 * abs(a)


# ---------------- eval_U_small_t ----------------


def test_small_t_exact_at_zero(ev):
    for s in (1.0 + 0j, 0.3 + 0.4j, 1.9 - 2j):
        u = eval_U_small_t(0.0, s, evaluator=ev)
        assert u.value == INV_SQRT_2PI
        assert u.err == 0.0


def test_small_t_matches_right_contour(ev):
    a = eval_U(0.2, 1.5, evaluator=ev)
    b = eval_U_small_t(0.2, 1.5, evaluator=ev)
    assert abs(a.value - b.value) <= 1e-8


def test_small_t_departure_bound(ev):
    # |U(t, 1) - 1/sqrt(2 pi)| <= C sqrt(t) with the frozen calibrated C
    c = constant("u_small_t_C")
    t = 0.01
    u = eval_U_small_t(t, 1.0, beta_prime=0.5, evaluator=ev)
    dep = abs(u.value - INV_SQRT_2PI)
    assert dep <= c * math.sqrt(t)
    # the true departure at s = 1 starts at t^3: the m = 1, 2 residues die
    # against poles of B, leaving B(1)/sqrt(2 pi) (t^3/(3! B(-2)) - ...)
    b1 = ev.eval_B(1.0).real
    pred = b1 * INV_SQRT_2PI * (t ** 3 / (6.0 * ev.eval_B(-2.0).real)
                                - t ** 4 / (24.0 * ev.eval_B(-3.0).real))
    assert dep == pytest.approx(pred, rel=1e-3)


def test_small_t_rejects_bad_arguments(ev):
    with pytest.raises(ValueError):
        eval_U_small_t(1.0, 1.2, evaluator=ev)  # needs t < 1
    with pytest.raises(ValueError):
        eval_U_small_t(0.1, 1.2, beta_prime=1.4, evaluator=ev)
    with pytest.raises(ValueError):
        eval_U_small_t(0.1, 1.2, beta_prime=0.0, evaluator=ev)


#: the Re s of a 0.005 sweep at t = 0.5, Im s = 3 where the default line
#: sat within _POLE_MARGIN of a pole line: Re s / 2 next to Re s near 0,
#: and the grid point 1.0 next to Re s - 1 near 2
_SMALL_T_EDGES = [0.005 * k for k in range(1, 20)] + [
    0.005 * k for k in range(391, 400)]


@pytest.mark.parametrize("re", _SMALL_T_EDGES)
def test_small_t_default_line_inside_its_zone(ev, re):
    s = complex(re, 3.0)
    try:
        b = eval_U_small_t(0.5, s, evaluator=ev)
    except WavekinError:
        # no line in (0, Re s) keeps the margin
        assert re <= ufunc._POLE_MARGIN
        return
    a = eval_U(0.5, s, evaluator=ev)
    assert abs(a.value - b.value) <= a.err + b.err


def test_small_t_default_line_keeps_its_margin():
    # Re s / 2 on the grid where that keeps the margin, else the nearest
    # grid point that does, else the middle of (0, Re s - margin)
    assert ufunc._small_t_beta(1.2) == 0.6
    assert ufunc._small_t_beta(1.99) == 0.9
    assert ufunc._small_t_beta(0.08) == pytest.approx(0.015)
    with pytest.raises(RegimeError):
        ufunc._small_t_beta(0.05)
    # a caller's line next to a pole line is still refused
    with pytest.raises(ValueError):
        eval_U_small_t(0.5, 1.99 + 3j, beta_prime=1.0)


@pytest.mark.parametrize("call", [
    lambda ev: eval_U_line(0.0, [1.2 + 1j], evaluator=ev),
    lambda ev: eval_U_line(-0.5, [1.2 + 1j], evaluator=ev),
    lambda ev: eval_U_line(0.5, [1.2 + 1j], beta=1.1, evaluator=ev),
    lambda ev: eval_U_line(0.5, [1.2 + 1j], beta=2.0, evaluator=ev),
    # beta' = 0.23 sits 0.03 from the crossed pole line Re s - 1 = 0.2
    lambda ev: eval_U_small_t(0.1, 1.2, beta_prime=0.23, evaluator=ev),
    lambda ev: eval_V(1.0, 0.5, beta=0.5, evaluator=ev),
    lambda ev: eval_V(1.0, 0.5, beta=1.5, evaluator=ev),
    lambda ev: eval_dU_ds(-0.1, 1.2, evaluator=ev),
    lambda ev: laplace_inverse_U(1.0, 1.0, evaluator=ev),
    lambda ev: laplace_inverse_U(0.0, 1.5, evaluator=ev),
    lambda ev: laplace_inverse_U(1.0, 1.5, d=0.0, evaluator=ev),
], ids=["line_t_zero", "line_t_negative", "line_beta_left",
        "line_beta_at_two", "small_t_beta_next_to_a_pole", "v_beta_left",
        "v_beta_right", "du_t_negative", "inverse_re_s_one",
        "inverse_t_zero", "inverse_d_zero"])
def test_routes_refuse_arguments_outside_their_zone(ev, call):
    with pytest.raises(ValueError):
        call(ev)


def test_line_of_no_points_is_empty(ev):
    values, errs = eval_U_line(0.5, np.zeros(0, dtype=complex), evaluator=ev)
    assert values.shape == errs.shape == (0,)


def test_representations_agree_random_overlap(ev):
    rng = np.random.default_rng(20250815)
    for _ in range(8):
        s = complex(rng.uniform(0.3, 1.8), rng.uniform(-5.0, 5.0))
        t = rng.uniform(0.02, 0.85)
        a = eval_U(t, s, evaluator=ev)
        b = eval_U_small_t(t, s, evaluator=ev)
        assert abs(a.value - b.value) <= 1e-8


def test_representations_agree_within_their_errors(ev):
    # both routes report errors near 1e-14 here, so their gap is set by
    # the accuracy of B along the two lines
    a = eval_U(0.8, 0.6 + 20j, evaluator=ev)
    b = eval_U_small_t(0.8, 0.6 + 20j, evaluator=ev)
    assert abs(a.value - b.value) <= 0.1 * (a.err + b.err)


@pytest.mark.parametrize("t, s", [(0.5, 0.2), (0.1, 0.2 + 0.5j),
                                  (0.5, 0.25), (0.1, 0.25 + 0.5j)])
def test_representations_agree_next_to_the_pole_at_zero(ev, t, s):
    # the small-t line sits at 0.1, that far from the pole of B at 0; the
    # pole's segments of the B line are halved, so the routes agree within
    # their errors (they missed by 1.56x and 2.39x at Re s = 0.2 before)
    a = eval_U(t, s, evaluator=ev)
    b = eval_U_small_t(t, s, evaluator=ev)
    assert abs(a.value - b.value) <= a.err + b.err


def test_default_abscissae_sit_on_the_grid(ev, monkeypatch):
    # each default moves to a point of the 0.1 grid that keeps at least
    # 0.75 of the default's distance to the ends of its interval, or stays
    for re in np.linspace(0.15, 1.95, 37):
        for default, lo, hi, poles, got in (
                (min(re + 0.7, 0.5 * (re + 2.0)), re, 2.0, (re, 2.0),
                 ufunc._default_beta(complex(re, 3.0))),
                (0.5 * re, 0.0, re, (0.0, re, re - 1.0),
                 ufunc._on_grid(0.5 * re, 0.0, re, (0.0, re, re - 1.0))),
                (re + 0.5, re, re + 1.0, (re, re + 1.0),
                 ufunc._on_grid(re + 0.5, re, re + 1.0, (re, re + 1.0)))):
            def dist(x):
                return min(abs(x - p) for p in poles)
            assert lo < got < hi
            assert got == default or (round(10 * got) == 10 * got
                                      and dist(got) >= 0.75 * dist(default))
    # the cross pairs' lines stay where they were
    assert [ufunc._default_beta(complex(re)) for re in (1.0, 0.6)] == [1.5,
                                                                       1.3]
    assert ufunc._on_grid(0.5, 0.0, 1.0, (0.0, 1.0, 0.0)) == 0.5
    assert ufunc._on_grid(0.3, 0.0, 0.6, (0.0, 0.6, -0.4)) == 0.3
    # no grid point keeps the distance: the exact default stays
    assert ufunc._default_beta(1.9 + 0j) == 1.95
    # eval_U_line and eval_dU_ds cross the pole at sigma = s instead, onto
    # a grid line in (Re s - 1, Re s); at Re s <= 1 they keep the right line.
    # Each route runs on a fresh evaluator, since a spectrum of 1/B that an
    # evaluator keeps reads no B line again
    for re in (1.81, 1.86, 1.9, 1.95, 0.6, 1.0):
        for route in (lambda s, e: eval_U_line(1.0, np.array([s]),
                                               evaluator=e),
                      lambda s, e: eval_dU_ds(1.0, s, evaluator=e)):
            fresh = BEvaluator()
            read = []
            real = fresh.line_interpolator

            def spy(re_line, im_lo, im_hi, _real=real, _read=read):
                _read.append(re_line)
                return _real(re_line, im_lo, im_hi)

            monkeypatch.setattr(fresh, "line_interpolator", spy)
            route(re + 3j, fresh)
            [got] = read
            if re > 1.0:
                assert re - 1.0 < got < re and round(10 * got) == 10 * got
            else:
                assert got == ufunc._default_beta(complex(re))


def test_series_oracle_agrees(ev):
    # entire-series evaluation, truncation-limited near 1e-8 at t = 0.2
    a = eval_U(0.2, 1.5, evaluator=ev)
    assert abs(a.value - eval_U_taylor(0.2, 1.5, n_terms=28)) <= 1e-6


# ---------------- decay envelopes (frozen constants) ----------------


def test_u_envelope_at_high_frequency(ev):
    c = constant("u_envelope_C")  # calibrated at |s| = 10, t = 1
    u = eval_U(1.0, 1.0 + 20j, evaluator=ev)
    assert abs(u.value) <= c * envelope(1.0, 1.0 + 20j, 1.0)


def test_u_envelope_grid(ev):
    # 10x10 (t, Im s) grid against the frozen grid constant
    c = constant("u_envelope_C_T")
    for im in np.linspace(5.0, 200.0, 10):
        s = 1.0 + 1j * im
        for t in np.linspace(0.1, 1.0, 10):
            u = eval_U(float(t), s, evaluator=ev)
            assert abs(u.value) <= c * envelope(float(t), s, 1.0)


# ---------------- eval_dU_ds ----------------


def test_du_matches_central_differences(ev):
    s, h = 1.0 + 2j, 1e-5
    d = eval_dU_ds(0.3, s, evaluator=ev)
    fd = (eval_U(0.3, s + h, evaluator=ev).value
          - eval_U(0.3, s - h, evaluator=ev).value) / (2.0 * h)
    assert abs(d - fd) <= 1e-6 * abs(fd)


def central_difference(f, s, h=0.01):
    """The fourth-order central difference of f at s along Re s."""
    return (8.0 * (f(s + h) - f(s - h)) - (f(s + 2 * h) - f(s - 2 * h))) / (
        12.0 * h)


# U's rounding, up to about 1e-15 absolute at these points (eval_U on two
# lines), reaches the difference amplified by the stencil's 1.5/h; where
# |dU/ds| ~ 1e-10 that alone exceeds 1e-6 of it
_DU_FLOOR = 1e-13


@pytest.mark.parametrize("s", [0.3 + 2j, 1.0 - 30j, 1.7 + 50j])
@pytest.mark.parametrize("t", [0.2, 1.0, 2.5])
def test_du_matches_differences_of_the_oracle(ev, t, s):
    # the lattice rows and the strip's B'/B against differences of the
    # adaptive integrate_vertical route
    d = eval_dU_ds(t, s, evaluator=ev)
    fd = central_difference(lambda z: eval_U(t, z, evaluator=ev).value, s)
    assert abs(d - fd) <= 1e-6 * abs(fd) + _DU_FLOOR


@pytest.mark.parametrize("s", [0.5 + 10j, 1.2 + 3j])
@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1, 0.9, 3.0])
def test_du_holds_down_to_small_t(ev, t, s):
    # dU/ds is O(t), so B'(s) I and B(s) I' cancel as t -> 0; down to
    # t = 1e-4 the digits left still meet differences of the left-line
    # route (of eval_U at t >= 1)
    route = eval_U_small_t if t < 1.0 else eval_U
    d = eval_dU_ds(t, s, evaluator=ev)
    fd = central_difference(lambda z: route(t, z, evaluator=ev).value, s)
    assert abs(d - fd) <= 1e-6 * abs(fd) + _DU_FLOOR


@pytest.mark.parametrize("re", [1.99, 1.999])
def test_du_next_to_the_strip_edge(ev, re):
    # past the Gamma pole the line keeps d about 1/2 as Re s -> 2, where
    # _default_beta's line sits (2 - Re s)/2 from the pole; the oracle is
    # the left-line route on a line clear of both poles it crosses
    t, s, h = 0.7, complex(re, 7.0), (2.0 - re) / 3.0
    d = eval_dU_ds(t, s, evaluator=ev)
    fd = central_difference(
        lambda z: eval_U_small_t(t, z, beta_prime=0.7, evaluator=ev).value,
        s, h)
    assert abs(d - fd) <= 1e-6 * abs(fd) + _DU_FLOOR


def test_du_reads_no_adaptive_line_and_no_circle(ev, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("eval_dU_ds left the lattice rule")

    monkeypatch.setattr(ufunc, "integrate_vertical", refuse)
    monkeypatch.setattr(bfunc, "integrate_circle", refuse)
    for s in (0.8 + 12j, 1.5 - 20j):    # right line, line past the pole
        d = eval_dU_ds(0.7, s, evaluator=ev)
        assert np.isfinite(d) and d != 0.0


def test_du_envelope_high_frequency(ev):
    # (1 + |s|) |dU/ds| <= C t e^{-2 t log|bs|} with the frozen C
    c = constant("du_envelope_C")
    t, s = 0.2, 1.0 + 30j
    d = eval_dU_ds(t, s, evaluator=ev)
    assert (1.0 + abs(s)) * abs(d) <= c * t * envelope(t, s, 1.0)


def test_du_vanishes_at_t_zero(ev):
    assert eval_dU_ds(0.0, 1.3 + 4j, evaluator=ev) == 0.0


# ---------------- eval_V ----------------


def test_v_regression_anchor(ev):
    # measured against a direct Laplace-transform quadrature of U
    v = eval_V(1.0, 1.5, evaluator=ev)
    assert v == pytest.approx(0.2806201090019026, rel=1e-11, abs=1e-12)


def test_v_functional_equation_residuals(ev):
    for z, s in ((1.0 + 0j, 1.5), (2.0 + 3.0j, 1.2)):
        lhs = z * eval_V(z, s, evaluator=ev)
        w = complex(eval_W(np.array([s - 1.0]))[0])
        rhs = w * eval_V(z, s - 1.0, evaluator=ev) + INV_SQRT_2PI
        assert abs(lhs - rhs) <= 1e-7


_FAR_Z = [1e6, 877582.56 + 479425.54j]


@pytest.mark.parametrize("z", _FAR_Z)
def test_v_far_z_needs_a_halved_lattice(z, monkeypatch):
    # at |z| = 1e6 the kernel's factor |z|^(i eta) turns 13.8 radians per
    # unit of eta: the 2h rule at the step pi d / 40 misses the tolerance,
    # and only a halved lattice resolves the line.  The kept spectra of
    # single s start from the ladder's step below pi d / 40, 1/32 here,
    # which resolves it; started at pi d / 40 itself, the rule refuses
    monkeypatch.setattr(ufunc, "_LINE_REFINEMENTS", 0)
    monkeypatch.setattr(ufunc, "_ladder_step", lambda h0: h0)
    with pytest.raises(ConvergenceError):
        eval_V(z, 1.99, evaluator=default_evaluator())


@pytest.mark.parametrize("z", _FAR_Z)
def test_v_far_z_after_halving(ev, z):
    s = 1.99
    v = eval_V(z, s, evaluator=ev)
    w = complex(eval_W(np.array([s - 1.0]))[0])
    rhs = w * eval_V(z, s - 1.0, evaluator=ev) + INV_SQRT_2PI
    assert abs(z * v - rhs) <= 1e-11 * abs(z * v)
    assert abs(eval_V(z, s, beta=2.3, evaluator=ev) - v) <= 1e-11 * abs(v)


def test_v_branch_guard(ev):
    for z in (-1.0 + 0j, -0.3 + 2j, 0.0 + 1j):
        with pytest.raises(BranchError):
            eval_V(z, 1.5, evaluator=ev)


def test_v_rejects_s_outside_strip(ev):
    with pytest.raises(ValueError):
        eval_V(1.0, 2.4, evaluator=ev)


def test_v_conjugate_symmetry(ev):
    a = eval_V(2.0 + 3j, 1.2 + 0.5j, evaluator=ev)
    b = eval_V(2.0 - 3j, 1.2 - 0.5j, evaluator=ev)
    assert abs(np.conj(a) - b) <= 1e-10 * abs(a)


def test_v_inverts_to_u(ev):
    # Bromwich-line quadrature of V at two abscissae reproduces U(1, s):
    # the transform is abscissa-independent, so no canonical d is assumed;
    # the first line is the default d = 0.8
    u = eval_U(1.0, 1.5, evaluator=ev).value
    back = [laplace_inverse_U(1.0, 1.5, evaluator=ev, rel_tol=1e-6),
            laplace_inverse_U(1.0, 1.5, d=1.4, evaluator=ev, rel_tol=1e-6)]
    assert abs(back[0] - u) <= 1e-5
    assert abs(back[1] - u) <= 1e-5
    assert abs(back[0] - back[1]) <= 1e-5


# ---------------- delay ODE in t ----------------


def test_ode_residual_real_point(ev):
    assert check_U_ode(0.5, 1.5, 1e-4, evaluator=ev) <= 1e-6


def test_ode_residual_complex_point(ev):
    assert check_U_ode(2.0, 1.2 + 5j, 1e-4, evaluator=ev) <= 1e-6


def test_ode_residual_shrinks_with_dt(ev):
    res = [check_U_ode(0.5, 1.5, dt, evaluator=ev)
           for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    assert res[0] > res[1] > res[2] > res[3]


def test_ode_rejects_bad_arguments(ev):
    with pytest.raises(ValueError):
        check_U_ode(0.5, 0.9, 1e-4, evaluator=ev)  # shifted point leaves strip
    with pytest.raises(ValueError):
        check_U_ode(1e-5, 1.5, 1e-4, evaluator=ev)  # needs t > dt


# ---------------- batched line evaluation ----------------


def test_line_matches_scalar(ev):
    svals = 1.2 + 1j * np.linspace(-3.0, 3.0, 9)
    vals, errs = eval_U_line(0.7, svals, evaluator=ev)
    scal = np.array([eval_U(0.7, s, evaluator=ev).value for s in svals])
    assert np.abs(vals - scal).max() <= 1e-10
    assert errs.max() < 1e-9


def test_line_matches_scalar_high_window(ev):
    svals = 1.0 + 1j * np.linspace(40.0, 44.0, 5)
    vals, _ = eval_U_line(0.15, svals, evaluator=ev)
    scal = np.array([eval_U(0.15, s, evaluator=ev).value for s in svals])
    assert np.abs(vals - scal).max() <= 1e-10


def test_line_rejects_mixed_real_parts(ev):
    with pytest.raises(ValueError):
        eval_U_line(0.5, np.array([1.2 + 1j, 1.3 + 2j]), evaluator=ev)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.9])
@pytest.mark.parametrize("re", [1.2, 1.5, 1.8, 1.85, 1.9, 1.95])
def test_line_matches_scalar_near_strip_edge(ev, re, t):
    # eval_U's line sits (2 - Re s)/2 from the Gamma pole at sigma = s,
    # 0.025 at Re s = 1.95; eval_U_line's sits left of that pole, about
    # 1/2 from it and from the next one, and adds its residue
    svals = re + 1j * np.linspace(-60.0, 60.0, 41)
    vals, errs = eval_U_line(t, svals, evaluator=ev)
    for i in (0, 17, 20, 40):
        u = eval_U(t, svals[i], evaluator=ev)
        diff = abs(vals[i] - u.value)
        assert diff <= u.err + errs[i]
        assert diff <= 1e-12
        if t < 1.0:
            u = eval_U_small_t(t, svals[i], evaluator=ev)
            assert abs(vals[i] - u.value) <= u.err + errs[i]


def test_line_where_the_residue_cancels(ev):
    # at t = 3 and |Im s| = 60 the residue 1/sqrt(2 pi) cancels B(s) times
    # the left line's integral down to |U| ~ 1.6e-11; the error still
    # meets the line's contract on U itself
    svals = 1.9 + 1j * np.array([-60.0, 60.0])
    vals, errs = eval_U_line(3.0, svals, evaluator=ev)
    assert np.abs(vals).max() < 1e-10
    assert (errs <= ufunc._LINE_TOL
            * np.maximum(np.abs(vals), 1e-4 * INV_SQRT_2PI)).all()
    for s, v, e in zip(svals, vals, errs):
        u = eval_U(3.0, s, evaluator=ev)
        assert abs(v - u.value) <= u.err + e


@pytest.mark.parametrize("t, s", [(0.5, 1.0 + 5.0j), (0.8, 0.6 + 20.0j)])
def test_line_single_point(ev, t, s):
    # a one-point line has no step; its error stays below eval_U's
    vals, errs = eval_U_line(t, np.array([s]), evaluator=ev)
    u = eval_U(t, s, evaluator=ev)
    assert abs(vals[0] - u.value) <= 0.1 * (u.err + errs[0])
    assert errs[0] < u.err


def test_line_descending_equals_ascending(ev):
    svals = 0.9 + 1j * np.linspace(-4.0, 8.0, 25)
    up, up_err = eval_U_line(1.3, svals, evaluator=ev)
    down, _ = eval_U_line(1.3, svals[::-1], evaluator=ev)
    assert np.abs(down[::-1] - up).max() <= 10.0 * up_err.max()


def test_line_rejects_unequal_steps(ev):
    with pytest.raises(ValueError):
        eval_U_line(0.5, 1.2 + 1j * np.array([0.0, 1.0, 2.5]), evaluator=ev)
    with pytest.raises(ValueError):
        eval_U_line(0.5, np.array([1.2 + 1j, 1.2 + 1j]), evaluator=ev)
    # a node 1e-9 off its place: the lattice would put U at the wrong s
    im = np.linspace(-60.0, 60.0, 41)
    im[7] += 1e-9
    with pytest.raises(ValueError):
        eval_U_line(0.5, 1.2 + 1j * im, evaluator=ev)


def test_line_refuses_a_node_off_by_more_than_ulps(ev):
    # 1.1e-10 off passed the old bound 1e-12 * span, and the line read U at
    # the grid node: 8.5e-11 from U at the given s, against summed errors
    # of 8.9e-15.  np.linspace lines sit within about 2 ulps of the grid
    im = np.linspace(-60.0, 60.0, 41)
    im[7] += 1.1e-10
    with pytest.raises(ValueError):
        eval_U_line(0.7, 1.2 + 1j * im, evaluator=ev)
    for lo, hi in ((-60.0, 60.0), (13.3, 33.3), (-60.0, -0.7)):
        vals, errs = eval_U_line(0.7, 1.2 + 1j * np.linspace(lo, hi, 100),
                                 evaluator=ev)
        assert np.isfinite(vals).all() and (errs < 1e-9).all()


@pytest.mark.parametrize("re, step", [(1.0, 1e-6), (1.95, 1e-3)])
def test_dense_line_matches_scalar(ev, re, step):
    # a step below pi d / 40 cannot be a multiple of the lattice step:
    # each s takes its own dot over the bins of one kept spectrum, whose
    # step is the ladder's below pi d / 40
    svals = re + 1j * (3.0 + step * np.arange(40))
    vals, errs = eval_U_line(0.7, svals, evaluator=ev)
    for i in (0, 39):
        u = eval_U(0.7, svals[i], evaluator=ev)
        diff = abs(vals[i] - u.value)
        assert diff <= u.err + errs[i]
        assert diff <= 1e-12


def test_line_refuses_an_oversized_lattice(ev):
    # a line 1e-7 from the Gamma pole would need ~1e10 lattice nodes
    with pytest.raises(ConvergenceError):
        eval_U_line(0.5, np.array([1.2 + 1j]), beta=1.2 + 1e-7, evaluator=ev)


def test_v_array_matches_scalar_calls(ev):
    z = np.array([[1.0, 2.0 + 3.0j, 0.3 - 2.5j],
                  [0.01 + 0.5j, 5.0 - 0.1j, 50.0 + 200.0j]])
    s = 1.2 + 0.5j
    arr = eval_V(z, s, evaluator=ev)
    assert arr.shape == z.shape
    scal = np.array([[eval_V(zi, s, evaluator=ev) for zi in row] for row in z])
    assert np.abs(arr - scal).max() <= 1e-15 * np.abs(scal).max()


def test_v_near_a_pole_in_row_blocks(ev, monkeypatch):
    # beta 0.01 from the pole of k_plus: ~173k lattice nodes, so the kernel
    # spectra are read a few rows at a time; V does not depend on beta
    z = np.array([1.0, 2.0 + 3.0j, 0.3 - 2.5j, 5.0 - 0.1j, 0.7 + 9.0j])
    s = 1.2 + 0.5j
    near = eval_V(z, s, beta=1.21, evaluator=ev)
    assert np.abs(near - eval_V(z, s, evaluator=ev)).max() <= (
        1e-9 * np.abs(near).max())
    # the near line's 196,608 bins are built for the call, not kept, and
    # built again alike
    kept = ev._memo[ufunc._tile_spectrum.__wrapped__].values()
    assert kept and max(sp.bins.size for sp in kept) <= ufunc._KEPT_BINS
    assert eval_V(z, s, beta=1.21, evaluator=ev).tobytes() == near.tobytes()
    # one row per read changes only the summation order of the products,
    # whose terms near the pole exceed V by a factor ~1/0.01
    monkeypatch.setattr(ufunc, "_READ_ENTRIES", 1)
    rows = eval_V(z, s, beta=1.21, evaluator=ev)
    assert np.abs(rows - near).max() <= 1e-13 * np.abs(near).max()


def test_v_array_branch_guard(ev):
    with pytest.raises(BranchError):
        eval_V(np.array([1.0 + 0j, 2.0 + 1j, -0.1 + 3j]), 1.5, evaluator=ev)
    with pytest.raises(BranchError):
        eval_V(np.array([0.5 + 0j, 0.0 + 1j]), 1.5, evaluator=ev)
