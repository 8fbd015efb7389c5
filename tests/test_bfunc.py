"""Tests for the normalizer B: strip representation, functional equation,
residues, and derived constants.

Frozen anchors were measured with this package's own contour engine and
cross-checked against independent routes where one exists (circle residues
vs functional-equation chain derivatives, Gamma/B circle vs closed form).
All absolute values are tied to the documented _B_SCALE gauge; ratio
identities are gauge-free.
"""

import math

import numpy as np
import pytest
import scipy.signal

from wavekin import bfunc, fundsol, ufunc
from wavekin.bfunc import (
    BEvaluator,
    BLineInterpolator,
    BranchError,
    SQRT_2PI,
    default_evaluator,
)
from wavekin.complexfn import eval_W, eval_W_prime, locate_W_roots, log_gamma
from wavekin.contour import integrate_circle
from wavekin.errors import PoleError


@pytest.fixture(scope="module")
def ev():
    return BEvaluator()


# ---------------- functional equation ----------------


def test_fe_at_half_integers(ev):
    lhs = ev.eval_B_strip(1.5)
    rhs = -complex(eval_W(0.5)) * ev.eval_B_strip(0.5)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_fe_100_random_points_in_strip(ev):
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        s = complex(rng.uniform(1.05, 1.95), rng.uniform(-40.0, 40.0))
        lhs = ev.eval_B(s)
        rhs = -complex(eval_W(s - 1)) * ev.eval_B(s - 1)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_fe_walks_across_several_strips(ev):
    for s in (6.3 + 2.0j, -3.4 + 1.5j, 2.25 - 11.0j):
        lhs = ev.eval_B(s)
        rhs = -complex(eval_W(s - 1)) * ev.eval_B(s - 1)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_beta_independence_across_evaluators():
    anchor = BEvaluator(beta=0.3)
    for beta in (0.25, 0.35, 0.42):
        other = BEvaluator(beta=beta)
        for s in (0.9 + 3.0j, 1.6 - 11.0j, 1.2 + 0.0j):
            a, b = anchor.eval_B(s), other.eval_B(s)
            assert abs(a - b) <= 1e-9 * abs(a)


def test_conjugate_symmetry(ev):
    for s in (1.2 + 7.0j, 0.7 - 3.3j, 2.8 + 15.0j):
        a = ev.eval_B(s)
        b = ev.eval_B(np.conj(s))
        assert abs(np.conj(a) - b) <= 1e-12 * abs(a)


def test_b_real_positive_on_real_strip(ev):
    for x in (0.7, 1.0, 1.3):
        v = ev.eval_B(x)
        assert abs(v.imag) <= 1e-12 * abs(v)
        assert v.real > 0


# ---------------- frozen anchors ----------------


def test_b1_regression_anchor(ev):
    # measured once after the functional-equation suite first passed
    assert ev.eval_B(1.0) == pytest.approx(5.7465699420083824, rel=1e-10)


def test_b2_follows_from_b1(ev):
    b2 = ev.eval_B(2.0)
    assert b2 == pytest.approx(-complex(eval_W(1.0)) * ev.eval_B(1.0),
                               rel=1e-12)
    assert b2 == pytest.approx(2.120506900378911, rel=1e-10)


def test_zeros_at_3_and_4(ev):
    scale = abs(ev.eval_B(1.0))
    assert abs(ev.eval_B(3.0)) <= 1e-8 * scale
    assert abs(ev.eval_B(4.0)) <= 1e-8 * scale


def test_b5_finite_through_collision(ev):
    # at s=5 the walk multiplies a W-pole into a B-zero; the circle fallback
    # must reproduce the analytic limit 4 B'(4) = 4 W(3) W'(2) B(2)
    b5 = ev.eval_B(5.0)
    analytic = 4.0 * complex(eval_W(3.0)) * complex(eval_W_prime(2.0)) \
        * ev.eval_B(2.0)
    assert b5 == pytest.approx(analytic, rel=1e-9)
    assert b5 == pytest.approx(13.3536892947998, rel=1e-9)


def test_negative_point_values(ev):
    # finite values continued through the pole/pole collisions at -2..-5
    assert ev.eval_B(-2.0) == pytest.approx(0.9125299343518547, rel=1e-9)
    assert ev.eval_B(-3.0) == pytest.approx(0.1600273522935034, rel=1e-9)
    assert ev.eval_B(-4.0) == pytest.approx(0.05334245076450114, rel=1e-9)
    assert ev.eval_B(-5.0) == pytest.approx(0.24340394387573233, rel=1e-7)


# ---------------- poles ----------------


def test_pole_guard(ev):
    for s in (0.0, -1.0, 9.0, 10.0, 13.0,
              -5.0457345795777610, -6.0457345795777610):
        with pytest.raises(PoleError):
            ev.eval_B(s)


def test_pole_guard_tolerance(ev):
    with pytest.raises(PoleError):
        ev.eval_B(1e-7 + 1e-8j)
    # 1e-3 away is evaluable (B is large there, as befits a nearby pole)
    v = ev.eval_B(1e-3)
    assert abs(v) > 1e2


def test_pole_guard_beyond_the_w_table(ev):
    # sigma*_6, the zero of W in (-26, -25), is a pole of B that the
    # tabulated zeros (n <= 5) do not list; the walk collides with it
    star6 = locate_W_roots(6).w_zeros_neg[-1]
    assert star6 == pytest.approx(-25.41233655892093, abs=1e-12)
    with pytest.raises(PoleError):
        ev.eval_B(star6)
    # off the real axis, and right of the table's last pole, B evaluates
    assert math.isfinite(abs(ev.eval_B(-30.0 + 1j)))
    assert ev.eval_B(-5.0) == pytest.approx(0.24340394387573233, rel=1e-7)


def _pole_mask_by_loop(s, tol=bfunc._POLE_GUARD):
    # the per-zero loop over the negative zeros of W
    m = (np.abs(s) < tol) | (np.abs(s + 1.0) < tol)
    n = np.round(s.real)
    m |= (n >= 9) & (np.abs(s - n) < tol)
    for star in bfunc._w_zero_table().w_zeros_neg:
        j = np.round(star - s.real)
        m |= (j >= 0) & (np.abs(s - (star - j)) < tol)
    return m


def test_pole_mask_matches_the_loop_over_zeros():
    # points within 2 _POLE_GUARD of every lattice family, and of the
    # non-poles next to them (n < 9, star + 1)
    rng = np.random.default_rng(5)
    stars = bfunc._w_zero_table().w_zeros_neg
    centres = ([0.0, -1.0, 1.0, 8.0] + list(range(9, 16))
               + [z - j for z in stars for j in range(-1, 5)])
    tol = bfunc._POLE_GUARD
    s = np.concatenate([
        c + 2.0 * tol * rng.uniform(0.0, 1.0, 40)
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 40))
        for c in centres])
    mask = bfunc._near_b_pole_mask(s)
    assert np.array_equal(mask, _pole_mask_by_loop(s))
    assert 0.1 < mask.mean() < 0.9
    grid = s.reshape(len(centres), 40)
    assert np.array_equal(bfunc._near_b_pole_mask(grid),
                          _pole_mask_by_loop(grid))


def test_strip_domain_error(ev):
    with pytest.raises(ValueError):
        ev.eval_B_strip(2.5)
    with pytest.raises(ValueError):
        ev.eval_B_strip(0.1)


# ---------------- bounds on vertical lines ----------------


def test_strip_box_bounds(ev):
    # 0.2 <= |B| <= 5 across the middle of the strip, |Im s| in [5, 500]
    for x in (0.5, 0.75, 1.0, 1.25, 1.5):
        for T in (5.0, 20.0, 80.0, 500.0):
            for sgn in (1.0, -1.0):
                v = abs(ev.eval_B(complex(x, sgn * T)))
                assert 0.2 <= v <= 5.0, (x, sgn * T, v)


def test_stable_line_modulus(ev):
    # |B(1.5+iT)| is T-independent to high order; pin the measured constant
    vals = [abs(ev.eval_B(complex(1.5, T))) for T in (5.0, 50.0, 500.0)]
    assert max(vals) - min(vals) <= 1e-10 * vals[0]
    assert vals[0] == pytest.approx(3.4907937801506916, rel=1e-9)


def test_log_growth_band_right_of_strip(ev):
    # on Re s = 2.5, |B| grows like log |Im s| with bounded ratio both ways
    ratios = [abs(ev.eval_B(complex(2.5, T))) / math.log(T)
              for T in (10.0, 100.0, 1000.0)]
    assert all(3.0 < r < 14.0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.5


# ---------------- line builds ----------------

_CHEB_X = np.cos(np.pi * (np.arange(24) + 0.5) / 24)


@pytest.mark.parametrize("re_line, lo, hi", [
    (0.3, -6.0, 4.0),        # walks down one step, across Im s = 0
    (1.0, -2.0, 20.0),       # reference line beta = 0.3
    (1.35, -12.0, 2.0),      # line beta = 0.8
    (1.35, 170.0, 196.0),
    (3.5, -196.0, -170.0),   # walks up two steps
])
def test_line_build_matches_scattered_points(ev, re_line, lo, hi):
    # the FFT line build and eval_B_many's direct sums evaluate one
    # trapezoid rule; the interpolant returns its own node values
    interp = BLineInterpolator(ev, re_line, lo, hi)
    s = re_line + 1j * (interp.mids[:, None] + interp.half * _CHEB_X)
    line = interp(s)
    pts = ev.eval_B_many(s)
    assert np.max(np.abs(line - pts) / np.abs(pts)) <= 1e-12


@pytest.mark.parametrize("re_line", [1.0, 1.4])
def test_query_on_a_lattice_node(monkeypatch, re_line):
    # the strip rule's nodes are (j + 1/2) h with h = 0.025; a point on one
    # takes the step of k_plus there, so the plateau must count that node,
    # or the h and 2h rules part and the rule needlessly halves h
    ev = BEvaluator()
    steps = []
    samples = ev._rule_samples

    def spy(beta, lo, hi, h):
        steps.append(h)
        return samples(beta, lo, hi, h)

    monkeypatch.setattr(ev, "_rule_samples", spy)
    interp = ev.line_interpolator(re_line, -2.0, 20.0)
    for j in (-41, 0, 1, 200, 401):
        s = complex(re_line, (j + 0.5) * 0.025)
        assert ev.eval_B(s) == pytest.approx(
            complex(interp(np.array([s]))[0]), rel=1e-12)
    assert set(steps) == {0.025}


def test_line_cache_keeps_the_most_recently_used():
    ev = BEvaluator()
    lines = [ev.line_interpolator(1.0, lo, lo + 2.0)
             for lo in 2.0 * np.arange(bfunc._LINE_CACHE)]
    # a window snaps outward to the 2.0 lattice, and a hit renews it
    assert ev.line_interpolator(1.0, 0.3, 1.7) is lines[0]
    ev.line_interpolator(1.0, -2.0, 0.0)                  # evicts [2, 4]
    assert ev.line_interpolator(1.0, 0.0, 2.0) is lines[0]
    assert ev.line_interpolator(1.0, 4.0, 6.0) is lines[2]
    assert ev.line_interpolator(1.0, 2.0, 4.0) is not lines[1]


@pytest.mark.parametrize("arg, match", [
    (lambda v: np.full(v.shape, 3.1), "reaches"),
    (lambda v: np.where(v < 0.0, 0.3, -2.9) * np.exp(-v ** 2), "jumped"),
    (lambda v: np.full(v.shape, 0.8), "decay"),
], ids=["near_pi", "jump", "no_decay"])
def test_branch_audit_conditions(monkeypatch, arg, match):
    # a fake -W = e^(i arg(v)) trips each condition of the audit in turn
    monkeypatch.setattr(bfunc, "eval_W", lambda s: -np.exp(1j * arg(s.imag)))
    with pytest.raises(BranchError, match=match):
        BEvaluator()._line_values(0.3, np.linspace(-6.5, 6.5, 521))


# ---------------- strip lattice ----------------


def _fake_arg(monkeypatch, arg):
    # a fake -W = e^(i arg(v)) on the strip lines
    monkeypatch.setattr(bfunc, "eval_W", lambda s: -np.exp(1j * arg(s.imag)))


def test_grown_lattice_equals_a_fresh_one():
    # requests that read or grow the lattices of a wide request at
    # Im s = 400 on both lines (beta 0.3 and 0.8) give a fresh evaluator's
    # values bit for bit
    grown = BEvaluator()
    grown.eval_B_many(np.array([1.0 + 400j, 1.3 + 400j]))
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.3, 3.6, 60) + 1j * rng.uniform(-450.0, 450.0, 60)
    line = 0.7 + 1j * np.linspace(-150.0, 250.0, 401)
    u_line = 0.5 + 1j * np.linspace(-60.0, 40.0, 101)
    results = []
    for b in (grown, BEvaluator()):
        results.append((
            b.eval_B_many(pts),
            b.line_interpolator(1.3, -40.0, 90.0)(
                1.3 + 1j * np.linspace(-40.0, 90.0, 301)),
            b.line_interpolator(0.7, -150.0, 250.0)(line),
            ufunc.eval_U_line(1.0, u_line, evaluator=b),
        ))
    for a, b in zip(*results):
        assert np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("arg, match", [
    (lambda v, edge: np.where(v > edge, 3.1, 0.0), "reaches"),
    (lambda v, edge: np.where(v > edge, -2.9, 0.3) * np.exp(-(v - 6.5) ** 2),
     "jumped"),
    (lambda v, edge: np.where(v > edge, 0.8, 0.0), "decay"),
], ids=["near_pi", "jump", "no_decay"])
def test_branch_audit_on_a_grown_lattice(monkeypatch, arg, match):
    # the bad samples start right after the node the lattice ends on, so the
    # jump case also needs the step from the old top node to the first new
    # one; a failed growth leaves the lattice as it was
    at = {"edge": np.inf}
    _fake_arg(monkeypatch, lambda v: arg(v, at["edge"]))
    ev = BEvaluator()
    ev._rule_samples(0.3, -6.5, 6.5, 0.025)
    lattice = ev._lattices[(0.3, 0.025)]
    at["edge"] = lattice.hi * 0.025       # half a step past the top node
    lo, hi = lattice.lo, lattice.hi
    with pytest.raises(BranchError, match=match):
        ev._rule_samples(0.3, -6.5, 60.0, 0.025)
    if match != "decay":
        assert (lattice.lo, lattice.hi) == (lo, hi)
    with pytest.raises(BranchError, match=match):
        ev._rule_samples(0.3, -6.5, 60.0, 0.025)
    ev._rule_samples(0.3, -6.5, 6.5, 0.025)


def test_end_decay_checked_on_a_request_inside_the_lattice(monkeypatch):
    # arg(-W) has decayed at the ends of the wide window, but not at the top
    # end of a narrower one that needs no new samples
    _fake_arg(monkeypatch, lambda v: 0.8 * np.exp(-((v - 100.0) / 5.0) ** 2))
    ev = BEvaluator()
    ev._rule_samples(0.3, -6.5, 406.5, 0.025)
    lattice = ev._lattices[(0.3, 0.025)]
    size = (lattice.lo, lattice.hi)
    with pytest.raises(BranchError, match="decay"):
        ev._rule_samples(0.3, -6.5, 100.0, 0.025)
    assert (lattice.lo, lattice.hi) == size


def test_request_inside_the_lattice_samples_no_w(monkeypatch):
    calls = []
    real_w = bfunc.eval_W

    def spy(s):
        calls.append(np.size(s))
        return real_w(s)

    monkeypatch.setattr(bfunc, "eval_W", spy)
    ev = BEvaluator()
    ev.line_interpolator(1.0, -4.0, 60.0)
    assert calls
    calls.clear()
    # Re s in [0.55, 1.05): the beta = 0.3 line, and no walk factors
    ev.eval_B_many(np.array([1.0 + 30j, 0.6 - 3j, 0.9 + 58j]))
    ev.line_interpolator(1.0, 10.0, 30.0)
    assert calls == []


def test_walk_evaluates_w_once_per_walk_argument(monkeypatch):
    ev = BEvaluator()
    # k = 2 (two walk arguments) and k = -3 (three); none collides
    s = np.array([3.3 + 1j, 3.4 - 7j, 2.9 + 20j, -1.6 + 2j, -1.8 - 4j])
    first = ev.eval_B_many(s)
    calls = []
    real_w = bfunc.eval_W

    def spy(z):
        calls.append(np.size(z))
        return real_w(z)

    monkeypatch.setattr(bfunc, "eval_W", spy)
    # the strip values now come from the point cache
    assert np.array_equal(ev.eval_B_many(s), first)
    # k = -3 first: three arguments of two points, then two of three
    assert calls == [2, 2, 2, 3, 3]


@pytest.mark.parametrize("a_shape, k_shape, real", [
    ((2, 1, 700), (1, 24, 521), False),   # BEvaluator._strip_line
    ((1, 3000), (3, 101), False),         # ufunc._lattice_correlate
    ((1, 3000), (1, 101), True),          # its abs_sum row
])
def test_fft_correlate_matches_fftconvolve(a_shape, k_shape, real):
    # the "valid" output of fftconvolve with the kernel reversed, and the
    # same outputs read off its "full" mode, bit for bit
    rng = np.random.default_rng(3)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)

    a, kern = draw(a_shape), draw(k_shape)
    axis = len(a_shape) - 1
    got = bfunc._fft_correlate(a, kern)
    valid = scipy.signal.fftconvolve(a, kern[..., ::-1], mode="valid",
                                     axes=axis)
    full = scipy.signal.fftconvolve(a, kern[..., ::-1], axes=axis)
    assert got.dtype == valid.dtype
    assert np.array_equal(got, valid)
    assert np.array_equal(got, full[..., k_shape[-1] - 1:a_shape[-1]])


@pytest.mark.parametrize("s", [0.6 + 2j, 0.9 + 15j, 1.2 - 7j, 0.75 + 40j])
def test_strip_derivative_matches_circle_derivative(ev, s):
    # differentiating the strip kernel on Gauss panels, and a Cauchy circle
    # on eval_B_many, are independent routes to B'
    ref = ev.eval_B_prime(s)
    assert abs(ev.eval_B_prime_strip(s) - ref) <= 1e-12 * abs(ref)


# ---------------- residues and constants ----------------


def test_residue_dual_oracle_at_3(ev):
    circle = ev.residue_inv_B(3.0)
    analytic = 1.0 / (complex(eval_W(1.0)) * complex(eval_W_prime(2.0))
                      * ev.eval_B(1.0))
    assert abs(circle - analytic) <= 1e-7 * abs(analytic)


def test_residue_vanishes_at_regular_point(ev):
    assert abs(ev.residue_inv_B(3.5)) <= 1e-12


def test_residue_circle_contamination_guard(ev):
    with pytest.raises(PoleError):
        ev.residue_inv_B(3.8)   # circle would enclose the zero at 4


def test_derived_constants_ledger(ev):
    led = ev.derived_constants()
    assert led.rho4 == pytest.approx(0.2995426890423215, rel=1e-9)
    assert led.resB0 == pytest.approx(6.986991220893234, rel=1e-9)
    assert led.c1 == pytest.approx(0.5733790366307197, rel=1e-9)
    assert led.c2 == pytest.approx(5.009682911032067, rel=1e-9)
    assert led.c3 == pytest.approx(1.5957691216057286, rel=1e-9)
    # rho(3) = -c1 (gauge-free identity)
    assert ev.residue_inv_B(3.0) == pytest.approx(-led.c1, rel=1e-9)
    # scale-free: Res(B, 0) * W'(0) = -B(1)
    assert led.resB0 * complex(eval_W_prime(0.0)) == pytest.approx(
        -ev.eval_B(1.0), rel=1e-9)


def test_P_and_Q_lists(ev):
    led = ev.derived_constants()
    assert led.P[0] == 0 and led.P[1] == 0
    for n in range(2, 6):
        expect = (-1.0) ** n / (math.factorial(n) * ev.eval_B(-float(n)))
        assert led.P[n] == pytest.approx(expect, rel=1e-10)
        assert led.Q[n] == pytest.approx(-n * led.P[n], rel=1e-12)


def test_P2_circle_dual_oracle(ev):
    # Res(Gamma(w)/B(w), w=-2) by circle quadrature vs the closed form
    r = integrate_circle(
        lambda z: np.exp(log_gamma(z)) / ev.eval_B_many(z), -2.0, 0.3,
        n_min=32)
    led = ev.derived_constants()
    assert complex(r.value) == pytest.approx(led.P[2], rel=1e-9)


def test_c3_ratio_identity(ev):
    led = ev.derived_constants()
    assert led.c3 / led.rho4 == pytest.approx(
        ev.eval_B(5.0) / SQRT_2PI, rel=1e-10)


# ---------------- the functional-equation ladder ----------------


# Both routes multiply up to 11 values of W, which carries up to 1.8e-14
# relative rounding next to its poles and zeros (W(8.0457...) against 40
# digits); the circles do not count that in their reported error.
_W_ROUNDING = 1e-13


def _oracle(monkeypatch, call):
    """An oracle's value and the error its outermost circle reported."""
    circles = []
    real = bfunc.integrate_circle

    def spy(*args, **kwargs):
        circles.append(real(*args, **kwargs))
        return circles[-1]

    monkeypatch.setattr(bfunc, "integrate_circle", spy)
    return call(), circles[-1].error_estimate


def _cascade_points():
    # the zeros sigma + 1 + j of B that the short-time series crosses
    return [sig + 1.0 + j for sig in bfunc._w_zero_table().w_zeros_pos
            for j in range(6) if 8.0 < sig + 1.0 + j < 12.3]


def test_series_reads_the_six_cascade_points(ev):
    casc = fundsol._series_constants(ev).casc
    assert [z for z, _ in casc] == sorted(_cascade_points())
    assert len(casc) == 6


@pytest.mark.parametrize("s", [0.0, -1.0, 9.0, 10.0, 11.0, 12.0])
def test_ladder_residue_of_b_matches_its_circle(ev, monkeypatch, s):
    circle, err = _oracle(monkeypatch, lambda: ev.residue_B(s))
    order, coef = ev.laurent(s)
    assert order == -1
    assert abs(coef - circle) <= err + _W_ROUNDING * abs(circle)


@pytest.mark.parametrize("s, radius", [
    (3.0, 0.3), (4.0, 0.3), (-6.0, 0.02), (-7.0, 0.02), (-8.0, 0.02),
    (-9.0, 0.02)] + [(z, 0.02) for z in _cascade_points()])
def test_ladder_residue_of_inv_b_matches_its_circle(ev, monkeypatch, s,
                                                     radius):
    circle, err = _oracle(monkeypatch,
                          lambda: ev.residue_inv_B(s, radius=radius))
    order, coef = ev.laurent(s)
    assert order == 1
    assert abs(1.0 / coef - circle) <= err + _W_ROUNDING * abs(circle)


@pytest.mark.parametrize("k", [-5, -4, -3, -2, 5, 6, 7, 8])
def test_ladder_value_matches_the_walk_fallback(monkeypatch, k):
    # every walk to these integers collides with a zero or pole of W, so
    # eval_B takes its Cauchy-circle fallback
    ev = BEvaluator()
    walked, err = _oracle(monkeypatch, lambda: ev.eval_B(float(k)))
    order, coef = ev.laurent(float(k))
    assert order == 0
    assert abs(coef - walked) <= err + _W_ROUNDING * abs(walked)


def test_ladder_zero_at_4_is_exact(ev):
    assert ev.laurent(4.0)[0] == 1
    assert fundsol._b_at(ev, 4) == 0.0
    assert fundsol._b_at(ev, 3) == 0.0
    with pytest.raises(PoleError):
        fundsol._b_at(ev, 9)


@pytest.mark.parametrize("s", [1.0, 2.0, 2.5, -0.5, 3.3, 6.7, -3.5, -4.2])
def test_ladder_at_a_regular_point_is_eval_b(ev, s):
    assert ev.laurent(s) == (0, ev.eval_B(s))


def test_ladder_orders_follow_the_pole_and_zero_set(ev):
    star = bfunc._w_zero_table().w_zeros_neg[0]
    for s in (0.0, -1.0, 9.0, 12.0, star, star - 2.0):
        assert ev.laurent(s)[0] == -1, s
    # the walk to 13 crosses the W-poles at 4, 8 and 12 and one W-zero
    assert ev.laurent(13.0)[0] == -2
    for s in (3.0, 4.0, -6.0, -9.0):
        assert ev.laurent(s)[0] == 1, s
    # and the walk down to -10 divides by the W-poles at -10, -6 and -2
    assert ev.laurent(-10.0)[0] == 2
    for s in (1.0, 2.0, 5.0, 8.0, -2.0, -5.0):
        assert ev.laurent(s)[0] == 0, s


def test_ladder_stays_inside_the_w_table(ev):
    with pytest.raises(ValueError):
        ev.laurent(30.0)
    with pytest.raises(ValueError):
        ev.laurent(-30.0)


# ---------------- batching and cache ----------------


def test_batch_matches_scalar(ev):
    pts = np.array([1.1 + 3.0j, 0.8 - 7.0j, 2.6 + 1.0j, -2.5 + 0.5j])
    batch = ev.eval_B_many(pts)
    for p, b in zip(pts, batch):
        assert ev.eval_B(p) == pytest.approx(b, rel=1e-12)


def test_cache_quantization():
    ev = BEvaluator()
    a = ev.eval_B(1.2 + 3.0j)
    n0 = len(ev.cache)
    b = ev.eval_B(1.2 + 3.0j + 1e-14j)   # quantizes onto the same record
    assert len(ev.cache) == n0
    assert a == b


def test_point_cache_evicts_the_oldest(monkeypatch):
    monkeypatch.setattr(bfunc, "_POINT_CACHE", 5)
    ev = BEvaluator()
    first = np.array([1.0 + 1j, 1.0 + 2j, 1.0 + 3j])
    ev.eval_B_many(first)
    old_keys = list(ev.cache)
    ev.eval_B_many(np.array([1.0 + 4j, 1.0 + 5j, 1.0 + 6j, 1.0 + 7j]))
    assert len(ev.cache) == 5
    assert list(ev.cache)[:1] == old_keys[2:]     # the two oldest went
    again = ev.eval_B_many(first[:1])             # recomputed and re-added
    assert len(ev.cache) == 5 and list(ev.cache)[-1] == old_keys[0]
    assert again[0] == BEvaluator().eval_B(first[0])


def test_default_evaluator_singleton():
    assert default_evaluator() is default_evaluator()
