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
import scipy.fft

from wavekin import asymptotic, bfunc, ufunc
from wavekin.bfunc import (
    BEvaluator,
    BLineInterpolator,
    BranchError,
    SQRT_2PI,
    default_evaluator,
)
from wavekin.complexfn import eval_W, eval_W_prime, locate_W_roots, log_gamma
from wavekin.contour import integrate_circle
from wavekin.errors import ConvergenceError, PoleError


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


def test_beta_independence_up_to_one_real_constant():
    # the centered counterterm moves the strip exponent F(s; beta) with the
    # line by an s-independent real constant, which is why the strip's two
    # lines 0.3 and 0.8 splice together at one probe point; compared where
    # both lines keep the 1/4 margin to their kernel poles
    ev = BEvaluator()
    for ref, betas in ((0.3, (0.25, 0.35, 0.42)), (0.8, (0.75, 0.85, 0.92))):
        for beta in betas:
            lo, hi = max(beta, ref) + 0.25, min(beta, ref) + 0.75
            s = (lo + (hi - lo) * np.array([0.0, 0.3, 0.7, 1.0])
                 + 1j * np.array([3.0, -11.0, 0.0, 25.0]))
            d = ev._strip_batch(s, beta) - ev._strip_batch(s, ref)
            assert abs(d[0].imag) <= 1e-9
            assert np.abs(d - d[0]).max() <= 1e-9


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
    mask = bfunc._pole_distance(s) < tol
    assert np.array_equal(mask, _pole_mask_by_loop(s))
    assert 0.1 < mask.mean() < 0.9
    grid = s.reshape(len(centres), 40)
    assert np.array_equal(bfunc._pole_distance(grid) < tol,
                          _pole_mask_by_loop(grid))


@pytest.mark.parametrize("lo", [-24.3, -3.7, 2.3, 7.9])
def test_pole_distance_of_an_array_reads_the_poles_of_its_span(lo):
    # the memoized table of an integer window, cut to [min Re - 1,
    # max Re + 1], against the poles listed for that span itself; no pole
    # lies within 1 of [2.3, 5.3]
    rng = np.random.default_rng(7)
    s = lo + rng.uniform(0.0, 3.0, 30) + 1j * rng.uniform(-1.0, 1.0, 30)
    poles = bfunc._b_singularities(s.real.min() - 1.0,
                                   s.real.max() + 1.0)[0]
    ref = np.min(np.abs(s[:, None] - poles), axis=1, initial=np.inf)
    assert np.array_equal(bfunc._pole_distance(s), ref)
    assert np.isinf(ref).all() == (lo == 2.3)


@pytest.mark.parametrize("s", [-5.0, -6.0, 0.5, 8.7 + 0.2j, 3.2])
def test_pole_distance_is_the_nearest_listed_pole(s):
    # the searchsorted neighbours against the minimum over every pole
    # within 1 of Re s; none lies within 1 of 3.2
    s = complex(s)
    poles = bfunc._b_singularities(s.real - 1.0, s.real + 1.0)[0]
    ref = min((abs(s - p) for p in poles.tolist()), default=math.inf)
    assert bfunc._pole_distance(s) == ref
    assert (ref == math.inf) == (s == 3.2)
    if s.real in (-5.0, -6.0):
        # B(-5) and B(-6) sit 0.0457 from a pole: the circles shrink
        assert ref == pytest.approx(0.0457, abs=1e-4)


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
    # the line blocks and eval_B_many's scattered points sum one trapezoid
    # rule directly, and the interpolant returns its own node values
    interp = BLineInterpolator(ev, re_line, lo, hi)
    s = re_line + 1j * (interp.mids[:, None] + interp.half[:, None] * _CHEB_X)
    line = interp(s)
    pts = ev.eval_B_many(s)
    assert np.max(np.abs(line - pts) / np.abs(pts)) <= 2e-15


def test_overlapping_windows_share_bits():
    # a window's values do not depend on the window: two overlapping
    # requests, in either order on two evaluators, give the same bits
    y = np.linspace(-3.0, 31.0, 681)
    a, b = BEvaluator(), BEvaluator()
    first = a.line_interpolator(1.3, -10.0, 20.0)(1.3 + 1j * y[y <= 20.0])
    wide = a.line_interpolator(1.3, -3.0, 32.0)(1.3 + 1j * y)
    wide_b = b.line_interpolator(1.3, -3.0, 32.0)(1.3 + 1j * y)
    first_b = b.line_interpolator(1.3, -10.0, 20.0)(1.3 + 1j * y[y <= 20.0])
    assert np.array_equal(wide, wide_b)
    assert np.array_equal(first, first_b)
    assert np.array_equal(first, wide[y <= 20.0])


@pytest.mark.parametrize("re_line", [0.1, 0.15])
def test_line_resolves_the_pole_at_zero(re_line):
    # the pole of B at 0 sits 0.1 from the line: the segments whose
    # Bernstein ellipse would reach it are halved, so the interpolant
    # keeps to eval_B near Im s = 0 (it missed by 5e-8 at 0.1 unhalved)
    interp = BEvaluator().line_interpolator(re_line, -3.0, 3.0)
    s = re_line + 1j * np.linspace(-3.0, 3.0, 241)
    pts = BEvaluator().eval_B_many(s)
    assert np.max(np.abs(interp(s) - pts) / np.abs(pts)) <= 1e-13
    assert np.diff(interp.edges).min() < 0.2


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


def test_line_store_keeps_its_byte_bound(monkeypatch):
    # the store drops the least recently used blocks past _LINE_BYTES; a
    # dropped block is built again, to the same bits
    ev = BEvaluator()
    block = ev._line_blocks(1.0, 0, 1)[0]
    size = sum(arr.nbytes for arr in block)
    monkeypatch.setattr(bfunc, "_LINE_BYTES", 3 * size)
    y = 1.0 + 1j * np.linspace(0.5, 25.0, 50)
    before = ev.line_interpolator(1.0, 0.0, 25.6)(y)      # blocks 0..3
    assert list(ev._blocks) == [(10 ** 12, n) for n in (1, 2, 3)]
    assert ev._block_bytes == 3 * size
    ev.line_interpolator(1.0, 7.0, 12.0)                  # renews block 1
    ev.line_interpolator(1.0, -6.0, -1.0)                 # drops block 2
    assert list(ev._blocks) == [(10 ** 12, n) for n in (3, 1, -1)]
    assert np.array_equal(ev.line_interpolator(1.0, 0.0, 25.6)(y), before)
    assert ev._block_bytes <= 3 * size


@pytest.mark.parametrize("call", [
    lambda ev: BLineInterpolator(ev, 1.0, 5.0, 5.0),
    lambda ev: BLineInterpolator(ev, 1.0, 5.0, 4.0),
    lambda ev: BLineInterpolator(ev, 1.0, 0.0, 6.0)(np.array([1.0 - 0.1j])),
    lambda ev: BLineInterpolator(ev, 1.0, 0.0, 6.0)(np.array([1.0 + 7.0j])),
], ids=["empty_window", "reversed_window", "query_below", "query_above"])
def test_line_interpolator_refuses_what_it_does_not_cover(ev, call):
    # the blocks cover [0, 6.4] here, so the queries fall outside them
    with pytest.raises(ValueError):
        call(ev)


def test_a_rule_that_never_meets_its_2h_rule_raises(monkeypatch):
    # with no tolerance no node's h rule meets its 2h rule: a line block
    # raises at once, and a scattered point, or B' there, after its last
    # halving of h
    monkeypatch.setattr(bfunc, "_REL_TOL", 0.0)
    with pytest.raises(ConvergenceError, match="line rule"):
        BEvaluator().line_interpolator(1.0, 0.0, 6.0)
    with pytest.raises(ConvergenceError, match="stalled"):
        BEvaluator().eval_B(1.0 + 3.0j)
    with pytest.raises(ConvergenceError, match="B' strip rule stalled"):
        BEvaluator()._log_derivative(1.0 + 3.0j)


@pytest.mark.parametrize("arg, match", [
    (lambda v: np.full(v.shape, 3.1), "reaches"),
    (lambda v: np.where(v < 0.0, 0.3, -2.9) * np.exp(-v ** 2), "jumped"),
    (lambda v: np.full(v.shape, 0.8), "decay"),
], ids=["near_pi", "jump", "no_decay"])
def test_branch_audit_conditions(monkeypatch, arg, match):
    # a fake -W = e^(i arg(v)) trips each condition of the audit in turn,
    # on the strip lattice that every B value reads
    monkeypatch.setattr(bfunc, "eval_W", lambda s: -np.exp(1j * arg(s.imag)))
    with pytest.raises(BranchError, match=match):
        BEvaluator()._rule_samples(0.3, -6.5, 6.5, bfunc._STEP)


# ---------------- strip lattice ----------------


def _fake_arg(monkeypatch, arg):
    # a fake -W = e^(i arg(v)) on the strip lines
    monkeypatch.setattr(bfunc, "eval_W", lambda s: -np.exp(1j * arg(s.imag)))


_WIDE = np.array([1.0 + 400j, 1.3 + 400j])


def _lattice_reads(b):
    # requests that read or grow the lattices of _WIDE on both lines
    # (beta 0.3 and 0.8)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.3, 3.6, 60) + 1j * rng.uniform(-450.0, 450.0, 60)
    line = 0.7 + 1j * np.linspace(-150.0, 250.0, 401)
    u_line = 0.5 + 1j * np.linspace(-60.0, 40.0, 101)
    return [
        b.eval_B_many(pts),
        b.line_interpolator(1.3, -40.0, 90.0)(
            1.3 + 1j * np.linspace(-40.0, 90.0, 301)),
        b.line_interpolator(0.7, -150.0, 250.0)(line),
        ufunc.eval_U_line(1.0, u_line, evaluator=b),
    ]


def test_grown_lattice_equals_a_fresh_one():
    # after a wide request at Im s = 400, the requests give a fresh
    # evaluator's values bit for bit
    grown = BEvaluator()
    grown.eval_B_many(_WIDE)
    for a, b in zip(_lattice_reads(grown), _lattice_reads(BEvaluator())):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_lattice_over_budget_shrinks_and_regrows(monkeypatch):
    # with a 1 MB budget (the lattices of the scattered points hold 3.7 MB
    # each) a lattice drops the nodes the next request does not span; the
    # values, and those of _WIDE regrown, stay a fresh evaluator's
    ref = BEvaluator()
    fresh = _lattice_reads(ref)
    wide = BEvaluator().eval_B_many(_WIDE)
    monkeypatch.setattr(bfunc, "_LATTICE_BYTES", 2 ** 20)
    b = BEvaluator()
    b.eval_B_many(_WIDE)
    for x, y in zip(_lattice_reads(b), fresh):
        assert np.array_equal(np.asarray(x), np.asarray(y))
    for key in ((0.3, 0.025), (0.8, 0.025)):
        lat, full = b._lattices[key], ref._lattices[key]
        assert lat.lo <= 0 <= lat.hi
        assert lat.hi - lat.lo < full.hi - full.lo
    b.cache.clear()
    assert np.array_equal(b.eval_B_many(_WIDE), wide)
    assert b._lattices[(0.8, 0.025)].hi > 400.0 / 0.025


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
    # k = -3 first: its three arguments of two points in one call, then
    # k = 2's two arguments of three points in one call
    assert calls == [6, 6]


@pytest.mark.parametrize("im", [0.7, -13.0, 41.5])
def test_walked_points_equal_one_point_calls(im):
    # three points per walk k in [-5, 8] and both strip lines, so each k
    # takes all its steps' W in one call and each strip call sums many
    # points, against the same points one at a time on a second
    # evaluator, whose point cache the first call did not fill: each point
    # has its own window and its own factors, so the bits are the same
    s = (np.arange(-5, 9)[:, None] + np.array([0.6, 0.95, 1.3])
         + 1j * (im + np.array([0.0, 0.37, -2.1]))).ravel()
    many = BEvaluator().eval_B_many(s)
    ev = BEvaluator()
    assert np.array_equal(many, [ev.eval_B(x) for x in s])


def _engine_correlate(a, kern, stride):
    """out[..., r] = sum_i kern[..., i] * a[..., i + stride r] by the
    sigma-line engine's read-out: the spectra of a and of kern reversed on
    one lattice (``ufunc._lattice_spectrum``), their product folded and
    inverted by ``ufunc._conv_core``.  The engine folds evenly, so an odd
    stride folds by twice its fold and reads its odd shifts off a second
    spectrum of a, placed half a fold lower on the lattice."""
    n_a, n_k = a.shape[-1], kern.shape[-1]
    shift = stride * np.arange((n_a - n_k) // stride + 1)
    fold = stride & -stride
    if stride % (3 * fold) == 0:
        fold *= 3
    offsets = (0, fold) if fold % 2 else (0,)
    fold *= len(offsets)
    n_fft = fold * bfunc._fft_length(-(-(n_a + fold) // fold))

    def spectrum(x, j_lo, div):
        return np.apply_along_axis(ufunc._lattice_spectrum, -1, x, j_lo,
                                   n_fft, div)

    a_spec = np.stack([spectrum(a, -j, fold) for j in offsets], axis=-2)
    k_spec = spectrum(kern[..., ::-1], 1 - n_k, 1)[..., None, :]
    out = ufunc._conv_core(a_spec, k_spec, fold)
    offset = shift % fold
    return out[..., offset // max(offsets[-1], 1), (shift - offset) // fold]


@pytest.mark.parametrize("stride", [1, 2, 4, 16, 20, 94])
@pytest.mark.parametrize("a_shape, k_shape, real", [
    ((2, 1, 700), (1, 24, 537), False),   # two rows against 24 kernels
    ((3000,), (6, 101), False),           # six kernel rows on one lattice
    ((3000,), (3, 101), True),            # real rows
    ((1700,), (2, 301), False),           # two kernel rows on one lattice
    ((1700,), (301,), False),             # one kernel row
])
def test_fft_correlate_matches_direct_sums(a_shape, k_shape, real, stride):
    # every kept shift against the exact sum in long double, within
    # 4 eps of the sum of the terms' magnitudes
    rng = np.random.default_rng(3)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)

    a, kern = draw(a_shape), draw(k_shape)
    got = _engine_correlate(a, kern, stride)
    n_out = (a_shape[-1] - k_shape[-1]) // stride + 1
    ld = np.longdouble if real else np.clongdouble
    windows = np.lib.stride_tricks.sliding_window_view(
        a.astype(ld), k_shape[-1], axis=-1)[..., ::stride, :]
    terms = windows * kern.astype(ld)[..., None, :]
    exact, magnitude = terms.sum(-1), np.abs(terms).sum(-1)
    assert got.shape == exact.shape and got.shape[-1] == n_out
    assert got.dtype == complex
    assert (np.abs(got - exact)
            <= 4.0 * np.finfo(float).eps * magnitude).all()


def test_correlations_invert_at_the_folded_length(monkeypatch):
    # a line's sums are inverse FFTs of the folded bins, never a
    # full-length inverse: a U line at Re s = 0.5 with Im s one apart
    # (d = 0.7, h0 = pi d / 40) folds by m = 24 at h = 1/24, and its
    # halves at Im s < 0 (read mirrored) and >= 0 share one tile, whose
    # spectrum is the one forward FFT.  A B line build sums its windows
    # directly: no FFT
    calls = []
    for name in ("fft", "ifft"):
        def spy(x, n=None, *args, _fn=getattr(scipy.fft, name), **kw):
            calls.append((_fn.__name__, x.shape[-1] if n is None else n))
            return _fn(x, n, *args, **kw)
        monkeypatch.setattr(scipy.fft, name, spy)

    BLineInterpolator(BEvaluator(), 0.7, -60.0, 60.0)
    assert calls == []
    u_line = 0.5 + 1j * np.arange(-60.0, 40.0)
    ufunc.eval_U_line(1.0, u_line, evaluator=BEvaluator())
    [(forward, n_fft), *inverse] = calls
    assert forward == "fft" and n_fft % 24 == 0
    assert inverse == [("ifft", n_fft // 24)] * 2


def circle_B_prime(ev, s, radius=0.05):
    """B'(s) by a Cauchy derivative circle on eval_B_many: an oracle that
    shares neither the strip derivative nor the walk's W'/W with the
    library's B'."""
    return complex(integrate_circle(
        lambda z: ev.eval_B_many(z) / (z - s) ** 2, s, radius, n_min=32).value)


def line_B_prime(ev, s):
    """B'(s) by the derivative of the line interpolant through s."""
    line = ev.line_interpolator(s.real, s.imag - 1.0, s.imag + 1.0)
    return complex(line.derivative()(s))


@pytest.mark.parametrize("s", [0.6 + 2j, 0.9 + 15j, 1.2 - 7j, 0.75 + 40j])
def test_strip_derivative_matches_circle_derivative(ev, s):
    # differentiating the line blocks of strip values, and a Cauchy circle
    # on eval_B_many, are independent routes to B'
    ref = circle_B_prime(ev, s)
    assert abs(line_B_prime(ev, s) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("im", [0.5, 15.0, -40.0])
@pytest.mark.parametrize("re", [-2.6, -1.7, -0.7, 0.6, 1.2, 2.3, 4.4, 7.3])
def test_b_prime_matches_circle_across_walks(ev, re, im):
    # walks of k = -4 .. 6 steps: the strip's derivative kernel at the
    # base plus the walk's W'/W, against a circle of B values and the
    # derivative of the walked line blocks
    s = complex(re, im)
    got = ev.eval_B_prime(s)
    ref = circle_B_prime(ev, s)
    assert abs(got - ref) <= 1e-12 * abs(ref)
    line = line_B_prime(ev, s)
    assert abs(got - line) <= 1e-12 * abs(line)


def test_b_prime_reads_no_circle_off_collisions(ev, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("B' took a circle")

    monkeypatch.setattr(bfunc, "integrate_circle", refuse)
    for s in (0.3 + 1j, 1.7 - 20j, 5.2 + 3j, -3.3 + 0.2j):
        assert ev.eval_B_prime(s) == (ev._log_derivative(s)
                                      * ev.eval_B(s))


@pytest.mark.parametrize("zero", [3.0, 4.0])
def test_b_prime_at_a_collided_zero_is_the_ladder_coefficient(ev, zero):
    # the walk from 3 or 4 meets the zero of W at 2, so B' takes the
    # circle; B(zero + e) = c e + O(e^2) gives B'(zero) = c
    assert ev._log_derivative(zero) is None
    order, c = ev.laurent(zero)
    assert order == 1
    assert abs(ev.eval_B_prime(zero) - c) <= 1e-12 * abs(c)


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


def test_derived_constants_match_the_closed_forms(ev):
    # the ladder groups B(1) W(1) W'(2) and B(1)/W'(0) its own way; the
    # closed forms of the functional equation must agree to rounding
    led = ev.derived_constants()
    b1 = ev.eval_B(1.0)
    w1 = complex(eval_W(1.0))
    wp2 = complex(eval_W_prime(2.0))
    wp0 = complex(eval_W_prime(0.0))
    c1 = -1.0 / (b1 * w1 * wp2)
    c2 = -6.0 * led.rho4 * b1 / (SQRT_2PI * wp0)
    assert abs(led.c1 - c1) <= 1e-15 * abs(c1)
    assert abs(led.c2 - c2) <= 1e-15 * abs(c2)
    assert asymptotic._res_inv_b(ev, 3.0) == -led.c1.real
    assert asymptotic._res_inv_b(ev, 4.0) == led.rho4.real


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


def test_series_reads_the_six_cascade_points():
    # the ladder points past 8 that a series call at x > 1 reads, less the
    # integers: B(8) and the poles 9..12
    ev = BEvaluator()
    asymptotic._series_with_error(0.55, 2.5, ev)
    read = ev._memo[BEvaluator.laurent.__wrapped__]
    casc = sorted(s for (s,) in read if s > 8.0 and s != round(s))
    assert casc == sorted(_cascade_points())
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
    assert asymptotic._b_at(ev, 4) == 0.0
    assert asymptotic._b_at(ev, 3) == 0.0
    with pytest.raises(PoleError):
        asymptotic._b_at(ev, 9)


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


def test_enumeration_matches_the_ladder(ev):
    # _b_singularities against the orders the ladder reads off W alone
    poles, zeros = bfunc._b_singularities(-22.0, 24.0)
    for x in poles.tolist():
        assert ev.laurent(x)[0] < 0, x
    for x in zeros.tolist():
        assert ev.laurent(x)[0] > 0, x
    listed = set(poles.tolist()) | set(zeros.tolist())
    for m in range(-22, 25):
        if float(m) not in listed:
            assert ev.laurent(float(m))[0] == 0, m
    assert bfunc._b_singularities(8.0, 12.3)[1].tolist() == sorted(
        _cascade_points())


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
