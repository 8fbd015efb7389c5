"""Tests for the fundamental solution Lambda(t, x) and its derived quantities.

The direct line is checked against independent routes: the log-regularized
line (dU/ds), the long-time decomposition Q1/Q2, the near-one exponent
2t - 1, the Mellin mass sqrt(2 pi) U(t, 1) = int Lambda dx, and finite
differences of Lambda itself.  The dLambda/dt line is held to the delay
identity dU/dt (t, s) = W(s - 1) U(t, s - 1) and to t-differences of the
"u" line and of the long-time decomposition.  One array call of an assembled line must
give exactly what scalar calls give, and an assembly at a new t, which reads
B and the 1/B spectrum memoized at an earlier t, exactly what a cold build
gives.
The tail model, which the fit and the ray read off kept t-free columns,
must match its closed form, and its rotated ray must match scipy's quad on
the same ray; next to q = 0 the ray's own closed form must match quad at
q = 0 and the panel sweep elsewhere.  A repeated q array's stored rows must
equal fresh ones.  The Mellin--Parseval route of ``delta_pairing`` must meet
the adaptive panels, and its slope at small t minus the transport operator
at x = 1.
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

from wavekin import asymptotic, bfunc, fundsol, integrals, ray, ufunc
from wavekin import line as line_mod
from wavekin.asymptotic import _h_casc, _mb_line, _nu_hat, _q1_with_error
from wavekin.bfunc import BEvaluator, default_evaluator
from wavekin.complexfn import eval_W
from wavekin.contour import ContourSpec, TailModel, integrate_vertical
from wavekin.errors import ConvergenceError, RegimeError, WavekinError
from wavekin.fundsol import (
    LambdaQuery,
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
from wavekin.integrals import _adaptive_panels, _core_mass, _integral
from wavekin.kernels import eval_H
from wavekin.line import _line_assembly
from wavekin.ufunc import ENV_B, SQRT_2PI, eval_U


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


def test_b_prime_grid_is_eval_b_prime(ev):
    # the "du" line of log_regularized reads B' on its grid: it carries
    # B's rounding, with no difference step to amplify it
    v = line_mod._V_GRID[::97]
    got = line_mod._b_prime_grid(ev, 1.0)[::97]
    ref = np.array([ev.eval_B_prime(1.0 + 1j * y) for y in v])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_near_one_exponent(ev):
    # Lambda ~ A |x-1|^(2t-1): the scaled value settles to A
    t = 0.25
    amp = [eval_lambda_log(t, math.log1p(u), "auto", ev) * u ** (1 - 2 * t)
           for u in (1e-14, 1e-30)]
    assert amp[0] == pytest.approx(amp[1], rel=1e-6)


@pytest.mark.parametrize("t, x", [(0.55, 2.5), (0.3, 0.6)])
def test_small_t_series_regime_is_the_series(ev, t, x):
    val, err = _lam(t, x, "small_t_series", ev)
    assert val == eval_lambda_series(t, x, evaluator=ev)
    assert err > 0.0


@pytest.mark.parametrize("t, x", [(0.5, 0.5), (0.6, 0.3)])
def test_small_t_series_regime_refuses_x_over_t_up_to_one(ev, t, x):
    with pytest.raises(RegimeError):
        _lam(t, x, "small_t_series", ev)


def test_direct_agrees_with_large_t_asymptotic(ev):
    val, _ = _lam(3.0, 2.0, "direct", ev)
    ref, _ = _lam(3.0, 2.0, "large_t_asymptotic", ev)
    assert abs(val - ref) < 5e-10


@pytest.mark.parametrize("t, x", [(1.5, 0.5), (1.5, 4.0), (3.0, 0.3),
                                  (3.0, 8.0), (5.0, 2.0), (5.0, 12.0),
                                  (2.0, 1.0), (1000.0, 3.0)])
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
    ("dt", 1.5, 1.0, True),
    ("su", 2.0, 1.0, True),
    ("q2", 3.0, 1.0, True),
])
def test_array_call_equals_scalar_calls(ev, kind, t, c, with_zero):
    # q = 0 is left out where the route refuses it: u for t <= 1/2, and du.
    # Next to the depth edge |q| len0 = _RAY_REACH and at |q| = 15 and 25
    # the q reach depths 1, 2 and 3, so the batch holds every lane; the q
    # up to the cut |q| |s0| = 1 of the closed form and next to it above
    # make its lane
    s0 = c + 1j * ray._V_CUT
    edge = ray._RAY_REACH / ray._ray_len0(s0)
    cut = 1.0 / abs(s0)
    more = np.array([edge * (1.0 - 1e-9), edge * (1.0 + 1e-9), 15.0, 25.0,
                     1e-4, 3e-3, cut * (1.0 - 1e-9), cut, cut * (1.0 + 1e-9)])
    q = np.concatenate((_Q, more, -more))
    q = np.sort(np.append(q, 0.0)) if with_zero else np.sort(q)
    depth = np.maximum(np.frexp(q * (ray._ray_len0(s0)
                                     / ray._RAY_REACH))[1], 0)
    assert {(k, np.sign(x)) for k, x in zip(depth, q) if x} == {
        (k, side) for k in range(4) for side in (-1.0, 1.0)}
    line = _line_assembly(ev, t, c, kind)
    vals, errs = line(q)
    assert vals.shape == errs.shape == q.shape
    scalar = [line(x) for x in q]
    assert np.array_equal(vals, [v for v, _ in scalar])
    assert np.array_equal(errs, [e for _, e in scalar])
    # the lanes' panel geometry is kept read-only
    for side in (-1, 0, 1):
        for arr in ray._ray_geometry(s0, 0, side, 0):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0


@pytest.mark.parametrize("n", [2, 3, 11, 37])
def test_deep_ray_sweeps_equal_scalar_calls(ev, n):
    # q next to 0 sweep tens of panels, where their node factors are
    # neither 0 nor 1; with many of them in one batch the waves are cut
    # inside the deep blocks, and one q sweeps whole blocks
    rng = np.random.default_rng(n)
    near0 = np.concatenate((
        [0.0, 1e-16, -1e-16, 1e-15, -1e-15, 1e-13],
        rng.choice([-1.0, 1.0], 31) * 10.0 ** rng.uniform(-16.0, -12.0, 31)))
    # and q just above the cut of the closed form, which sweep the most
    cut = 1.0 / abs(1.0 + 1j * ray._V_CUT)
    above = (rng.choice([-1.0, 1.0], n // 4 + 1)
             * cut * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0, n // 4 + 1)))
    q = rng.permutation(np.concatenate((near0[:n - n // 4],
                                        rng.uniform(-3.0, 7.0, n // 4),
                                        above)))
    line = _line_assembly(ev, 0.55, 1.0, "u")
    vals, errs = line(q)
    scalar = [line(x) for x in q]
    assert np.array_equal(vals, [v for v, _ in scalar])
    assert np.array_equal(errs, [e for _, e in scalar])


def test_batches_of_a_long_call_change_no_value(ev, monkeypatch):
    line = _line_assembly(ev, 0.7, 1.0, "u")
    q = np.linspace(-9.0, 9.0, 2 * line_mod._Q_BATCH + 37)
    vals, errs = line(q)
    monkeypatch.setattr(line_mod, "_Q_BATCH", q.size)
    whole = line(q)
    assert np.array_equal(vals, whole[0]) and np.array_equal(errs, whole[1])


# ---------------- the store of q-only rows ----------------


@pytest.fixture
def empty_store():
    line_mod._q_store.cache_clear()
    yield line_mod._q_store
    line_mod._q_store.cache_clear()


def _bits(arrays):
    return [a.tobytes() for a in arrays]


def _arrays(obj):
    """Every numpy array inside nested tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return []


def _flat_rows(rows):
    # moms, phases, then per lane its depth, side (None for the closed
    # form's lane) and arrays
    moms, phases, lanes = rows
    return ([moms.tobytes(), phases.tobytes()]
            + [x if x is None or isinstance(x, int) else x.tobytes()
               for lane in lanes for x in lane])


#: the grid of the benchmark's radial profiles, in q = log x
_PROFILE = (1e-2, 1e2, 256)


def _held(store):
    info = store.cache_info()
    return info.hits, info.misses, info.currsize


def test_an_array_is_kept_on_first_sighting_and_the_least_recent_evicted(
        ev, empty_store):
    line = _line_assembly(ev, 1.3, 1.0, "u")
    line(_Q)
    assert _held(empty_store) == (0, 1, 1)
    kept = line_mod._q_rows(_Q.copy(), 1.0)
    assert _held(empty_store) == (1, 1, 1)
    # _Q_ARRAYS arrays fill the store; _Q, used last, outlives arrays[0]
    # when one more comes
    arrays = [_Q + k for k in range(1, line_mod._Q_ARRAYS + 1)]
    for q in arrays[:-1]:
        line(q)
    line(_Q)
    line(arrays[-1])
    assert _held(empty_store) == (2, line_mod._Q_ARRAYS + 1,
                                  line_mod._Q_ARRAYS)
    assert line_mod._q_rows(_Q, 1.0) is kept
    line_mod._q_rows(arrays[0], 1.0)
    assert _held(empty_store) == (3, line_mod._Q_ARRAYS + 2,
                                  line_mod._Q_ARRAYS)


def test_stored_rows_are_fresh_rows(ev, empty_store):
    q = np.concatenate((_Q, [0.0, -0.0]))
    first = line_mod._q_rows(q, 1.0)
    kept = line_mod._q_rows(q.copy(), 1.0)
    # a hit on an equal array returns the kept rows and lanes, read-only
    assert kept is first and _held(empty_store) == (1, 1, 1)
    assert not any(arr.flags.writeable for arr in _arrays(kept))
    fresh = (*line_mod._filon_rows(q), ray._ray_lanes(q, 1.0))
    assert _flat_rows(kept) == _flat_rows(fresh)
    # a line at another abscissa takes an entry of its own
    other = line_mod._q_rows(q, 1.5)
    assert _held(empty_store) == (1, 2, 2)
    assert _flat_rows(other) == _flat_rows(
        (*line_mod._filon_rows(q), ray._ray_lanes(q, 1.5)))
    # 256 q, most of them in the closed form's lane: the values read off
    # the kept lane equal those of the first sighting and of a fresh store
    q = np.linspace(-0.008, 0.008, 256)
    line = _line_assembly(ev, 0.35, 1.0, "u")
    first, kept = (line(q.copy()) for _ in range(2))
    closed = [lane for lane in line_mod._q_rows(q, 1.0)[2] if lane[0] is None]
    assert len(closed) == 1 and closed[0][3].size > 128
    empty_store.cache_clear()
    assert _bits(first) == _bits(kept) == _bits(line(q))


def test_a_profile_at_a_second_t_equals_one_on_an_empty_store(
        ev, empty_store):
    radial_profile(0.9, 1e-2, 1e2, 64, evaluator=ev)
    assert _held(empty_store) == (0, 1, 1)
    grid = np.log(np.geomspace(1e-2, 1e2, 64))
    # the second profile on the grid reads its rows from the store
    warm = radial_profile(1.7, 1e-2, 1e2, 64, evaluator=ev)
    assert _held(empty_store) == (1, 1, 1)
    warm_line = _line_assembly(ev, 1.7, 1.0, "u")(grid)
    empty_store.cache_clear()
    cold = radial_profile(1.7, 1e-2, 1e2, 64, evaluator=ev)
    assert warm.values.tobytes() == cold.values.tobytes()
    empty_store.cache_clear()
    assert _bits(warm_line) == _bits(_line_assembly(ev, 1.7, 1.0, "u")(grid))


def _spy(monkeypatch, module, name, calls):
    """Record the arguments of every call of module's name in calls."""
    real = getattr(module, name)

    def call(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, call)


def test_a_second_profile_on_a_grid_takes_its_q_rows_from_the_store(
        ev, empty_store, monkeypatch):
    # on the benchmark's grid, the second profile computes no Filon row,
    # no phase product and no lane, so no prefactor and no node factor of
    # block 0; only the q next to 0 sweep past block 0 and take factors
    # there
    radial_profile(0.9, *_PROFILE, evaluator=ev)
    calls = {name: [] for name in ("_filon_rows", "_ray_lanes",
                                   "_ray_factors")}
    _spy(monkeypatch, line_mod, "_filon_rows", calls["_filon_rows"])
    _spy(monkeypatch, line_mod, "_ray_lanes", calls["_ray_lanes"])
    _spy(monkeypatch, ray, "_ray_factors", calls["_ray_factors"])
    warm = radial_profile(2.3, *_PROFILE, evaluator=ev)
    assert not calls["_filon_rows"] and not calls["_ray_lanes"]
    s0 = 1.0 + 1j * ray._V_CUT
    heads = [ray._ray_geometry(s0, 0, side, 0)[2] for side in (-1, 1)]
    assert not any(np.shares_memory(args[1], h)
                   for args in calls["_ray_factors"] for h in heads)
    empty_store.cache_clear()
    cold = radial_profile(2.3, *_PROFILE, evaluator=ev)
    assert len(calls["_filon_rows"]) == len(calls["_ray_lanes"]) == 1
    assert warm.values.tobytes() == cold.values.tobytes()


def test_profiles_and_l1_norms_at_new_t_recompute_no_q_rows(
        ev, empty_store, monkeypatch):
    # a profile on the benchmark's grid and an l1 norm, interleaved as in
    # the benchmark's integrals: every array of the first round is still
    # held in the two rounds after it
    calls = []
    _spy(monkeypatch, line_mod, "_filon_rows", calls)
    radial_profile(1.1, *_PROFILE, evaluator=ev)
    l1_norm_lambda(1.1, evaluator=ev)
    first = {args[0].tobytes() for args in calls if args[0].size > 1}
    # the grid, and l1's core edges, near-range first panels and e-fold
    # heads in two batches
    assert len(first) == 5
    calls.clear()
    for t in (1.7, 2.3):
        radial_profile(t, *_PROFILE, evaluator=ev)
        l1_norm_lambda(t, evaluator=ev)
    assert sum(args[0].tobytes() in first for args in calls) == 0


def test_a_one_point_query_leaves_the_store_unchanged(ev, empty_store):
    line = _line_assembly(ev, 1.3, 1.0, "u")
    line(_Q)
    line(_Q[::-1])
    line(_Q)
    before = empty_store.cache_info()
    _lam(1.3, 2.0, "auto", ev)
    _lam(1.3, 1.0001, "auto", ev)
    line(np.array([0.5]))
    line(0.0)
    line(np.array([-3e-3]))
    assert empty_store.cache_info() == before
    # the entries are the rows of the two arrays, as they were
    kept = [line_mod._q_rows(q, 1.0) for q in (_Q, _Q[::-1])]
    assert _flat_rows(kept[0]) == _flat_rows(
        (*line_mod._filon_rows(_Q), ray._ray_lanes(_Q, 1.0)))
    assert _held(empty_store) == (before.hits + 2, before.misses, 2)


def test_the_store_stays_within_its_bound(empty_store):
    rng = np.random.default_rng(50)
    used = {}
    for k in range(20):
        q = rng.uniform(-9.0, 9.0, line_mod._Q_BATCH)
        for c in (1.0, 1.0) + (1.5,) * (k % 5 == 0):
            used.pop((q.tobytes(), c), None)
            used[q.tobytes(), c] = line_mod._q_rows(q, c)
    info = empty_store.cache_info()
    assert info.currsize == line_mod._Q_ARRAYS
    # the last _Q_ARRAYS pairs used are the entries: each is a hit that
    # returns the rows it returned before
    held = list(used.items())[-line_mod._Q_ARRAYS:]
    for (key, c), rows in held:
        assert line_mod._q_rows(np.frombuffer(key), c) is rows
    assert _held(empty_store) == (info.hits + line_mod._Q_ARRAYS,
                                  info.misses, line_mod._Q_ARRAYS)
    # every kept array, counted here, against _Q_ARRAYS full batches of q
    # that all sweep the ray
    q = np.linspace(1.0, 9.0, line_mod._Q_BATCH)
    full = sum(a.nbytes for a in _arrays(
        (*line_mod._filon_rows(q), ray._ray_lanes(q, 1.0))))
    kept = sum(a.nbytes for _, rows in held for a in _arrays(rows))
    assert 0 < kept <= line_mod._Q_ARRAYS * full


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


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0, 3.0])
def test_lambda_is_not_negative(ev, t):
    # Lambda >= 0 within its error; 400 points take two batches of the line
    x = np.geomspace(1e-3, 100.0, 400)
    assert x.size > line_mod._Q_BATCH
    val, err = fundsol._direct(t, np.log(x), ev)
    assert np.all(np.isfinite(val))
    assert (val + err).min() >= 0.0


@pytest.mark.parametrize("t", [0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 3.0])
def test_lambda_is_not_negative_far_from_x_one(ev, t):
    # far from x = 1, x^(-c) = e^(-q) multiplies the line's absolute
    # errors, so a ray panel too long for e^(-(1 +- i)|q| r/sqrt 2) shows
    # here first; x = 1 is on the grid and reads +inf at t <= 1/2
    x = np.geomspace(1e-8, 1e8, 801)
    val, err = fundsol._direct(t, np.log(x), ev)
    assert (val + err).min() >= 0.0


@pytest.mark.parametrize("t, x", [(0.3, 1e-7), (0.3, 1e-6), (0.5, 1e-7),
                                  (0.5, 1e-6)])
def test_direct_agrees_with_log_regularized_far_left(ev, t, x):
    val, err = _lam(t, x, "direct", ev)
    ref, ref_err = _lam(t, x, "log_regularized", ev)
    assert abs(val - ref) <= err + ref_err


# ---------------- the short-time series against the direct line -----------


_SERIES_MISS = ("the series' reported error is not truthful (ROADMAP.md, "
                "item 5): it misses direct by {}x the summed errors")
_SERIES_MISSES = {(0.1, 0.8): 1.59, (0.3, 3.0): 3.38, (0.52, 2.0): 7.54,
                  (0.52, 3.0): 12.7, (0.8, 2.0): 15.8, (0.8, 3.0): 14.9}


@pytest.mark.parametrize("t, x", [
    pytest.param(t, x, marks=[pytest.mark.xfail(
        strict=True, reason=_SERIES_MISS.format(_SERIES_MISSES[t, x]))]
        if (t, x) in _SERIES_MISSES else [])
    for t in (0.1, 0.3, 0.52, 0.8)
    for x in (0.3, 0.5, 0.8, 1.2, 2.0, 3.0, 10.0)
    if x / t > 1.0 and abs(x - 1.0) >= 0.1])
def test_series_agrees_with_direct_inside_its_zone(ev, t, x):
    # inside the zone the series answers within the summed errors or
    # raises a typed error where its terms stop decreasing
    try:
        val, err = _lam(t, x, "small_t_series", ev)
    except WavekinError:
        return
    ref, ref_err = _lam(t, x, "direct", ev)
    assert abs(val - ref) <= err + ref_err


# ---------------- the tail model and the rotated ray ----------------


#: every kind of line, each on the direct abscissa
_KINDS = [(kind, 1.0) for kind in ray._RAY_LADDERS]
_TAIL_CASES = [(kind, c, t) for kind, c in _KINDS
               for t in (0.7, 2.0) if kind != "su" or t > 1.0]


def _ray_nodes(s0, n_panels=24):
    # the Gauss nodes of the first n_panels panels of _ray_tail, on all
    # three ray directions, at depth 0 (|q| < 4.976) and at depth 4, the
    # depth of |q| = 40
    len0 = ray._ray_len0(s0)
    r = np.concatenate([ray._ray_panels(len0, depth, 0, n_panels)[0]
                        for depth in (0, 4)])
    return s0 + ray._RAY_DIRS[:, None, None] * r


def _closed_tail(kind, t, a, s):
    # the tail model in closed form: (ENV_B s)^(-2t) times the Horner sum
    # of its ladder, times s for "su" and over s for "du"
    p = ray._V_BAR / s
    if kind in ("u", "q2", "su"):
        ladder = a[0] + p * (a[1] + p * (a[2] + p * (a[3] + p * a[4])))
    else:
        b = a[[1, 0, 2, 3, 4]] if kind == "du" else a
        ladder = b[0] * np.log(s) + b[1] + p * (b[2] + p * (b[3] + p * b[4]))
    model = (ENV_B * s) ** (-2.0 * t) * ladder
    if kind == "su":
        return model * s
    return model / s if kind == "du" else model


@pytest.mark.parametrize("kind, c, t", _TAIL_CASES)
def test_tail_model_is_the_fit_columns_summed(ev, kind, c, t):
    # the fit's column matrix times the amplitudes is the model that the
    # ray samples, and both are the model's closed form
    line = _line_assembly(ev, t, c, kind)
    s = _ray_nodes(c + 1j * ray._V_CUT)
    log_b, cols = ray._tail_columns(kind, s)
    assert cols.shape == s.shape + (ray._MODEL_K,)
    ref = (np.exp(-2.0 * t * log_b)[..., None] * cols) @ line.model_a
    got = ray._tail_model(t, (log_b, cols), line.model_a)
    closed = _closed_tail(kind, t, line.model_a, s)
    assert got.shape == ref.shape == closed.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    assert np.all(np.abs(got - closed) <= 1e-14 * np.abs(closed))


def test_a_query_evaluates_no_fit_column(ev, monkeypatch):
    # an assembly reads the fit's column matrices once, off the kept
    # ladders; a query reads none and samples the tail model with the
    # line's 1-D amplitudes only
    columns, amplitudes = [], []
    real_columns, real_model = line_mod._fit_columns, ray._tail_model

    def spy_columns(kind, t, c):
        columns.append((kind, t, c))
        return real_columns(kind, t, c)

    def spy_model(t, cols, a):
        amplitudes.append(np.ndim(a))
        return real_model(t, cols, a)

    monkeypatch.setattr(line_mod, "_fit_columns", spy_columns)
    monkeypatch.setattr(ray, "_tail_model", spy_model)
    q = np.linspace(-6.0, 6.0, 30)
    for kind, c in _KINDS:
        line = _line_assembly(ev, 1.37, c, kind)    # a t no other test uses
        assert columns == [(kind, 1.37, c)] and amplitudes == []
        columns.clear()
        line(q)
        line(0.4)
        assert columns == [] and set(amplitudes) == {1}
        amplitudes.clear()


@pytest.mark.parametrize("t", [0.3, 1.37, 4.0])
@pytest.mark.parametrize("kind, c", _KINDS)
def test_kept_ladder_columns_are_the_tail_model(kind, c, t):
    # the fit's columns at t from the columns kept per (kind, c) are the
    # tail model with the unit vectors as amplitudes, bit for bit
    got = line_mod._fit_columns(kind, t, c)
    for cols, iv in zip(got, (line_mod._FIT_IV_PROBE, line_mod._FIT_IV_CHECK)):
        fresh = ray._tail_columns(kind, c + iv)
        ref = np.stack([ray._tail_model(t, fresh, unit)
                        for unit in np.eye(ray._MODEL_K)], axis=-1)
        assert cols.shape == ref.shape == (iv.size, ray._MODEL_K)
        assert cols.tobytes() == ref.tobytes()
    for kept in line_mod._fit_ladders(kind, c):
        assert not kept.flags.writeable


@pytest.mark.parametrize("kind, c, t", _TAIL_CASES)
def test_kept_ray_columns_are_the_tail_model(ev, kind, c, t):
    # a lane's samples, read off the columns kept per lane and block and
    # summed with the line's amplitudes, are the tail model at its nodes
    # times its Gauss weights, bit for bit
    line = _line_assembly(ev, t, c, kind)
    s0 = c + 1j * ray._V_CUT
    for depth, side in ((0, -1), (0, 0), (0, 1), (4, -1)):
        for block in range(len(ray._RAY_BLOCKS)):
            nodes, weights, _ = ray._ray_geometry(s0, depth, side, block)
            kept = ray._ray_columns(kind, s0, depth, side, block)
            assert not any(arr.flags.writeable for arr in kept)
            got = ray._tail_model(t, kept, line.model_a)
            ref = ray._tail_model(
                t, ray._tail_columns(kind, nodes, weights), line.model_a)
            assert got.shape == nodes.shape
            assert got.tobytes() == ref.tobytes()


def _quad_ray(F, s0, q, c):
    """int F(s) e^(-(s-c) q) ds on the ray of _ray_tail, by scipy's quad.

    The integrand's phase e^(-(s0-c) q) and the direction are taken out, and
    the rest, which decays like e^(-|q| r / sqrt 2), goes in pieces of 1, 1,
    2, 4, ... decay lengths."""
    d = ray._RAY_DIRS[int(np.sign(q))]

    def g(r):
        return complex(F(s0 + d * r) * np.exp(-d * r * q))

    L = math.sqrt(2.0) / abs(q)
    edges = [0.0] + [L * 2.0 ** k for k in range(7)]
    scale = abs(g(0.0)) * L
    total = sum(scipy.integrate.quad(g, a, b, epsabs=1e-15 * scale,
                                     epsrel=1e-13, limit=200,
                                     complex_func=True)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return total * d * np.exp(-(s0 - c) * q)


@pytest.mark.parametrize("q", [1e-3, -1e-3, 0.01, -0.01, 0.05, -0.05, 0.3,
                               -0.3, 2.0, -2.0, 5.0, -5.0, 8.0, -8.0, 20.0,
                               -20.0, 40.0, -40.0])
@pytest.mark.parametrize("t", [0.7, 2.0])
def test_ray_tail_matches_quad(ev, t, q):
    c = 1.0
    line = _line_assembly(ev, t, c, "u")

    def model(s):
        return ray._tail_model(t, ray._tail_columns("u", s),
                                   line.model_a)

    s0 = c + 1j * ray._V_CUT
    ref = _quad_ray(model, s0, q, c)
    lanes = ray._ray_lanes(np.array([q]), c)
    (got,), (err,) = ray._ray_tail(line, lanes, 1)
    assert abs(got - ref) <= err


# ---------------- the ray in closed form near q = 0 ----------------

#: the block ladder of the sweep before the closed form took the q with
#: |q| |s0| <= 1: 480 panels, enough for them to settle
_FULL_BLOCKS = tuple((8 * (2 ** k - 1), 8 * (2 ** (k + 1) - 1))
                     for k in range(6))


@pytest.fixture
def full_sweep(monkeypatch):
    """The panel sweep of the q array q on the line, through a hand-built
    depth-0 lane per sign and on _FULL_BLOCKS: (values, errors)."""
    monkeypatch.setattr(ray, "_RAY_BLOCKS", _FULL_BLOCKS)
    monkeypatch.setattr(ray, "_RAY_K", np.arange(_FULL_BLOCKS[-1][1]))

    def sweep(line, q):
        s0 = line.c + 1j * ray._V_CUT
        len0 = ray._ray_len0(s0)
        val, err = np.empty(q.size, complex), np.empty(q.size)
        for side in (-1, 1):
            at = np.flatnonzero(np.sign(q) == side)
            qs = q[at]
            pre = np.exp((ray._RAY_DIRS[side] * len0 - (s0 - line.c))
                         * qs)
            head = ray._ray_factors(
                qs, ray._ray_geometry(s0, 0, side, 0)[2])
            val[at], err[at] = ray._ray_sweep(
                line, (0, side, at, qs, pre, head))
        return val, err
    return sweep


def _closed(line, q):
    """The closed form's (values, errors) at the q array on the line."""
    assert np.all(np.abs(q) * abs(line.c + 1j * ray._V_CUT) <= 1.0)
    lanes = ray._ray_lanes(q, line.c)
    assert [lane[:2] for lane in lanes] == [(None, None)]
    return ray._ray_tail(line, lanes, q.size)


@pytest.mark.parametrize("kind, c, t", [
    ("u", 1.0, 0.55), ("u", 1.0, 0.6), ("u", 1.0, 0.7), ("u", 1.0, 2.0),
    ("du", 1.0, 0.3), ("du", 1.0, 2.0), ("q2", 1.0, 0.7), ("su", 1.0, 1.3),
    ("dt", 1.0, 0.7), ("dt", 1.0, 2.0)])
def test_closed_ray_at_q_zero_matches_quad(ev, kind, c, t):
    # the vertical ray in w = log(1 + v/V), where the model's v^(-alpha)
    # decays like e^(-(alpha - 1) w); the sweep missed by 6.3x its error at
    # ("u", 0.55), as its stop test ignores the v^(1-2t) tail
    line = _line_assembly(ev, t, c, kind)
    s0 = c + 1j * ray._V_CUT

    def f(w):
        v = ray._V_CUT * math.expm1(w)
        return complex(_closed_tail(kind, t, line.model_a, s0 + 1j * v)
                       * (ray._V_CUT + v))

    end = min(700.0, 40.0 / line.ray_series.e)
    ref = 1j * scipy.integrate.quad(f, 0.0, end, epsabs=0.0, epsrel=1e-13,
                                    limit=200, complex_func=True)[0]
    (got,), (err,) = _closed(line, np.array([0.0]))
    assert abs(got - ref) <= err <= 1e-13 * abs(ref)


_SMALL_Q = np.array([1e-17, 4e-9, 1e-4, 3e-3, 5.9e-3])


@pytest.mark.parametrize("t", [0.3, 0.45, 0.57, 0.83, 1.37, 2.21])
@pytest.mark.parametrize("kind, c", _KINDS)
def test_closed_ray_matches_the_sweep(ev, full_sweep, kind, c, t):
    line = _line_assembly(ev, t, c, kind)
    q = np.concatenate((_SMALL_Q, -_SMALL_Q))
    val, err = _closed(line, q)
    ref, ref_err = full_sweep(line, q)
    assert np.all(np.abs(val - ref) <= 0.5 * ref_err)
    assert np.all(err < ref_err)


@pytest.mark.parametrize("t0", [1.0, 2.0, 12.5, 30.0])
@pytest.mark.parametrize("kind, c", _KINDS)
def test_closed_ray_is_continuous_across_whole_2t(ev, full_sweep, kind, c,
                                                  t0):
    # at whole 2t every exponent alpha - 1 is whole and meets a pole of
    # Gamma(1 - alpha); within _RAY_POLE_GAP of it the pole and its series
    # term are one term, past it two.  On the amplitudes of the line at t0
    # the values change with t no faster than over the widest step, and
    # agree with the sweep
    base = _line_assembly(ev, t0, c, kind)
    gap = ray._RAY_POLE_GAP / 2.0
    steps = [0.0, 1e-12, 1e-8, 1e-5, 1e-3, 0.98 * gap, 1.02 * gap]
    q = np.array([1e-12, 1e-4, 5.9e-3, -1e-12, -1e-4, -5.9e-3])
    vals = {}
    for dt in steps + [-dt for dt in steps[1:]]:
        line = dataclasses.replace(base, t=t0 + dt)
        vals[dt], err = _closed(line, q)
        if abs(dt) in (0.0, 1e-8, 1e-3, 1.02 * gap):
            ref, ref_err = full_sweep(line, q)
            assert np.all(np.abs(vals[dt] - ref) <= 0.5 * ref_err)
    slope = np.maximum(*(np.abs(vals[dt] - vals[0.0]) / abs(dt)
                         for dt in (1.02 * gap, -1.02 * gap)))
    for dt, val in vals.items():
        assert np.all(np.abs(val - vals[0.0])
                      <= 2.0 * slope * abs(dt) + 1e-13 * np.abs(vals[0.0]))


@pytest.mark.parametrize("t", [12.5, 30.0, 88.0, 880.0, 1e4])
def test_routes_next_to_x_one_hold_at_large_t(ev, t):
    # the merged pole of m = 2t - 1 + shift + j >= _RAY_SERIES lies past
    # the series' end, the fit's amplitudes reach 1e300 near t = 88, and
    # ENV_B^(-2t) passes the float range at t > 877: every line query with
    # |q| |s0| <= 1 reads the closed form
    q = np.array([0.0, 1e-12, -1e-12, 1e-3, -1e-3, 5.9e-3, -5.9e-3])
    for kind, c in _KINDS:
        vals, errs = _line_assembly(ev, t, c, kind)(q)
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))
    direct, direct_err = _lam(t, 1.0, "direct", ev)
    large, large_err = _lam(t, 1.0, "large_t_asymptotic", ev)
    assert abs(direct - large) <= direct_err + large_err
    if t == 88.0:
        # l1's panels sweep the ray, whose tail model overflows there
        # (item 14 of the roadmap)
        return
    # l1's core edges sit at q = +-4e-18; at 1e4 it misses the mass by
    # 1.3e-6 (item 13 of the roadmap)
    l1 = l1_norm_lambda(t, evaluator=ev)
    mass = SQRT_2PI * eval_U(t, 1.0, evaluator=ev).value.real
    assert math.isfinite(l1)
    if t in (30.0, 880.0):
        assert l1 == pytest.approx(mass, rel=1e-6)


@pytest.mark.parametrize("kind, c, t, diverges", [
    ("u", 1.0, 0.5, True), ("u", 1.0, 0.3, True), ("q2", 1.0, 0.45, True),
    ("dt", 1.0, 0.4, True), ("dt", 1.0, 0.5, True),
    ("su", 1.0, 1.0, True), ("su", 1.0, 0.7, True), ("u", 1.0, 0.55, False),
    ("q2", 1.0, 0.55, False), ("dt", 1.0, 0.55, False),
    ("su", 1.0, 1.05, False), ("du", 1.0, 0.05, False)])
def test_line_at_q_zero_is_infinite_where_its_ray_diverges(ev, kind, c, t,
                                                           diverges):
    # the vertical ray of v^(-alpha), alpha <= 1, diverges: the sweep read
    # 119.7 +- 0.25 at ("u", 0.5) and 1.04e58 +- 2.5e57 at ("u", 0.3)
    line = _line_assembly(ev, t, c, kind)
    assert line.ray_series.diverges == diverges
    vals, errs = line(np.array([-1e-3, 0.0, 1e-9, 2.0]))
    assert np.all(np.isfinite(np.delete(vals, 1)))
    assert np.all(np.isfinite(np.delete(errs, 1)))
    if diverges:
        assert line(0.0) == line(-0.0) == (math.inf, math.inf)
        assert vals[1] == errs[1] == math.inf
    else:
        assert math.isfinite(vals[1]) and 0.0 < errs[1] < 1e-3 * abs(vals[1])


def test_no_sweep_reaches_the_last_ray_block(ev, monkeypatch):
    # with the q of |q| |s0| <= 1 in closed form, the sweeps of the rest
    # end in block 1 (14 panels at most, measured on every kind at t in
    # [0.001, 1000] and |q| up to 700); block 2 is the margin
    reached = set()
    real = ray._ray_columns

    def spy(kind, s0, depth, side, block):
        reached.add(block)
        return real(kind, s0, depth, side, block)

    monkeypatch.setattr(ray, "_ray_columns", spy)
    for kind, c in _KINDS:
        cut = 1.0 / abs(c + 1j * ray._V_CUT)
        q = np.concatenate((cut * (1.0 + np.array([1e-12, 1e-6, 1e-2])),
                            [0.01, 0.1, 1.0, 10.0, 60.0]))
        q = np.concatenate((q, -q))
        for t in (0.05, 0.3, 0.55, 1.0, 2.2, 10.0):
            _line_assembly(ev, t, c, kind)(q)
    assert max(reached) == len(ray._RAY_BLOCKS) - 2
    assert ray._RAY_BLOCKS[-1][1] == ray._RAY_PANELS


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
    c1, lt = ev.derived_constants().c1.real, math.log(theta)

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
    h = asymptotic._MB_H / 2.0
    n = int(round(asymptotic._MB_V / h))
    w = -0.5 + 1j * h * np.arange(-n, n + 1)
    weights = np.full(w.size, h)
    weights[[0, -1]] *= 0.5
    casc = asymptotic._cascade_zeros()
    assert len(casc) == 6
    for z in casc:
        f = np.exp(loggamma(w) + w * math.log(theta)) * ev.eval_B_many(z - w)
        ref = (weights @ f).real / (2.0 * math.pi)
        assert _h_casc(z, theta, ev)[0] == pytest.approx(ref, rel=1e-11)


def test_unresolved_line_raises():
    # a pole 1e-3 from the line keeps the h and 2h rules apart at _MB_H
    line = asymptotic._MBLine(lambda s: 1.0 / (s - (1e-3 + 5j)), 0.0, 1e-18)
    with pytest.raises(ConvergenceError):
        line(0.0)


def test_asymptotic_routes_need_no_vertical_quadrature(ev, monkeypatch):
    # ufunc's binding is the one eval_U and eval_U_small_t call, and no
    # other module of the package calls integrate_vertical
    def refuse(*args, **kwargs):
        raise AssertionError("integrate_vertical was called")

    monkeypatch.setattr(ufunc, "integrate_vertical", refuse)
    for t, x in ((0.55, 2.5), (0.3, 0.6)):
        assert math.isfinite(eval_lambda_series(t, x, evaluator=ev))
    val, err = _lam(3.0, 2.0, "large_t_asymptotic", ev)
    assert math.isfinite(val) and math.isfinite(err)


def test_q1_small_theta_law(ev):
    # Q1(0+) = 2 c1 Res(B, 0), approached linearly in theta (slope -1.567)
    led = ev.derived_constants()
    q1_0 = 2.0 * led.c1.real * led.resB0.real
    dev = [eval_Q1(theta, ev) / q1_0 - 1.0 for theta in (1e-3, 1e-4)]
    assert abs(dev[0]) <= 2e-3 and abs(dev[1]) <= 2e-4
    assert dev[0] / dev[1] == pytest.approx(10.0, rel=0.01)


@pytest.mark.parametrize("theta", [1e-5, 1e-6])
def test_q1_tiny_theta_meets_small_theta_law(ev, theta):
    # the terms of the line sum grow like theta^(-3/2), so the h and 2h
    # rules differ by rounding alone; the rounding floor accepts that and
    # enters the error.  The slope 1.567 is known to about 5e-4.
    led = ev.derived_constants()
    q1_0 = 2.0 * led.c1.real * led.resB0.real
    value, err = _q1_with_error(theta, ev)
    law = q1_0 * (1.0 - 1.567 * theta)
    assert abs(value - law) <= err + 5e-4 * theta * q1_0
    assert err <= 1e-6 * q1_0


@pytest.mark.parametrize("theta", [100.0, 300.0])
def test_q1_large_theta_law(ev, theta):
    # Q1 ~ (c1 B(5)/2) theta^-5, the residue of Gamma(3 - s) at s = 5
    limit = ev.derived_constants().c1.real * ev.eval_B(5.0).real / 2.0
    assert abs(theta ** 5 * eval_Q1(theta, ev) / limit - 1.0) <= 2.0 / theta


def test_q2_small_theta_law_is_its_large_t_term(ev):
    # Q2(t, 0+) t^4 -> -6 Res(1/B, 4) Res(B, 0) only as t grows: at
    # theta = 1e-4 the miss is 21 % at t = 1.5 and 0.41 % at t = 5
    led = ev.derived_constants()
    law = -6.0 * (led.rho4 * led.resB0).real
    miss = [abs(t ** 4 * eval_Q2(t, 1e-4, ev) / law - 1.0)
            for t in (1.5, 3.0, 5.0)]
    assert miss[0] > miss[1] > miss[2]
    assert miss[2] < 1e-2


# ---------------- integrals ----------------


@pytest.mark.parametrize("t", [0.1, 0.3, 0.7, 1.0, 1.5, 3.0, 0.02, 0.2, 0.45,
                               0.55, 0.585])
def test_l1_norm_is_the_mellin_mass(ev, t):
    # the rest past both truncated ends is added, so the panels' own
    # accuracy, far inside rel_tol, is what is left
    l1 = l1_norm_lambda(t, rel_tol=1e-6, evaluator=ev)
    mass = SQRT_2PI * eval_U(t, 1.0, evaluator=ev).value.real
    assert abs(l1 - mass) <= 1e-8 * mass


def test_delta_pairing_across_the_core_returns(ev):
    # imported through the module: pytest would try to collect the class
    val = delta_pairing(0.3, fundsol.TestFunction.bump(0.5, 3.0),
                        evaluator=ev)
    assert math.isfinite(val) and val > 0.0


@pytest.mark.parametrize("t, lo, hi", [
    pytest.param(1.5, 1.2, 2.5, id="1.2-2.5"),
    pytest.param(1.5, 0.62, 1.9, id="0.62-1.9"),
    # t <= 1/2, where the cusp |x-1|^(2t-1) at x = 1 is infinite
    pytest.param(0.3, 0.62, 1.9, id="0.3-0.62-1.9")])
def test_delta_pairing_matches_quad(ev, t, lo, hi):
    # scalar Lambda points under quad in tau = log x, split at x = 1; the
    # core |x-1| < exp(-40) adds its near-one mass as in delta_pairing.  For
    # t <= 1/2, where the cusp A |x-1|^(2t-1) is infinite, each side's
    # exp(-40) < |x-1| < 0.25 goes to quad in w = -log|x-1| instead, where
    # the integrand is the smooth A e^(-2tw)
    rel_tol = 1e-7
    phi = fundsol.TestFunction.bump(lo, hi)

    def g(tau):
        x = math.exp(tau)
        return eval_lambda(LambdaQuery(t, x), ev) * phi(x) * x

    def near_one(side):
        def h(w):
            step = side * math.exp(-w)
            return (eval_lambda_log(t, math.log1p(step), evaluator=ev)
                    * phi(1.0 + step) * abs(step))
        return h

    a, b = math.log(lo), math.log(hi)
    pieces = [(g, a, b)]
    ref = 0.0
    if lo < 1.0 < hi:
        ref += float(phi(1.0)) * _core_mass(t, ev)
        pieces = [(g, a, 0.0), (g, 0.0, b)]
        if t <= 0.5:
            w = -math.log(0.25)
            pieces = [(g, a, math.log1p(-0.25)), (near_one(-1.0), w, 40.0),
                      (near_one(1.0), w, 40.0), (g, math.log1p(0.25), b)]
    ref += sum(scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11,
                                    limit=200)[0] for f, a, b in pieces)
    val = delta_pairing(t, phi, rel_tol=rel_tol, evaluator=ev)
    assert abs(val - ref) <= rel_tol * abs(ref)


def _count_line_calls(monkeypatch):
    calls = []
    real_call = line_mod._LineAssembly.__call__

    def spy(self, q):
        calls.append(np.size(q))
        return real_call(self, q)

    monkeypatch.setattr(line_mod._LineAssembly, "__call__", spy)
    return calls


def test_panel_pairing_takes_one_line_call_per_sweep(ev, monkeypatch):
    # the intervals of the ladder around the core refine in lockstep, one
    # panel sweep of all of them each call; delta_pairing reads no Lambda
    # on its Parseval route, so the panels are called directly
    phi = fundsol.TestFunction.bump(0.5, 3.0)
    _line_assembly(ev, 1.5, 1.0, "u")
    calls = _count_line_calls(monkeypatch)
    _integral(1.5, phi, math.log(0.5), math.log(3.0), 1e-7, ev)
    assert len(calls) <= 8


_ORACLE_BUMPS = ((0.5, 2.0), (0.8, 1.25), (1.3, 2.5), (0.4, 0.9))


@pytest.mark.parametrize("t", [0.05, 0.3, 0.55, 1.0, 3.0])
def test_parseval_pairing_meets_the_panels(ev, t):
    # the panels at rel_tol 1e-9 are the oracle of the Parseval route, on
    # bumps that hold x = 1, lie left of it or right of it
    for lo, hi in _ORACLE_BUMPS:
        phi = fundsol.TestFunction.bump(lo, hi)
        ref, _ = _integral(t, phi, math.log(lo), math.log(hi), 1e-9, ev)
        for rel_tol in (1e-6, 1e-7):
            val = integrals._parseval_pairing(t, phi, rel_tol, ev)
            assert val is not None
            assert delta_pairing(t, phi, rel_tol=rel_tol, evaluator=ev) == val
            assert abs(val - ref) <= rel_tol * abs(ref)


def test_pairing_slope_at_small_t_is_minus_the_transport(ev):
    # Lambda(t) -> delta_1 with d/dt <Lambda, phi> = <Lambda, T phi>, so
    # (<Lambda(t), phi> - phi(1))/t -> -(T phi)(1), an oracle that reads no
    # U; the gap is O(t), and the Richardson value of t = 0.01 and 0.02
    # removes its first order
    phi = fundsol.TestFunction.bump(0.5, 2.0)
    limit = -transport_apply(phi, 1.0)
    slope = {t: (delta_pairing(t, phi, rel_tol=1e-8, evaluator=ev)
                 - phi(1.0)) / t for t in (0.02, 0.01, 0.005)}
    gaps = [abs(slope[t] - limit) for t in (0.02, 0.01, 0.005)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(2.0 * slope[0.01] - slope[0.02] - limit) <= 1e-3


@pytest.mark.parametrize("t, lo, hi, rel_tol", [
    # the line's fit residual, an absolute error, passes rel_tol/2 of
    # this small pairing, so the Parseval sum cannot settle
    pytest.param(1.0, 50.0, 80.0, 1e-7, id="floor"),
    # a support beyond |log x| = 10 is outside the route's zone, though
    # the sum would settle there
    pytest.param(1.5, 1e-5, 1e-4, 1e-6, id="zone"),
    # 0.009 wide in log x: the first sum would need 2^18 samples to hold
    # 32 across the support, and at 2^12 and 2^11 none fall inside it
    pytest.param(1.0, 1.001, 1.01, 1e-7, id="narrow")])
def test_an_unsettled_parseval_sum_takes_the_panels(ev, t, lo, hi,
                                                    rel_tol, monkeypatch):
    # the floor only grows with N, so the route gives up at the first
    # estimate whose floor passes rel_tol/2, long before the cap, and a
    # support too narrow for the cap is given up before any FFT
    lengths = [0]
    real_rfft = np.fft.rfft

    def spy(x):
        lengths.append(x.size)
        return real_rfft(x)

    monkeypatch.setattr(np.fft, "rfft", spy)
    phi = fundsol.TestFunction.bump(lo, hi)
    assert integrals._parseval_pairing(t, phi, rel_tol, ev) is None
    assert max(lengths) < integrals._PARSEVAL_CAP // 4
    ref, _ = _integral(t, phi, math.log(lo), math.log(hi), rel_tol, ev)
    assert delta_pairing(t, phi, rel_tol=rel_tol, evaluator=ev) == ref


@pytest.mark.parametrize("lo, hi", [(1.001, 1.01), (1.01, 1.1)])
def test_narrow_pairings_meet_the_panels(ev, lo, hi):
    # a narrow support takes the panels, or starts the Parseval sum at a
    # length that samples it (2^16 for the second); either way the pairing
    # is not lost between the samples
    phi = fundsol.TestFunction.bump(lo, hi)
    ref, _ = _integral(1.0, phi, math.log(lo), math.log(hi), 1e-9, ev)
    val = delta_pairing(1.0, phi, rel_tol=1e-7, evaluator=ev)
    assert abs(val - ref) <= 1e-7 * abs(ref)


@pytest.mark.parametrize("lo", [1e300, 1e-300])
def test_a_support_of_one_double_log_x_pairs_to_zero(ev, lo):
    # its log support is one double, so the panels have no interval; the
    # bump is 0 at both ends of its support
    phi = fundsol.TestFunction(lo, math.nextafter(lo, math.inf))
    assert math.log(phi.support[0]) == math.log(phi.support[1])
    assert delta_pairing(1.0, phi, evaluator=ev) == 0.0


def test_pairing_refusals_and_t_zero_come_before_either_route(monkeypatch):
    def no_route(*args):
        raise AssertionError("a route was taken")

    monkeypatch.setattr(integrals, "_parseval_pairing", no_route)
    monkeypatch.setattr(integrals, "_integral", no_route)
    phi = fundsol.TestFunction.bump(0.8, 1.25)
    assert delta_pairing(0.0, phi) == phi(1.0)
    for t, rel_tol in ((-1.0, 1e-7), (math.nan, 1e-7), (1.0, 0.0),
                       (1.0, -1.0)):
        with pytest.raises(ValueError):
            delta_pairing(t, phi, rel_tol=rel_tol)


def test_l1_norm_takes_one_line_call_per_sweep(ev, monkeypatch):
    _line_assembly(ev, 1.0, 1.0, "u")
    calls = _count_line_calls(monkeypatch)
    l1_norm_lambda(1.0, evaluator=ev)
    assert len(calls) <= 50


def _count_line_points(monkeypatch):
    points = []
    real_batch = line_mod._LineAssembly._batch

    def spy(self, qs):
        points.append(qs.size)
        return real_batch(self, qs)

    monkeypatch.setattr(line_mod._LineAssembly, "_batch", spy)
    return points


def test_l1_norm_does_not_refine_on_ray_noise(ev, monkeypatch):
    # the far-left e-folds at t = 0.3 carry below 1e-5 of the mass; a ray
    # tail that under-resolves their |q| of about 10 makes their panels
    # refine on its misses, to some 4,800 line points
    points = _count_line_points(monkeypatch)
    l1 = l1_norm_lambda(0.3, evaluator=ev)
    mass = SQRT_2PI * eval_U(0.3, 1.0, evaluator=ev).value.real
    assert sum(points) <= 3000
    assert abs(l1 - mass) <= 1e-6 * mass


def _near_one(t, ev, rel_tol=1e-6):
    a, b = math.log1p(-0.4), math.log1p(0.4)
    return _integral(t, np.ones_like, a, b, rel_tol, ev, absolute=True)[0]


def _tau_ladder(a, b):
    """The every-rung ladder in tau = log x on [a, b]: the spans between
    a, b and the marks log1p(-+4^k u_core), k = 0..28, that it holds, the
    core left out.  Cut finely enough toward x = 1 that each span sees the
    cusp |x-1|^(2t-1) as a smooth power, it is the oracle of the w spans."""
    rungs = [math.log1p(s * math.ldexp(integrals._U_CORE, 2 * k))
             for k in range(29) for s in (-1.0, 1.0)]
    marks = sorted({a, b, *(m for m in rungs if a < m < b)})
    core = (math.log1p(-integrals._U_CORE), math.log1p(integrals._U_CORE))
    return [span for span in zip(marks[:-1], marks[1:]) if span != core]


@pytest.mark.parametrize("t", [0.1, 0.5])
def test_ladder_up_to_t_half_has_every_rung(ev, t, monkeypatch):
    # the oracle of the w spans: on [log 0.3, log 2] the ladder that
    # _integral hands over, once _spans is _tau_ladder, cuts at every rung
    # 4^k e^-40 on both sides of x = 1, the core alone left out
    a, b = math.log(0.3), math.log(2.0)
    rungs = [math.exp(-40.0) * 4.0 ** k for k in range(29)]
    marks = sorted({a, b} | {math.log1p(s * u) for u in rungs
                             for s in (-1.0, 1.0)})
    monkeypatch.setattr(integrals, "_spans", _tau_ladder)
    spans = _spans_handed_over(t, a, b, ev, monkeypatch)
    core = (math.log1p(-math.exp(-40.0)), math.log1p(math.exp(-40.0)))
    assert spans == [span for span in zip(marks[:-1], marks[1:])
                     if span != core]
    assert len(spans) == 2 * 29


@pytest.mark.parametrize("t", [0.05, 0.3, 0.55, 0.589, 0.59, 0.6, 0.7, 1.0,
                               2.0, 4.0])
def test_w_near_one_integral_is_the_every_rung_ladder(ev, t, monkeypatch):
    # the near-one ranges go in w = -log|x-1| at every t; on the spans of
    # the ladder alone the same driver takes every rung in tau
    near_w = _near_one(t, ev)
    monkeypatch.setattr(integrals, "_spans", _tau_ladder)
    full = _near_one(t, ev, rel_tol=1e-10)
    assert abs(near_w - full) <= 1e-9 * full


@pytest.mark.parametrize("t", [0.55, 1.5, 3.0])
def test_graded_ladder_keeps_the_near_one_integral(ev, t, monkeypatch):
    # _W_MARKS cut each side's near-one range into four w spans; a ladder of
    # six spans a side, graded as ((k/6)^1.5) from w = 1.18 to 40, finer
    # next to |x-1| = 0.306, keeps the same near-one integral
    near_w = _near_one(t, ev)
    w_rung = -math.log(integrals._W_RUNG)
    graded = tuple(w_rung + (40.0 - w_rung) * (k / 6.0) ** 1.5
                   for k in range(1, 6))
    monkeypatch.setattr(integrals, "_W_MARKS", graded)
    fine = _near_one(t, ev, rel_tol=1e-10)
    assert abs(near_w - fine) <= 1e-9 * fine


@pytest.mark.parametrize("lo, hi", [(0.9, 1.05), (1.0, 1.2), (0.5, 0.999),
                                    (0.72, 0.99999)])
def test_w_spans_of_a_partial_near_one_range(ev, lo, hi, monkeypatch):
    # a range that holds part of a side's near-one range, or one side only,
    # or no core: its w spans cover what the range holds
    a, b = math.log(lo), math.log(hi)
    for t in (0.3, 1.5):
        near_w = _integral(t, np.ones_like, a, b, 1e-6, ev, absolute=True)[0]
        with monkeypatch.context() as m:
            m.setattr(integrals, "_spans", _tau_ladder)
            full = _integral(t, np.ones_like, a, b, 1e-10, ev,
                             absolute=True)[0]
        assert abs(near_w - full) <= 1e-9 * full


def _spans_handed_over(t, a, b, ev, monkeypatch):
    """The intervals ``_integral`` hands ``_adaptive_panels`` on [a, b]."""
    got = []
    real = integrals._adaptive_panels

    def spy(f, intervals, *args):
        got.append(intervals)
        return real(f, intervals, *args)

    monkeypatch.setattr(integrals, "_adaptive_panels", spy)
    _integral(t, np.ones_like, a, b, 1e-6, ev, absolute=True)
    (intervals,) = got
    return intervals


@pytest.mark.parametrize("t", [0.589, 0.59, 0.7, 1.0, 1.5])
def test_w_spans_end_where_the_ladder_drops_a_rung(ev, t, monkeypatch):
    # on |x-1| < 0.4 the w spans stand in for the ladder's spans from the
    # core out to its last rung, 4^28 e^-40 = 0.306, at every t: read back
    # in tau they end there, and beyond it the tau spans are the ladder's
    a, b = math.log1p(-0.4), math.log1p(0.4)
    spans = _spans_handed_over(t, a, b, ev, monkeypatch)
    w = [_in_tau(span) for span in spans if _in_tau(span) != span]
    assert len(w) == 2 * (len(integrals._W_MARKS) + 1)
    last = [math.log1p(s * math.ldexp(integrals._U_CORE, 56))
            for s in (-1.0, 1.0)]
    ladder = _tau_ladder(a, b)
    outer = [span for span in ladder if span[1] <= last[0] or
             span[0] >= last[1]]
    assert [span for span in spans if _in_tau(span) == span] == outer
    assert min(lo for lo, _ in w) == pytest.approx(last[0], rel=1e-12)
    assert max(hi for _, hi in w) == pytest.approx(last[1], rel=1e-12)


def test_spans_of_the_l1_range_are_the_same_at_every_t(ev, monkeypatch):
    # one scheme at every t: each side's near-one range in w on _W_MARKS,
    # and one tau span a side out to |x-1| = 0.4
    a, b = math.log1p(-0.4), math.log1p(0.4)
    seen = [_spans_handed_over(t, a, b, ev, monkeypatch)
            for t in (0.05, 0.59, 1.0, 4.0)]
    spans = seen[0]
    assert all(other == spans for other in seen[1:])
    w = [span for span in spans if _in_tau(span) != span]
    assert len(w) == 2 * (len(integrals._W_MARKS) + 1)
    assert len(spans) - len(w) == 2


@pytest.mark.parametrize("t", [1.0, 4.0, 0.1, 0.3, 0.55])
def test_near_one_first_sweep_is_short(ev, t, monkeypatch):
    # the every-rung ladder's first sweep takes 1,044 points at every t;
    # the w spans and the two outer tau spans take 180
    _line_assembly(ev, t, 1.0, "u")
    calls = _count_line_calls(monkeypatch)
    _near_one(t, ev)
    # calls[0] is the core's two edge points
    assert calls[0] == 2 and calls[1] <= 400


@pytest.mark.parametrize("t", [0.45, 0.59, 0.7, 1.0, 4.0])
def test_l1_norm_reads_few_line_points(ev, t, monkeypatch):
    # with the tau ladder above t = 0.5891 and the w spans below it, l1
    # read 794, 1,370, 866, 578 and 452 points at these t; one set of w
    # spans under one floor reads 542-578
    points = _count_line_points(monkeypatch)
    l1 = l1_norm_lambda(t, evaluator=ev)
    mass = SQRT_2PI * eval_U(t, 1.0, evaluator=ev).value.real
    assert sum(points) <= 650
    assert abs(l1 - mass) <= 1e-6 * mass


def test_integral_floor_leaves_light_spans_whole(ev, monkeypatch):
    # bump(0.5, 2) at t = 0.55: the w spans past the second mark carry
    # 0.3 % of the pairing.  With each span refined to rel_tol of its own
    # mass, six w spans a side put 18 of 42 panels past w = 14.9
    t, rel_tol = 0.55, 1e-7
    phi = fundsol.TestFunction.bump(0.5, 2.0)
    a, b = math.log(0.5), math.log(2.0)
    ref, _ = _integral(t, phi, a, b, 1e-9, ev)
    sweeps = []
    real = integrals._gauss_panels

    def spy(f, bounds, absolute):
        sweeps.append(list(bounds))
        return real(f, bounds, absolute)

    monkeypatch.setattr(integrals, "_gauss_panels", spy)
    value, err = _integral(t, phi, a, b, rel_tol, ev)
    # sweeps[0] is the first panel of every span; the rest are bisections
    deep = integrals._W_MARKS[1] * integrals._W_SCALE
    assert len(sweeps) > 1
    assert all(max(abs(lo), abs(hi)) <= deep
               for bounds in sweeps[1:] for lo, hi in bounds)
    assert err <= rel_tol * abs(value)
    assert abs(value - ref) <= rel_tol * abs(ref)


def _spy_walk(monkeypatch):
    """Record (intervals, value, error, rel_tol, floor, seeded, line calls)
    of every ``_adaptive_panels`` call, with the values and errors summed
    over the intervals; the line calls are those the call makes itself."""
    calls = _count_line_calls(monkeypatch)
    got = []
    real = integrals._adaptive_panels

    def spy(f, intervals, rel_tol, absolute=False, floor=0.0, first=None):
        n = len(calls)
        out = real(f, intervals, rel_tol, absolute, floor, first)
        got.append((intervals, sum(v for v, _ in out), sum(e for _, e in out),
                    rel_tol, floor, first is not None, len(calls) - n))
        return out

    monkeypatch.setattr(integrals, "_adaptive_panels", spy)
    return got, calls


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_integral_errors_are_within_their_tolerance(ev, t, monkeypatch):
    # the near-one range, then one call per outward e-fold
    _line_assembly(ev, t, 1.0, "u")
    got, _ = _spy_walk(monkeypatch)
    l1_norm_lambda(t, evaluator=ev)
    assert len(got) > 8
    for _, v, err, rel_tol, floor, _, _ in got:
        assert 0.0 <= err <= max(rel_tol * abs(v), floor)


def test_far_e_folds_are_not_refined(ev, monkeypatch):
    # at t = 0.25 the outermost e-folds carry about 1e-6 of the mass;
    # refined to rel_tol of their own mass, they took 4, 13 and 14 line
    # calls.  The first e-fold a side may refine once: at the right its
    # 12/6-point discrepancy, 3.5e-6 of its mass, is 0.2 rel_tol of the
    # total.  The first panels of the predicted e-folds come in one line
    # call, and an e-fold past them takes one of its own
    t = 0.25
    lo, hi = math.log1p(-0.4), math.log1p(0.4)
    _line_assembly(ev, t, 1.0, "u")
    calls = _count_line_calls(monkeypatch)
    _integral(t, np.ones_like, lo, hi, 1e-6, ev, absolute=True)
    core_calls = len(calls)
    got, calls = _spy_walk(monkeypatch)
    l1 = l1_norm_lambda(t, evaluator=ev)
    mass = SQRT_2PI * eval_U(t, 1.0, evaluator=ev).value.real
    assert abs(l1 - mass) <= 1e-6 * mass
    # the near-one range is one call: read back in tau, its intervals, w
    # spans among them, tile [lo, hi] but the core
    tiles = sorted(map(_in_tau, got[0][0]))
    assert (tiles[0][0], tiles[-1][1]) == (lo, hi)
    gaps = [(p[1], q[0]) for p, q in zip(tiles[:-1], tiles[1:])
            if not math.isclose(p[1], q[0], rel_tol=1e-12)]
    core = (math.log1p(-integrals._U_CORE), math.log1p(integrals._U_CORE))
    assert gaps == [pytest.approx(core, rel=1e-12)]
    efolds = got[1:]
    assert all(len(intervals) == 1 for intervals, *_ in efolds)
    sides = [(lo in span or hi in span, seeded, n)
             for (span,), *_, seeded, n in efolds]
    first = [n for near, seeded, n in sides if near]
    far = [(seeded, n) for near, seeded, n in sides if not near]
    assert len(first) == 2 and max(first) <= 1
    assert len(far) >= 12 and all(n == (not seeded) for seeded, n in far)
    assert len(calls) - core_calls <= 2


def _in_tau(span):
    """A span handed to ``_adaptive_panels`` by ``_integral``, in tau =
    log x: a w span is read back at its ends' q (``_nodes``)."""
    return tuple(sorted(integrals._nodes(np.array(span))[0].tolist()))


def _l1_walk_per_e_fold(t, rel_tol, ev):
    """``l1_norm_lambda`` by its walk with one adaptive call per outward
    e-fold, each of which takes its own first panel."""
    line = _line_assembly(ev, t, 1.0, "u")

    def f(tau):
        x = np.exp(tau)
        return line(tau)[0] * np.ones_like(x) * x

    lo, hi = math.log1p(-0.4), math.log1p(0.4)
    total, _ = _integral(t, np.ones_like, lo, hi, rel_tol, ev, absolute=True)
    for sign, edge, rest in ((-1, lo, 1.0 / math.expm1(1.0)),
                             (1, hi, 1.0 / math.expm1(4.0))):
        for _ in range(60):
            (v, _), = _adaptive_panels(
                f, [(min(edge, edge + sign), max(edge, edge + sign))],
                rel_tol, absolute=True,
                floor=integrals._EFOLD_SHARE * rel_tol * total)
            total += v
            edge += sign
            if v < rel_tol * total:
                break
        total += rest * v
    return total


@pytest.mark.parametrize("t", [0.25, 0.7, 1.0, 4.0])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
def test_l1_norm_is_the_walk_per_e_fold(ev, t, rel_tol):
    assert (l1_norm_lambda(t, rel_tol, ev).hex()
            == _l1_walk_per_e_fold(t, rel_tol, ev).hex())


def test_a_floor_stops_an_interval_at_once():
    (v, e), = integrals._gauss_panels(_jumpy, [(0.0, 1.0)], False)
    rel_tol = 0.1 * e / abs(v)
    n_calls = []

    def f(x):
        n_calls.append(1)
        return _jumpy(x)

    # rel_tol |total| < e < floor: the first panel stands
    assert _adaptive_panels(f, [(0.0, 1.0)], rel_tol, floor=2.0 * e) == [
        (v, e)]
    assert len(n_calls) == 1
    n_calls.clear()
    (total, err), = _adaptive_panels(f, [(0.0, 1.0)], rel_tol, floor=0.5 * e)
    assert len(n_calls) > 1
    assert err <= max(rel_tol * abs(total), 0.5 * e)


def _jumpy(x):
    # smooth, oscillating, and a jump at 1/3, which no bisection of [0, 1]
    # puts on a panel edge
    return np.exp(-x) * np.cos(7.0 * x) + (x > 1.0 / 3.0)


_INTERVALS = [(0.0, 1.0), (1.0, 2.5), (-3.0, -0.5), (2.5, 2.6), (3.0, 9.0)]


@pytest.mark.parametrize("absolute", [False, True])
def test_lockstep_panels_equal_one_interval_calls(absolute, monkeypatch):
    monkeypatch.setattr(integrals, "_PANEL_DEPTH", 10)
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

    batch = _adaptive_panels(f, _INTERVALS, 1e-12, absolute=absolute)
    batch_counts, batch_calls = per_interval()
    singles, single_calls = [], []
    for i, iv in enumerate(_INTERVALS):
        singles += _adaptive_panels(f, [iv], 1e-12, absolute=absolute)
        counts, n_calls = per_interval()
        single_calls.append(n_calls)
        # the same points as in the batch, all inside the interval
        assert counts == [n if j == i else 0
                          for j, n in enumerate(batch_counts)]
    assert batch == singles
    # every interval's sweeps share the calls of the longest one
    assert batch_calls == max(single_calls)
    # the jump stops at _PANEL_DEPTH short of the tolerance, long before the
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


# at x = 0.5 and 2.5 the support in r, (0.6/x, 1.8/x), misses the kink
# at r = 1 and transport_apply integrates it as one interval
@pytest.mark.parametrize("x", [0.8, 1.2, 1.6, 0.5, 2.5])
def test_transport_apply_matches_quad_across_the_kink(x):
    phi = fundsol.TestFunction.bump(0.6, 1.8)

    def f(r):
        return eval_H(r) * r * phi.deriv(r * x)

    cuts = [0.6 / x] + [1.0] * (0.6 / x < 1.0 < 1.8 / x) + [1.8 / x]
    ref = sum(scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12,
                                   limit=400)[0]
              for a, b in zip(cuts, cuts[1:]))
    assert abs(transport_apply(phi, x) - ref) < 1e-8


@pytest.mark.parametrize("call, error", [
    (lambda: eval_lambda(LambdaQuery(0.5, 1.0, "log_regularized")),
     RegimeError),
    (lambda: eval_lambda(LambdaQuery(0.7, 2.0, "log_regularized")),
     RegimeError),
    (lambda: eval_lambda(LambdaQuery(1.0, 2.0, "large_t_asymptotic")),
     RegimeError),
    (lambda: eval_lambda_series(1.0, 3.0), RegimeError),
    (lambda: eval_lambda_series(0.5, 1.05), RegimeError),
    (lambda: eval_lambda_log(0.0, 0.1), ValueError),
    (lambda: eval_lambda_log(math.inf, 0.1), ValueError),
    (lambda: eval_lambda_log(1.0, math.nan), ValueError),
    (lambda: eval_lambda_log(1.0, 0.1, "large_t_asymptotic"), ValueError),
    (lambda: LambdaQuery(-1.0, 2.0), ValueError),
    (lambda: LambdaQuery(1.0, math.inf), ValueError),
    (lambda: LambdaQuery(1.0, 2.0, "fastest"), ValueError),
    (lambda: fundsol.RadialProfile(np.array([1.0, 2.0]), np.array([1.0]),
                                   1.0), ValueError),
    (lambda: fundsol.RadialProfile(np.array([2.0, 1.0]),
                                   np.array([1.0, 1.0]), 1.0), ValueError),
    (lambda: radial_profile(1.0, 0.0, 2.0, 8), ValueError),
    (lambda: radial_profile(1.0, 2.0, 2.0, 8), ValueError),
    (lambda: radial_profile(1.0, 0.5, 2.0, 1), ValueError),
    (lambda: eval_Q1(0.0), ValueError),
    (lambda: eval_Q2(2.0, -1.0), ValueError),
    (lambda: eval_Q2(1.0, 1.0), RegimeError),
    (lambda: eval_dlambda_dt(0.5, 1.0), RegimeError),
    (lambda: eval_dlambda_dx(1.0, 2.0), RegimeError),
    (lambda: eval_G(1.0, 1.0, 0.0), ValueError),
    (lambda: fundsol.TestFunction(2.0, 2.0), ValueError),
], ids=["logreg_at_one", "logreg_past_its_t", "large_t_at_one",
        "series_at_t_one", "series_next_to_one", "log_t_zero", "log_t_inf",
        "log_x_nan", "log_asymptotic_regime", "query_t", "query_x",
        "query_regime", "profile_lengths", "profile_order", "profile_x_min",
        "profile_empty_range", "profile_one_point", "q1_theta", "q2_theta",
        "q2_t_one", "dt_at_one", "dx_t_one", "g_y_zero", "bump_empty"])
def test_routes_refuse_arguments_outside_their_zone(call, error):
    with pytest.raises(error):
        call()


_BUMP = fundsol.TestFunction.bump(0.5, 3.0)


@pytest.mark.parametrize("call, name", [
    (lambda: radial_profile(0.0, 0.5, 2.0, 8), "t"),
    (lambda: radial_profile(math.nan, 0.5, 2.0, 8), "t"),
    (lambda: radial_profile(-1.0, 0.5, 2.0, 8), "t"),
    (lambda: radial_profile(math.inf, 0.5, 2.0, 8), "t"),
    (lambda: radial_profile(1.0, 0.5, math.inf, 8), "x_max"),
    (lambda: l1_norm_lambda(0.0), "t"),
    (lambda: l1_norm_lambda(math.nan), "t"),
    (lambda: l1_norm_lambda(-1.0), "t"),
    (lambda: delta_pairing(-1.0, _BUMP), "t"),
    (lambda: delta_pairing(math.nan, _BUMP), "t"),
    (lambda: eval_dlambda_dt(1.0, math.nan), "x"),
    (lambda: eval_dlambda_dt(0.0, 2.0), "t"),
    (lambda: eval_dlambda_dt(1.0, 0.0), "x"),
    (lambda: eval_dlambda_dx(2.0, -1.0), "x"),
    (lambda: eval_G(0.0, 1.0, 1.0), "t"),
    (lambda: transport_apply(_BUMP, 0.0), "x"),
    (lambda: transport_apply(_BUMP, -1.0), "x"),
    (lambda: delta_pairing(1.0, _BUMP, rel_tol=0.0), "rel_tol"),
    (lambda: delta_pairing(1.0, _BUMP, rel_tol=-1.0), "rel_tol"),
    (lambda: l1_norm_lambda(1.0, rel_tol=math.inf), "rel_tol"),
    (lambda: eval_Q1(math.inf), "theta"),
    (lambda: eval_Q2(2.0, math.inf), "theta"),
    (lambda: eval_Q2(math.inf, 1.0), "t"),
    (lambda: eval_lambda_series(0.5, math.inf), "x"),
    (lambda: fundsol.TestFunction(-1.0, 2.0), "lo"),
    (lambda: fundsol.TestFunction(0.0, 2.0), "lo"),
    (lambda: fundsol.TestFunction(0.5, math.inf), "hi"),
], ids=["profile_t_zero", "profile_t_nan", "profile_t_negative",
        "profile_t_inf", "profile_x_max_inf", "l1_t_zero", "l1_t_nan",
        "l1_t_negative", "pairing_t_negative", "pairing_t_nan", "dt_x_nan",
        "dt_t_zero", "dt_x_zero", "dx_x_negative", "g_t_zero",
        "transport_x_zero", "transport_x_negative", "pairing_rel_tol_zero",
        "pairing_rel_tol_negative", "l1_rel_tol_inf", "q1_theta_inf",
        "q2_theta_inf", "q2_t_inf", "series_x_inf", "bump_lo_negative",
        "bump_lo_zero", "bump_hi_inf"])
def test_routes_validate_their_arguments(call, name):
    # each of these raised a RuntimeWarning, a bare math domain error or
    # ZeroDivisionError, refined for over a minute, or returned nan or 0.0,
    # before its arguments were checked; now a ValueError names the
    # argument, as LambdaQuery's does
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


def test_delta_pairing_at_t_zero_is_phi_at_one():
    phi = fundsol.TestFunction.bump(0.5, 3.0)
    assert delta_pairing(0.0, phi) == phi(1.0)


def test_bump_and_its_slope_are_the_closed_forms():
    phi = fundsol.TestFunction.bump(0.5, 3.0)
    x = np.linspace(0.52, 2.98, 83)

    def bump(z):
        u = (z - 1.75) / 1.25
        return np.exp(1.0 - 1.0 / (1.0 - u * u))

    assert np.abs(phi(x) - bump(x)).max() <= 1e-14
    # the slope by a complex step, which takes no difference
    slope = bump(x + 1e-30j).imag / 1e-30
    assert (np.abs(phi.deriv(x) - slope).max()
            <= 1e-14 * np.abs(slope).max())


def test_bump_is_flat_at_its_support_ends():
    phi = fundsol.TestFunction.bump(0.5, 3.0)
    ends = np.array([0.5, 3.0])
    assert np.all(phi(ends) == 0.0) and np.all(phi.deriv(ends) == 0.0)
    assert phi(1.75) == pytest.approx(1.0)


# ---------------- derivatives and the rescaled kernel ----------------


@pytest.mark.parametrize("t, x", [
    (1.5, 2.0), (0.7, 0.5), (0.7, 3.0), (1.5, 0.2), (2.5, 1.0), (0.4, 1.5)])
def test_dlambda_dt_matches_central_difference(ev, t, x):
    h = 1e-4
    fd = (eval_lambda(LambdaQuery(t + h, x), ev)
          - eval_lambda(LambdaQuery(t - h, x), ev)) / (2 * h)
    assert eval_dlambda_dt(t, x, ev) == pytest.approx(fd, rel=1e-6)


def _t_difference(f, t, h):
    """The fourth-order central difference of f at t, step h."""
    v = {k: f(t + k * h) for k in (-2, -1, 1, 2)}
    return (8.0 * (v[1] - v[-1]) - (v[2] - v[-2])) / (12.0 * h)


@pytest.mark.parametrize("t", [0.3, 0.8, 1.0, 2.0, 4.0])
def test_dt_line_is_the_delay_identity(ev, t):
    # dU/dt (t, s) = W(s - 1) U(t, s - 1): at c = 1.5 the "dt" grid, U's
    # own convolution with the kernel -Gamma(z + 1) t^(-(z + 1)), is W
    # times the "u" grid of the line c - 1 = 1/2; 3.0e-14 at most
    got = line_mod._symbol_line(ev, t, 1.5, "dt")
    ref = (eval_W(0.5 + 1j * line_mod._V_GRID)
           * line_mod._symbol_line(ev, t, 0.5, "u"))
    assert np.abs(got - ref).max() <= 1e-13


@pytest.mark.parametrize("t", [0.3, 0.8, 1.0, 2.0, 4.0])
def test_dt_line_is_the_t_difference_of_the_u_line(ev, t):
    # on the direct line, where the delay identity would read U on Re s = 0
    # along B's pole; 1.7e-10 at most, at t = 0.3
    got = line_mod._symbol_line(ev, t, 1.0, "dt")
    ref = _t_difference(
        lambda s: line_mod._symbol_line(ev, s, 1.0, "u"), t, 1e-3)
    assert np.abs(got - ref).max() <= 1e-9


def test_a_kind_without_a_ladder_makes_no_line(ev):
    assert "ut" not in ray._RAY_LADDERS
    with pytest.raises(ValueError, match="unknown symbol kind"):
        line_mod._symbol_line(ev, 1.0, 1.0, "ut")


def _dlambda_dt_with_error(ev, t, x, monkeypatch):
    """eval_dlambda_dt at (t, x) and the error that the line it reads
    reports there."""
    lines = []

    def spy(*args):
        lines.append(_line_assembly(*args))
        return lines[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fundsol, "_line_assembly", spy)
        val = eval_dlambda_dt(t, x, ev)
    (line,) = lines
    got, err = line(math.log(x))
    assert got == val
    return val, err


@pytest.mark.parametrize("t, x", [(1.5, 30.0), (1.5, 100.0), (2.5, 100.0),
                                  (3.0, 100.0)])
def test_dlambda_dt_error_bounds_its_miss_far_right(ev, t, x, monkeypatch):
    # against the t-difference of the long-time decomposition, exact for
    # t > 1; the line misses by 0.013-0.094 of its error
    val, err = _dlambda_dt_with_error(ev, t, x, monkeypatch)
    ref = _t_difference(
        lambda s: _lam(s, x, "large_t_asymptotic", ev)[0], t, 5e-3)
    assert abs(val - ref) <= err


_DT_TAIL_MISS = ("next to x = 1 at t <= 1 the dLambda/dt tail is its own "
                 "log-ladder fit, not the t-derivative of the direct line's "
                 "tail (ROADMAP.md, item 15): it misses the t-difference of "
                 "the direct line by {}x its reported error")


@pytest.mark.parametrize("t, x", [
    pytest.param(t, x, marks=pytest.mark.xfail(
        strict=True, reason=_DT_TAIL_MISS.format(ratio)))
    for t, x, ratio in ((0.8, 1.0, 545), (0.8, 1.001, 4.9e3),
                        (1.0, 1.001, 4.8e3))])
def test_dlambda_dt_error_bounds_its_miss_next_to_x_one(ev, t, x,
                                                        monkeypatch):
    val, err = _dlambda_dt_with_error(ev, t, x, monkeypatch)
    ref = _t_difference(lambda s: _lam(s, x, "direct", ev)[0], t, 1e-3)
    assert abs(val - ref) <= err


@pytest.mark.parametrize("t, x", [
    (2.0, 1.5), (2.0, 0.5), (3.0, 4.0), (1.5, 0.3), (1.2, 2.0)])
def test_dlambda_dx_matches_central_difference(ev, t, x):
    h = 1e-4
    fd = (eval_lambda(LambdaQuery(t, x + h), ev)
          - eval_lambda(LambdaQuery(t, x - h), ev)) / (2 * h)
    assert eval_dlambda_dx(t, x, ev) == pytest.approx(fd, rel=1e-7)


def test_green_kernel_scaling_covariance(ev):
    assert 2.0 * eval_G(1.6, 2.6, 1.4, ev) == eval_G(0.8, 1.3, 0.7, ev)


#: route -> (call, whether its scale overflows at x = 1e-300): x^-2 on the
#: dLambda/dx line and theta^-1.5 on the Q1 line do, x^-1 on the direct
#: lines, the dLambda/dt line among them, does not
_TINY_X_ROUTES = {
    "direct": (lambda ev, x: _lam(0.3, x, "direct", ev), False),
    "direct_t2": (lambda ev, x: _lam(2.0, x, "direct", ev), False),
    "log_regularized": (lambda ev, x: _lam(0.3, x, "log_regularized", ev),
                        False),
    "large_t_asymptotic": (
        lambda ev, x: _lam(3.0, x, "large_t_asymptotic", ev), True),
    "dlambda_dt_0.8": (lambda ev, x: eval_dlambda_dt(0.8, x, ev), False),
    "dlambda_dt_2": (lambda ev, x: eval_dlambda_dt(2.0, x, ev), False),
    "dlambda_dx_2": (lambda ev, x: eval_dlambda_dx(2.0, x, ev), True),
}


@pytest.mark.parametrize("x", [1e-300, 1e-30])
@pytest.mark.parametrize("route", list(_TINY_X_ROUTES))
def test_routes_at_tiny_x_are_finite_or_raise_regime_error(ev, route, x):
    # an overflow raised OverflowError or a RuntimeWarning before
    call, overflows = _TINY_X_ROUTES[route]
    if overflows and x == 1e-300:
        with pytest.raises(RegimeError):
            call(ev, x)
    else:
        assert np.all(np.isfinite(call(ev, x)))


# ---------------- caches ----------------


class _FlatLine:
    """A line interpolant of B = 1, and of its derivative 0."""

    def __call__(self, s):
        return np.ones_like(s)

    def derivative(self):
        return np.zeros_like


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
        return self._count(_FlatLine())

    def laurent(self, s):
        return self._count((0, 1.0 + 0j))     # B = 1 at the walk's base


@pytest.mark.parametrize("call", [
    lambda ev: _line_assembly(ev, 0.8, 1.0, "u"),
    lambda ev: _mb_line(ev, "nu", 8.5, 9),
    lambda ev: BEvaluator.laurent(ev, 3.0),
    lambda ev: line_mod._b_grid(ev, 1.0),
    lambda ev: line_mod._b_prime_grid(ev, 1.0),
    lambda ev: line_mod._inv_b_spectrum(ev, 1.0 + line_mod._B_OFF),
], ids=["line_assembly", "nu_hat", "laurent", "b_grid", "b_prime_grid",
        "inv_b_spectrum"])
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
    # the residues at B's poles in [-1, 12.3] and zeros in [-9, 12.3]
    poles = bfunc._b_singularities(-1.0, 12.3)[0]
    zeros = bfunc._b_singularities(-9.0, 12.3)[1]
    for s in np.concatenate([poles, zeros]).tolist():
        ev.laurent(s)
    for k in (-5, -4, -3, -2, 4, 5, 6, 7, 8):   # all the series reads
        asymptotic._b_at(ev, k)
    asymptotic._series_with_error(0.3, 0.6, ev)
    asymptotic._series_with_error(0.2, 3.0, ev)
    assert circles == []


def test_the_ladder_reads_b_once_per_base(monkeypatch):
    # every residue and integer value the routes read walks to one of three
    # bases, and B is read off the strip once at each
    bases = []
    real = bfunc.BEvaluator._strip_many

    def spy(self, s_arr):
        bases.extend(s_arr.tolist())
        return real(self, s_arr)

    monkeypatch.setattr(bfunc.BEvaluator, "_strip_many", spy)
    ev = BEvaluator()
    eval_Q1(2.0, evaluator=ev)
    read = ev._memo[BEvaluator.laurent.__wrapped__]
    assert set(read) == {(3.0,), (1.0,)}     # c1 = -Res(1/B, 3), its base
    assert bases == [1.0]
    eval_lambda_series(0.3, 0.6, evaluator=ev)
    eval_lambda_series(0.55, 2.5, evaluator=ev)
    ev.derived_constants()
    assert len(bases) == len(set(bases)) == 3
    other = BEvaluator()
    assert other.laurent(3.0) == ev.laurent(3.0)
    assert len(bases) == 4 and bases[-1] == 1.0


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
    # the warm evaluator assembles each t from the memos built at t = 0.45;
    # the cold side builds its own on a fresh evaluator
    warm_ev = BEvaluator()
    line_mod._symbol_line(warm_ev, 0.45, c, kind)
    q = np.linspace(-6.0, 6.0, 31)
    for t in (0.3, 1.0, 2.2):
        n = len(line_builds)
        warm = _line_assembly(warm_ev, t, c, kind)
        assert len(line_builds) == n
        cold = _line_assembly(BEvaluator(), t, c, kind)
        assert len(line_builds) > n
        for f in ("coeffs", "model_a", "fit_resid", "err_window"):
            assert np.array_equal(getattr(warm, f), getattr(cold, f))
        assert all(np.array_equal(a, b) for a, b in zip(warm(q), cold(q)))


def _touch_every_cached_kind(ev):
    for kind, c in _KINDS:       # grid lines, spectra, assemblies, B lines
        _line_assembly(ev, 0.9, c, kind)
    eval_Q1(2.0, evaluator=ev)              # the residues and the q1 line
    eval_lambda_series(0.2, 3.0, evaluator=ev)   # B at integers, the nu
    # and casc lines


def test_a_dropped_evaluator_is_freed():
    ev = BEvaluator()
    _touch_every_cached_kind(ev)
    # the gauge offset, B and B' on the grid, spectra of 1/B, assemblies,
    # MB lines and the ladder each hold entries, and the line store holds
    # blocks
    assert len(ev._memo) == 7 and ev._blocks
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


def test_memoized_arrays_are_read_only_and_per_evaluator():
    ev = BEvaluator()
    _touch_every_cached_kind(ev)
    arrays = [val for store in ev._memo.values() for val in store.values()
              if isinstance(val, np.ndarray)]
    assert len(arrays) >= 4
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    spectrum = line_mod._inv_b_spectrum(ev, 1.0 + line_mod._B_OFF)
    other = line_mod._inv_b_spectrum(BEvaluator(), 1.0 + line_mod._B_OFF)
    assert not np.shares_memory(other, spectrum)
    assert np.array_equal(other, spectrum)


def test_line_assembly_is_frozen_and_read_only(ev):
    line = _line_assembly(ev, 0.8, 1.0, "u")
    arrays = [f.name for f in dataclasses.fields(line)
              if isinstance(getattr(line, f.name), np.ndarray)]
    assert sorted(arrays) == ["coeffs", "model_a"]
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(line, name)[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        line.fit_resid = 0.0


def test_mb_lines_are_read_only(ev):
    eval_Q1(2.0, evaluator=ev)
    eval_lambda_series(0.2, 3.0, evaluator=ev)
    lines = [val for store in ev._memo.values() for val in store.values()
             if isinstance(val, asymptotic._MBLine)]
    assert len(lines) == 11      # the q1 line, four nu and six casc lines
    for line in lines:
        with pytest.raises(ValueError):
            line.samples[0] = 0.0
        with pytest.raises(ValueError):
            line.nodes[0] = 0.0
