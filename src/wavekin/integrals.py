"""Integrals of Lambda against test functions: the L1 norm, the pairings
and the transport adjoint.

A pairing with a test function, ``delta_pairing``, has two routes on the
direct line.  The first reads no Lambda: by Parseval's formula for the
Mellin transform it is (1/pi) Re int_0^inf sqrt(2 pi) U(t, 1 + iv)
phi~(1 + iv) dv, summed by the trapezoid rule on the line's own grid and
its tail model beyond V, with phi~ from one FFT of phi(e^tau)
(``_parseval_pairing``).  Since Lambda phi has compact support in log x,
the rule's only error is truncation, and the FFT length doubles until the
sum settles within rel_tol/2.  Where it cannot settle, because the line's
absolute error passes that share of a small pairing, or for supports
beyond |log x| = 10 or narrower than 0.044 in log x, the pairing takes
the panels below.

``l1_norm_lambda`` and those pairings are calls of one integrator,
``_integral``, which integrates Lambda against a weight over
a range of log x and returns the value with its panels' summed error: the
core |x-1| < e^(-40) from the near-one law, the rest in adaptive Gauss
panels on that line.  At every t, each side's range e^(-40) <= |x-1| <=
0.306 goes in w = -log|x-1| (``_spans``), where the cusp A |x-1|^(2t-1)
is the smooth A e^(-2tw), on four fixed spans a side, with the line read
at q = log1p(-+e^(-w)) (``_nodes``); the rest of the range is in
tau = log x.  ``_adaptive_panels`` refines all intervals of one call, w
spans among them, in lockstep, so each sweep of new panels is one call
of the line, and each panel's two rules are row dots of its own values.
An interval stops at rel_tol of its own integral or at an absolute floor.
``_integral`` sets that floor to rel_tol/2 of the range's first estimate,
shared out evenly over its spans, so a span next to the core, of small
mass, is not refined on its own scale; the outward e-folds of
``l1_norm_lambda`` set it to a small share of rel_tol times the running
total, so a far e-fold of small mass is not refined either.  The first
panels of all the e-folds the decay laws predict come in one line call,
so a far e-fold takes no line call of its own.  The mass past l1's two
truncated ends comes from its last e-folds' masses: Lambda tends to
Lambda(t, 0+) at the left end and decays like x^-5 at the right.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from wavekin.bfunc import default_evaluator
from wavekin.kernels import eval_H
from wavekin.line import (_C_DIRECT, _H_V, _LEG_VAND, _NV, _check_arg,
                          _line_assembly)
from wavekin.ray import _tail_columns, _tail_model

__all__ = ["TestFunction", "l1_norm_lambda", "delta_pairing",
           "transport_apply"]

#: half-width of the core |x-1| < _U_CORE that the integrals take from the
#: near-one law A |x-1|^(2t-1) instead of from panels
_U_CORE = math.exp(-40.0)
#: end of the w = -log|r-1| range of ``transport_apply``: 1 -+ e^(-36)
#: still differs from 1 in double precision
_W_KINK = 36.0
_TRANSPORT_TOL = 1e-9


class TestFunction:
    """The C^infinity bump e exp(-1/(1 - u^2)), peak 1, on [lo, hi].

    u = (x - mid) / half maps the support onto (-1, 1); the profile and
    its slope are evaluated in closed form, and both are identically zero
    outside the support.  The support lies in (0, infinity): 0 < lo < hi,
    both finite, as the pairing's integral in log x needs.
    """

    def __init__(self, lo, hi):
        _check_arg("lo", lo)
        _check_arg("hi", hi)
        if not hi > lo:
            raise ValueError("need hi > lo")
        self.support = (float(lo), float(hi))

    @classmethod
    def bump(cls, lo, hi):
        """The bump on [lo, hi]."""
        return cls(lo, hi)

    def _eval(self, x, slope):
        lo, hi = self.support
        half = 0.5 * (hi - lo)
        u = (np.asarray(x, dtype=float) - 0.5 * (lo + hi)) / half
        w = 1.0 - u * u
        inside = w > 0.0
        out = np.zeros_like(u)
        out[inside] = math.e * np.exp(-1.0 / w[inside])
        if slope:
            # (log phi)' = -2u / (w^2 half)
            out[inside] *= -2.0 * u[inside] / (w[inside] ** 2 * half)
        if out.ndim == 0:
            return float(out)
        return out

    def __call__(self, x):
        return self._eval(x, False)

    def deriv(self, x):
        return self._eval(x, True)


#: the panel rules of ``_adaptive_panels``: 12-point Gauss and the 6-point
#: rule it is checked against, evaluated together as 18 nodes per panel
_X12, _W12 = leggauss(12)
_X6, _W6 = leggauss(6)
_X18 = np.concatenate([_X12, _X6])
#: bisections of one panel after which ``_adaptive_panels`` stops splitting it
_PANEL_DEPTH = 28
#: the outer edge of each side's near-one range u_core <= |x-1| <= _W_RUNG
#: that ``_spans`` takes in w = -log|x-1|: 4^28 u_core = 0.306, w = 1.18
_W_RUNG = math.ldexp(_U_CORE, 56)
#: the w that cut each side's near-one range, w from 1.18 to 40, into four
#: spans: 1.8 wide next to _W_RUNG, where Lambda is furthest from its power
#: law, and widening to 23 toward the core, where the integrand is the
#: smooth A e^(-2tw).  On the last span the 12/6-point discrepancy of the
#: first panel of a pairing of bump(0.5, 2) stays below the floor of
#: ``_integral`` for t from 0.45 to 4 (0.39 of it at t = 0.55); a mark at
#: 16 leaves it at 1.3 times the floor at t = 0.55, and the span bisects
_W_MARKS = (3.0, 8.0, 17.0)
#: ``_spans`` writes a w span as side _W_SCALE w, beyond every log x of a
#: positive float (|log x| < 746) and scaled by a power of 2, exactly
_W_SCALE = 1024.0


def _gauss_panels(f, bounds, absolute):
    """(12-point value, |12-point - 6-point|) of f on each panel (lo, hi).

    One call of f serves every panel, and each panel's sums are the dots
    of its own row (``np.vecdot``), so a panel gets the same figures in any
    batch.
    """
    lo, hi = np.array(bounds, dtype=float).T
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = f((mid[:, None] + half[:, None] * _X18).ravel()).reshape(-1, 18)
    if absolute:
        vals = np.abs(vals)
    v12 = half * np.vecdot(vals[:, :12], _W12)
    err = np.abs(v12 - half * np.vecdot(vals[:, 12:], _W6))
    return list(zip(v12.tolist(), err.tolist()))


def _adaptive_panels(f, intervals, rel_tol, absolute=False, floor=0.0,
                     first=None):
    """Adaptive Gauss panels of f on each interval: [(total, err), ...].

    f maps arrays to arrays.  Per interval, 12- and 6-point rules are
    compared on each panel, and the worst panel is bisected until the
    summed discrepancy is below max(rel_tol |summed integral|, floor), the
    worst panel has had _PANEL_DEPTH bisections, or 4000 bisections are
    made.  With absolute=True the integrand is |f|.  first, if given, is
    ``_gauss_panels`` of the intervals, fetched by the caller: no call of f
    is made for it, and an interval it already settles takes none.

    The intervals refine in lockstep: each sweep, every interval not yet
    done bisects its worst panel, and the new panels of all of them go
    through one call of f.  An interval keeps the panels, the summation
    order and the decisions it has when passed alone, so its result does
    not depend on the batch.
    """
    if first is None:
        first = _gauss_panels(f, intervals, absolute)
    segs = [[(a, b, *vs, 0)] for (a, b), vs in zip(intervals, first)]
    out = [None] * len(intervals)
    todo = range(len(intervals))
    for sweep in range(4001):
        new = []
        for i in todo:
            s = segs[i]
            total = sum(p[2] for p in s)
            err = sum(p[3] for p in s)
            if sweep == 4000 or err <= max(rel_tol * max(abs(total), 1e-300),
                                           floor):
                out[i] = (total, err)
                continue
            worst = max(range(len(s)), key=lambda k: s[k][3])
            lo, hi, v, e, depth = s.pop(worst)
            if depth >= _PANEL_DEPTH:
                # the panel may not be split; it moves to the end of the sum
                s.append((lo, hi, v, e, depth))
                out[i] = (sum(p[2] for p in s), sum(p[3] for p in s))
                continue
            mid = 0.5 * (lo + hi)
            new += [(i, lo, mid, depth + 1), (i, mid, hi, depth + 1)]
        if not new:
            break
        sums = _gauss_panels(f, [(lo, hi) for _, lo, hi, _ in new], absolute)
        for (i, lo, hi, depth), vs in zip(new, sums):
            segs[i].append((lo, hi, *vs, depth))
        todo = [i for i, *_ in new[::2]]
    return out


def _core_mass(t, ev):
    """int Lambda dx over the core |x-1| < u_core, from the near-one law.

    Near x = 1, Lambda ~ A |x-1|^(2t-1), so the core carries the mass
    A u_core^(2t) / t.  The amplitude comes from the same line at the core
    edges, A = (Lambda(1+u_core) + Lambda(1-u_core)) u_core^(1-2t) / 2,
    so the mass is (Lambda(1+u_core) + Lambda(1-u_core)) u_core / (2t).
    For t > 1/2 the finite value Lambda(t, 1) dominates the core instead,
    and the term, of order u_core Lambda(t, 1) ~ 4e-18 Lambda(t, 1), lies
    far below any quadrature tolerance.
    """
    u_c = _U_CORE
    edges, _ = _line_assembly(ev, t, _C_DIRECT, "u")(
        [math.log1p(u_c), math.log1p(-u_c)])
    return 0.5 * edges.sum() * u_c / t


def _nodes(y):
    """(q, x, dx/dy) at abscissae y of the intervals of ``_spans``.

    A y with |y| <= _W_SCALE is tau = log x: q = y and dx/dy = x.  A y
    beyond is side _W_SCALE w, w = |y|/_W_SCALE = -log|x-1|: x = 1 + side
    e^(-w), the line is read at q = log1p(side e^(-w)), and dx/dy =
    e^(-w)/_W_SCALE (dx = e^(-w) dw).
    """
    near = np.abs(y) > _W_SCALE
    if not near.any():
        x = np.exp(y)
        return y, x, x
    step = np.copysign(np.exp(np.abs(y[near]) / -_W_SCALE), y[near])
    q, x, dx = np.empty((3,) + y.shape)
    q[~near] = y[~near]
    x[~near] = dx[~near] = np.exp(y[~near])
    q[near] = np.log1p(step)
    x[near] = 1.0 + step
    dx[near] = np.abs(step) / _W_SCALE
    return q, x, dx


def _integrand(t, weight, ev):
    """y -> Lambda(t, x) weight(x) dx/dy on the direct line, at the x of
    ``_nodes``: the integrand of ``_integral``.  In tau = log x it is
    Lambda weight x; in w = -log|x-1|, where Lambda ~ A |x-1|^(2t-1) near
    x = 1, it is the smooth A e^(-2tw)/_W_SCALE.  All y go in one line
    call."""
    line = _line_assembly(ev, t, _C_DIRECT, "u")

    def f(y):
        q, x, dx = _nodes(y)
        return line(q)[0] * weight(x) * dx

    return f


def _spans(a, b):
    """The intervals of ``_integral`` on [a, b] (tau = log x), in order,
    the core |x-1| < u_core left out.

    Each side's near-one range u_core <= |x-1| <= _W_RUNG, as far as
    [a, b] holds it, goes in w = -log|x-1|: cut at _W_MARKS, four spans
    on a whole side, each written as side _W_SCALE w (``_nodes``) with
    lo < hi.  In w the cusp A |x-1|^(2t-1) is A e^(-2tw), which the
    panels resolve in a few bisections at every t.  What [a, b] holds
    beyond those ranges is one tau span a side.
    """
    core = (math.log1p(-_U_CORE), math.log1p(_U_CORE))
    near = ((-1.0, math.log1p(-_W_RUNG), core[0]),
            (1.0, core[1], math.log1p(_W_RUNG)))
    marks = sorted({a, b, *(m for _, *ends in near for m in ends
                            if a < m < b)})
    spans = []
    for lo, hi in zip(marks[:-1], marks[1:]):
        side = next((side for side, n0, n1 in near if n0 <= lo and hi <= n1),
                    None)
        if side is not None:
            w0, w1 = sorted(-math.log(abs(math.expm1(tau)))
                            for tau in (lo, hi))
            ys = sorted(side * _W_SCALE * w
                        for w in (w0, *(w for w in _W_MARKS if w0 < w < w1),
                                  w1))
            spans += zip(ys[:-1], ys[1:])
        elif (lo, hi) != core:
            spans.append((lo, hi))
    return spans


def _integral(t, weight, a, b, rel_tol, ev, absolute=False):
    """(int Lambda(t, x) weight(x) dx over a < log x < b, its error), on
    the direct line.

    weight maps arrays of x to arrays.  If the core |x-1| < _U_CORE lies
    in the range, its mass weight(1) times ``_core_mass`` is summed first
    and the core is left out of the panels.  The rest is adaptive Gauss
    panels of ``_integrand`` on the intervals of ``_spans``: the near-one
    ranges u_core <= |x-1| <= 0.306 in w = -log|x-1|, the rest in tau =
    log x.  Their first panels come in one line call, and all of the
    intervals refine together in one ``_adaptive_panels`` call, one line
    call per sweep.  Each stops at rel_tol of its own integral or at a
    floor shared out over the n intervals, rel_tol/(2n) of the first
    estimate of the whole (core and first panels), so a span of small
    mass next to the core is not refined on its own scale.  The error is
    the panels' summed 12/6-point discrepancy; the core's term is left
    out of it.  With absolute the integrand is |Lambda weight|; a range
    with no interval (one double log x) gives the core's term alone.
    """
    total = err = 0.0
    core = (math.log1p(-_U_CORE), math.log1p(_U_CORE))
    if a <= core[0] and core[1] <= b:
        total = float(weight(1.0)) * _core_mass(t, ev)
        if absolute:
            total = abs(total)
    f, spans = _integrand(t, weight, ev), _spans(a, b)
    if not spans:
        return total, err
    first = _gauss_panels(f, spans, absolute)
    floor = rel_tol * abs(total + sum(v for v, _ in first)) / (2 * len(spans))
    for v, e in _adaptive_panels(f, spans, rel_tol, absolute, floor, first):
        total += v
        err += e
    return total, err


#: share of rel_tol times the running total that ``l1_norm_lambda`` lets
#: each outward e-fold miss; with at most _EFOLDS e-folds a side the
#: floors sum to below 0.6 rel_tol of the total
_EFOLD_SHARE = 0.005
_EFOLDS = 60


def l1_norm_lambda(t, rel_tol=1e-6, evaluator=None):
    """int_0^inf |Lambda(t, x)| dx, for every t > 0.

    The range |x-1| < 0.4, near-one core included, is one ``_integral``,
    in w = -log|x-1| within |x-1| <= 0.306.
    Then the x-range grows by one e-fold at a time on each side until the
    outermost e-fold falls below rel_tol of the running total.  Lambda
    tends to the constant Lambda(t, 0+) at x = 0+ and decays like C x^-5
    at infinity, so an e-fold's mass falls like e^-k on the left and
    e^-4k on the right, and the walk stops after about log(1/rel_tol) and
    log(1/rel_tol)/4 e-folds.  The first panel of each e-fold so
    predicted, ceil(log(1/rel_tol)) + 1 on the left and
    ceil(log(1/rel_tol)/4) + 1 on the right, comes from one line call
    (``_gauss_panels``) before the walk; an e-fold past them fetches its
    own.  Each e-fold refines (``_adaptive_panels``, seeded with that
    panel) to rel_tol of its own mass or to a floor of _EFOLD_SHARE
    rel_tol of the running total, whichever is looser, so the far
    e-folds, whose masses are small, take no line call of their own.  An
    outward e-fold lies past the near-one ranges, so its one tau span is
    the interval ``_spans`` gives it.  The mass past the last e-fold,
    x < x_f or x > x_f, comes from that e-fold's mass v: the rest is
    x_f Lambda(0+) = v/(e - 1) on the left and C x_f^-4/4 = v/(e^4 - 1)
    on the right.
    """
    _check_arg("t", t)
    _check_arg("rel_tol", rel_tol)
    ev = evaluator or default_evaluator()
    lo, hi = math.log1p(-0.4), math.log1p(0.4)
    total, _ = _integral(t, np.ones_like, lo, hi, rel_tol, ev, absolute=True)
    digits = max(math.log(1.0 / rel_tol), 0.0)
    walks = [(_efolds(-1, lo), math.ceil(digits) + 1, 1.0 / math.expm1(1.0)),
             (_efolds(1, hi), math.ceil(digits / 4.0) + 1,
              1.0 / math.expm1(4.0))]
    f = _integrand(t, np.ones_like, ev)
    heads = iter(_gauss_panels(f, [span for spans, n, _ in walks
                                   for span in spans[:n]], True))
    for spans, n, rest in walks:
        # this side's fetched panels, of which those past the stop go
        # unread; an e-fold past them fetches its own (first=None)
        first = [next(heads) for _ in spans[:n]]
        for k, span in enumerate(spans):
            (v, _), = _adaptive_panels(f, [span], rel_tol, True,
                                       _EFOLD_SHARE * rel_tol * total,
                                       first[k:k + 1] or None)
            total += v
            if v < rel_tol * total:
                break
        total += rest * v
    return total


def _efolds(sign, edge):
    """The _EFOLDS outward e-folds (lo, hi) in tau = log x of
    ``l1_norm_lambda`` from edge, on the side sign.  The edge moves by one
    step per e-fold, not by k steps at once, which would round
    differently."""
    spans = []
    for _ in range(_EFOLDS):
        spans.append((min(edge, edge + sign), max(edge, edge + sign)))
        edge += sign
    return spans


#: FFT lengths of ``_parseval_pairing``: its first estimate compares the
#: sums of _PARSEVAL_N0 and _PARSEVAL_N0/2 samples, and past _PARSEVAL_CAP
#: the pairing takes the panels
_PARSEVAL_N0 = 1 << 12
_PARSEVAL_CAP = 1 << 17
#: the least number of samples of phi(e^tau) across the support in that
#: first, coarser sum; a narrower support starts at a longer N
_PARSEVAL_SAMPLES = 32
#: the route takes supports within |log x| <= _PARSEVAL_LOG_X: there the
#: pairings of phi's shifts by the period 2 pi/_H_V = 89.8 in log x, which
#: the sum adds, stay below e^-39 of the pairing
_PARSEVAL_LOG_X = 10.0
#: the share of the summed |terms| that the estimate counts as rounding
_PARSEVAL_ROUND = 10.0 * np.finfo(float).eps


def _grid_values(line):
    """The line's symbol on the output grid v = 0.._V_CUT, read back off its
    Legendre coefficients: within 3.6e-15 of its largest value, and
    1.9e-14 relative, of ``_symbol_line`` at t from 0.05 to 4."""
    g = line.coeffs @ _LEG_VAND.T
    return np.append(g[:, :10].ravel(), g[-1, 10])


def _parseval_pairing(t, phi, rel_tol, ev):
    """<Lambda(t), phi> by Mellin--Parseval on the direct line, or None.

    With phi~(1 + iv) = int phi(x) x^(-1-iv) dx = int phi(e^tau) e^(-iv tau)
    dtau, Parseval's formula for the Mellin transform (Titchmarsh 1937)
    gives

        <Lambda(t), phi> = (1/pi) Re int_0^inf sqrt(2 pi) U(t, 1 + iv)
                                              phi~(1 + iv) dv,

    summed here by the trapezoid rule on the line's grid v_j = j _H_V, with
    half weight at v = 0.  By Poisson summation that sum is the pairing
    plus the pairings of phi's shifts by -+2 pi/_H_V = -+89.8 in log x.
    For supports within |log x| <= _PARSEVAL_LOG_X those read Lambda at
    x < e^-79 or x > e^79 and stay below e^-39 of the pairing, so the rule
    has no error beyond truncation, as for any integrand of compact
    support (Trefethen and Weideman, SIAM Rev. 56, 2014).  The symbol
    comes from the memoised line: its grid values up to _V_CUT and its
    tail model beyond.  phi~ at v_j, j < N/2, is one real FFT of
    phi(e^tau) on tau = 2 pi m/(_H_V N), the trapezoid rule of a function
    of compact support.

    N doubles from _PARSEVAL_N0, or from the least power of two whose
    coarser sum S_N/2 holds _PARSEVAL_SAMPLES samples across the support,
    until the error estimate is at most rel_tol/2 of the sum S_N.  The
    estimate is |S_N - S_N/2|, which holds both the truncation in v and
    the aliasing in tau, plus a floor: the tail model's fit residual times
    sum_{v > _V_CUT} |phi~| _H_V/pi, and _PARSEVAL_ROUND times the sum of
    |terms| _H_V/pi.  It returns None, and the caller takes the panels,
    past _PARSEVAL_CAP, for a support outside the zone or too narrow to
    start below the cap, or once the floor alone passes rel_tol/2 of
    |S_N| + |S_N - S_N/2|: the floor only grows with N, so no longer sum
    settles.
    No array outlives the call.
    """
    lo, hi = phi.support
    a, b = math.log(lo), math.log(hi)
    if not (-_PARSEVAL_LOG_X <= a and b <= _PARSEVAL_LOG_X):
        return None
    # the coarser sum's step 2 pi/(_H_V n) is at most
    # (b - a)/_PARSEVAL_SAMPLES
    n = max(_PARSEVAL_N0 // 2, 1 << math.ceil(math.log2(
        2.0 * math.pi * _PARSEVAL_SAMPLES / (_H_V * (b - a)))))
    if 2 * n > _PARSEVAL_CAP:
        return None
    line = _line_assembly(ev, t, _C_DIRECT, "u")
    g = _grid_values(line)
    scale = _H_V / math.pi
    prev = None
    while n <= _PARSEVAL_CAP:
        step = 2.0 * math.pi / (_H_V * n)
        m = np.arange(math.ceil(a / step), math.floor(b / step) + 1)
        samples = np.zeros(n)
        samples[m % n] = phi(np.exp(m * step))
        # numpy's FFT, not scipy.fft's, whose plan cache held 2.4 MB for
        # the lengths 2^11 to 2^16
        ft = step * np.fft.rfft(samples)[:n // 2]
        if g.size < n // 2:
            v = _H_V * np.arange(g.size, n // 2)
            g = np.concatenate([g, _tail_model(
                t, _tail_columns("u", _C_DIRECT + 1j * v), line.model_a)])
        terms = g[:n // 2] * ft
        terms[0] *= 0.5
        s = scale * terms.real.sum()
        floor = scale * (line.fit_resid * np.abs(ft[_NV:]).sum()
                         + _PARSEVAL_ROUND * np.abs(terms).sum())
        if prev is not None:
            miss = abs(s - prev)
            if miss + floor < 0.5 * rel_tol * abs(s):
                return float(s)
            if floor > 0.5 * rel_tol * (abs(s) + miss):
                return None
        prev = s
        n *= 2
    return None


def delta_pairing(t, phi, rel_tol=1e-7, evaluator=None):
    """<Lambda(t, .), phi> = int Lambda(t, x) phi(x) dx; phi a TestFunction.

    At t = 0 the fundamental solution is the unit mass at x = 1, so the
    pairing is exactly phi(1).  For t > 0 there are two routes on the
    direct line.  The first is Mellin--Parseval (``_parseval_pairing``):
    the symbol on the line against one FFT of phi(e^tau), with no cusp at
    x = 1 and no ray.  It is taken wherever its own error estimate settles
    within rel_tol/2 of its sum.  Elsewhere the pairing is one
    ``_integral`` over log supp phi, adaptive panels that take the core
    |x-1| < exp(-40) from the near-one law when supp phi holds x = 1: for
    supports beyond |log x| = 10, where the sum needs more than 2^17
    samples (supports narrower than 0.044 in log x among them), and where
    the line's absolute error, the tail model's fit residual, passes
    rel_tol/2 of a small pairing.
    """
    _check_arg("t", t, zero=True)
    _check_arg("rel_tol", rel_tol)
    if t == 0.0:
        return float(phi(1.0))
    ev = evaluator or default_evaluator()
    value = _parseval_pairing(t, phi, rel_tol, ev)
    if value is not None:
        return value
    lo, hi = phi.support
    return _integral(t, phi, math.log(lo), math.log(hi), rel_tol, ev)[0]


def transport_apply(phi, x):
    """(T phi)(x) = int_0^inf H(r) r phi'(r x) dr for a TestFunction phi.

    This is the adjoint of the transport side of the evolution: testing
    d Lambda/dt = (dLambda/dx * H) against phi moves one derivative onto
    phi and produces exactly this profile.
    """
    _check_arg("x", x)
    lo, hi = phi.support
    r_lo, r_hi = lo / x, hi / x
    r_lo = max(r_lo, 1e-12)

    def f(r):
        return eval_H(r) * r * phi.deriv(r * x)

    if not r_lo < 1.0 < r_hi:
        return _adaptive_panels(f, [(r_lo, r_hi)], _TRANSPORT_TOL)[0][0]
    # H has a log kink at r = 1.  On each side r = 1 -+ e^(-w) turns it into
    # the smooth w e^(-w), and the panels can no longer round onto r = 1;
    # the sides stop at w = _W_KINK, where the rest is below 1e-14 |phi'|.
    total = 0.0
    for sign, r_end in ((-1.0, r_lo), (1.0, r_hi)):
        def g(w, sign=sign):
            e = np.exp(-w)
            return f(1.0 + sign * e) * e

        total += _adaptive_panels(
            g, [(-math.log(abs(r_end - 1.0)), _W_KINK)], _TRANSPORT_TOL)[0][0]
    return total
