"""The asymptotic routes of Lambda on tabulated Mellin--Barnes lines: the
long-time decomposition and the short-time residue series.

Splitting U at the first zero of B right of the strip gives the exact
long-time decomposition

    Lambda(t, x) = t^(-3) Q1(theta) + Q2(t, theta),    theta = x/t,

    Q1(theta) = c1 (1/2 i pi) int B(s) Gamma(3-s) theta^(-s) ds,
    Q2(t, theta) = (1/2 i pi) int B(s) theta^(-s)
                   (1/2 i pi) int_{Re sigma = 7/2} Gamma(sigma-s) t^(-sigma)
                                                   / B(sigma) dsigma ds,

with c1 = -Res(1/B, 3) = -1/(B(1) W(1) W'(2)) > 0.  Pushing contours across
the residue ladders of B gives the closed small-theta and large-theta laws:
Q1(0+) = 2 c1 Res(B, 0) and Q1 ~ (c1 B(5)/2) theta^-5, both pinned by the
tests, and Q2 ~ Res(1/B, 4) B(5) t^-4 theta^-5 = 4 t^-4 theta^-5.  For
Q2(t, 0+) the residue of 1/B at 4 gives only the leading term for large t,
-6 Res(1/B, 4) Res(B, 0) t^-4: the singularities of 1/B further right add
terms of higher order in 1/t (at t = 1.5 the law misses the value at
theta = 1e-4 by 21 %, at t = 5 by 0.41 %).

Q2 is the "q2" kind of the assembled line.  Q1, and the line integrals of
the short-time series (``_nu_hat`` and the cascade profiles ``_h_casc``),
all have the form (1/2 i pi) int phi(s) e^(-sL) ds with L = log theta or
log t and phi independent of L: a Gamma factor times B or 1/B, real on the
real axis and decaying like e^(-pi |v|/2).  ``_mb_line`` tabulates each phi
once per evaluator at one step, reading B off the line interpolant, and a
trapezoid sum against e^(-sL), checked against the rule of twice the step,
then gives the value at every theta or t.  The residues and integer values
of B that the asymptotic routes read come off B's memoized ladder
(``BEvaluator.laurent``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from wavekin.bfunc import _b_singularities, default_evaluator, memo
from wavekin.complexfn import log_gamma
from wavekin.errors import (ConvergenceError, PoleError, RegimeError,
                            TruncationError)
from wavekin.line import _C_DIRECT, _check_arg, _check_scale, _line_assembly
from wavekin.ufunc import _ROUND_FLOOR, _frozen

__all__ = ["eval_Q1", "eval_Q2", "eval_lambda_series"]

#: order of the short-time series' power ladder: at order 5 the pushed
#: contour meets a double singularity (pole of B against a zero of B) and
#: the power form of the terms breaks down
_SERIES_ORDER = 4


# ---------------------------------------------------------------------------
# tabulated Mellin--Barnes lines of the asymptotic routes
# ---------------------------------------------------------------------------

#: top of the tabulated half-line and its trapezoid step
_MB_V = 48.0
_MB_H = 0.025
#: the h rule must sit within _MB_REL_TOL of the 2h rule, relative to the
#: value, or within the kind's absolute floor or the rounding floor
_MB_REL_TOL = 1e-11
_MB_ABS_FLOOR = {"q1": 1e-16, "nu": 1e-18, "casc": 1e-18}
#: decay rate below that of the Gamma factors, e^(-pi v/2), for the tail
_MB_TAIL_RATE = 1.35
#: node k = 44 a + b (a, b < 44) of a line sits at v = _MB_HI[a] + _MB_LO[b],
#: so its phases e^(-i v L) are the outer product of 44 and 44 exponentials
_MB_N = int(round(_MB_V / _MB_H)) + 1
_MB_SPLIT = math.isqrt(_MB_N - 1) + 1
_MB_HI = (_MB_SPLIT * _MB_H) * np.arange(_MB_SPLIT)
_MB_LO = _MB_H * np.arange(_MB_SPLIT)


class _MBLine:
    """One line (1/2 i pi) int_{Re s = c} phi(s) e^(-sL) ds, for every L.

    phi does not depend on L, is real on the real axis and decays like a
    Gamma factor, so the integral is (1/pi) Re int_0^inf phi(c+iv)
    e^(-(c+iv)L) dv and one tabulation of phi on v = 0, h, ..., V serves
    every L.  The trapezoid rule on it converges geometrically in the strip
    of analyticity about the line (Trefethen & Weideman, SIAM Rev. 56,
    2014).  Every phi of ``_mb_line`` is analytic at least 1/2 away from
    its line, so at h = _MB_H the 2h rule on the even nodes is already at
    rounding; a line whose two rules still differ raises.  The nodes and
    samples are shared through ``memo``, so they are read-only.
    """

    def __init__(self, phi, c, abs_floor):
        self.c, self.abs_floor = c, abs_floor
        self.nodes = _frozen(c + 1j * _MB_H * np.arange(_MB_N))
        self.samples = _frozen(phi(self.nodes))
        # |phi e^(-sL)| = |phi| e^(-cL) for real L
        self.abs_sum = np.abs(self.samples).sum()

    def __call__(self, L):
        """(value, error) at the parameter L; the error is the h-vs-2h
        difference plus the end-point tail beyond V plus the rounding
        floor _ROUND_FLOOR * h sum |f| / pi, which the h-vs-2h test
        also accepts: where the terms dwarf the value (Q1 at theta -> 0,
        where they grow like theta^(-3/2)) the two sums differ by rounding
        alone.  Where e^(-cL) passes e^_LOG_SCALE_MAX it raises
        RegimeError."""
        _check_scale(-self.c * L, f"the Mellin-Barnes line at {self.c}")
        h = _MB_H
        phase = np.outer(np.exp(-1j * L * _MB_HI), np.exp(-1j * L * _MB_LO))
        f = self.samples * (math.exp(-self.c * L) * phase.ravel()[:_MB_N])
        fine = h * (f.sum() - 0.5 * (f[0] + f[-1])).real / math.pi
        g = f[::2]
        coarse = 2 * h * (g.sum() - 0.5 * (g[0] + g[-1])).real / math.pi
        diff = abs(fine - coarse)
        floor = (_ROUND_FLOOR * h * math.exp(-self.c * L) * self.abs_sum
                 / math.pi)
        if diff > max(_MB_REL_TOL * abs(fine), self.abs_floor, floor):
            raise ConvergenceError(
                f"Mellin-Barnes line at Re s = {self.c} unresolved at step "
                f"{h}")
        tail = abs(f[-1]) / (_MB_TAIL_RATE * math.pi)
        return fine, diff + tail + floor


@memo(32)
def _mb_line(ev, kind, c, a):
    """The tabulated line of one kind on Re s = c; B is read off the
    evaluator's line interpolant, using B(conj s) = conj B(s).

    kind "q1"    phi(s) = c1 B(s) Gamma(3 - s)       (c = 3/2, a unused)
    kind "nu"    phi(s) = Gamma(s - a) / B(s)        (c = a - 1/2)
    kind "casc"  phi(s) = Gamma(s) B(a - s)          (c = -1/2; B is read
                 on Re = a - c and conjugated)
    """
    if kind == "q1":
        c1 = -_res_inv_b(ev, 3.0)
        b = ev.line_interpolator(c, 0.0, _MB_V + 0.5)

        def phi(s):
            return c1 * b(s) * np.exp(log_gamma(3.0 - s))
    elif kind == "nu":
        b = ev.line_interpolator(c, 0.0, _MB_V + 0.5)

        def phi(s):
            return np.exp(log_gamma(s - a)) / b(s)
    elif kind == "casc":
        b = ev.line_interpolator(a - c, 0.0, _MB_V + 0.5)

        def phi(s):
            return np.exp(log_gamma(s)) * np.conj(b(np.conj(a - s)))
    else:
        raise ValueError(f"unknown line kind {kind!r}")
    return _MBLine(phi, c, _MB_ABS_FLOOR[kind])


# ---------------------------------------------------------------------------
# long-time decomposition
# ---------------------------------------------------------------------------


def _q1_with_error(theta, ev):
    return _mb_line(ev, "q1", 1.5, 0)(math.log(theta))


def eval_Q1(theta, evaluator=None):
    """Self-similar long-time profile: Lambda ~ t^-3 Q1(x/t) + Q2.

    Q1(0+) = 2 c1 Res(B, 0) and Q1(theta) ~ (c1 B(5)/2) theta^-5; both ends
    are integrable, so Q1 is an L1 profile.
    """
    _check_arg("theta", theta)
    ev = evaluator or default_evaluator()
    return _q1_with_error(theta, ev)[0]


def _q2_with_error(t, theta, ev):
    return _line_assembly(ev, t, _C_DIRECT, "q2")(math.log(t * theta))


def eval_Q2(t, theta, evaluator=None):
    """Remainder of the long-time decomposition at theta = x/t.

    Q2(t, 0+) ~ c2_line t^-4 with c2_line = -6 Res(1/B, 4) Res(B, 0) < 0,
    the leading term for large t, and Q2 ~ 4 t^-4 theta^-5 for large
    theta.  The remainder line sits at Re sigma = 7/2, so absolute
    convergence needs t > 1.
    """
    _check_arg("t", t)
    if not t > 1.0:
        raise RegimeError(f"remainder line needs t > 1; t={t}")
    _check_arg("theta", theta)
    ev = evaluator or default_evaluator()
    return _q2_with_error(t, theta, ev)[0]


# ---------------------------------------------------------------------------
# short-time residue series
# ---------------------------------------------------------------------------


def _res_inv_b(ev, z):
    """Res(1/B, z) at a simple zero z of B, off the ladder."""
    return (1.0 / ev.laurent(z)[1]).real


def _b_at(ev, k):
    """B at the integer k, real there, off the ladder: exactly 0 at a zero
    of B, PoleError at a pole."""
    order, coef = ev.laurent(float(k))
    if order < 0:
        raise PoleError(f"B has a pole at s = {k}")
    return coef.real if order == 0 else 0.0


@functools.lru_cache(maxsize=1)
def _cascade_zeros():
    """The zeros of B in (8, 12.3) that the right push crosses, each a
    ``_h_casc`` term (12.3 keeps 0.5 left of the series' cut at 12.8)."""
    return tuple(_b_singularities(8.0, 12.3)[1].tolist())


def _nu_hat(m, t, ev):
    """(1/2 i pi) int_{Re w = m - 1/2} Gamma(w - m) t^(-w) / B(w) dw.

    The line sits just left of the pole of B at w = m, so the value
    resums the whole Gamma ladder below it -- including the collision
    points w = 3, 4 where Gamma poles meet zeros of B and the power form
    of the terms would break down.  t enters only through t^(-w), so the
    tabulated line of ``_mb_line`` serves every t.  Returns (value, error).
    """
    return _mb_line(ev, "nu", m - 0.5, m)(math.log(t))


def _h_casc(z, theta, ev):
    """(1/2 i pi) int_{Re w = -1/2} Gamma(w) theta^w B(z - w) dw.

    Profile of the resonance-zero family at z: every term of its Gamma
    ladder vanishes (B(z + k) is again a zero), so the function decays
    faster than any power of 1/theta and only the line value captures
    it.  theta enters only through theta^w, so the tabulated line of
    ``_mb_line`` serves every theta.  Returns (value, error).
    """
    return _mb_line(ev, "casc", -0.5, z)(-math.log(theta))


def _series_g_plus(k, x, rho3, rho4, b):
    """G_k for x > 1: the zero families of B at 3 and 4, pushed right, with
    rho3 = Res(1/B, 3), rho4 = Res(1/B, 4) and b[m] = B(m) at 4..8.

    The pole ladder of B at m >= 9 is handled exactly by ``_nu_hat`` and
    must not reappear here.
    """
    return -(rho3 * b[3 + k] * x ** -3 + rho4 * b[4 + k] * x ** -4)


def _series_g_minus(k, x, lad):
    """G_k for x < 1 (contour pushed left), from lad[m] at the integers
    -9..0: Res(B, m) at the poles -1 and 0, B(m), finite and nonzero, at
    -5..-2, and Res(1/B, m) at the zeros -9..-6."""
    out = lad[-1] * x ** (k + 1) / lad[-k - 1]
    if k >= 2:  # for k = 1 the factor 1/B(-1) vanishes at the pole of B
        out += lad[0] * x ** k / lad[-k]
    for n in range(6, k + 6):
        out += lad[-n] * lad[k - n] * x ** n
    return out


def _series_with_error(t, x, ev):
    if not 0.0 < t < 1.0:
        raise RegimeError(f"short-time series needs 0 < t < 1; t={t}")
    theta = x / t
    if not theta > 1.0:
        raise RegimeError(f"short-time series needs x/t > 1; x/t={theta}")
    if abs(x - 1.0) < 0.1:
        raise RegimeError(
            "the pushed-contour remainders do not vanish near x = 1; "
            f"|x-1|={abs(x - 1.0):.3g} < 0.1")
    # the ladder values the terms read, each read once per call
    if x > 1.0:
        rho3, rho4 = _res_inv_b(ev, 3.0), _res_inv_b(ev, 4.0)
        b = {m: _b_at(ev, m) for m in range(4, 9)}
    else:
        lad = {m: ev.laurent(m)[1].real for m in range(-5, 1)}
        lad.update({m: _res_inv_b(ev, m) for m in range(-9, -5)})

    total = 0.0
    first = 0.0
    last = 0.0
    for k in range(1, _SERIES_ORDER + 1):
        gk = (_series_g_plus(k, x, rho3, rho4, b) if x > 1.0
              else _series_g_minus(k, x, lad))
        term = (-1.0) ** k / math.factorial(k) * theta ** (-k) * gk
        if k == 1:
            first = abs(term)
        # individual terms may fluctuate near the remainder floor (the G_k
        # contain near-cancellations), so divergence means outgrowing the
        # leading term, not the immediate predecessor
        elif abs(term) > max(first, 1e-14):
            raise TruncationError(
                f"series terms stopped decreasing at order {k} "
                f"(t={t}, x={x}); the expansion is outside its zone")
        total += term
        last = abs(term)
    if x > 1.0:
        quad_err = 0.0
        for m in range(9, 13):
            nu, nu_err = _nu_hat(m, t, ev)
            res_b = ev.laurent(m)[1].real
            total -= theta ** (-m) * res_b * nu
            quad_err += theta ** (-m) * abs(res_b) * nu_err
        for z in _cascade_zeros():
            h, h_err = _h_casc(z, theta, ev)
            rho_z = _res_inv_b(ev, z)
            total -= rho_z * x ** (-z) * h
            quad_err += abs(rho_z) * x ** (-z) * h_err
        # at order 5 the family at 4 meets the pole of B at 9, so only
        # the family at 3 contributes a clean next term
        k_err = abs(rho3 * b[8]) * x ** -3 * theta ** -5 / 120.0
        # families beyond the contour cut at Re s = 12.8: the first of
        # them measures ~ 0.4 x^-13 against line-integral references
        err = k_err + quad_err + 0.45 * x ** -12.8
    else:
        # the left push stops before the resonance-pole ladder of B below
        # -5; those families are not resummed and bound the error (the
        # coefficient is calibrated against line-integral references); the
        # last term kept stands for the truncation
        err = last + 2.0 * x ** 8 * t
    return total, err


def eval_lambda_series(t, x, *, evaluator=None):
    """Short-time residue expansion of Lambda at theta = x/t > 1.

    For x > 1 the inverse-Mellin contour is pushed right to Re s = 12.8,
    crossing three kinds of structure: the zero families of B at 3 and 4
    (a power ladder in theta^-1, truncated at order 4), the pole
    ladder of B at m = 9..12 (resummed exactly by the ``_nu_hat`` line
    integrals), and the resonance zeros of B between 8 and 12.3 (the
    ``_h_casc`` profile terms, which decay faster than any power).  Those
    ten line integrals are trapezoid sums on lines tabulated once per
    evaluator (``_mb_line``), so only the first call at x > 1 builds them.
    The first family beyond the cut, near x^-13, sets the error floor.  For
    x < 1 the contour moves left across the poles of B at 0 and -1 and
    its negative zero ladder, giving the power form of
    ``_series_g_minus``; the resonance-pole families below -5 are not
    resummed and enter the error estimate instead.  Valid for 0 < t < 1,
    x/t > 1 and x away from 1; see the errors raised otherwise.
    """
    _check_arg("t", t)
    _check_arg("x", x)
    ev = evaluator or default_evaluator()
    return _series_with_error(t, x, ev)[0]
