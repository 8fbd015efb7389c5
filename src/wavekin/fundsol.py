"""Fundamental solution Lambda(t, x) of the degenerate kinetic transport
equation and its derived quantities.

Lambda is the inverse Mellin transform of the evolution symbol,

    Lambda(t, x) = (1/2 i pi) int_{Re s = c} sqrt(2 pi) U(t, s) x^(-s) ds,

with c = 1 inside the analyticity strip.  Conjugate symmetry folds the line
onto v = Im s >= 0:

    Lambda(t, x) = (x^(-c)/pi) int_0^inf Re[ sqrt(2 pi) U(t, c+iv) e^(-ivq) ] dv,

q = log x.  The integral is split at a fixed height V: on [0, V] the symbol
is tabulated on a uniform grid by a matched-grid convolution (see
``_symbol_line``) and integrated panel-wise against exact oscillatory
moments (Filon--Legendre); on [V, inf) a five-term power model of the
symbol is fit on [0.55 V, 0.98 V] and integrated along a rotated ray in
geometric 16-point Gauss panels (``_ray_tail``), which keeps the quadrature
non-oscillatory for any q.  One tabulation and fit (``_line_assembly``)
serves every q: calling it with an array of q evaluates the moments, the
phases and the ray panels of all of them at once, so profiles and integrals
cost one call per batch of points.  In U only the power t^(-sigma) depends
on t, so the other factors of the tabulation (B on the line, 1/B on the
auxiliary line, loggamma on the kernel nodes) are tabulated once per line
(``_line_table``); a new t costs one kernel row, one FFT correlation and
the fits.  Every cache here is a bounded ``bfunc.memo`` map kept inside
the evaluator, so it is freed with the evaluator and keeps none alive.

The integrals against x (``l1_norm_lambda``, ``delta_pairing``) run
adaptive Gauss panels in log x on that line.  One routine,
``_adaptive_panels``, refines all intervals of an integral in lockstep, so
each sweep of new panels is one call of the line.

Regimes
-------
auto                the direct line for every x != 1; at x = 1 with
                    t <= 1/2, where Lambda is infinite, it returns (inf, inf).
direct              the line integral of U itself.  For t > 1/2 the
                    |U| ~ v^(-2t) tail is absolutely integrable at x = 1; for
                    t <= 1/2 and x != 1 the rotated ray still integrates the
                    tail model, and the line keeps its relative accuracy down
                    to |x-1| ~ 1e-30, where Lambda ~ A |x-1|^(2t-1).
log_regularized     the same line applied to dU/ds; since
                    log x * Lambda = (1/2 i pi) int sqrt(2 pi) dU/ds x^(-s) ds
                    (by parts; the boundary term vanishes on the line)
                    and |dU/ds| ~ v^(-1-2t) log v, this converges for every
                    t > 0 but degrades as x -> 1 where the division by
                    log x amplifies the quadrature error.  Kept for
                    t <= 0.6 as an independent check on direct; auto never
                    picks it.
large_t_asymptotic  t^(-3) Q1(x/t) + Q2(t, x/t), exact for t > 1 (Q2's
                    remainder line converges absolutely there); see below.
small_t_series      the short-time residue series of ``eval_lambda_series``.

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
once per evaluator, reading B off the line interpolant, and a trapezoid sum
against e^(-sL) then gives the value at every theta or t.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import digamma, jv, loggamma

from wavekin.bfunc import _w_zero_table, default_evaluator, memo
from wavekin.complexfn import eval_W
# unused here; perfbench's tracer wraps the name fundsol.integrate_vertical
from wavekin.contour import integrate_vertical  # noqa: F401
from wavekin.errors import (ConvergenceError, PoleError, RegimeError,
                            TruncationError)
from wavekin.kernels import eval_H
from wavekin.ufunc import (
    ENV_B,
    _ROUND_FLOOR,
    _lattice_correlate,
)

REGIMES = (
    "auto",
    "direct",
    "log_regularized",
    "large_t_asymptotic",
    "small_t_series",
)

# ---------------------------------------------------------------------------
# line-engine layout constants
# ---------------------------------------------------------------------------

#: height at which the tabulated window hands over to the power-model tail
_V_CUT = 168.0
#: uniform step of the output grid along the line (panel = 10 intervals)
_H_V = 0.07
#: step of the inner convolution grid; exactly _H_V/2 so every output node
#: lies on the convolution lattice and no resampling is needed
_H_W = 0.035
#: half-reach of the Gamma kernel in the convolution; |Gamma(a+i eta)| at
#: eta = 26.985 is below 1e-15 of its peak for the offsets used here
_K_HALF = 771  # nodes; reach = 771 * _H_W = 26.985
_NV = int(round(_V_CUT / _H_V)) + 1          # 2401 output nodes
_N_PANEL = (_NV - 1) // 10                   # 240 Filon panels
_PANEL_HALF = 5.0 * _H_V                     # 0.35
#: offset of the auxiliary line of the convolution: sigma = c + _B_OFF + i w
_B_OFF = 0.35
#: remainder line of the long-time decomposition (between the zero of B at
#: 4 and the first pole of its right ladder at 9; kept at 7/2)
_BETA2 = 3.5
#: scale entering the tail-model basis (b s)^(-2t) (V_bar/s)^k
_V_BAR = 120.0
_MODEL_K = 5

_C_DIRECT = 1.0
_C_DT = 1.5

_T_LOGREG_MAX = 0.6
#: order of the short-time series' power ladder: at order 5 the pushed
#: contour meets a double singularity (pole of B against a zero of B) and
#: the power form of the terms breaks down
_SERIES_ORDER = 4

#: half-width of the core |x-1| < _U_CORE that the integrals take from the
#: near-one law A |x-1|^(2t-1) instead of from panels
_U_CORE = math.exp(-40.0)
#: end of the w = -log|r-1| range of ``transport_apply``: 1 -+ e^(-36)
#: still differs from 1 in double precision
_W_KINK = 36.0
_TRANSPORT_TOL = 1e-9


# equispaced nodes tau_j = -1 + j/5 and the inverse of the degree-10
# Legendre interpolation matrix on them (computed once)
_TAU = np.linspace(-1.0, 1.0, 11)
_LEG_INV = np.linalg.inv(legvander(_TAU, 10))
_GL16 = leggauss(16)
_LEG_K = np.arange(11)
#: the ray sweep of one q stops once three consecutive panels fall below
#: _RAY_TOL of its running sum, or after _RAY_PANELS panels
_RAY_TOL = 1e-10
_RAY_PANELS = 480
#: ray directions indexed by sign(q): 0 -> pi/2, 1 -> pi/4, -1 -> 3 pi/4
_RAY_DIRS = np.exp(1j * np.pi * np.array([0.5, 0.25, 0.75]))
#: most q one pass of an assembled line takes: the ray sweep holds
#: (q x panels x 16) complex temporaries, and near x = 1 it runs to
#: blocks of 128 panels or more; a radial profile of 256 points still
#: goes in one pass
_Q_BATCH = 256


# ---------------------------------------------------------------------------
# symbol values along the line (matched-grid convolution)
# ---------------------------------------------------------------------------


def _line_B(ev, re_line, v):
    interp = ev.line_interpolator(re_line, float(v.min()) - 0.5,
                                  float(v.max()) + 0.5)
    return interp(re_line + 1j * v)


@dataclasses.dataclass(frozen=True)
class _LineTable:
    """The factors of ``_symbol_line`` that do not depend on t, on one line.

    factor   B(c + i v) on the output grid; W(c - 1 + i v) for kind "ut"
    inv_b    1/B(beta + i w) on the convolution lattice of the auxiliary line
    z, lg    the kernel nodes z = a + i eta and loggamma(z)
    dg       digamma(z)                          (kind "du" only)
    b_prime  B'(c + i v) on the output grid      (kind "du" only)
    """

    factor: np.ndarray
    inv_b: np.ndarray | None = None
    z: np.ndarray | None = None
    lg: np.ndarray | None = None
    dg: np.ndarray | None = None
    b_prime: np.ndarray | None = None


@memo(16)
def _line_table(ev, c, kind):
    """The ``_LineTable`` of one evaluator, abscissa and symbol kind.

    B is read off the line interpolants once per evaluator and line, so a
    new t on a seen line evaluates no B.  The arrays are shared by every
    caller and read-only.  Kind "su" reads the "u" table, and kind "ut"
    holds W alone and reads the "u" table at c - 1.
    """
    v = _H_V * np.arange(_NV)
    if kind == "ut":
        arrays = {"factor": eval_W((c - 1.0) + 1j * v)}
    elif kind in ("u", "du", "q2"):
        if kind == "q2":
            beta, a = _BETA2, _BETA2 - c
        else:
            beta, a = c + _B_OFF, _B_OFF
        reach = _K_HALF * _H_W
        w = -reach + _H_W * np.arange(2 * _K_HALF + 2 * (_NV - 1) + 1)
        z = a + 1j * (_H_W * np.arange(-_K_HALF, _K_HALF + 1))
        arrays = {"factor": _line_B(ev, c, v),
                  "inv_b": 1.0 / _line_B(ev, beta, w),
                  "z": z, "lg": loggamma(z)}
        if kind == "du":
            # B' on the line by a 4th-order stencil on the interpolant
            h = 1e-3
            interp = ev.line_interpolator(c, -0.2, _V_CUT + 0.2)

            def bb(dv):
                return interp(c + 1j * (v + dv))

            db_dv = (8.0 * (bb(h) - bb(-h))
                     - (bb(2 * h) - bb(-2 * h))) / (12 * h)
            arrays.update(dg=digamma(z), b_prime=-1j * db_dv)
    else:
        raise ValueError(f"unknown symbol kind {kind!r}")
    for arr in arrays.values():
        arr.flags.writeable = False
    return _LineTable(**arrays)


def _conv_core(inv_b, kernels):
    """h/(2 pi) * sum_w K_r(w - v) / B(beta + i w) on the output grid.

    inv_b holds 1/B on the lattice of the auxiliary line (``_line_table``)
    and kernels the stack K_r(eta) on the kernel nodes; each K_r must decay
    below ~1e-15 of its peak at |eta| = reach.  Each row is then a plain
    trapezoid of the sigma-line integral of the U representation, exact
    to the analyticity width of 1/B around the beta-line
    (super-exponentially small error at _H_W).  The lattice step is _H_W
    and every second lattice node is an output node; all rows share one
    batched FFT correlation (``ufunc._lattice_correlate``).
    """
    return (_H_W / (2.0 * math.pi)) * _lattice_correlate(
        inv_b, kernels, 2, _NV)


def _symbol_line(ev, t, c, kind):
    """sqrt(2 pi) * Sym(t, c + i v) on the uniform grid v = 0..V.

    kind "u"   Sym = U(t, s)
    kind "du"  Sym = dU/ds (t, s)
    kind "su"  Sym = s U(t, s)
    kind "ut"  Sym = W(s-1) U(t, s-1)     (the time derivative symbol)
    kind "q2"  Sym = U_rem(t, s), the remainder of U after removing the
               residue at the first zero of B (auxiliary line at _BETA2)

    Only the power t^(-sigma) depends on t: B, 1/B, loggamma and the other
    factors are read from ``_line_table``, once per evaluator and line, and
    a new t costs one kernel row and one FFT correlation.
    """
    if kind == "su":
        v = _H_V * np.arange(_NV)
        return (c + 1j * v) * _symbol_line(ev, t, c, "u")
    tab = _line_table(ev, c, kind)
    if kind == "ut":
        return tab.factor * _symbol_line(ev, t, c - 1.0, "u")
    # Gamma(z) t^(-z), the expression of ufunc._gamma_t_kernel
    k = np.exp(tab.lg - tab.z * math.log(t))
    if kind == "du":
        core, core2 = _conv_core(
            tab.inv_b, np.stack([k, (math.log(t) - tab.dg) * k]))
        return tab.b_prime * core + tab.factor * core2
    return tab.factor * _conv_core(tab.inv_b, k)[0]


# ---------------------------------------------------------------------------
# tail model and rotated-ray integrals
# ---------------------------------------------------------------------------


def _basis_factory(kind, t, c):
    """Five analytic functions modelling the symbol beyond V.

    All are analytic in the closed upper-right region swept by the rotated
    rays (principal branches; the tabulated line and both ray directions
    stay in Im s >= V > 0).
    """
    shift = 1.0 if kind == "ut" else 0.0

    def cols(s):
        z = s - shift
        base = (ENV_B * z) ** (-2.0 * t)
        p = _V_BAR / z
        if kind in ("u", "q2"):
            fams = [base, base * p, base * p ** 2, base * p ** 3,
                    base * p ** 4]
        elif kind == "du":
            fams = [base / z, base * np.log(z) / z, base * p / z,
                    base * p ** 2 / z, base * p ** 3 / z]
        elif kind == "ut":
            fams = [base * np.log(z), base, base * p, base * p ** 2,
                    base * p ** 3]
        elif kind == "su":
            fams = [base * z, base * _V_BAR, base * _V_BAR * p,
                    base * _V_BAR * p ** 2, base * _V_BAR * p ** 3]
        else:  # pragma: no cover
            raise ValueError(kind)
        return np.stack(fams, axis=-1)

    return cols


def _ray_tail(F, s0, q, c):
    """int_{s0}^{s0 + i inf} F(s) e^(-(s-c) q) ds along a rotated ray, per q.

    For each q of the 1-D array the contour is rotated to arg = pi/4
    (q > 0), 3 pi/4 (q < 0) or kept vertical (q = 0); F must be analytic
    and decaying in the swept sector, which holds for the power-model
    basis.  All q share the geometric 16-point Gauss panels, so F is
    evaluated once per direction.  Blocks of panels, each twice as long as
    the last, go to every q still sweeping; a sweep stops once three
    consecutive panels fall below _RAY_TOL of its running sum.
    """
    side = np.sign(q).astype(int)
    xg, wg = _GL16
    len0 = max(2.0, abs(s0) / 32.0)
    total, err = np.zeros(q.shape, complex), np.zeros(q.shape)
    stall = np.zeros(q.shape, int)
    todo, j0, n_block = np.arange(q.size), 0, 8
    while todo.size:
        r_len = len0 * 2.0 ** np.arange(j0, min(j0 + n_block, _RAY_PANELS))
        r = (r_len - len0)[:, None] + 0.5 * r_len[:, None] * (xg + 1.0)
        f, z = np.empty((2, 3) + r.shape, complex)
        for i in set(side[todo].tolist()):
            s = s0 + _RAY_DIRS[i] * r
            f[i], z[i] = F(s) * _RAY_DIRS[i], s - c
        rays = side[todo]
        vals = f[rays] * np.exp(-z[rays] * q[todo, None, None])
        pieces = 0.5 * r_len * (vals * wg).sum(axis=-1)
        sums = total[todo, None] + np.cumsum(pieces, axis=1)
        scale = np.maximum(np.abs(sums), 1e-300)
        # length of the run of small panels ending at each panel
        k = np.arange(r_len.size)
        small = np.abs(pieces) < _RAY_TOL * scale
        streak = k - np.maximum.accumulate(
            np.where(small, -1 - stall[todo, None], k), axis=1)
        done = (streak >= 3).any(axis=1)
        last = np.where(done, (streak >= 3).argmax(axis=1), k[-1])
        rows = np.arange(todo.size)
        total[todo] = sums[rows, last]
        err[todo] = np.abs(pieces[rows, last]) + _RAY_TOL * scale[rows, last]
        stall[todo] = streak[:, -1]
        j0 += r_len.size
        todo = todo[~done] if j0 < _RAY_PANELS else todo[:0]
        n_block *= 2
    return total, err


# ---------------------------------------------------------------------------
# the assembled line
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _LineAssembly:
    t: float
    c: float
    kind: str
    coeffs: np.ndarray        # (n_panels, 11) Legendre coefficients
    mids: np.ndarray          # panel midpoints in v
    model_a: np.ndarray       # (5,) complex model amplitudes
    basis: object             # callable s -> (n, 5) columns
    fit_resid: float          # max |g - model| on the check window
    err_window: float         # Filon truncation estimate (integral units)

    def __call__(self, q):
        """((x^-c / pi) Re int_0^inf g(v) e^(-i v q) dv, error) at q = log x.

        q is a scalar or an array; the values and errors take its shape.
        Each q's figures are its own, so the batches of at most _Q_BATCH
        points that bound the temporaries change no value.
        """
        q = np.asarray(q, dtype=float)
        qs = q.ravel()
        val, err = np.empty(qs.shape), np.empty(qs.shape)
        for k in range(0, qs.size, _Q_BATCH):
            val[k:k + _Q_BATCH], err[k:k + _Q_BATCH] = self._batch(
                qs[k:k + _Q_BATCH])
        return val.reshape(q.shape)[()], err.reshape(q.shape)[()]

    def _batch(self, qs):
        # moments int_{-1}^{1} P_k(tau) e^(-i lam tau) dtau = 2 (-i)^k j_k(lam)
        # with j_k(x) = sqrt(pi/2x) J_(k+1/2)(x); the floor keeps j_0(0) = 1
        lam = _PANEL_HALF * qs[:, None]
        x = np.maximum(np.abs(lam), 1e-300)
        moms = (-1j) ** _LEG_K * jv(_LEG_K + 0.5, x) * np.sqrt(2.0 * np.pi / x)
        moms = np.where(lam < 0.0, np.conj(moms), moms)
        phases = np.exp(-1j * qs[:, None] * self.mids)
        # einsum, unlike a BLAS product, sums each q the same way whatever
        # the batch, so an array call equals the scalar calls exactly
        win = _PANEL_HALF * (np.einsum("nk,pk->np", moms, self.coeffs)
                             * phases).sum(axis=-1)
        ray, ray_err = _ray_tail(
            lambda s: (self.basis(s) * self.model_a).sum(axis=-1),
            self.c + 1j * _V_CUT, qs, self.c)
        err = (self.err_window + ray_err
               + self.fit_resid * _V_CUT / (2.0 * self.t + _MODEL_K - 1.0))
        scale = np.exp(-self.c * qs) / math.pi
        return scale * (win - 1j * ray).real, scale * err


@memo(48)
def _line_assembly(ev, t, c, kind):
    g = _symbol_line(ev, t, c, kind)
    idx = 10 * np.arange(_N_PANEL)[:, None] + np.arange(11)[None, :]
    coeffs = g[idx] @ _LEG_INV.T
    mids = _H_V * (10.0 * np.arange(_N_PANEL) + 5.0)
    err_window = float(
        (np.abs(coeffs[:, 9]) + np.abs(coeffs[:, 10])).sum() * 2 * _PANEL_HALF
    )

    basis = _basis_factory(kind, t, c)
    v = _H_V * np.arange(_NV)
    lo, hi = int(0.55 * (_NV - 1)), int(0.98 * (_NV - 1))
    probe = np.linspace(lo, hi, 8).astype(int)
    s_probe = c + 1j * v[probe]
    model_a, *_ = np.linalg.lstsq(basis(s_probe), g[probe], rcond=None)
    check = np.arange(lo, hi, (hi - lo) // 40)
    resid = g[check] - basis(c + 1j * v[check]) @ model_a
    fit_resid = float(np.abs(resid).max())

    return _LineAssembly(t=t, c=c, kind=kind, coeffs=coeffs, mids=mids,
                         model_a=model_a, basis=basis, fit_resid=fit_resid,
                         err_window=err_window)


# ---------------------------------------------------------------------------
# queries, profiles, dispatch
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LambdaQuery:
    """A point evaluation request for the fundamental solution."""

    t: float
    x: float
    regime: str = "auto"

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"t must be positive and finite, got {self.t}")
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise ValueError(f"x must be positive and finite, got {self.x}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclasses.dataclass(frozen=True)
class RadialProfile:
    """Lambda(t, .) sampled on a fixed grid at one time stamp."""

    grid: np.ndarray
    values: np.ndarray
    t_stamp: float

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")


def _direct(t, q, ev):
    """(Lambda, error) on the direct line at x = e^q; q scalar or array."""
    q = np.asarray(q, dtype=float)
    val, err = np.full(q.shape, math.inf), np.full(q.shape, math.inf)
    # Lambda ~ A |x-1|^(2t-1) does not stay bounded at x = 1 for t <= 1/2
    bounded = (q != 0.0) | (t > 0.5)
    if bounded.any():
        val[bounded], err[bounded] = _line_assembly(ev, t, _C_DIRECT, "u")(
            q[bounded])
    return val[()], err[()]


def _eval_q(t, q, regime, ev):
    """(Lambda, error) at x = e^q by the named regime; x = 1 is q = 0."""
    if regime in ("auto", "direct"):
        return _direct(t, q, ev)
    if regime == "log_regularized":
        if q == 0.0:
            raise RegimeError("log regularization divides by log x; x=1")
        if t > _T_LOGREG_MAX:
            raise RegimeError(
                f"log-regularized line is kept to t <= {_T_LOGREG_MAX}; "
                f"use direct for t={t}")
        val, err = _line_assembly(ev, t, _C_DIRECT, "du")(q)
        # integrating x^-s by parts along the line: the boundary term
        # vanishes and log x * Lambda = + the dU/ds line integral
        return val / q, abs(err / q)
    if regime == "large_t_asymptotic":
        if not t > 1.0:
            raise RegimeError(f"decomposition remainder needs t > 1; t={t}")
        theta = math.exp(q) / t
        q1, e1 = _q1_with_error(theta, ev)
        q2, e2 = _q2_with_error(t, theta, ev)
        return t ** -3 * q1 + q2, t ** -3 * e1 + e2
    if regime == "small_t_series":
        return _series_with_error(t, math.exp(q), ev)
    raise ValueError(f"unknown regime {regime!r}")  # pragma: no cover


def eval_lambda(query, evaluator=None):
    """The fundamental solution at one point; see LambdaQuery."""
    val, _err = eval_lambda_with_error(query, evaluator)
    return val


def eval_lambda_with_error(query, evaluator=None):
    ev = evaluator or default_evaluator()
    return _eval_q(query.t, math.log(query.x), query.regime, ev)


def eval_lambda_log(t, log_x, regime="auto", evaluator=None):
    """Lambda(t, e^X) from the log coordinate X = log x.

    The boundary layer around x = 1 has width ~ e^(-1/t), which for small
    t drops below the floating-point resolution of x itself, so the
    scaling checks address the layer through X directly.  The asymptotic
    zones (large_t_asymptotic, small_t_series) live at x far from 1 and
    are reached through eval_lambda instead.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not math.isfinite(log_x):
        raise ValueError(f"log_x must be finite, got {log_x}")
    if regime not in ("auto", "direct", "log_regularized"):
        raise ValueError(f"regime {regime!r} needs the plain coordinate")
    ev = evaluator or default_evaluator()
    return _eval_q(t, float(log_x), regime, ev)[0]


def radial_profile(t, x_min, x_max, n_points, evaluator=None):
    """Lambda(t, .) on a geometric grid of n_points from x_min to x_max.

    The whole grid goes through one call of the direct line, which shares
    the tabulation and evaluates every point at once; x = 1 with t <= 1/2
    gives inf, as in eval_lambda.
    """
    if not (x_min > 0.0 and x_max > x_min):
        raise ValueError("need 0 < x_min < x_max")
    if n_points < 2:
        raise ValueError("need at least two points")
    ev = evaluator or default_evaluator()
    grid = np.geomspace(x_min, x_max, int(n_points))
    vals, _ = _direct(t, np.log(grid), ev)
    return RadialProfile(grid=grid, values=vals, t_stamp=float(t))


# ---------------------------------------------------------------------------
# tabulated Mellin--Barnes lines of the asymptotic routes
# ---------------------------------------------------------------------------

#: top of the tabulated half-line and its starting trapezoid step
_MB_V = 48.0
_MB_H = 0.025
#: the h rule must sit within _MB_REL_TOL of the 2h rule, relative to the
#: value, or within the kind's absolute floor or the rounding floor; h
#: halves at most _MB_REFINEMENTS times
_MB_REL_TOL = 1e-11
_MB_REFINEMENTS = 3
_MB_ABS_FLOOR = {"q1": 1e-16, "nu": 1e-18, "casc": 1e-18}
#: decay rate below that of the Gamma factors, e^(-pi v/2), for the tail
_MB_TAIL_RATE = 1.35


class _MBLine:
    """One line (1/2 i pi) int_{Re s = c} phi(s) e^(-sL) ds, for every L.

    phi does not depend on L, is real on the real axis and decays like a
    Gamma factor, so the integral is (1/pi) Re int_0^inf phi(c+iv)
    e^(-(c+iv)L) dv and one tabulation of phi on v = 0, h, ..., V serves
    every L.  The trapezoid rule on it converges geometrically in the strip
    of analyticity about the line (Trefethen & Weideman, SIAM Rev. 56,
    2014); it is checked against the 2h rule on the even nodes, and h
    halves where they differ, each finer tabulation filling in the
    midpoints of the last.
    """

    def __init__(self, phi, c, abs_floor):
        self.phi, self.c, self.abs_floor = phi, c, abs_floor
        n = int(round(_MB_V / _MB_H))
        self.samples = [phi(c + 1j * _MB_H * np.arange(n + 1))]
        # sum |phi| per level: |phi e^(-sL)| = |phi| e^(-cL) for real L
        self.abs_sums = [np.abs(self.samples[0]).sum()]

    def _level(self, k):
        while len(self.samples) <= k:
            coarse = self.samples[-1]
            h = _MB_H / 2 ** len(self.samples)
            fine = np.empty(2 * coarse.size - 1, complex)
            fine[::2] = coarse
            fine[1::2] = self.phi(
                self.c + 1j * h * (2.0 * np.arange(coarse.size - 1) + 1.0))
            self.samples.append(fine)
            self.abs_sums.append(np.abs(fine).sum())
        return self.samples[k]

    def __call__(self, L):
        """(value, error) at the parameter L; the error is the h-vs-2h
        difference plus the end-point tail beyond V plus the rounding
        floor _ROUND_FLOOR * h sum |f| / pi, which the h-vs-2h test
        also accepts: where the terms dwarf the value (Q1 at theta -> 0,
        where they grow like theta^(-3/2)) the two sums differ by rounding
        alone, and halving h cannot reduce that."""
        for k in range(_MB_REFINEMENTS + 1):
            phi = self._level(k)
            h = _MB_H / 2 ** k
            f = phi * np.exp(-(self.c + 1j * h * np.arange(phi.size)) * L)
            fine = h * (f.sum() - 0.5 * (f[0] + f[-1])).real / math.pi
            g = f[::2]
            coarse = 2 * h * (g.sum() - 0.5 * (g[0] + g[-1])).real / math.pi
            diff = abs(fine - coarse)
            floor = (_ROUND_FLOOR * h * math.exp(-self.c * L)
                     * self.abs_sums[k] / math.pi)
            if diff <= max(_MB_REL_TOL * abs(fine), self.abs_floor, floor):
                tail = abs(f[-1]) / (_MB_TAIL_RATE * math.pi)
                return fine, diff + tail + floor
        raise ConvergenceError(
            f"Mellin-Barnes line at Re s = {self.c} stalled at step {h}")


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
        c1 = _ledger(ev).c1.real
        b = ev.line_interpolator(c, 0.0, _MB_V + 0.5)

        def phi(s):
            return c1 * b(s) * np.exp(loggamma(3.0 - s))
    elif kind == "nu":
        b = ev.line_interpolator(c, 0.0, _MB_V + 0.5)

        def phi(s):
            return np.exp(loggamma(s - a)) / b(s)
    elif kind == "casc":
        b = ev.line_interpolator(a - c, 0.0, _MB_V + 0.5)

        def phi(s):
            return np.exp(loggamma(s)) * np.conj(b(np.conj(a - s)))
    else:
        raise ValueError(f"unknown line kind {kind!r}")
    return _MBLine(phi, c, _MB_ABS_FLOOR[kind])


# ---------------------------------------------------------------------------
# long-time decomposition
# ---------------------------------------------------------------------------


@memo(1)
def _ledger(ev):
    """The evaluator's residue ledger, computed once per evaluator."""
    return ev.derived_constants()


def _q1_with_error(theta, ev):
    return _mb_line(ev, "q1", 1.5, 0)(math.log(theta))


def eval_Q1(theta, evaluator=None):
    """Self-similar long-time profile: Lambda ~ t^-3 Q1(x/t) + Q2.

    Q1(0+) = 2 c1 Res(B, 0) and Q1(theta) ~ (c1 B(5)/2) theta^-5; both ends
    are integrable, so Q1 is an L1 profile.
    """
    if not theta > 0.0:
        raise ValueError("theta must be positive")
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
    if not t > 1.0:
        raise RegimeError(f"remainder line needs t > 1; t={t}")
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    ev = evaluator or default_evaluator()
    return _q2_with_error(t, theta, ev)[0]


# ---------------------------------------------------------------------------
# short-time residue series
# ---------------------------------------------------------------------------


class _SeriesConstants:
    """Residues of B and 1/B feeding the short-time series.

    All are read off the functional-equation ladder (``ev.laurent``): B
    has simple poles at 0, -1 and 9..12, so Res(B, m) is the leading
    coefficient there, and simple zeros at -6..-9 and at the cascade
    points, so Res(1/B, z) is its inverse.
    """

    def __init__(self, ev):
        self.res_b = {m: ev.laurent(float(m))[1].real
                      for m in (0, -1, 9, 10, 11, 12)}
        # G_k of order k <= 4 reads the zeros of B at -6 .. -9
        self.rho = {-n: (1.0 / ev.laurent(-float(n))[1]).real
                    for n in range(6, 10)}
        # zeros of B between the first pole at 9 and the contour cut at
        # 12.8: each root sigma of W seeds the ladder sigma + 1 + j
        self.casc = []
        for sig in _w_zero_table().w_zeros_pos:
            z = sig + 1.0
            while z + 0.5 < 12.8:
                if z > 8.0:
                    self.casc.append((z, (1.0 / ev.laurent(z)[1]).real))
                z += 1.0
        self.casc.sort()
        # rho(3), rho(4) without re-measuring: rho4 from the ledger, and
        # rho3 = -c1 by definition of c1
        led = _ledger(ev)
        self.rho[3] = -led.c1.real
        self.rho[4] = led.rho4.real


@memo(1)
def _series_constants(ev):
    return _SeriesConstants(ev)


@memo(32)
def _b_at(ev, k):
    """B at the integer k, real there, off the ladder: exactly 0 at a zero
    of B, PoleError at a pole; the series reads fewer than 32."""
    order, coef = ev.laurent(float(k))
    if order < 0:
        raise PoleError(f"B has a pole at s = {k}")
    return coef.real if order == 0 else 0.0


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


def _series_g_plus(k, x, sc, ev):
    """G_k for x > 1: the zero families of B at 3 and 4, pushed right.

    The pole ladder of B at m >= 9 is handled exactly by ``_nu_hat`` and
    must not reappear here.
    """
    return -(sc.rho.get(3) * _b_at(ev, 3 + k) * x ** -3
             + sc.rho.get(4) * _b_at(ev, 4 + k) * x ** -4)


def _series_g_minus(k, x, sc, ev):
    """G_k for x < 1 (contour pushed left)."""
    out = sc.res_b[-1] * x ** (k + 1) / _b_at(ev, -k - 1)
    if k >= 2:  # for k = 1 the factor 1/B(-1) vanishes at the pole of B
        out += sc.res_b[0] * x ** k / _b_at(ev, -k)
    for n in range(6, k + 6):
        out += sc.rho[-n] * _b_at(ev, k - n) * x ** n
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
    sc = _series_constants(ev)

    total = 0.0
    first = 0.0
    last = 0.0
    for k in range(1, _SERIES_ORDER + 1):
        gk = (_series_g_plus(k, x, sc, ev) if x > 1.0
              else _series_g_minus(k, x, sc, ev))
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
            total -= theta ** (-m) * sc.res_b[m] * nu
            quad_err += theta ** (-m) * abs(sc.res_b[m]) * nu_err
        for z, rho_z in sc.casc:
            h, h_err = _h_casc(z, theta, ev)
            total -= rho_z * x ** (-z) * h
            quad_err += abs(rho_z) * x ** (-z) * h_err
        # at order 5 the family at 4 meets the pole of B at 9, so only
        # the family at 3 contributes a clean next term
        k_err = (abs(sc.rho[3] * _b_at(ev, 8)) * x ** -3 * theta ** -5
                 / 120.0)
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
    ev = evaluator or default_evaluator()
    return _series_with_error(t, x, ev)[0]


# ---------------------------------------------------------------------------
# derivatives and the rescaled kernel
# ---------------------------------------------------------------------------


def eval_dlambda_dt(t, x, evaluator=None):
    """d Lambda / d t via the delay identity dU/dt(t,s) = W(s-1) U(t,s-1).

    The shifted line sits at Re s = 3/2 so the inner symbol is evaluated on
    Re = 1/2, inside the strip.  For t <= 1/2 the tail is only conditionally
    integrable, so x = 1 is refused there.
    """
    ev = evaluator or default_evaluator()
    if x == 1.0 and t <= 0.5:
        raise RegimeError("dLambda/dt at x = 1 needs t > 1/2")
    return _line_assembly(ev, t, _C_DT, "ut")(math.log(x))[0]


def eval_dlambda_dx(t, x, evaluator=None):
    """d Lambda / d x = -(1/x) (1/2 i pi) int sqrt(2 pi) s U(t,s) x^-s ds.

    The extra factor s slows the tail to v^(1-2t), absolutely integrable
    only for t > 1; smaller t raises RegimeError.
    """
    if not t > 1.0:
        raise RegimeError(f"x-derivative line needs t > 1; t={t}")
    ev = evaluator or default_evaluator()
    val, _ = _line_assembly(ev, t, _C_DIRECT, "su")(math.log(x))
    return -val / x


def eval_G(t, x, y, evaluator=None):
    """Green kernel for initial mass at y: G(t, x; y) = Lambda(t/y, x/y)/y.

    Scaling covariance G(a t, a x; a y) = G(t, x; y)/a holds by
    construction and is pinned by tests.
    """
    if not y > 0.0:
        raise ValueError("y must be positive")
    val, _ = _eval_q(t / y, math.log(x / y), "auto",
                     evaluator or default_evaluator())
    return val / y


# ---------------------------------------------------------------------------
# integrals against test functions
# ---------------------------------------------------------------------------


class TestFunction:
    """A compactly supported C^2 profile given by samples and derivatives.

    Built with quintic Hermite pieces (BPoly.from_derivatives), so the
    profile, its slope and its curvature match the supplied data exactly at
    the nodes; outside [support[0], support[1]] it is identically zero.
    """

    def __init__(self, xs, values, d1, d2, support=None):
        xs = np.asarray(xs, dtype=float)
        if support is None:
            support = (float(xs[0]), float(xs[-1]))
        self.support = (float(support[0]), float(support[1]))
        # imported here: scipy.interpolate serves test functions alone and
        # would add to every import of the package
        from scipy.interpolate import BPoly

        stack = np.column_stack([values, d1, d2])
        self._poly = BPoly.from_derivatives(xs, stack)
        self._dpoly = self._poly.derivative()

    @classmethod
    def bump(cls, lo, hi):
        """The standard C^infinity bump exp(-1/(1-u^2)) scaled to [lo, hi]."""
        if not hi > lo:
            raise ValueError("need hi > lo")
        u = np.linspace(-1.0, 1.0, 25)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs = mid + half * u
        w = 1.0 - u ** 2
        inside = w > 0.0
        ui, wi = u[inside], w[inside]
        f, du, ddu = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
        f[inside] = math.e * np.exp(-1.0 / wi)  # peak 1
        # log f = -1/w + const:  (log f)' = -2u/w^2,
        # (log f)'' = -2/w^2 - 8u^2/w^3
        du[inside] = -2.0 * ui / wi ** 2
        ddu[inside] = -2.0 / wi ** 2 - 8.0 * ui ** 2 / wi ** 3
        f1 = f * du / half
        f2 = f * (du ** 2 + ddu) / half ** 2
        return cls(xs, f, f1, f2, support=(lo, hi))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x > lo) & (x < hi)
        out = np.zeros_like(x)
        if inside.any():
            out[inside] = self._poly(x[inside])
        if out.ndim == 0:
            return float(out)
        return out

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x > lo) & (x < hi)
        out = np.zeros_like(x)
        if inside.any():
            out[inside] = self._dpoly(x[inside])
        if out.ndim == 0:
            return float(out)
        return out


#: the panel rules of ``_adaptive_panels``: 12-point Gauss and the 6-point
#: rule it is checked against, evaluated together as 18 nodes per panel
_X12, _W12 = leggauss(12)
_X6, _W6 = leggauss(6)
_X18 = np.concatenate([_X12, _X6])


def _gauss_panels(f, bounds, absolute):
    """(12-point value, |12-point - 6-point|) of f on each panel (lo, hi).

    One call of f serves every panel, and each panel's sums are the dots
    of its own row, so a panel gets the same figures in any batch.
    """
    lo, hi = np.array(bounds, dtype=float).T
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = f((mid[:, None] + half[:, None] * _X18).ravel()).reshape(-1, 18)
    if absolute:
        vals = np.abs(vals)
    sums = []
    for h, row in zip(half, vals):
        v12 = h * np.dot(_W12, row[:12])
        sums.append((v12, abs(v12 - h * np.dot(_W6, row[12:]))))
    return sums


def _adaptive_panels(f, intervals, rel_tol=1e-7, max_depth=28,
                     absolute=False):
    """Adaptive Gauss panels of f on each interval: [(total, err), ...].

    f maps arrays to arrays.  Per interval, 12- and 6-point rules are
    compared on each panel, and the worst panel is bisected until the
    summed discrepancy is below rel_tol of the summed integral, the worst
    panel has had max_depth bisections, or 4000 bisections are made.  With
    absolute=True the integrand is |f|.

    The intervals refine in lockstep: each sweep, every interval not yet
    done bisects its worst panel, and the new panels of all of them go
    through one call of f.  An interval keeps the panels, the summation
    order and the decisions it has when passed alone, so its result does
    not depend on the batch.
    """
    segs = [[(a, b, *vs, 0)] for (a, b), vs in
            zip(intervals, _gauss_panels(f, intervals, absolute))]
    out = [None] * len(intervals)
    todo = range(len(intervals))
    for sweep in range(4001):
        new = []
        for i in todo:
            s = segs[i]
            total = sum(p[2] for p in s)
            err = sum(p[3] for p in s)
            if sweep == 4000 or err <= rel_tol * max(abs(total), 1e-300):
                out[i] = (total, err)
                continue
            worst = max(range(len(s)), key=lambda k: s[k][3])
            lo, hi, v, e, depth = s.pop(worst)
            if depth >= max_depth:
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


def l1_norm_lambda(t, rel_tol=1e-6, evaluator=None):
    """int_0^inf |Lambda(t, x)| dx.

    The core |x-1| < exp(-40) takes its mass from the near-one law
    A |x-1|^(2t-1), with the amplitude A read off the direct line at the
    core edges (see ``_core_mass``); outside, adaptive panels in log x ride
    the same line tabulation, for every t > 0.  The intervals of the
    ladder log(1 -+ 4^k exp(-40)) of ``_tau_marks`` that close in on the
    core from |x-1| = 0.4 refine together in one ``_adaptive_panels``
    call, one line call per sweep.
    Then the x-range grows by one e-fold per call on each side until the
    outermost e-fold is negligible: Lambda tends to a constant at x = 0+
    and decays like x^-5 at infinity, so both ends close quickly.
    (Refining several e-folds ahead in one call was slower: the far ones,
    not needed in the end, refine on the rounding noise of the line.)
    """
    ev = evaluator or default_evaluator()
    line = _line_assembly(ev, t, _C_DIRECT, "u")

    def f_abs(tau):
        return line(tau)[0] * np.exp(tau)

    total = abs(_core_mass(t, ev))
    # panels in tau = log x, on the ladder refined toward both sides of the
    # core; it is summed first, so each outward stop test sees its mass
    lo, hi = math.log1p(-0.4), math.log1p(0.4)
    marks = _tau_marks(lo, hi)
    near = [(a, b) for a, b in zip(marks[:-1], marks[1:])
            if a != math.log1p(-_U_CORE)]
    for v, _ in _adaptive_panels(f_abs, near, rel_tol, absolute=True):
        total += v
    # outward extension, one e-fold at a time until negligible
    for sign, edge in ((-1, lo), (1, hi)):
        for _ in range(60):
            [(v, _)] = _adaptive_panels(
                f_abs, [(min(edge, edge + sign), max(edge, edge + sign))],
                rel_tol, absolute=True)
            total += v
            edge += sign
            if v < rel_tol * total:
                break
    return total


def delta_pairing(t, phi, rel_tol=1e-7, evaluator=None):
    """<Lambda(t, .), phi> = int Lambda(t, x) phi(x) dx; phi a TestFunction.

    At t = 0 the fundamental solution is the unit mass at x = 1, so the
    pairing is exactly phi(1).  For t > 0 the core |x-1| < exp(-40)
    carries phi(1) times the near-one mass of ``_core_mass`` and the rest
    is adaptive panel quadrature in log x over supp phi, on the direct line.
    supp phi is cut at the ladder log(1 -+ 4^k exp(-40)) of ``_tau_marks``,
    and all of its intervals refine together in one ``_adaptive_panels``
    call, one line call per sweep.
    """
    if t == 0.0:
        return float(phi(1.0))
    ev = evaluator or default_evaluator()
    lo, hi = phi.support
    total = 0.0
    u_c = _U_CORE
    pieces = []
    if lo < 1.0 - u_c and hi > 1.0 + u_c:
        total += float(phi(1.0)) * _core_mass(t, ev)
        pieces = [(math.log(lo), math.log1p(-u_c)),
                  (math.log1p(u_c), math.log(hi))]
    else:
        pieces = [(math.log(lo), math.log(hi))]

    line = _line_assembly(ev, t, _C_DIRECT, "u")

    def f(tau):
        x = np.exp(tau)
        return line(tau)[0] * phi(x) * x

    spans = []
    for a, b in pieces:
        marks = _tau_marks(a, b)
        spans += zip(marks[:-1], marks[1:])
    for v, _ in _adaptive_panels(f, spans, rel_tol):
        total += v
    return total


def _tau_marks(a, b):
    """Split [a, b] (in tau = log x) geometrically toward tau = 0.

    Inserts the ladder log(1 +- 4^k u_core) so panels shrink toward the
    boundary layer at x = 1 where the integrand steepens.
    """
    marks = {a, b}
    u = _U_CORE
    while u < 0.45:
        for s in (math.log1p(u), math.log1p(-u)):
            if a < s < b:
                marks.add(s)
        u *= 4.0
    return sorted(marks)


def transport_apply(phi, x):
    """(T phi)(x) = int_0^inf H(r) r phi'(r x) dr for a TestFunction phi.

    This is the adjoint of the transport side of the evolution: testing
    d Lambda/dt = (dLambda/dx * H) against phi moves one derivative onto
    phi and produces exactly this profile.
    """
    lo, hi = phi.support
    r_lo, r_hi = lo / x, hi / x
    if r_hi <= 0.0:
        return 0.0
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


def weak_residual(a_t, b_x, rel_tol=1e-6, evaluator=None):
    """Residual of the weak equation against phi(t, x) = a(t) b(x).

    Returns (residual, budget) for

        R = int int Lambda(t, x) [a'(t) b(x) - a(t) (T b)(x)] dx dt,

    which vanishes for weak solutions of dLambda/dt = dLambda/dx * H.
    The budget combines the panel discrepancies of both directions.
    """
    ev = evaluator or default_evaluator()
    t_lo, t_hi = a_t.support
    if not t_lo > 0.0:
        raise ValueError("the t-window must stay positive")
    x_lo, x_hi = b_x.support
    n_tp = 4
    edges = np.linspace(t_lo, t_hi, n_tp + 1)
    total = 0.0
    budget = 0.0
    tb_cache = {}

    def tb(x):
        key = round(float(x), 14)
        val = tb_cache.get(key)
        if val is None:
            val = transport_apply(b_x, float(x))
            tb_cache[key] = val
        return val

    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for tj, wj in zip(mid + half * _X6, half * _W6):
            ap, av = a_t.deriv(tj), a_t(tj)
            line = _line_assembly(ev, tj, _C_DIRECT, "u")

            def f(tau):
                x = np.exp(tau)
                inner = ap * b_x(x) - av * np.array([tb(xx) for xx in x])
                return line(tau)[0] * inner * x

            [(v, e)] = _adaptive_panels(
                f, [(math.log(x_lo), math.log(x_hi))], rel_tol)
            total += wj * v
            budget += abs(wj) * (e + rel_tol * abs(v))
    return total, budget
