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
moments (Filon--Legendre); on [V, inf) a five-term model of the symbol's
(ENV_B s)^(-2t) decay, ``_tail_model``, is fit on [0.55 V, 0.98 V] and
integrated along a rotated ray (``_ray_tail``), which keeps the integral
non-oscillatory for any q.  The model is a sum of powers z^(-alpha) (and
one log z z^(-alpha) for "du" and "ut"), whose ray integrals are
incomplete Gamma functions: for |q| |s0| <= 1, s0 = c + i V, their series
(DLMF 8.7.3) gives them in closed form (``_RaySeries``), kept with the
line, and the cusp q^(2t-1) of Lambda at x = 1 is its Gamma term.  Every
other q sums geometric 16-point Gauss panels: each starts its panels at
its own depth, short enough for the rule to resolve the ray's decay
e^(-|q| r/sqrt 2), and sweeps them only until its own sum has settled,
within 14 panels.  One tabulation and fit (``_line_assembly``) serves
every q: calling it with an array of q evaluates the moments, the phases
and the ray panels of all of them at once, so profiles and integrals cost
one call per batch of points.  Per q, the 240 panel phases are the outer
product of 15 and 16 exponentials, and the panel sum is one BLAS product
with the Legendre coefficients.  Only base = (ENV_B z)^(-2t) of the tail
model depends on t, so the fit and the ray read it the same way: from
t-free columns, log(ENV_B z) and the model's ladder (``_tail_columns``),
as e^(-2t log(ENV_B z)) times the columns' sum with the line's amplitudes
(``_tail_model``).  The fit keeps its columns per kind and abscissa
(``_fit_ladders``), the ray per lane and block, with its Gauss weights
(``_ray_columns``); the q of one ray direction and depth, a lane, share
those samples.  The ray's nodes double their distance from a fixed point
from one panel to the next, so e^(-(s-c) q) is one prefactor per q times
factors that are, on each panel, the squares of the last panel's: a q
takes one exponential per node only on every eighth panel.  The lanes are
swept in turn, on panel nodes, weights and anchors kept per lane and
block (``_ray_geometry``).  A query's Filon moments and phases, its
lanes, their prefactors and their node factors on the first eight panels
(block 0, which every swept q sweeps) depend on q and the abscissa
alone.  A q
array of two or more q keeps them in a store of the last eight arrays
used, keyed on its bytes and the abscissa (``_q_store``), so a profile on
a fixed grid, or a panel sweep, repeated at a new t takes them from there
and pays only for its line.  The line is the sigma-lattice rule of
``ufunc``, the engine that ``eval_U_line``, ``eval_dU_ds`` and
``eval_V`` read too: in U only the kernel Gamma(z) t^(-z) depends on t,
so B on the grid (``_b_grid``) and the spectrum of 1/B on the auxiliary
line (``_inv_b_spectrum``, built by ``ufunc._lattice_spectrum``) are
tabulated once per abscissa, and the kernel's spectrum is known in closed
form (``ufunc._gamma_t_spectrum``); ``_conv_core`` is that engine's fold
by 2 on this fixed layout.  A new t costs the real exponential of the
bins that do not underflow (about half of them), one inverse FFT, the
Legendre coefficients and the fit.  Every cache of a
quantity that reads B is a bounded ``bfunc.memo`` map kept inside the
evaluator, holds one quantity keyed by what it depends on, and is freed
with the evaluator and keeps none alive; the fit's and the ray's columns,
the ray's geometry and the q-only rows read no B and sit in
bounded module-level maps, and the closed form of a line's ray is kept
on the line.  The residues and integer values
of B that the asymptotic routes read come off B's memoized ladder
(``BEvaluator.laurent``).

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

Regimes
-------
auto                the direct line for every x != 1; at x = 1 with
                    t <= 1/2, where Lambda is infinite, it returns (inf, inf).
direct              the line integral of U itself.  For t > 1/2 the
                    |U| ~ v^(-2t) tail is absolutely integrable at x = 1; for
                    t <= 1/2 it is not, and the line reads (inf, inf) there,
                    as every line does at q = 0 where its ray diverges.  For
                    x != 1 the rotated ray integrates the tail model, in
                    closed form next to x = 1, so the line keeps its
                    relative accuracy down to |x-1| ~ 1e-30 and below, where
                    Lambda ~ A |x-1|^(2t-1).
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
once per evaluator at one step, reading B off the line interpolant, and a
trapezoid sum against e^(-sL), checked against the rule of twice the step,
then gives the value at every theta or t.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import digamma, gammaln, gammasgn, jv, zeta

from wavekin.bfunc import (_b_singularities, _fft_length, default_evaluator,
                           memo)
from wavekin.complexfn import eval_W, log_gamma
# unused here; perfbench's tracer wraps the name fundsol.integrate_vertical
from wavekin.contour import integrate_vertical  # noqa: F401
from wavekin.errors import (ConvergenceError, PoleError, RegimeError,
                            TruncationError)
from wavekin.kernels import eval_H
from wavekin.ufunc import (ENV_B, _ROUND_FLOOR, _bins, _conv_core as _fold,
                           _frozen, _gamma_t_spectrum, _inv_b_samples,
                           _lattice_spectrum, _underflow_bins as _cut)

__all__ = [
    "REGIMES",
    "LambdaQuery",
    "RadialProfile",
    "eval_lambda",
    "eval_lambda_with_error",
    "eval_lambda_log",
    "radial_profile",
    "eval_lambda_series",
    "eval_Q1",
    "eval_Q2",
    "eval_dlambda_dt",
    "eval_dlambda_dx",
    "eval_G",
    "TestFunction",
    "l1_norm_lambda",
    "delta_pairing",
    "transport_apply",
]

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
#: the output grid v = 0, _H_V, ..., _V_CUT
_V_GRID = _H_V * np.arange(_NV)
_V_GRID.flags.writeable = False
_N_PANEL = (_NV - 1) // 10                   # 240 Filon panels
_PANEL_HALF = 5.0 * _H_V                     # 0.35
#: offset of the auxiliary line of the convolution: sigma = c + _B_OFF + i w
_B_OFF = 0.35
#: remainder line of the long-time decomposition (between the zero of B at
#: 4 and the first pole of its right ladder at 9; kept at 7/2)
_BETA2 = 3.5
#: lattice nodes of 1/B on the auxiliary line: the output window widened
#: by the kernel's reach on both sides
_N_LAT = 2 * (_K_HALF + _NV - 1) + 1        # 6343
#: bins of the circular correlation along it (>= _N_LAT, so no output
#: wraps); folded in pairs onto the _N_FFT/2 bins of one inverse FFT
_N_FFT = _fft_length(_N_LAT)                # 8192
#: u = -theta/_H_W at the frequency theta = 2 pi f/_N_FFT of bin f, wrapped
#: to [-pi, pi), and e^u (``ufunc._bins``): ``_conv_core`` reads the
#: kernel's spectrum e^(a u - t e^u) on them.  The bins run in fftshift
#: order, f = _N_FFT/2 first, so u falls from pi/_H_W to just above
#: -pi/_H_W and the i-th bin folds onto output bin i mod _N_FFT/2
_U, _EXP_U = _bins(_H_W, _N_FFT)
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
#: largest log of the scale a line's integral is multiplied by, x^-c or a
#: Mellin--Barnes line's e^(-cL): e^700 ~ 1e304 leaves four decades below
#: the overflow for the integral; past it the routes raise RegimeError
_LOG_SCALE_MAX = 700.0


# equispaced nodes tau_j = -1 + j/5, the degree-10 Legendre interpolation
# matrix on them and its inverse (computed once)
_TAU = np.linspace(-1.0, 1.0, 11)
_LEG_VAND = legvander(_TAU, 10)
_LEG_INV = np.linalg.inv(_LEG_VAND)
_GL16 = leggauss(16)
#: the 16 Gauss nodes mapped to [0, 2], where a ray panel scales them
_GL16_UNIT = _GL16[0] + 1.0
#: the 16 Gauss nodes mapped to [1, 2]: panel j of a ray whose first
#: panel is L long has its nodes at L 2^j _GL16_RHO from the point L
#: before the ray's start
_GL16_RHO = 0.5 * (_GL16[0] + 3.0)
_LEG_K = np.arange(11)
#: (-i)^k and the Bessel orders k + 1/2 of the Filon moments
_LEG_PHASE = (-1j) ** _LEG_K
_LEG_ORDER = _LEG_K + 0.5
#: the 11 grid nodes of each Filon panel, (_N_PANEL, 11)
_LEG_IDX = 10 * np.arange(_N_PANEL)[:, None] + _LEG_K
#: the tail model's fit on the window [0.55, 0.98] V: 8 probe nodes, 40
#: check nodes, and i v there; c + _FIT_IV_* is the line's s at those nodes
_FIT_LO, _FIT_HI = int(0.55 * (_NV - 1)), int(0.98 * (_NV - 1))
_FIT_PROBE = np.linspace(_FIT_LO, _FIT_HI, 8).astype(int)
_FIT_CHECK = np.arange(_FIT_LO, _FIT_HI, (_FIT_HI - _FIT_LO) // 40)
_FIT_IV_PROBE = 1j * _H_V * _FIT_PROBE
_FIT_IV_CHECK = 1j * _H_V * _FIT_CHECK
#: the midpoint _PANEL_HALF (2 p + 1) of Filon panel p = 16 a + b
#: (a < 15, b < 16) is _MID_HI[a] + _MID_LO[b], so the 240 panel phases
#: e^(-i q mid) of one q are the outer product of 15 and 16 exponentials
_MID_HI = (32.0 * _PANEL_HALF) * np.arange(_N_PANEL // 16)
_MID_LO = _PANEL_HALF * (2.0 * np.arange(16) + 1.0)
#: the ray sweep of one q stops once three consecutive panels fall below
#: _RAY_TOL of its running sum, or after _RAY_PANELS panels.  Only q with
#: |q| |s0| > 1 sweep (``_ray_lanes``): measured on every kind at t in
#: [0.001, 1000] and |q| up to 700, none sweeps past panel 14, in block
#: 1, and block 2 is the margin
_RAY_TOL = 1e-10
_RAY_PANELS = 56
#: ray directions indexed by sign(q): 0 -> pi/2, 1 -> pi/4, -1 -> 3 pi/4
_RAY_DIRS = np.exp(1j * np.pi * np.array([0.5, 0.25, 0.75]))
#: the ray's node factors come in spans of _RAY_WAVE panels, an
#: exponential on the first and squares on the rest.  The panels come in
#: blocks, each twice as long as the last, whose starts _RAY_WAVE (2^k - 1)
#: and end _RAY_PANELS are whole spans.  The lanes (``_ray_tail``) are
#: swept in turn, and a lane's q in waves of whole spans, as many as
#: _RAY_PIECES (q, panel) pieces allow but at least one, cut at the end of
#: the block, and only for the q still sweeping: a q computes less than one
#: wave past its stop, and a wave's fixed bookkeeping stays small against
#: its factors.  So a lane of 64 or more q takes 8 panels a wave, and one q
#: whole blocks
_RAY_WAVE = 8
_RAY_PIECES = 256
_RAY_K = np.arange(_RAY_PANELS)
_RAY_BLOCKS = tuple((_RAY_WAVE * (2 ** k - 1),
                     min(_RAY_WAVE * (2 ** (k + 1) - 1), _RAY_PANELS))
                    for k in range(3))


def _ray_reach():
    """The longest first ray panel, in units of 1/|q|, whose 16 Gauss
    nodes integrate e^(-(s-c) q) within _RAY_TOL/50 of the ray's integral.

    On the ray at pi/4 (q > 0) the integrand is a phase times
    e^(-mu |q| r), mu = e^(i pi/4), and the ray's integral is 1/(mu |q|);
    at 3 pi/4 (q < 0) it is the conjugate and errs alike.  So the rule's
    miss on a first panel of length L/|q|, over that integral, depends on
    L alone.  It grows with L: 8e-16 at L = 5, 2.1e-12 at 26.25, 1e-6 at
    50.  The reach is the last L of a grid of step 1/8 below the first
    miss over the tolerance (26.125).
    """
    wg = _GL16[1]
    mu = _RAY_DIRS[1]
    reach = np.arange(8, 513) / 8.0
    half = 0.5 * reach[:, None]
    rule = (half * wg * np.exp(-mu * half * _GL16_UNIT)).sum(axis=1)
    miss = np.abs(mu * rule - (1.0 - np.exp(-mu * reach)))
    return float(reach[np.argmax(miss > _RAY_TOL / 50.0) - 1])


_RAY_REACH = _ray_reach()
#: most q one pass of an assembled line takes: it holds the (q x 240)
#: Filon phases and a ray wave's (q x panels x 16) complex temporaries, 8
#: panels a q at this size; a radial profile of 256 points still goes in
#: one pass, and so is one entry of ``_q_store``.  Every q is summed by its
#: own products, so the batch size changes no value
_Q_BATCH = 256
#: q arrays whose rows ``_q_store`` keeps, each at most _Q_BATCH q of about
#: 6.1 kB (phases 3,840, block-0 node factors 2,048): at most 12.6 MB
_Q_ARRAYS = 8


# ---------------------------------------------------------------------------
# symbol values along the line (matched-grid convolution)
# ---------------------------------------------------------------------------


def _line_B(ev, re_line, v):
    interp = ev.line_interpolator(re_line, float(v.min()) - 0.5,
                                  float(v.max()) + 0.5)
    return interp(re_line + 1j * v)


def _check_arg(name, value, zero=False):
    """ValueError naming the argument unless value is positive and finite,
    or with zero also 0."""
    if not (math.isfinite(value) and (value > 0.0 or zero and value == 0.0)):
        sign = "non-negative" if zero else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")


def _check_scale(log_scale, line):
    """RegimeError where the scale e^log_scale of a line's integral passes
    e^_LOG_SCALE_MAX: at such x (or theta, or t) the scale, or its product
    with the integral, overflows."""
    if log_scale > _LOG_SCALE_MAX:
        raise RegimeError(
            f"{line} scales its integral by e^{log_scale:.6g}, past "
            f"e^{_LOG_SCALE_MAX:g}, where it overflows")


@memo(8)
def _b_grid(ev, c):
    """B(c + i v) on the output grid, off the line interpolant."""
    return _frozen(_line_B(ev, c, _V_GRID))


@memo(8)
def _b_prime_grid(ev, c):
    """B'(c + i v) on the output grid, off the derivative of the line
    interpolant (``BLineInterpolator.derivative``): the blocks B's grid
    reads, differentiated exactly.  The tests hold it to eval_B_prime."""
    interp = ev.line_interpolator(c, -0.2, _V_CUT + 0.2).derivative()
    return _frozen(interp(c + 1j * _V_GRID))


@memo(8)
def _w_grid(ev, c):
    """W(c - 1 + i v) on the output grid, the delay factor of kind "ut"."""
    return _frozen(eval_W((c - 1.0) + 1j * _V_GRID))


@memo(8)
def _inv_b_spectrum(ev, beta):
    """The DFT over _N_FFT bins of 1/B(beta + i w) on the lattice w = m _H_W
    of the auxiliary line, |m| <= _K_HALF + _NV - 1, zero-padded and rolled
    so that w = 0 sits at bin 0 (the centring of the kernel row), halved
    for the fold of ``_conv_core`` and in the bin order of _U
    (``ufunc._lattice_spectrum``)."""
    return _lattice_spectrum(_inv_b_samples(ev, beta, _H_W, -_K_HALF, _N_LAT),
                             -_K_HALF, _N_FFT, 2.0)


def _underflow_bins(a, t):
    """The number of leading bins of _U at which e^(a u - t e^u) is exactly
    0 for a > 0, at most _N_FFT/2 (``ufunc._underflow_bins``): past t =
    _UNDERFLOW + a pi/_H_W the cut lies below u = 0 and would reach into
    the lower half of the fold; the bins of the lower half past it
    underflow too and are computed."""
    return _cut(_U, a, t, _N_FFT // 2)


def _conv_core(spectrum, a, t, du=False):
    """h/(2 pi) * sum_w K(w - v) / B(beta + i w) on the output grid
    v = 2 j h, for the kernel K(eta) = Gamma(a + i eta) t^(-(a + i eta)),
    w on the lattice of step h = _H_W: ``ufunc._conv_core`` folded by 2.

    spectrum is the DFT of that lattice of 1/B (``_inv_b_spectrum``), and
    the kernel's is known in closed form, e^(a u - t e^u) on the bins _U
    (``ufunc._gamma_t_spectrum``, the sigma-lattice rule of ``ufunc``).
    Each output is a plain trapezoid of the sigma-line integral of the U
    representation, exact to the analyticity width of 1/B around the
    beta-line (super-exponentially small error at _H_W).  For theta in
    [-pi, pi) the aliased terms of the kernel's spectrum stay below
    e^(-a pi / h) (2e-14 at a = _B_OFF).  Summing the bins f and f +
    _N_FFT/2 (the 1/2 of that fold is in spectrum) keeps the even shifts,
    the output nodes, so one inverse FFT of _N_FFT/2 bins gives the line.

    For u > 0 the spectrum falls like e^(-t e^u), and the bins past the
    cut of ``_underflow_bins`` are exactly 0 (3,646-3,875 of the 8,192 for
    t in [0.05, 6]); they are skipped, and the rest of the upper half is
    added onto the last bins of the lower half, which adds only what the
    whole fold adds.  A new t costs one real exponential of the other
    bins, one product and that FFT.

    With du, the line of the kernel (log t - psi(a + i eta)) K(eta) of
    dU/ds comes too, as the second row, of spectrum -u G(u).
    """
    skip = _underflow_bins(a, t)
    return _fold(spectrum, _gamma_t_spectrum(_U[skip:], _EXP_U[skip:], a, t,
                                             du), 2, skip)[..., :_NV]


def _symbol_line(ev, t, c, kind):
    """sqrt(2 pi) * Sym(t, c + i v) on the uniform grid v = 0..V.

    kind "u"   Sym = U(t, s)
    kind "du"  Sym = dU/ds (t, s)
    kind "su"  Sym = s U(t, s)
    kind "ut"  Sym = W(s-1) U(t, s-1)     (the time derivative symbol)
    kind "q2"  Sym = U_rem(t, s), the remainder of U after removing the
               residue at the first zero of B (auxiliary line at _BETA2)

    The one map from a kind to its lines: "u" and "du" convolve on the
    auxiliary line c + _B_OFF, "q2" on _BETA2, "su" and "ut" read the "u"
    line at c and c - 1.  Only the kernel Gamma(z) t^(-z) depends on t: B,
    B' and W on the grid and the spectrum of 1/B are memoized per
    evaluator and abscissa, and the kernel's spectrum e^(a u - t e^u) is
    known in closed form (``_conv_core``), so a new t costs the real
    exponential of the bins that do not underflow and one inverse FFT.
    """
    if kind == "su":
        return (c + 1j * _V_GRID) * _symbol_line(ev, t, c, "u")
    if kind == "ut":
        return _w_grid(ev, c) * _symbol_line(ev, t, c - 1.0, "u")
    if kind == "q2":
        spectrum = _inv_b_spectrum(ev, _BETA2)
        return _b_grid(ev, c) * _conv_core(spectrum, _BETA2 - c, t)
    # the offset is _B_OFF itself: (c + _B_OFF) - c differs by rounding
    spectrum = _inv_b_spectrum(ev, c + _B_OFF)
    if kind == "u":
        return _b_grid(ev, c) * _conv_core(spectrum, _B_OFF, t)
    if kind == "du":
        core, core2 = _conv_core(spectrum, _B_OFF, t, du=True)
        return _b_prime_grid(ev, c) * core + _b_grid(ev, c) * core2
    raise ValueError(f"unknown symbol kind {kind!r}")


# ---------------------------------------------------------------------------
# tail model and rotated-ray integrals
# ---------------------------------------------------------------------------


def _tail_columns(kind, s, w=1.0):
    """(log(ENV_B z), cols): the t-free parts of the tail model at s, the
    model of the symbol beyond V (``_tail_model``), with cols times w.

    With z = s (s - 1 for "ut") and p = V_BAR / z, the columns are one of
    two ladders, (..., 5) for s of shape (...):

      power  [1, p, p^2, p^3, p^4]     "u", "q2"; "su" is z times it
      log    [log z, 1, p, p^2, p^3]   "ut"; "du" is it over z, with the
                                       first two swapped

    and the model is base = (ENV_B z)^(-2t) times their sum with a line's
    amplitudes.  The columns are analytic in the closed upper-right region
    swept by the rotated rays (principal branches; the tabulated line and
    both ray directions stay in Im s >= V > 0).  The fit keeps them at its
    nodes (``_fit_ladders``), and the ray at each lane's nodes, times the
    Gauss weights (``_ray_columns``).
    """
    z = s - 1.0 if kind == "ut" else s
    p = _V_BAR / z
    p2 = p * p
    if kind in ("u", "q2", "su"):
        cols = [np.ones_like(z), p, p2, p2 * p, p2 * p2]
    elif kind in ("ut", "du"):
        cols = [np.log(z), np.ones_like(z), p, p2, p2 * p]
        if kind == "du":
            cols[:2] = cols[1::-1]
    else:  # pragma: no cover
        raise ValueError(kind)
    cols = np.stack(cols, axis=-1)
    if kind == "su":
        cols *= z[..., None]
    elif kind == "du":
        cols /= z[..., None]
    return np.log(ENV_B * z), cols * np.asarray(w)[..., None]


def _tail_model(t, columns, a):
    """sum_k a[k] col_k(s), the model of the symbol beyond V, from its
    columns at s, (log(ENV_B z), cols) of ``_tail_columns``: base =
    e^(-2t log(ENV_B z)) times cols @ a.  a is a line's (5,) amplitudes.
    Only base depends on t, so the fit and the ray keep the columns of
    their nodes and read the model this one way."""
    log_b, cols = columns
    return np.exp(-2.0 * t * log_b) * (cols @ a)


@functools.lru_cache(maxsize=16)
def _fit_ladders(kind, c):
    """``_tail_columns`` of the line (kind, c) at the fit's probe nodes,
    then at its check nodes: the t-free part of the fit's column matrices,
    read-only.  A line at a new t reads them (``_fit_columns``); every
    entry is under 6 kB."""
    out = []
    for iv in (_FIT_IV_PROBE, _FIT_IV_CHECK):
        out += map(_frozen, _tail_columns(kind, c + iv))
    return tuple(out)


def _fit_columns(kind, t, c):
    """The fit's column matrices at the probe and the check nodes: column
    k is ``_tail_model`` with the k-th unit vector as amplitudes."""
    log_probe, probe, log_check, check = _fit_ladders(kind, c)
    return (np.exp(-2.0 * t * log_probe)[:, None] * probe,
            np.exp(-2.0 * t * log_check)[:, None] * check)


def _ray_len0(s0):
    """The first ray panel's length at depth 0: short against |s0|, the
    scale on which the tail model varies along the ray."""
    return max(2.0, abs(s0) / 32.0)


def _ray_panels(len0, depth, j0, j1):
    """(r, half, rho) of the ray panels j0 <= j < j1 at one depth: the
    distances r from s0 of their 16 Gauss nodes, (j1 - j0, 16), their
    half-lengths, (j1 - j0, 1), and rho = r + first, (j1 - j0, 16).

    At depth K the panels are the doubling ladder of len0 scaled by 2^-K:
    panel j is len0 2^(j-K) long and starts at len0 (2^j - 1) 2^-K.  With
    first = len0 2^-K its nodes lie at rho = first 2^(j-1) (3 + g), g the
    Gauss abscissae on [-1, 1]; rho is scaled by ldexp, so it doubles
    exactly from one panel to the next.
    """
    first = math.ldexp(len0, -depth)
    j = np.arange(j0, j1)
    r_len = np.ldexp(first, j)
    half = 0.5 * r_len[:, None]
    rho = np.ldexp(first * _GL16_RHO, j[:, None])
    return (r_len - first)[:, None] + half * _GL16_UNIT, half, rho


@functools.lru_cache(maxsize=64)
def _ray_geometry(s0, depth, side, block):
    """(nodes, weights, anchors) of block ``_RAY_BLOCKS[block]`` of the ray
    panels (``_ray_panels``) from s0 at one depth, in the direction
    d = _RAY_DIRS[side]: the nodes s0 + d r, (panels, 16), the weights
    d half w of the Gauss rule, (panels, 16), and -d rho on the anchor
    panels, (panels / _RAY_WAVE, 16).  They depend on the lane alone, not
    on the line, so every line's sweep reads them here.  Read-only; an
    entry holds at most 32 panels, 17 kB, and 64 entries at most 1.1 MB."""
    j0, j1 = _RAY_BLOCKS[block]
    r, half, rho = _ray_panels(_ray_len0(s0), depth, j0, j1)
    d = _RAY_DIRS[side]
    return (_frozen(s0 + d * r), _frozen(d * half * _GL16[1]),
            _frozen(-d * rho[::_RAY_WAVE]))


@functools.lru_cache(maxsize=32)
def _ray_columns(kind, s0, depth, side, block):
    """``_tail_columns`` of kind at the nodes of ``_ray_geometry(s0, depth,
    side, block)``, with its Gauss weights as w: the t-free part of a
    lane's samples of the tail model, read-only.  A line at a new t reads
    them (``_ray_sweep``).  An entry holds at most 32 panels, 49 kB, and
    32 entries at most 1.6 MB; 60 rounds of radial profiles, l1 norms and
    pairings on the direct line reached 11 (lane, block) pairs."""
    nodes, weights, _ = _ray_geometry(s0, depth, side, block)
    return tuple(map(_frozen, _tail_columns(kind, nodes, weights)))


def _ray_factors(q, anchors):
    """e^(-d q rho) at every node of the anchor spans, for each q of the
    1-D array: (_RAY_WAVE x q x spans x 16), exponentials on the anchors
    -d rho, (spans, 16), then squares along the spans."""
    vals = np.empty((_RAY_WAVE, q.size) + anchors.shape, complex)
    np.multiply(q[:, None, None], anchors, out=vals[0])
    np.exp(vals[0], out=vals[0])
    for prev, cur in zip(vals[:-1], vals[1:]):
        np.square(prev, out=cur)
    return vals


def _ray_lanes(qs, c):
    """The lanes of ``_ray_tail`` for the 1-D q array qs on the line at
    abscissa c, s0 = c + i _V_CUT: a tuple of (depth, side, at, q, pre,
    head), one per swept lane.  The q = qs[at] form the lane of that depth
    and direction _RAY_DIRS[side]; pre are their prefactors
    e^(-(s0 - c - d first) q), and head their node factors on block 0
    (``_ray_factors``), (_RAY_WAVE, q, 1, 16).  Block 0 is the first
    _RAY_WAVE panels, which every q of a lane sweeps, in one wave.  The q
    with |q| |s0| <= 1 form one lane (None, None, at, q), whose ray
    integrals come in closed form (``_RaySeries``), with no prefactor and
    no node factor.  All of it depends on q and c alone.  One q takes a
    scalar path to its lane, a float compare for the closed form, and at
    is then slice(None)."""
    s0 = c + 1j * _V_CUT
    len0 = _ray_len0(s0)
    # each q's depth K, the least K >= 0 at which |q| len0 2^-K < _RAY_REACH,
    # and side sign(q); key -2 marks the q of the closed form
    if qs.size == 1:
        q0 = float(qs[0])
        if abs(q0) * abs(s0) <= 1.0:
            return ((None, None, slice(None), qs),)
        keys = [(max(math.frexp(q0 * (len0 / _RAY_REACH))[1], 0),
                 (q0 > 0) - (q0 < 0), slice(None))]
    else:
        lane = (3 * np.maximum(np.frexp(qs * (len0 / _RAY_REACH))[1], 0)
                + np.sign(qs))
        lane[np.abs(qs) * abs(s0) <= 1.0] = -2
        keys = []
        for key in np.unique(lane):
            at = np.flatnonzero(lane == key)
            if key == -2:
                keys.append((None, None, at))
                continue
            depth, side = divmod(int(key) + 1, 3)
            keys.append((depth, side - 1, at))
    lanes = []
    for depth, side, at in keys:
        q = qs[at]
        if depth is None:
            lanes.append((None, None, at, q))
            continue
        pre = np.exp((_RAY_DIRS[side] * math.ldexp(len0, -depth)
                      - (s0 - c)) * q)
        head = _ray_factors(q, _ray_geometry(s0, depth, side, 0)[2])
        lanes.append((depth, side, at, q, pre, head))
    return tuple(lanes)


def _ray_tail(line, lanes, n):
    """int_{s0}^{s0 + i inf} M(s) e^(-(s-c) q) ds along a rotated ray, for
    the n q of the lanes (``_ray_lanes``): M is the tail model of the
    assembled line (``_tail_model``), c its abscissa and s0 = c + i _V_CUT.

    For each q the contour is rotated to arg = pi/4 (q > 0), 3 pi/4
    (q < 0) or kept vertical (q = 0); M is analytic and decaying in the
    swept sector.

    For |q| |s0| <= 1 (|q| <= 0.00595 on the lines of ``_line_assembly``)
    the integral comes in closed form: the lane of those q reads the
    line's ``_RaySeries``, the incomplete Gamma series of M's powers, with
    no panel and no node factor.  There the ray's decay e^(-|q| r/sqrt 2)
    is slow, and the sweep took 30 to 60 panels a q, hundreds at q = 0,
    where its stop test missed the v^(1-2t) tail.

    Every other q sums 16-point Gauss panels (``_ray_panels``) at its own
    depth K, the least K >= 0 at which its first panel, len0 2^-K, is
    shorter than _RAY_REACH/|q|: there the rule resolves
    e^(-(1 +- i)|q| r/sqrt 2) within _RAY_TOL/50 of the ray's integral.
    For |q| len0 < _RAY_REACH (|q| < 4.976 on the lines of
    ``_line_assembly``) K = 0.  The q of one direction d and depth form a
    lane.  The lanes are swept in turn (``_ray_sweep``) and the q of one
    lane together: they share its samples of M, which carry the Gauss
    weights, the half-lengths of the panels and d there.  The nodes,
    weights and anchors of a lane's panels depend on s0 and the lane
    alone, and are kept per block (``_ray_geometry``), and so are the
    t-free columns of M there (``_ray_columns``): a sample is
    e^(-2t log(ENV_B z)) times the columns' sum with the line's
    amplitudes, the same reading of M as the fit's.

    The nodes lie at s = s0 + d (rho - first), and rho doubles exactly
    from one panel to the next, so e^(-(s-c) q) is the prefactor
    e^(-(s0 - c - d first) q), one exponential per q, times e^(-d q rho),
    whose values on a panel are the squares of the last panel's.  These
    are exponentials only on the anchor panels j = 0 mod _RAY_WAVE,
    counted from the ray's start so that no q's figures depend on its
    batch, and squares on the _RAY_WAVE - 1 panels after each: at most
    about 2^7 eps of relative error beyond the exponential's own, and
    q = 0 stays exactly 1.  The prefactors and the factors of block 0
    depend on q and c alone and come with the lanes, which a repeated q
    array keeps (``_q_rows``).

    The panels come in blocks (``_RAY_BLOCKS``), each twice as long as the
    last.  M is sampled once per block and lane, a panel's sum over its
    nodes is the row dot (``np.vecdot``) of M's samples with the q's
    factors, and a block's sums are its start sum plus the running sum over
    the block, so the figures of one q do not depend on the others.  The
    factors are taken in waves of whole anchor spans (``_RAY_PIECES``),
    only for the q still sweeping: a sweep stops once three consecutive
    panels fall below _RAY_TOL of its running sum, within 14 panels for
    every q above the closed form's cut.
    """
    if len(lanes) == 1:
        return _ray_lane(line, lanes[0])
    val, err = np.empty(n, complex), np.empty(n)
    for lane in lanes:
        at = lane[2]
        val[at], err[at] = _ray_lane(line, lane)
    return val, err


def _ray_lane(line, lane):
    """``_ray_tail`` for the q of one lane of ``_ray_lanes``: the closed
    form of the line (``_RaySeries``) or the panel sweep."""
    if lane[0] is None:
        return line.ray_series(lane[3])
    return _ray_sweep(line, lane)


def _ray_sweep(line, lane):
    """``_ray_tail`` for the q of one swept lane of ``_ray_lanes``: one
    depth, all of side sign(q).  Block 0 is one wave of every q, whose node
    factors are the lane's head; the deeper blocks compute theirs."""
    depth, side, _, q, pre, head = lane
    s0 = line.c + 1j * _V_CUT
    # total holds each q's sum at the start of its block, run the running
    # sum over the block up to the last wave, both without the prefactor
    # pre: the stop test compares a q's panels with its own sum, so the
    # factor is taken once at the end
    total, run = np.zeros((2,) + q.shape, complex)
    err, stall = np.zeros(q.shape), np.zeros(q.shape, int)
    todo = np.arange(q.size)
    for block, (b0, b1) in enumerate(_RAY_BLOCKS):
        anchors = _ray_geometry(s0, depth, side, block)[2]
        # M on the block's panels, weighted, in spans (_RAY_WAVE x spans x
        # 16), conjugated for the row dots below
        f = _tail_model(line.t, _ray_columns(line.kind, s0, depth, side,
                                             block), line.model_a)
        f = np.conj(f.reshape(-1, _RAY_WAVE, 16).transpose(1, 0, 2))
        j0 = b0
        while j0 < b1 and todo.size:
            j1 = min(b1, j0 + _RAY_WAVE * max(
                1, _RAY_PIECES // (_RAY_WAVE * todo.size)))
            spans = slice((j0 - b0) // _RAY_WAVE, (j1 - b0) // _RAY_WAVE)
            # each panel's sum of e^(-d q rho) times M over its 16 nodes:
            # one row dot (vecdot conjugates f back) per q and panel, so a
            # q's figures do not depend on the others
            factors = _ray_factors(q[todo], anchors[spans]) if j0 else head
            pieces = np.vecdot(f[:, None, spans], factors).transpose(
                1, 2, 0).reshape(todo.size, -1)
            if j0 == b0:
                run_sums = np.cumsum(pieces, axis=1)
            else:
                run_sums = np.cumsum(np.concatenate((run[todo, None], pieces),
                                                    axis=1), axis=1)[:, 1:]
            sums = total[todo, None] + run_sums
            scale = np.maximum(np.abs(sums), 1e-300)
            # length of the run of small panels ending at each panel
            k = _RAY_K[:j1 - j0]
            small = np.abs(pieces) < _RAY_TOL * scale
            streak = k - np.maximum.accumulate(
                np.where(small, -1 - stall[todo, None], k), axis=1)
            stop = streak >= 3
            done = stop.any(axis=1)
            last = np.where(done, stop.argmax(axis=1), j1 - j0 - 1)
            rows = np.arange(todo.size)
            err[todo] = (np.abs(pieces[rows, last])
                         + _RAY_TOL * scale[rows, last])
            stall[todo] = streak[:, -1]
            if j1 == b1:
                total[todo] = sums[rows, last]
            else:
                total[todo[done]] = sums[rows, last][done]
                run[todo] = run_sums[:, -1]
            j0 = j1
            todo = todo[~done]
        if not todo.size:
            break
    return total * pre, err * np.abs(pre)


#: the tail model as powers of z (``_tail_columns``): (shift, j, log) with
#: column k the power z^(-alpha_k), alpha_k - 1 = 2t - 1 + shift + j[k],
#: times V_BAR^j[k], and column ``log`` that power times log z
_RAY_LADDERS = {"u": (0, (0, 1, 2, 3, 4), None),
                "q2": (0, (0, 1, 2, 3, 4), None),
                "su": (-1, (0, 1, 2, 3, 4), None),
                "ut": (0, (0, 0, 1, 2, 3), 0),
                "du": (1, (0, 0, 1, 2, 3), 1)}
#: terms of the closed form's series in q: with |q z0| <= 1 the first
#: left out is below 1/24! ~ 1.6e-24 of the sum
_RAY_SERIES = 24
#: an exponent alpha - 1 within _RAY_POLE_GAP of a whole m >= 0 takes the
#: pole of Gamma(1 - alpha) and the series' term n = m as one term: apart,
#: each is about 1/eps (1/eps^2 for a log column) times the sum, and at
#: |eps| = 0.002 a "ut" line lost 1e-9 of it
_RAY_POLE_GAP = 0.01
#: relative rounding allowed each part of the closed form; exp(e log q*)
#: takes |e log q*| times more (``_RaySeries``)
_RAY_ROUND = 64.0 * np.finfo(float).eps
#: 1/(k+1)! and k/(k+1)!, k < 22: the series of expm1(x)/x and of its
#: derivative, which reach 1e-22 for |x| < 1/2 (``_exprel``)
_EXPREL = 1.0 / np.cumprod(np.arange(1.0, 23.0))
_EXPREL_D = np.arange(1.0, 22.0) * _EXPREL[1:]
_FACT = np.cumprod(np.r_[1.0, np.arange(1.0, _RAY_SERIES)])


def _exprel(x):
    """(expm1(x)/x, its derivative) at complex x: by Horner on their Taylor
    series for |x| < 1/2, so x = 0 needs no case of its own, and from expm1
    beyond, where the derivative, (x e^x - expm1(x))/x^2, keeps its
    digits."""
    small = np.abs(x) < 0.5
    xs = np.where(small, x, 0.0)
    e0 = np.full(x.shape, _EXPREL[-1], complex)
    for c in _EXPREL[-2::-1]:
        e0 = e0 * xs + c
    e1 = np.full(x.shape, _EXPREL_D[-1], complex)
    for c in _EXPREL_D[-2::-1]:
        e1 = e1 * xs + c
    xb = np.where(small, 1.0, x)
    em = np.expm1(xb)
    return (np.where(small, e0, em / xb),
            np.where(small, e1, (xb * (em + 1.0) - em) / (xb * xb)))


def _abs_sum(z):
    """|Re z| + |Im z|, a bound of |z| within sqrt 2 in exact operations."""
    return np.abs(z.real) + np.abs(z.imag)


def _power_term(lz, lead, whole, beta, log):
    """e^env z0^beta/beta, or for a log column e^env z0^beta (Log z0/beta
    - 1/beta^2), at Log z0 = lz: minus the term of the ray's series in
    (-q)^n/n!, beta = 1 - alpha + n = whole - e, as lead z0^whole.  The
    factor lead = e^(env - e Log z0) is the same in every term of a line,
    so its rounding is not magnified where the amplitudes cancel."""
    zb = lead * np.exp(whole * lz)
    return zb * (lz / beta - 1.0 / beta ** 2) if log else zb / beta


def _pole_log(m, eps):
    """(l(eps), l'(eps)) with e^(eps l(eps)) = Gamma(1 - eps) / prod_{i <=
    m} (1 + eps/i), from the Taylor series of both logs: l(0) = -psi(m+1).
    Twelve terms reach eps^12 = 1e-24 for |eps| <= _RAY_POLE_GAP."""
    k = np.arange(1, 13)
    harm = (1.0 / np.arange(1, m + 1)[:, None] ** k).sum(axis=0)
    coef = (zeta(np.maximum(k, 2)) + (-1.0) ** k * harm) / k
    coef[0] = np.euler_gamma - harm[0]
    return (float(np.polyval(coef[::-1], eps)),
            float(np.polyval((coef[1:] * k[:-1])[::-1], eps)))


class _RaySeries:
    """``_ray_tail`` of one assembled line in closed form, for the q with
    |q| |s0| <= 1.

    The tail model is sum_k A_k z^(-alpha_k) (``_RAY_LADDERS``), A_k =
    a_k ENV_B^(-2t) V_BAR^j, z = s (s - 1 for "ut"), and e^(-(s-c) q) =
    e^(c' q) e^(-z q) with c' = c (c - 1).  Along the rotated ray each
    power is an incomplete Gamma function, q^(alpha-1) Gamma(1-alpha, q z0)
    continued to q < 0 through the sector the rays sweep, and its series
    (DLMF 8.7.3) gives

        int z^(-alpha) e^(-z q) dz = Gamma(1-alpha) q*^(alpha-1)
            - sum_n (-q)^n z0^(1-alpha+n) / (n! (1-alpha+n)),

    q* = |q| e^(-i pi [q < 0]).  A log column, log z z^(-alpha), is minus
    the alpha-derivative.  Since alpha_k - 1 = e + j_k, the sum over k is
    e^(c' q) [q*^e (G0(q) + log q* G1(q)) - P(-q)], two short polynomials
    and one of _RAY_SERIES terms whose coefficients depend on the line
    alone.  Where alpha - 1 lies within _RAY_POLE_GAP of a whole m >= 0,
    e = m + eps, the pole of Gamma(1-alpha) and the vanishing divisor of
    the term n = m are summed as one term (-q)^m/m! Phi(eps), left out
    with the term n = m past the series' end, m >= _RAY_SERIES,

        Phi(eps) = (z0^(-eps) - h(eps) q*^eps) / eps
                 = -S e^(eps T) expm1(-eps S)/(-eps S),

    h = -(-1)^m m! eps Gamma(-m-eps) = e^(eps l(eps)) (``_pole_log``),
    T = log q* + l and S = T + Log z0, so Phi(0) = psi(m+1) - log q*
    - Log z0; a log column takes -Phi'(eps).  At q = 0 the ray is vertical
    and the integral is sum_k A_k z0^(1-alpha_k)/(alpha_k - 1) where every
    alpha_k > 1; elsewhere it diverges (``diverges``) and reads i inf, so
    that the line, Re(win - i ray), reads +inf.  Where e < 0 and q*^e
    passes e^700, below |q| = q_floor, a q reads as q = 0.  The error is
    _RAY_ROUND of the parts' sizes, the Gamma part's times 1 + |e log q*|
    for the rounding of its exponent.  The factor e^env = ENV_B^(-2t) of
    A_k overflows past t = 877, and a_k V_BAR^j near t = 88, so e^env goes
    into the exponents of the terms (``_power_term``) and of sgn Gamma
    e^(env + ln|Gamma|), and a_k multiplies last; pole terms, met only at
    t < 12.5, take e^env as a factor.
    """

    def __init__(self, kind, t, c, a):
        shift, powers, log_col = _RAY_LADDERS[kind]
        self.cq = c - 1.0 if kind == "ut" else c
        z0 = complex(self.cq, _V_CUT)
        self.lz = lz = cmath.log(z0)
        self.e = e = 2.0 * t - 1.0 + shift
        self.diverges = not e > 0.0
        m0 = round(e)
        self.eps = eps = e - m0
        merge = abs(eps) <= _RAY_POLE_GAP
        n = np.arange(_RAY_SERIES)
        g0, g1 = np.zeros((2, _MODEL_K), complex)
        self.p = np.zeros(_RAY_SERIES, complex)
        poles = {}
        at0 = 0j
        env = -2.0 * t * math.log(ENV_B)
        lead = cmath.exp(env - e * lz)
        for k, j in enumerate(powers):
            amp, vj = a[k], _V_BAR ** j
            log = k == log_col
            m = m0 + j if merge and m0 + j >= 0 else -1
            if not self.diverges:
                at0 -= amp * _power_term(lz, vj * lead, -j, -(e + j), log)
            # 1 - alpha + n, with the term n = m left to the pole's term
            terms = _power_term(lz, vj * lead, n - j,
                                np.where(n == m, 1.0, n - (e + j)), log)
            if 0 <= m < _RAY_SERIES:
                terms[m] = 0.0
                # the pole's term is (-q)^m/m! Phi, or -(-q)^m/m! Phi'
                poles.setdefault(m, [0j, 0j])[log] += (
                    (-amp if log else amp) * (vj * math.exp(env) / _FACT[m]))
            elif m < 0:
                # q^j = (-1)^j (-q)^j: G0 and G1 read the powers of -q
                gam = ((-1.0) ** j * gammasgn(-(e + j)) * amp
                       * (vj * math.exp(env + gammaln(-(e + j)))))
                if log:
                    g0[j] += gam * digamma(-(e + j))
                    g1[j] -= gam
                else:
                    g0[j] += gam
            self.p += amp * terms / _FACT
        # q*^e (G0 + log q* G1) = |q|^e (gam_a + log|q| gam_b), whose
        # coefficients take q*^e/|q|^e = e^(-i pi e) and log q* - log|q|
        # = -i pi where q < 0: rows q >= 0, q < 0
        phase = cmath.exp(-1j * math.pi * e)
        self.gam_a = np.array([g0, phase * (g0 - 1j * math.pi * g1)])
        self.gam_b = np.array([g1, phase * g1])
        self.at0 = complex(0.0, math.inf) if self.diverges else at0
        self.q_floor = math.exp(700.0 / e) if e < 0.0 else 0.0
        self.poles = np.array(sorted(poles), dtype=int)
        coef = np.array([poles[m] for m in self.poles], complex).reshape(-1, 2)
        self.pole_pow, self.pole_log = coef.T
        self.ell, self.dell = (np.array([_pole_log(m, eps) for m in
                                         self.poles]).reshape(-1, 2).T)
        self.has_log = log_col is not None

    def __call__(self, q):
        """(values, errors) of the ray integrals at the 1-D q array.

        No complex product is taken in place: numpy rounds one of a
        one-element array in place by another path than an array's, and a
        q's figures would hang on its batch."""
        neg = q < 0.0
        low = np.abs(q) <= self.q_floor
        log_q = np.log(np.where(low, 1.0, np.abs(q)))
        # (-q)^n, n < _RAY_SERIES
        pw = np.empty((q.size, _RAY_SERIES))
        pw[:, 0] = 1.0
        pw[:, 1:] = -q[:, None]
        np.cumprod(pw, axis=1, out=pw)
        head = pw[:, :_MODEL_K]
        sign = neg.view(np.int8)
        gam = (head * self.gam_a[sign]).sum(axis=1)
        if self.has_log:
            gam = gam + log_q * (head * self.gam_b[sign]).sum(axis=1)
        gam = np.exp(self.e * log_q) * gam
        ser = (pw * self.p).sum(axis=1)
        val = gam - ser
        size = (_abs_sum(gam) * (1.0 + abs(self.e) * (np.abs(log_q) + np.pi))
                + _abs_sum(ser))
        if self.poles.size:
            lq = log_q - 1j * np.pi * neg
            pole = self._poles(lq[:, None]) * pw[:, self.poles]
            val = val + pole.sum(axis=1)
            size = size + _abs_sum(pole).sum(axis=1)
        grow = np.exp(self.cq * q)
        val = np.where(low, self.at0, grow * val)
        size = np.where(low, abs(self.at0), grow * size)
        return val, _RAY_ROUND * size

    def _poles(self, lq):
        """pole_pow Phi(eps) + pole_log Phi'(eps) per pole m, (q, poles),
        at log q* lq, (q, 1): Phi from T = lq + l and S = T + Log z0 as
        above, and Phi' = -e^(eps T) (l' E + S (T + eps l') E
        - S (S + eps l') E'), E and E' expm1(x)/x and its derivative at
        x = -eps S."""
        eps = self.eps
        tt = lq + self.ell
        ss = tt + self.lz
        ex = np.exp(eps * tt)
        e0, e1 = _exprel(-eps * ss)
        out = -ss * ex * e0 * self.pole_pow
        if self.has_log:
            d_phi = -ex * (self.dell * e0 + ss * (tt + eps * self.dell) * e0
                           - ss * (ss + eps * self.dell) * e1)
            out += d_phi * self.pole_log
        return out


# ---------------------------------------------------------------------------
# the assembled line
# ---------------------------------------------------------------------------


def _filon_rows(qs):
    """(moms, phases), the Filon rows of a line query, which depend on q
    alone, for the 1-D q array qs: the Filon moments int_{-1}^{1} P_k(tau)
    e^(-i lam tau) dtau = 2 (-i)^k j_k(lam) at lam = _PANEL_HALF q,
    (q, 11), with j_k(x) = sqrt(pi/2x) J_(k+1/2)(x), and the 240 panel
    phases e^(-i q mid), (q, 1, _N_PANEL), the outer product of the 15
    factors e^(-i q _MID_HI) and the 16 factors e^(-i q _MID_LO)."""
    lam = _PANEL_HALF * qs[:, None]
    # the floor keeps j_0(0) = 1
    x = np.maximum(np.abs(lam), 1e-300)
    moms = _LEG_PHASE * jv(_LEG_ORDER, x) * np.sqrt(2.0 * np.pi / x)
    moms = np.where(lam < 0.0, np.conj(moms), moms)
    e_hi = np.exp(-1j * qs[:, None, None] * _MID_HI[:, None])
    e_lo = np.exp(-1j * qs[:, None, None] * _MID_LO)
    return moms, (e_hi * e_lo).reshape(qs.size, 1, _N_PANEL)


def _q_rows(qs, c):
    """(moms, phases, lanes) of the 1-D q array qs on the line at abscissa
    c: ``_filon_rows`` of qs and ``_ray_lanes`` of qs and c, all of a
    query's work that depends on q and c alone.  Arrays of two or more q
    come from the store ``_q_store``; one-point arrays skip it: the point
    route's q seldom repeats, and storing its rows slowed one-q queries."""
    if qs.size < 2:
        return (*_filon_rows(qs), _ray_lanes(qs, c))
    return _q_store(qs.tobytes(), c)


@functools.lru_cache(maxsize=_Q_ARRAYS)
def _q_store(key, c):
    """``_q_rows`` of the q array of bytes key at abscissa c, read-only, for
    the last _Q_ARRAYS pairs used: a profile grid and an l1 norm at a new t
    reuse all five of theirs.  They read no B, so the store is
    module-level; the same bytes give the same rows, so no value moves."""
    qs = np.frombuffer(key)
    lanes = _ray_lanes(qs, c)
    for lane in lanes:
        for arr in lane[2:]:
            _frozen(arr)
    return (*map(_frozen, _filon_rows(qs)), lanes)


@dataclasses.dataclass(frozen=True)
class _LineAssembly:
    """One tabulated and fitted line; shared through ``memo``, so it is
    frozen and its arrays are read-only.

    coeffs      (_N_PANEL, 11) Legendre coefficients of the Filon panels
    model_a     (5,) complex amplitudes of the tail model: ``_tail_model``
                defines its columns, the power or the log ladder of the kind
    fit_resid   max |g - model| on the check window
    err_window  Filon truncation estimate (integral units)

    The closed form of its ray near q = 0 (``ray_series``) is kept on the
    line, and goes with it.
    """

    t: float
    c: float
    kind: str
    coeffs: np.ndarray
    model_a: np.ndarray
    fit_resid: float
    err_window: float

    @functools.cached_property
    def ray_series(self):
        """The closed form of the ray (``_RaySeries``), built on the line's
        first query with a q of |q| |s0| <= 1 and kept with the line."""
        return _RaySeries(self.kind, self.t, self.c, self.model_a)

    def __call__(self, q):
        """((x^-c / pi) Re int_0^inf g(v) e^(-i v q) dv, error) at q = log x.

        q is a scalar or an array; the values and errors take its shape.
        Each q's figures are its own, so the batches of at most _Q_BATCH
        points that bound the temporaries change no value, and a batch's
        work that depends on q alone comes from the store ``_q_store``
        when the same q array was met lately (``_batch``).  Where x^-c
        passes e^_LOG_SCALE_MAX it raises RegimeError.  At q = 0, where the
        ray diverges (``_RaySeries.diverges``), it reads (inf, inf).
        """
        q = np.asarray(q, dtype=float)
        qs = q.ravel()
        if qs.size:
            # x^-c is largest at the least q; one q is read directly, since
            # a reduction costs about 2 us, over 1 % of a one-q query
            _check_scale(-self.c * (qs.min() if qs.size > 1 else qs[0]),
                         f"the {self.kind!r} line")
        val, err = np.empty(qs.shape), np.empty(qs.shape)
        for k in range(0, qs.size, _Q_BATCH):
            val[k:k + _Q_BATCH], err[k:k + _Q_BATCH] = self._batch(
                qs[k:k + _Q_BATCH])
        return val.reshape(q.shape)[()], err.reshape(q.shape)[()]

    def _batch(self, qs):
        """(values, errors) at the q of one pass, a 1-D array.

        Its Filon moments and panel phases and its ray lanes, with their
        prefactors and node factors on block 0, depend on q and c alone
        and come from ``_q_rows``: for a recurring q array, a profile on a
        fixed grid or a repeated panel sweep, from its store.  A new t then
        pays only for its line: the panel sums against this line's
        Legendre coefficients, the ray's samples of its tail model, their
        products with the kept factors, and the sweep past block 0; the q
        next to 0 read the line's closed form of the ray.
        """
        moms, phases, lanes = _q_rows(qs, self.c)
        # sum_p phase_p coeffs_pk: the stacked product makes one
        # (1 x _N_PANEL) @ (_N_PANEL x 11) call per q, so each q is summed
        # the same way whatever the batch and an array call equals the
        # scalar calls exactly; a plain 2-D product may block its rows
        # differently for each batch size
        d = np.matmul(phases, self.coeffs)[:, 0, :]
        win = _PANEL_HALF * (d * moms).sum(axis=-1)
        ray, ray_err = _ray_tail(self, lanes, qs.size)
        err = (self.err_window + ray_err
               + self.fit_resid * _V_CUT / (2.0 * self.t + _MODEL_K - 1.0))
        scale = np.exp(-self.c * qs) / math.pi
        # Re(win - i ray), which a ray of value i inf makes +inf
        return scale * (win.real + ray.imag), scale * err


@memo(48)
def _line_assembly(ev, t, c, kind):
    g = _symbol_line(ev, t, c, kind)
    coeffs = g[_LEG_IDX] @ _LEG_INV.T
    err_window = float(
        (np.abs(coeffs[:, 9]) + np.abs(coeffs[:, 10])).sum() * 2 * _PANEL_HALF
    )

    probe, check = _fit_columns(kind, t, c)
    model_a, *_ = np.linalg.lstsq(probe, g[_FIT_PROBE], rcond=None)
    resid = g[_FIT_CHECK] - check @ model_a
    fit_resid = float(np.abs(resid).max())

    coeffs.flags.writeable = model_a.flags.writeable = False
    return _LineAssembly(t=t, c=c, kind=kind, coeffs=coeffs, model_a=model_a,
                         fit_resid=fit_resid, err_window=err_window)


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
        _check_arg("t", self.t)
        _check_arg("x", self.x)
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
    return _line_assembly(ev, t, _C_DIRECT, "u")(q)


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
    _check_arg("t", t)
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
    _check_arg("t", t)
    _check_arg("x_min", x_min)
    _check_arg("x_max", x_max)
    if not x_max > x_min:
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


# ---------------------------------------------------------------------------
# derivatives and the rescaled kernel
# ---------------------------------------------------------------------------


def eval_dlambda_dt(t, x, evaluator=None):
    """d Lambda / d t via the delay identity dU/dt(t,s) = W(s-1) U(t,s-1).

    The shifted line sits at Re s = 3/2 so the inner symbol is evaluated on
    Re = 1/2, inside the strip.  For t <= 1/2 the tail is only conditionally
    integrable, so x = 1 is refused there.  Where x^-3/2 passes
    e^_LOG_SCALE_MAX (x below about 1e-203) the line raises RegimeError.
    """
    _check_arg("t", t)
    _check_arg("x", x)
    ev = evaluator or default_evaluator()
    if x == 1.0 and t <= 0.5:
        raise RegimeError("dLambda/dt at x = 1 needs t > 1/2")
    return _line_assembly(ev, t, _C_DT, "ut")(math.log(x))[0]


def eval_dlambda_dx(t, x, evaluator=None):
    """d Lambda / d x = -(1/x) (1/2 i pi) int sqrt(2 pi) s U(t,s) x^-s ds.

    The extra factor s slows the tail to v^(1-2t), absolutely integrable
    only for t > 1; smaller t raises RegimeError, and so does an x at
    which the scale x^(-c-1) passes e^_LOG_SCALE_MAX.
    """
    _check_arg("t", t)
    _check_arg("x", x)
    if not t > 1.0:
        raise RegimeError(f"x-derivative line needs t > 1; t={t}")
    q = math.log(x)
    _check_scale(-(_C_DIRECT + 1.0) * q, "the x-derivative line")
    ev = evaluator or default_evaluator()
    val, _ = _line_assembly(ev, t, _C_DIRECT, "su")(q)
    return -val / x


def eval_G(t, x, y, evaluator=None):
    """Green kernel for initial mass at y: G(t, x; y) = Lambda(t/y, x/y)/y.

    Scaling covariance G(a t, a x; a y) = G(t, x; y)/a holds by
    construction and is pinned by tests.
    """
    for name, value in (("t", t), ("x", x), ("y", y)):
        _check_arg(name, value)
    val, _ = _eval_q(t / y, math.log(x / y), "auto",
                     evaluator or default_evaluator())
    return val / y


# ---------------------------------------------------------------------------
# integrals against test functions
# ---------------------------------------------------------------------------


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
