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
symbol is fit on [0.55 V, 0.98 V] and integrated in closed form along a
rotated ray, which keeps the quadrature non-oscillatory for any q.

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
                    remainder line converges absolutely there).
small_t_series      the short-time residue series of ``eval_lambda_series``.

Splitting U at the first zero of B right of the strip gives the exact
long-time decomposition

    Lambda(t, x) = t^(-3) Q1(theta) + Q2(t, theta),    theta = x/t,

    Q1(theta) = c1 (1/2 i pi) int B(s) Gamma(3-s) theta^(-s) ds,
    Q2(t, theta) = (1/2 i pi) int B(s) theta^(-s)
                   (1/2 i pi) int_{Re sigma = 7/2} Gamma(sigma-s) t^(-sigma)
                                                   / B(sigma) dsigma ds,

with c1 = -Res(1/B, 3) = -1/(B(1) W(1) W'(2)) > 0.  Pushing contours across
the residue ladders of B gives the closed small-theta and large-theta laws
pinned by the tests:  Q1(0+) = 2 c1 Res(B, 0),  Q1 ~ (c1 B(5)/2) theta^-5,
Q2(t, 0+) = -6 Res(1/B, 4) Res(B, 0) t^-4,  and
Q2 ~ Res(1/B, 4) B(5) t^-4 theta^-5 = 4 t^-4 theta^-5.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.interpolate import BPoly
from scipy.signal import fftconvolve
from scipy.special import digamma, loggamma, spherical_jn

from wavekin.bfunc import default_evaluator
from wavekin.complexfn import eval_W, locate_W_roots
from wavekin.contour import ContourSpec, TailModel, integrate_vertical
from wavekin.errors import RegimeError, TruncationError
from wavekin.kernels import eval_H
from wavekin.ufunc import ENV_B, SQRT_2PI

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

#: half-width of the core |x-1| < _U_CORE that the integrals take from the
#: near-one law A |x-1|^(2t-1) instead of from panels
_U_CORE = math.exp(-40.0)


def _gamma_t_kernel(a, t, eta):
    """Gamma(a + i eta) * t^(-(a + i eta)) evaluated stably."""
    z = a + 1j * eta
    return np.exp(loggamma(z) - z * math.log(t))


# equispaced nodes tau_j = -1 + j/5 and the inverse of the degree-10
# Legendre interpolation matrix on them (computed once)
_TAU = np.linspace(-1.0, 1.0, 11)
_LEG_INV = np.linalg.inv(legvander(_TAU, 10))
_GL16 = leggauss(16)


def _filon_moments(lam):
    """m_k = int_{-1}^{1} P_k(tau) e^(-i lam tau) dtau for k = 0..10."""
    k = np.arange(11)
    jk = spherical_jn(k, abs(lam))
    m = 2.0 * (-1j) ** k * jk
    if lam < 0.0:
        m = np.conj(m)
    return m


# ---------------------------------------------------------------------------
# symbol values along the line (matched-grid convolution)
# ---------------------------------------------------------------------------


def _line_B(ev, re_line, v):
    interp = ev.line_interpolator(re_line, float(v.min()) - 0.5,
                                  float(v.max()) + 0.5)
    return interp(re_line + 1j * v)


def _conv_core(ev, t, c, beta, kernel_fn):
    """h/(2 pi) * sum_w K(w - v) / B(beta + i w) on the output grid.

    K(eta) = kernel_fn(eta) must decay below ~1e-15 of its peak at
    |eta| = reach; the sum is then a plain trapezoid of the sigma-line
    integral of the U representation, exact to the analyticity width of
    1/B around the beta-line (super-exponentially small error at _H_W).
    """
    reach = _K_HALF * _H_W
    n_w = 2 * _K_HALF + 2 * (_NV - 1) + 1
    w = -reach + _H_W * np.arange(n_w)
    inv_b = 1.0 / _line_B(ev, beta, w)
    eta = _H_W * np.arange(-_K_HALF, _K_HALF + 1)
    ker = kernel_fn(eta)
    full = fftconvolve(inv_b, ker[::-1])
    sel = full[len(ker) - 1: len(ker) - 1 + 2 * (_NV - 1) + 1: 2]
    return (_H_W / (2.0 * math.pi)) * sel


def _symbol_line(ev, t, c, kind):
    """sqrt(2 pi) * Sym(t, c + i v) on the uniform grid v = 0..V.

    kind "u"   Sym = U(t, s)
    kind "du"  Sym = dU/ds (t, s)
    kind "su"  Sym = s U(t, s)
    kind "ut"  Sym = W(s-1) U(t, s-1)     (the time derivative symbol)
    kind "q2"  Sym = U_rem(t, s), the remainder of U after removing the
               residue at the first zero of B (auxiliary line at _BETA2)
    """
    v = _H_V * np.arange(_NV)
    if kind == "ut":
        g1 = _symbol_line(ev, t, c - 1.0, "u")
        return eval_W((c - 1.0) + 1j * v) * g1
    if kind == "su":
        return (c + 1j * v) * _symbol_line(ev, t, c, "u")

    if kind == "q2":
        beta, a = _BETA2, _BETA2 - c
    else:
        beta, a = c + _B_OFF, _B_OFF
    b_line = _line_B(ev, c, v)

    core = _conv_core(ev, t, c, beta, lambda eta: _gamma_t_kernel(a, t, eta))
    if kind in ("u", "q2"):
        return b_line * core

    if kind == "du":
        core2 = _conv_core(
            ev, t, c, beta,
            lambda eta: (math.log(t) - digamma(a + 1j * eta))
            * _gamma_t_kernel(a, t, eta),
        )
        # B'/B on the line by a 4th-order stencil on the interpolant
        h = 1e-3
        interp = ev.line_interpolator(c, -0.2, _V_CUT + 0.2)

        def bb(dv):
            return interp(c + 1j * (v + dv))

        db_dv = (8.0 * (bb(h) - bb(-h)) - (bb(2 * h) - bb(-2 * h))) / (12 * h)
        b_prime = -1j * db_dv
        return b_prime * core + b_line * core2
    raise ValueError(f"unknown symbol kind {kind!r}")


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
        return np.column_stack(fams)

    return cols


def _ray_tail(F, s0, q, c, rel_tol=1e-10, max_panels=480):
    """int_{s0}^{s0 + i inf} F(s) e^(-(s-c) q) ds along a rotated ray.

    The contour is rotated to arg = pi/4 (q > 0), 3 pi/4 (q < 0) or kept
    vertical (q = 0); F must be analytic and decaying in the swept sector,
    which holds for the power-model basis.  Geometrically growing panels
    with 16-point Gauss rules; stops once three consecutive panels fall
    below rel_tol of the accumulated value.
    """
    if q > 0.0:
        phi = 0.25 * math.pi
    elif q < 0.0:
        phi = 0.75 * math.pi
    else:
        phi = 0.5 * math.pi
    dirn = complex(math.cos(phi), math.sin(phi))
    xg, wg = _GL16
    total = 0.0 + 0.0j
    err = 0.0
    stall = 0
    r_lo = 0.0
    r_len = max(2.0, abs(s0) / 32.0)
    for _ in range(max_panels):
        r = r_lo + 0.5 * r_len * (xg + 1.0)
        s = s0 + dirn * r
        vals = F(s) * np.exp(-(s - c) * q) * dirn
        piece = 0.5 * r_len * np.dot(wg, vals)
        total += piece
        scale = max(abs(total), 1e-300)
        if abs(piece) < rel_tol * scale:
            stall += 1
            if stall >= 3:
                return total, abs(piece) + rel_tol * scale
        else:
            stall = 0
        err = abs(piece)
        r_lo += r_len
        r_len *= 2.0
    return total, err + rel_tol * max(abs(total), 1e-300)


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

    def line_value(self, q):
        """(window + tail, error) of int_0^inf g(v) e^(-i v q) dv, q = log x."""
        lam = _PANEL_HALF * q
        moms = _filon_moments(lam)
        phases = np.exp(-1j * q * self.mids)
        win = _PANEL_HALF * np.dot(phases, self.coeffs @ moms)
        s0 = self.c + 1j * _V_CUT

        def model(s):
            return self.basis(s) @ self.model_a

        ray, ray_err = _ray_tail(model, s0, q, self.c)
        tail = -1j * ray
        err = (self.err_window + ray_err
               + self.fit_resid * _V_CUT / (2.0 * self.t + _MODEL_K - 1.0))
        return win + tail, err

    def assemble(self, x):
        """((x^-c / pi) Re[...], error) -- the folded line integral."""
        return self.assemble_q(math.log(x))

    def assemble_q(self, q):
        """Same as assemble, taking the log coordinate q = log x."""
        val, err = self.line_value(q)
        scale = math.exp(-self.c * q) / math.pi
        return scale * val.real, scale * err


@functools.lru_cache(maxsize=48)
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


def _eval_q(t, q, regime, ev):
    """(Lambda, error) at x = e^q by the named regime; x = 1 is q = 0."""
    if regime in ("auto", "direct"):
        if q == 0.0 and t <= 0.5:
            # Lambda ~ A |x-1|^(2t-1) does not stay bounded at x = 1
            return math.inf, math.inf
        return _line_assembly(ev, t, _C_DIRECT, "u").assemble_q(q)
    if regime == "log_regularized":
        if q == 0.0:
            raise RegimeError("log regularization divides by log x; x=1")
        if t > _T_LOGREG_MAX:
            raise RegimeError(
                f"log-regularized line is kept to t <= {_T_LOGREG_MAX}; "
                f"use direct for t={t}")
        val, err = _line_assembly(ev, t, _C_DIRECT, "du").assemble_q(q)
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
        return _series_with_error(t, math.exp(q), 4, ev)
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


def radial_profile(t, x_min, x_max, n_points, regime="auto", evaluator=None):
    """Lambda(t, .) on a geometric grid, sharing one line tabulation."""
    if not (x_min > 0.0 and x_max > x_min):
        raise ValueError("need 0 < x_min < x_max")
    if n_points < 2:
        raise ValueError("need at least two points")
    ev = evaluator or default_evaluator()
    grid = np.geomspace(x_min, x_max, int(n_points))
    vals = np.array(
        [_eval_q(t, math.log(x), regime, ev)[0] for x in grid])
    return RadialProfile(grid=grid, values=vals, t_stamp=float(t))


# ---------------------------------------------------------------------------
# long-time decomposition
# ---------------------------------------------------------------------------


def _q1_with_error(theta, ev):
    led = ev.derived_constants()
    c1 = led.c1.real
    lt = math.log(theta)

    def f(s):
        return c1 * ev.eval_B_many(s) * np.exp(loggamma(3.0 - s) - s * lt)

    spec = ContourSpec(abscissa=1.5, half_height=48.0,
                       rel_tol=1e-11, abs_tol=1e-16)
    res = integrate_vertical(f, spec, tail=TailModel("exp", 1.35),
                             osc_freq=abs(lt))
    val = res.value / (2j * math.pi)
    return val.real, res.error_estimate / (2 * math.pi) + res.truncation_tail


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
    asm = _line_assembly(ev, t, _C_DIRECT, "q2")
    return asm.assemble(t * theta)


def eval_Q2(t, theta, evaluator=None):
    """Remainder of the long-time decomposition at theta = x/t.

    Q2(t, 0+) -> c2_line t^-4 with c2_line = -6 Res(1/B, 4) Res(B, 0) < 0,
    and Q2 ~ 4 t^-4 theta^-5 for large theta.  The remainder line sits at
    Re sigma = 7/2, so absolute convergence needs t > 1.
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
    """Residues of B and 1/B feeding the short-time series (lazy, cached)."""

    def __init__(self, ev):
        self.ev = ev
        self.res_b = {0: complex(ev.residue_B(0.0)).real,
                      -1: complex(ev.residue_B(-1.0)).real}
        for m in range(9, 13):
            self.res_b[m] = complex(ev.residue_B(float(m))).real
        self.rho = {}
        for n in range(6, 15):
            # the resonance ladder puts a zero of 1/B at about -n - 0.0457,
            # so the residue circle must stay well inside that gap
            self.rho[-n] = complex(
                ev.residue_inv_B(-float(n), radius=0.02)).real
        # zeros of B between the first pole at 9 and the contour cut at
        # 12.8: each root sigma of W seeds the ladder sigma + 1 + j
        self.casc = []
        for sig in locate_W_roots(2).w_zeros_pos:
            z = sig + 1.0
            while z + 0.5 < 12.8:
                if z > 8.0:
                    rho_z = complex(
                        ev.residue_inv_B(z, radius=0.02)).real
                    self.casc.append((z, rho_z))
                z += 1.0
        self.casc.sort()
        self.b_cache = {}

    def B(self, k):
        val = self.b_cache.get(k)
        if val is None:
            val = complex(self.ev.eval_B(float(k))).real
            self.b_cache[k] = val
        return val


@functools.lru_cache(maxsize=8)
def _series_constants(ev):
    return _SeriesConstants(ev)


@functools.lru_cache(maxsize=256)
def _nu_hat(m, t, ev):
    """(1/2 i pi) int_{Re w = m - 1/2} Gamma(w - m) t^(-w) / B(w) dw.

    The line sits just left of the pole of B at w = m, so the value
    resums the whole Gamma ladder below it -- including the collision
    points w = 3, 4 where Gamma poles meet zeros of B and the power form
    of the terms would break down.  Returns (value, error).
    """
    lt = math.log(t)

    def f(w):
        return np.exp(loggamma(w - m) - w * lt) / ev.eval_B_many(w)

    spec = ContourSpec(abscissa=m - 0.5, half_height=48.0,
                       rel_tol=1e-11, abs_tol=1e-18)
    res = integrate_vertical(f, spec, tail=TailModel("exp", 1.35),
                             osc_freq=abs(lt))
    return ((res.value / (2j * math.pi)).real,
            (res.error_estimate + res.truncation_tail) / (2.0 * math.pi))


def _h_casc(z, theta, ev):
    """(1/2 i pi) int_{Re w = -1/2} Gamma(w) theta^w B(z - w) dw.

    Profile of the resonance-zero family at z: every term of its Gamma
    ladder vanishes (B(z + k) is again a zero), so the function decays
    faster than any power of 1/theta and only the line value captures
    it.  Returns (value, error).
    """
    lth = math.log(theta)

    def f(w):
        return np.exp(loggamma(w) + w * lth) * ev.eval_B_many(z - w)

    spec = ContourSpec(abscissa=-0.5, half_height=48.0,
                       rel_tol=1e-11, abs_tol=1e-18)
    res = integrate_vertical(f, spec, tail=TailModel("exp", 1.35),
                             osc_freq=abs(lth))
    return ((res.value / (2j * math.pi)).real,
            (res.error_estimate + res.truncation_tail) / (2.0 * math.pi))


def _series_g_plus(k, x, sc):
    """G_k for x > 1: the zero families of B at 3 and 4, pushed right.

    The pole ladder of B at m >= 9 is handled exactly by ``_nu_hat`` and
    must not reappear here.
    """
    return -(sc.rho.get(3) * sc.B(3 + k) * x ** -3
             + sc.rho.get(4) * sc.B(4 + k) * x ** -4)


def _series_g_minus(k, x, sc):
    """G_k for x < 1 (contour pushed left)."""
    out = sc.res_b[-1] * x ** (k + 1) / sc.B(-k - 1)
    if k >= 2:  # for k = 1 the factor 1/B(-1) vanishes at the pole of B
        out += sc.res_b[0] * x ** k / sc.B(-k)
    for n in range(6, k + 6):
        out += sc.rho[-n] * sc.B(k - n) * x ** n
    return out


def _series_with_error(t, x, n_terms, ev):
    if not 0.0 < t < 1.0:
        raise RegimeError(f"short-time series needs 0 < t < 1; t={t}")
    theta = x / t
    if not theta > 1.0:
        raise RegimeError(f"short-time series needs x/t > 1; x/t={theta}")
    if abs(x - 1.0) < 0.1:
        raise RegimeError(
            "the pushed-contour remainders do not vanish near x = 1; "
            f"|x-1|={abs(x - 1.0):.3g} < 0.1")
    n_terms = int(n_terms)
    if not 1 <= n_terms <= 4:
        raise ValueError(
            "n_terms must be 1..4: at order 5 the pushed contour meets a "
            "double singularity (pole of B against a zero of B) and the "
            "power form of the terms breaks down")
    sc = _series_constants(ev)
    # augment rho(3), rho(4) without re-measuring: rho4 from the ledger,
    # rho3 = -c1 by definition of c1
    led = ev.derived_constants()
    sc.rho[3] = led.c1.real * -1.0
    sc.rho[4] = led.rho4.real

    total = 0.0
    first = 0.0
    prev = math.inf
    last = 0.0
    for k in range(1, n_terms + 1):
        gk = (_series_g_plus(k, x, sc) if x > 1.0
              else _series_g_minus(k, x, sc))
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
        prev = max(abs(term), 1e-300)
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
        if n_terms < 4:
            gk1 = _series_g_plus(n_terms + 1, x, sc)
            k_err = abs(gk1) * theta ** -(n_terms + 1) / math.factorial(
                n_terms + 1)
        else:
            # at order 5 the family at 4 meets the pole of B at 9, so only
            # the family at 3 contributes a clean next term
            k_err = (abs(sc.rho[3] * sc.B(8)) * x ** -3 * theta ** -5
                     / 120.0)
        # families beyond the contour cut at Re s = 12.8: the first of
        # them measures ~ 0.4 x^-13 against line-integral references
        err = k_err + quad_err + 0.45 * x ** -12.8
    else:
        # the left push stops before the resonance-pole ladder of B below
        # -5; those families are not resummed and bound the error (the
        # coefficient is calibrated against line-integral references)
        if n_terms < 4:
            gk1 = _series_g_minus(n_terms + 1, x, sc)
            k_err = abs(gk1) * theta ** -(n_terms + 1) / math.factorial(
                n_terms + 1)
        else:
            k_err = last * last / max(prev, 1e-300) if last else 0.0
            k_err = max(k_err, last * theta ** -1)
        err = k_err + 2.0 * x ** 8 * t
    return total, err


def eval_lambda_series(t, x, n_terms=4, evaluator=None):
    """Short-time residue expansion of Lambda at theta = x/t > 1.

    For x > 1 the inverse-Mellin contour is pushed right to Re s = 12.8,
    crossing three kinds of structure: the zero families of B at 3 and 4
    (a power ladder in theta^-1, truncated at ``n_terms``), the pole
    ladder of B at m = 9..12 (resummed exactly by the ``_nu_hat`` line
    integrals), and the resonance zeros of B between 8 and 12.3 (the
    ``_h_casc`` profile terms, which decay faster than any power).  The
    first family beyond the cut, near x^-13, sets the error floor.  For
    x < 1 the contour moves left across the poles of B at 0 and -1 and
    its negative zero ladder, giving the power form of
    ``_series_g_minus``; the resonance-pole families below -5 are not
    resummed and enter the error estimate instead.  Valid for 0 < t < 1,
    x/t > 1 and x away from 1; see the errors raised otherwise.
    """
    ev = evaluator or default_evaluator()
    return _series_with_error(t, x, n_terms, ev)[0]


def eval_mu(t, evaluator=None):
    """Optimally truncated ladder series mu(t) = sum_n Res(1/B, -n) t^n.

    The residues grow super-geometrically (ratios ~ -W(n+3)), so the series
    is asymptotic only; returns (value, bound) where bound is the first
    omitted term, the best achievable accuracy at this t.
    """
    if not 0.0 < t < 1.0:
        raise RegimeError(f"ladder series is asymptotic for 0 < t < 1; t={t}")
    sc = _series_constants(evaluator or default_evaluator())
    terms = [sc.rho[-n] * t ** n for n in range(6, 15)]
    total = 0.0
    for i, term in enumerate(terms):
        if i > 0 and abs(term) >= abs(terms[i - 1]):
            return total, abs(term)
        total += term
    raise TruncationError(
        f"ladder series still decreasing at the last tabulated residue; "
        f"extend the residue table for t={t}")


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
    asm = _line_assembly(ev, t, _C_DT, "ut")
    return asm.assemble(x)[0]


def eval_dlambda_dx(t, x, evaluator=None):
    """d Lambda / d x = -(1/x) (1/2 i pi) int sqrt(2 pi) s U(t,s) x^-s ds.

    The extra factor s slows the tail to v^(1-2t), absolutely integrable
    only for t > 1; smaller t raises RegimeError.
    """
    if not t > 1.0:
        raise RegimeError(f"x-derivative line needs t > 1; t={t}")
    ev = evaluator or default_evaluator()
    asm = _line_assembly(ev, t, _C_DIRECT, "su")
    val, _ = asm.assemble(x)
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
        stack = np.column_stack([values, d1, d2])
        self._poly = BPoly.from_derivatives(xs, stack)
        self._dpoly = self._poly.derivative()

    @classmethod
    def bump(cls, lo, hi, n=25, height=1.0):
        """The standard C^infinity bump exp(-1/(1-u^2)) scaled to [lo, hi]."""
        if not hi > lo:
            raise ValueError("need hi > lo")
        u = np.linspace(-1.0, 1.0, int(n))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs = mid + half * u
        w = 1.0 - u ** 2
        inside = w > 0.0
        ui, wi = u[inside], w[inside]
        f, du, ddu = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
        f[inside] = height * math.e * np.exp(-1.0 / wi)  # peak 1 * height
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


def _adaptive_abs_panels(f, a, b, rel_tol=1e-7, max_depth=28,
                         absolute=False):
    """Adaptive Gauss panels of f on [a, b]; f maps arrays to arrays.

    Compares 12- and 6-point rules per panel and bisects the worst until
    the summed discrepancy is below rel_tol of the accumulated integral.
    With absolute=True integrates |f|.
    """
    x12, w12 = leggauss(12)
    x6, w6 = leggauss(6)

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f12 = f(mid + half * x12)
        f6 = f(mid + half * x6)
        if absolute:
            f12, f6 = np.abs(f12), np.abs(f6)
        v12 = half * np.dot(w12, f12)
        v6 = half * np.dot(w6, f6)
        return v12, abs(v12 - v6)

    segs = [(a, b, *panel(a, b), 0)]
    for _ in range(4000):
        total = sum(s[2] for s in segs)
        err = sum(s[3] for s in segs)
        if err <= rel_tol * max(abs(total), 1e-300):
            return total, err
        worst = max(range(len(segs)), key=lambda i: segs[i][3])
        lo, hi, _, _, depth = segs.pop(worst)
        if depth >= max_depth:
            segs.append((lo, hi, *panel(lo, hi), depth))
            break
        mid = 0.5 * (lo + hi)
        segs.append((lo, mid, *panel(lo, mid), depth + 1))
        segs.append((mid, hi, *panel(mid, hi), depth + 1))
    total = sum(s[2] for s in segs)
    return total, sum(s[3] for s in segs)


def _bulk_values(t, taus, ev):
    """Lambda(t, e^tau) on an array of tau = log x, one shared tabulation.

    Taking tau rather than x keeps the core edges |tau| ~ 4e-18 apart from
    tau = 0, where exp(tau) already rounds to 1.
    """
    asm = _line_assembly(ev, t, _C_DIRECT, "u")
    return np.array([asm.assemble_q(float(tau))[0] for tau in taus])


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
    edges = _bulk_values(t, (math.log1p(u_c), math.log1p(-u_c)), ev)
    return 0.5 * edges.sum() * u_c / t


def l1_norm_lambda(t, rel_tol=1e-6, evaluator=None):
    """int_0^inf |Lambda(t, x)| dx.

    The core |x-1| < exp(-40) takes its mass from the near-one law
    A |x-1|^(2t-1), with the amplitude A read off the direct line at the
    core edges (see ``_core_mass``); outside, adaptive panels in log x ride
    the same line tabulation, for every t > 0.  The x-range grows until the
    outermost panels are negligible: Lambda tends to a constant at x = 0+
    and decays like x^-5 at infinity, so both ends close quickly.
    """
    ev = evaluator or default_evaluator()

    def f_abs(tau):
        return _bulk_values(t, tau, ev) * np.exp(tau)

    total = abs(_core_mass(t, ev))
    err = 0.0
    u_c = _U_CORE
    # panels in tau = log x, refined toward both sides of the core
    breaks = [math.log1p(-u_c)]
    u = u_c
    while u < 0.4:
        u *= 4.0
        breaks.append(math.log1p(-min(u, 0.4)))
    left_inner = breaks[::-1]
    breaks = [math.log1p(u_c)]
    u = u_c
    while u < 0.4:
        u *= 4.0
        breaks.append(math.log1p(min(u, 0.4)))
    right_inner = breaks
    for lo, hi in zip(left_inner[:-1], left_inner[1:]):
        v, e = _adaptive_abs_panels(f_abs, lo, hi, rel_tol, absolute=True)
        total += v
        err += e
    for lo, hi in zip(right_inner[:-1], right_inner[1:]):
        v, e = _adaptive_abs_panels(f_abs, lo, hi, rel_tol, absolute=True)
        total += v
        err += e
    # outward extension, one e-fold at a time until negligible
    lo = left_inner[0]
    for _ in range(60):
        v, e = _adaptive_abs_panels(f_abs, lo - 1.0, lo, rel_tol, absolute=True)
        total += v
        err += e
        lo -= 1.0
        if v < rel_tol * total:
            break
    hi = right_inner[-1]
    for _ in range(60):
        v, e = _adaptive_abs_panels(f_abs, hi, hi + 1.0, rel_tol, absolute=True)
        total += v
        err += e
        hi += 1.0
        if v < rel_tol * total:
            break
    return total


def delta_pairing(t, phi, rel_tol=1e-7, evaluator=None):
    """<Lambda(t, .), phi> = int Lambda(t, x) phi(x) dx; phi a TestFunction.

    At t = 0 the fundamental solution is the unit mass at x = 1, so the
    pairing is exactly phi(1).  For t > 0 the core |x-1| < exp(-40)
    carries phi(1) times the near-one mass of ``_core_mass`` and the rest
    is adaptive panel quadrature in log x over supp phi, on the direct line.
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

    def f(tau):
        x = np.exp(tau)
        return _bulk_values(t, tau, ev) * phi(x) * x

    for a, b in pieces:
        if b <= a:
            continue
        marks = _tau_marks(a, b)
        for p, r in zip(marks[:-1], marks[1:]):
            v, _ = _adaptive_abs_panels(f, p, r, rel_tol)
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


def transport_apply(phi, x, rel_tol=1e-9):
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

    marks = [r_lo, r_hi]
    if r_lo < 1.0 < r_hi:
        # H has an integrable kink at r = 1; pinch the panels toward it
        for d in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
            marks += [1.0 - d, 1.0 + d]
    marks = sorted(m for m in set(marks) if r_lo <= m <= r_hi)
    total = 0.0
    for a, b in zip(marks[:-1], marks[1:]):
        v, _ = _adaptive_abs_panels(f, a, b, rel_tol)
        total += v
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
    xg, wg = leggauss(6)
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
        for tj, wj in zip(mid + half * xg, half * wg):
            ap, av = a_t.deriv(tj), a_t(tj)

            def f(tau):
                x = np.exp(tau)
                lam = _bulk_values(tj, tau, ev)
                inner = ap * b_x(x) - av * np.array([tb(xx) for xx in x])
                return lam * inner * x

            v, e = _adaptive_abs_panels(f, math.log(x_lo), math.log(x_hi),
                                        rel_tol)
            total += wj * v
            budget += abs(wj) * (e + rel_tol * abs(v))
    return total, budget
