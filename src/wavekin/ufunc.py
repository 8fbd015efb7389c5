"""Evolution symbol U(t, s) and its Laplace transform V(z, s).

U solves the delay equation d/dt U(t, s) = W(s-1) U(t, s-1) with
U(0, s) = 1/sqrt(2 pi), and is realized as a vertical-line integral

    U(t, s) = B(s)/sqrt(2 pi) * (1/2 i pi)
              * int_{Re sigma = beta} t^(-(sigma-s)) Gamma(sigma-s) / B(sigma) dsigma

with beta in (Re s, 2).  Pulling the line left across the Gamma poles at
sigma = s - m yields the small-time twin representation

    U(t, s) = (1/sqrt(2 pi)) sum_{m < Re s - beta'} t^m/m! prod_{j<=m} W(s-j)
              + B(s)/sqrt(2 pi) * (1/2 i pi) * int_{Re sigma = beta'} (...)

with beta' in (0, Re s); each crossed pole contributes a *positive* Taylor
term (residue of Gamma at -m is (-1)^m/m!, and B(s)/B(s-m) telescopes to
prod_j (-W(s-j)) through the functional equation).  The two routes agree to
machine precision; the sign of the correction integral is plus.

V is the Laplace transform of U in t.  Transforming the line integral
termwise with int_0^inf e^(-zt) t^(-a) dt = Gamma(1-a) z^(a-1) and the
reflection formula gives

    V(z, s) = B(s)/(sqrt(2 pi) z)
              * int_{Re sigma = beta} e^((sigma-s) log(-z))
                / (B(sigma) (1 - e^(2 i pi (s - sigma)))) dsigma

with beta in (Re s, Re s + 1) and log(-z) = log|z| + i (Arg z - pi), i.e.
the branch with arg(-z) in (-2 pi, 0].  The reflection formula's 2 i pi
cancels the 1/(2 i pi) of the inverse transform, so no such prefactor
remains.  Any other branch or line placement breaks either the decay of
the integrand or the numerical Laplace identity, both of which are pinned
by tests.

Line abscissae
--------------
The default lines of ``eval_U``, ``eval_dU_ds``, ``eval_U_line``,
``eval_U_small_t`` and ``eval_V`` sit on a grid of 0.1 (``_on_grid``):
U does not depend on the line, and B lines are kept per abscissa, so ops
at nearby Re s read the same blocks of B.  A grid point must keep at least
_GRID_KEEP of the default's distance to the poles that bound its
interval; where none does the default stays.  At Re s > 1 ``eval_U_line``
and ``eval_dU_ds`` move their line across the Gamma pole at sigma = s
instead (``_lattice_line``), to the grid point near Re s - 1/2 in
(Re s - 1, Re s), wherever that line is farther from its nearer pole
(sigma = s or s - 1) than ``_default_beta``'s line is from sigma = s;
crossing the pole adds its residue 1/B(s) to the integral, so
U = (1 + B(s) I)/sqrt(2 pi).  To the integral with the kernel
[log t - psi(sigma - s)] of dU/ds it adds -B'(s)/B(s)^2 (a double pole
times 1/B), and in dU/ds = (B'(s) I + B(s) I')/sqrt(2 pi) the two
residues cancel.  Every default abscissa of ``eval_U_line`` and
``eval_dU_ds`` is on the grid.

Sigma-lattice rule
------------------
Both integrals have the form (1/2 pi) int K(w - Im s) / B(beta + i w) dw
with a kernel K that depends on sigma - s only.  ``eval_U_line``,
``eval_dU_ds`` and ``eval_V`` evaluate them by one trapezoid rule on a
uniform lattice in w (``_lattice_rule``): 1/B is sampled once from the
evaluator's line interpolant, so one lattice serves every s of a line,
every z, and both of dU/ds's integrals, one kernel row each.  When
the Im s of a line are lattice nodes m steps apart, the samples are
correlated with the kernel by one FFT (``bfunc._fft_correlate``, a
scipy.fft correlation), which computes every m-th shift alone: the
outputs at the Im s; otherwise (one s, many z or kernels, or a line denser
than the lattice) each output is one row of a kernel matrix times the
samples.
The rule converges
geometrically in the strip of analyticity about the line, with error about
e^(-2 pi d/h) for a pole at distance d (Trefethen & Weideman, SIAM Rev. 56,
2014); here d is the distance from the line to the Gamma pole at
sigma = s (for U right of that pole), to the nearer of the poles at
sigma = s and s - 1 (for U's left line, d about 1/2) or to the nearer
pole of the reflection kernel (for V).
h starts below pi d / 40, where even the 2h rule on the even nodes is
exact to rounding, and the two rules are compared at every output: h
halves, at most three times, while they differ by more than the tolerance
or the rounding floor 10 eps (h/2 pi) sum |terms|.  The tolerance is
relative to the integral plus the residue of a crossed pole, so it
applies to U itself, not to the shifted integral.  The reported error
is the h-vs-2h difference plus the truncation tail plus that floor.
Only ``eval_U`` and ``eval_U_small_t`` keep the adaptive
``integrate_vertical``, through one line integral
(``_gamma_line_integral``): they are the independent oracles of the
lattice rule.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from wavekin.bfunc import (BranchError, _fft_correlate, _k_plus,
                           default_evaluator)
from wavekin.complexfn import EULER, digamma, eval_W, log_gamma
from wavekin.contour import ContourSpec, TailModel, integrate_vertical
from wavekin.errors import ConvergenceError, RegimeError

__all__ = [
    "SymbolSample",
    "eval_U",
    "eval_U_small_t",
    "eval_U_line",
    "eval_dU_ds",
    "eval_V",
    "laplace_inverse_U",
    "taylor_terms",
    "envelope",
    "ENV_B",
    "SQRT_2PI",
    "INV_SQRT_2PI",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI

#: Decay scale of |U(t, s)| in s: |U| <= C * exp(-2 t log|ENV_B * s|).
ENV_B = math.exp(EULER / 2.0) / 2.0

# Half-height of the sigma-window around Im s.  The integrand carries
# Gamma(sigma - s) ~ e^(-pi |v - Im s| / 2), so the truncated tail at 26
# is ~1e-17 relative to the peak.
_HALF_HEIGHT = 26.0
# Relative tolerance of the adaptive oracle line integrals, and of the
# h-vs-2h check of ``eval_U_line``.
_ORACLE_TOL = 1e-10
_LINE_TOL = 1e-9
# Half-height of ``eval_V``'s window around Im s.
_V_HALF_HEIGHT = 34.0
# Taylor terms of U that ``laplace_inverse_U`` inverts in closed form.
_N_SUBTRACT = 5
# Reported-tail rate: slightly under pi/2 to stay conservative against
# the polynomial prefactor of |Gamma| and the slow growth of 1/|B|.
_TAIL_RATE = 0.9 * math.pi / 2.0
# Minimum distance from a shifted line to a crossed Gamma pole.
_POLE_MARGIN = 0.05
# The lattice rules start from a step below pi d / _H_DIV, d the distance
# from the line to the nearest pole of the integrand; the 2h rule's error,
# about e^(-pi d / h) = e^(-40) of the pole's residue, is then below
# rounding.  h halves at most _LINE_REFINEMENTS times.
_H_DIV = 40.0
_LINE_REFINEMENTS = 3
# Rounding floor of a lattice sum, per unit of (h/2 pi) sum |terms|.
_ROUND_FLOOR = 10.0 * np.finfo(float).eps
# Default line abscissae sit on a grid of 1/_GRID, so that ops at nearby
# Re s read one B line; a grid point keeps at least _GRID_KEEP of the
# default's distance to the poles, or the default stays.
_GRID = 10
_GRID_KEEP = 0.75
# Lattice nodes one rule may use (a line too close to a pole needs more),
# and the kernel-matrix entries one block of the row form holds.
_MAX_NODES = 2 ** 20
_ROW_ENTRIES = 2 ** 19


@dataclasses.dataclass(frozen=True)
class SymbolSample:
    """One evaluation of the evolution symbol.

    value is U(t, s); err is a non-negative bound combining the
    quadrature error estimate and the reported truncation tail.
    """

    t: float
    s: complex
    value: complex
    err: float

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if not self.err >= 0.0:
            raise ValueError(f"err must be >= 0, got {self.err}")
        if not 0.0 < complex(self.s).real < 2.0:
            raise ValueError(f"Re s must lie in (0, 2), got {self.s}")
        if self.t == 0.0 and self.value != INV_SQRT_2PI:
            raise ValueError("at t = 0 the symbol is exactly 1/sqrt(2 pi)")


def _validate_s(s):
    s = complex(s)
    if not 0.0 < s.real < 2.0:
        raise ValueError(f"Re s must lie in (0, 2), got {s}")
    return s


def _on_grid(default, lo, hi, poles):
    """default moved to the nearer point of the 1/_GRID grid in (lo, hi)
    that keeps at least _GRID_KEEP of default's distance to the poles (the
    farther grid neighbour if the nearer does not); default itself where
    neither does."""
    def dist(x):
        return min(abs(x - p) for p in poles)

    need = _GRID_KEEP * dist(default)
    k = default * _GRID
    for n in sorted((math.floor(k), math.ceil(k)), key=lambda n: abs(n - k)):
        x = n / _GRID
        if lo < x < hi and dist(x) >= need:
            return x
    return default


def _pole_gap(re, beta):
    """The distance from the left line Re sigma = beta to the nearest pole
    line Re s - m of Gamma(sigma - s) it crosses or next lies right of."""
    return min(abs(re - m - beta)
               for m in range(math.ceil(re - beta) + 1))


def _small_t_beta(re):
    """The default line of ``eval_U_small_t`` at Re s = re: Re s / 2 on the
    0.1 grid (``_on_grid``).  Where that lies within _POLE_MARGIN of a pole
    line (Re s > 1.95, where Re s / 2 nears Re s - 1, and Re s < 0.1), the
    grid point of (0, Re s) nearest Re s / 2 that keeps the margin, or, if
    none does, the middle of (0, Re s - _POLE_MARGIN).  RegimeError at
    Re s <= _POLE_MARGIN, where no line in (0, Re s) keeps it."""
    beta = _on_grid(0.5 * re, 0.0, re, (0.0, re, re - 1.0))
    if _pole_gap(re, beta) >= _POLE_MARGIN:
        return beta
    grid = sorted((k / _GRID for k in range(1, math.ceil(re * _GRID))),
                  key=lambda x: abs(x - 0.5 * re))
    for beta in grid:
        if _pole_gap(re, beta) >= _POLE_MARGIN:
            return beta
    if re <= _POLE_MARGIN:
        raise RegimeError(
            f"no left line in (0, Re s) keeps {_POLE_MARGIN} from the pole "
            f"line Re s = {re}")
    return 0.5 * (re - _POLE_MARGIN)


def _default_beta(s):
    """Line abscissa for the direct representation, inside (Re s, 2): the
    grid point near min(Re s + 0.7, (Re s + 2)/2) (``_on_grid``)."""
    if s.real >= 2.0 - 1e-6:
        raise ValueError(
            f"no admissible line: (Re s, 2) is empty at Re s = {s.real}"
        )
    return _on_grid(min(s.real + 0.7, 0.5 * (s.real + 2.0)), s.real, 2.0,
                    (s.real, 2.0))


def _lattice_line(s):
    """(beta, crossed): the default line of ``eval_U_line`` and
    ``eval_dU_ds``.

    ``_default_beta``'s line, d = beta - Re s from the Gamma pole at
    sigma = s; or at Re s > 1 the left line of the module docstring, on
    the 0.1 grid in (Re s - 1, Re s) with d = min(Re s - beta',
    beta' - Re s + 1), wherever that d is the larger (crossed).
    """
    beta = _default_beta(s)
    if s.real > 1.0:
        left = _on_grid(s.real - 0.5, s.real - 1.0, s.real,
                        (s.real - 1.0, s.real))
        if min(s.real - left, left - s.real + 1.0) > beta - s.real:
            return left, True
    return beta, False


def _gamma_t_kernel(a, t, eta):
    """Gamma(a + i eta) * t^(-(a + i eta)) evaluated stably."""
    z = a + 1j * eta
    return np.exp(log_gamma(z) - z * math.log(t))


def _lattice_rule(ev, beta, y, kernel, n_rows, d, reach, rel_tol, abs_tol,
                  tail_rate, residue=0.0):
    """(1/2 pi) int K_r(w - y_k) / B(beta + i w) dw for r < n_rows, every k.

    The sigma-lattice trapezoid rule of the module docstring.  kernel(eta,
    r) returns the rows K_{r_i}(eta[i]), shape (len(r), N), for n kernel
    indices r and an (n, N) array eta, or a (1, N) one that every row
    shares; each K_r is analytic within d of the real eta axis and
    decays at tail_rate (a scalar or one rate per kernel) beyond
    |eta| = reach.  The step starts at h0 = pi d / _H_DIV, and the rule
    takes one of two forms:

    - on nodes: y holds several Im s, equispaced with a step Delta of at
      least 2 h0.  Then h = Delta/m with the least even m, every y_k is a
      lattice node, the 2h rule uses the even nodes counted from y_k, and
      one batched FFT correlation of both rules' kernel rows
      (``bfunc._fft_correlate`` at stride m) gives every output, and a
      second one of their absolute values the rounding floor;
    - by rows: one y, or a line denser than that.  One lattice covers
      [min y - reach, max y + reach], every output (r, k) is the row
      K_r(w - y_k) of a kernel matrix times the samples of 1/B, the 2h
      rule uses the even lattice nodes, and the rows are taken in blocks
      of at most _ROW_ENTRIES matrix entries.

    h halves, at most _LINE_REFINEMENTS times, until |T_h - T_2h| <=
    max(rel_tol |T_h + residue|, abs_tol, floor) at every output, where
    residue (per y_k) is what a crossed pole adds to the integral and the
    rounding floor is _ROUND_FLOOR * (h/2 pi) sum |terms|; then
    ConvergenceError.
    Returns (T_h, error), shape (n_rows, len(y)); the error is
    |T_h - T_2h| plus the truncation tail beyond the reach plus the
    rounding floor.
    """
    n = y.size
    h = math.pi * d / _H_DIV
    delta = (y[-1] - y[0]) / (n - 1) if n > 1 else 0.0
    on_nodes = abs(delta) >= 2.0 * h
    m = 2 * math.ceil(abs(delta) / (2.0 * h))
    if on_nodes:
        h = delta / m
    span = y.max() - y.min()
    b_line = ev.line_interpolator(beta, y.min() - reach - 1.0,
                                  y.max() + reach + 1.0)
    rows = np.arange(n_rows)
    rate = np.reshape(tail_rate, (-1, 1))
    for _ in range(_LINE_REFINEMENTS + 1):
        half = 2 * math.ceil(reach / (2.0 * abs(h)))
        n_w = 2 * half + 1 + ((n - 1) * m if on_nodes
                              else math.ceil(span / h))
        if n_w > _MAX_NODES:
            raise ConvergenceError(
                f"sigma-lattice rule on Re sigma = {beta} would need more "
                f"than {_MAX_NODES} nodes at step {abs(h):.3g}")
        if on_nodes:
            w = y[0] + h * np.arange(-half, n_w - half)
            j = np.arange(-half, half + 1)
            g = 1.0 / b_line(beta + 1j * w)
            ker = kernel(np.broadcast_to(h * j, (n_rows, j.size)), rows)
            both = _fft_correlate(
                g, np.concatenate([ker, np.where(j % 2 == 0, 2.0 * ker, 0.0)]),
                m)
            fine, coarse = both[:n_rows], both[n_rows:]
            abs_sum = _fft_correlate(np.abs(g), np.abs(ker), m)
            k0 = m * np.arange(n)
            ends = (np.abs(ker[:, :1]) * np.abs(g[k0])
                    + np.abs(ker[:, -1:]) * np.abs(g[k0 + 2 * half]))
        else:
            w = y.min() - half * h + h * np.arange(n_w)
            g = 1.0 / b_line(beta + 1j * w)
            g2 = np.where(np.arange(n_w) % 2 == 0, 2.0 * g, 0.0)
            r_idx, k_idx = np.divmod(np.arange(n_rows * n), n)
            fine, coarse = (np.empty(n_rows * n, dtype=complex)
                            for _ in range(2))
            abs_sum, ends = (np.empty(n_rows * n) for _ in range(2))
            block = max(1, _ROW_ENTRIES // n_w)
            for i in range(0, n_rows * n, block):
                sl = slice(i, i + block)
                # with one y, every row shares one eta
                dy = y[k_idx[sl], None] if n > 1 else y[:1, None]
                ker = kernel(w - dy, r_idx[sl])
                fine[sl], coarse[sl] = ker @ g, ker @ g2
                abs_sum[sl] = np.abs(ker) @ np.abs(g)
                ends[sl] = (np.abs(ker[:, 0]) * abs(g[0])
                            + np.abs(ker[:, -1]) * abs(g[-1]))
            fine, coarse, abs_sum, ends = (
                a.reshape(n_rows, n) for a in (fine, coarse, abs_sum, ends))
        wt = abs(h) / (2.0 * math.pi)
        fine, coarse = wt * fine, wt * coarse
        floor = _ROUND_FLOOR * wt * abs_sum
        diff = np.abs(fine - coarse)
        if (diff <= np.maximum(
                np.maximum(rel_tol * np.abs(fine + residue), abs_tol),
                floor)).all():
            return fine, diff + wt * ends / rate + floor
        h /= 2.0
        m *= 2
    raise ConvergenceError(
        f"sigma-lattice rule on Re sigma = {beta} stalled at step {h}")


def _gamma_line_integral(t, s, beta, evaluator, b_abs):
    """(1/2 i pi) * int_{Re sigma = beta} t^(-(sigma-s)) Gamma(sigma-s)/B(sigma).

    Returns (value, err).  The power and the Gamma factor are combined in
    a single exponent so neither overflows on its own.  b_abs (=|B(s)|)
    sets the honest absolute tolerance: the final symbol value carries a
    B(s)/sqrt(2 pi) prefactor and lives on the scale 1/sqrt(2 pi), so an
    integral below _ORACLE_TOL * 2 pi / |B(s)| is already negligible even
    when cancellation drives its own relative error up.
    """
    log_t = math.log(t)
    b_line = evaluator.line_interpolator(
        beta, s.imag - _HALF_HEIGHT - 1.0, s.imag + _HALF_HEIGHT + 1.0
    )

    def f(sigma):
        a = sigma - s
        return np.exp(log_gamma(a) - a * log_t) / b_line(sigma)

    spec = ContourSpec(
        abscissa=beta,
        half_height=_HALF_HEIGHT,
        rel_tol=_ORACLE_TOL,
        abs_tol=_ORACLE_TOL * 2.0 * np.pi / max(b_abs, 1e-300),
        center=s.imag,
    )
    r = integrate_vertical(
        f, spec, tail=TailModel("exp", _TAIL_RATE), osc_freq=abs(log_t)
    )
    value = r.value / (2j * np.pi)
    err = (r.error_estimate + r.truncation_tail) / (2.0 * np.pi)
    return value, err


def eval_U(t, s, beta=None, evaluator=None):
    """Evaluate U(t, s) for Re s in (0, 2) via the direct line integral.

    t = 0 returns the exact initial value without quadrature.  beta
    defaults to a point of (Re s, 2) well clear of both ends, on the 0.1
    grid where one is (``_default_beta``); any admissible beta gives the
    same value (pinned by tests at 1e-8).
    """
    s = _validate_s(s)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return SymbolSample(t=0.0, s=s, value=INV_SQRT_2PI, err=0.0)
    if beta is None:
        beta = _default_beta(s)
    if not s.real < beta < 2.0:
        raise ValueError(f"beta must lie in (Re s, 2), got {beta}")
    ev = evaluator if evaluator is not None else default_evaluator()
    b_s = ev.eval_B(s)
    val, err = _gamma_line_integral(t, s, beta, ev, abs(b_s))
    scale = abs(b_s) / SQRT_2PI
    return SymbolSample(t=float(t), s=s, value=b_s / SQRT_2PI * val,
                        err=scale * err)


def taylor_terms(s, n_terms):
    """Coefficients of the entire t-series of U: 1/m! prod_{j=1..m} W(s-j).

    The series sqrt(2 pi) U = sum_m c_m t^m follows from iterating the
    delay equation at t = 0; it converges for every t because the product
    grows only logarithmically per factor.
    """
    s = complex(s)
    coeffs = [1.0 + 0.0j]
    prod = 1.0 + 0.0j
    for m in range(1, n_terms):
        prod *= complex(eval_W(np.array([s - m]))[0])
        coeffs.append(prod / math.factorial(m))
    return np.array(coeffs)


def eval_U_small_t(t, s, beta_prime=None, evaluator=None):
    """Evaluate U(t, s) via the left-shifted line, efficient as t -> 0.

    The line sits at beta' in (0, Re s), by default Re s / 2 moved onto
    the 0.1 grid, or another point of (0, Re s) where that one is within
    _POLE_MARGIN of a pole line (``_small_t_beta``; RegimeError at
    Re s <= _POLE_MARGIN, where none keeps the margin).  A beta' the caller
    passes that does not keep it raises ValueError.  The Gamma poles
    crossed on the way contribute the Taylor polynomial of U, and the
    remaining integral is O(t^(Re s - beta')).  Preferred below t ~ 0.05
    where the direct route's oscillation grows.
    """
    s = _validate_s(s)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"the left-line route needs 0 <= t < 1, got {t}")
    if t == 0.0:
        return SymbolSample(t=0.0, s=s, value=INV_SQRT_2PI, err=0.0)
    if beta_prime is None:
        beta_prime = _small_t_beta(s.real)
    if not 0.0 < beta_prime < s.real:
        raise ValueError(
            f"beta_prime must lie in (0, Re s), got {beta_prime}"
        )
    if _pole_gap(s.real, beta_prime) < _POLE_MARGIN:
        raise ValueError(
            f"beta_prime = {beta_prime} sits within {_POLE_MARGIN} of a "
            f"crossed pole line Re s - m; shift it"
        )
    n_crossed = math.ceil(s.real - beta_prime)
    ev = evaluator if evaluator is not None else default_evaluator()
    b_s = ev.eval_B(s)
    poly = complex(np.dot(
        taylor_terms(s, n_crossed),
        np.power(complex(t), np.arange(n_crossed)),
    ))
    val, err = _gamma_line_integral(t, s, beta_prime, ev, abs(b_s))
    scale = abs(b_s) / SQRT_2PI
    return SymbolSample(
        t=float(t), s=s,
        value=poly * INV_SQRT_2PI + b_s / SQRT_2PI * val,
        err=scale * err,
    )


def eval_dU_ds(t, s, *, evaluator=None):
    """d/ds U(t, s), differentiating under the integral sign.

    The s-dependence sits in three factors: the prefactor B(s), the power
    t^(s) and Gamma(sigma-s).  The last two combine into the kernel
    [log t - psi(sigma - s)], so with I the line integral of ``eval_U``
    and I' the same integral with that kernel,

        dU/ds = B(s)/sqrt(2 pi) * (L(s) I + I'),   L = B'/B.

    I and I' are the two kernel rows of one sigma-lattice rule
    (``_lattice_rule``) on the line of ``eval_U_line`` (``_lattice_line``):
    ``_default_beta``'s, or at Re s > 1 the left line past the Gamma pole
    at sigma = s, whose residues 1/B(s) and -B'(s)/B(s)^2 the tolerance
    counts and dU/ds cancels (module docstring).  One lattice and one
    read of 1/B serve both rows, to the oracle tolerances _ORACLE_TOL
    relative and _ORACLE_TOL/|B(s)| absolute.  L comes from the strip
    rule's derivative kernel and the walk (``BEvaluator._log_derivative``);
    where the walk collides with a zero or pole of W, B' is the Cauchy
    circle of ``BEvaluator.eval_B_prime``.  As t -> 0, dU/ds is O(t) while
    B' I and B I' are not, so they cancel: at t = 1e-6 and below the
    result keeps only a few digits.  Returns the derivative value; at
    t = 0 the symbol is constant in s, so the derivative is exactly 0.
    """
    s = _validate_s(s)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0 + 0.0j
    beta, crossed = _lattice_line(s)
    ev = evaluator if evaluator is not None else default_evaluator()
    b_s = ev.eval_B(s)
    log_d = ev._log_derivative(s)
    b_prime = ev.eval_B_prime(s) if log_d is None else log_d * b_s
    a = beta - s.real
    log_t = math.log(t)

    def kernel(eta, r):
        g = _gamma_t_kernel(a, t, eta)
        return np.where(r[:, None] == 1,
                        g * (log_t - digamma(a + 1j * eta)), g)

    # the residues of the crossed pole, per kernel row
    residue = (np.array([[1.0 / b_s], [-b_prime / b_s ** 2]]) if crossed
               else 0.0)
    raw, _ = _lattice_rule(
        ev, beta, np.array([s.imag]), kernel, 2, d=min(abs(a), a + 1.0),
        reach=_HALF_HEIGHT, rel_tol=_ORACLE_TOL,
        abs_tol=_ORACLE_TOL / max(abs(b_s), 1e-300), tail_rate=_TAIL_RATE,
        residue=residue)
    base, inner = raw[:, 0]
    return complex(b_prime * base + b_s * inner) / SQRT_2PI


def eval_V(z, s, beta=None, evaluator=None, rel_tol=1e-10):
    """Laplace transform V(z, s) of U in t, for Re z > 0, Re s in (0, 2).

    z may be a scalar or an array; every z shares one sigma-lattice.  The
    line sits at beta in (Re s, Re s + 1), by default Re s + 1/2 moved onto
    the 0.1 grid (``_on_grid``), between two poles of the reflection
    kernel k_plus, d = min(beta - Re s, Re s + 1 - beta) from the nearer;
    the branch of log(-z) is the one with arg(-z) in (-2 pi, 0], and for
    Re z > 0 both line ends decay at rate >= pi/2.
    The kernels e^((sigma - s) log(-z)) k_plus(sigma - s) of all z form an
    (n_z, N) matrix on the trapezoid lattice of step h < pi d / 40, and
    one product against the N samples of 1/B gives the integral at every
    z.  h halves at most three times while the h and 2h rules differ by
    more than rel_tol (relative to the integral, or to 1/|B(s)|) or the
    rounding floor at some z; then ConvergenceError is raised.  The matrix
    is built in blocks of rows, at most _ROW_ENTRIES entries each, so its
    memory stays bounded for any beta and any number of z.  Returns a
    complex for scalar z, else an array of z's shape.
    """
    z_arr = np.asarray(z, dtype=complex)
    s = _validate_s(s)
    if not (z_arr.real > 0.0).all():
        raise BranchError(
            f"V needs Re z > 0 (got z = {z}); the branch of log(-z) "
            f"degenerates toward the cut on (-inf, 0]"
        )
    if beta is None:
        beta = _on_grid(s.real + 0.5, s.real, s.real + 1.0,
                        (s.real, s.real + 1.0))
    if not s.real < beta < s.real + 1.0:
        raise ValueError(
            f"beta must lie in (Re s, Re s + 1), got {beta}"
        )
    ev = evaluator if evaluator is not None else default_evaluator()
    b_s = ev.eval_B(s)
    a = beta - s.real

    zf = z_arr.ravel()
    # log(-z) on the branch with arg(-z) in (-2 pi, 0]
    logmz = np.log(np.abs(zf)) + 1j * (np.angle(zf) - np.pi)

    def kernel(eta, r):
        return (np.exp(logmz[r, None] * (a + 1j * eta))
                * _k_plus(s, beta, s.imag + eta))

    phi = np.abs(logmz.imag)
    raw, _ = _lattice_rule(
        ev, beta, np.array([s.imag]), kernel, zf.size, d=min(a, 1.0 - a),
        reach=_V_HALF_HEIGHT, rel_tol=rel_tol,
        abs_tol=rel_tol / (2.0 * math.pi * max(abs(b_s), 1e-300)),
        tail_rate=0.9 * np.minimum(phi, 2.0 * math.pi - phi))
    vals = 2j * math.pi * b_s / (SQRT_2PI * zf) * raw[:, 0]
    return complex(vals[0]) if z_arr.ndim == 0 else vals.reshape(z_arr.shape)


def laplace_inverse_U(t, s, d=None, evaluator=None, rel_tol=1e-7):
    """Recover U(t, s) from V by Bromwich-line quadrature.

    An independent consistency oracle for eval_U: U(t, s) is the integral
    of e^(zt) V(z, s) dz / (2 i pi) over a vertical line Re z = d.  No
    abscissa is canonical -- V is analytic in the whole right half-plane,
    so any d > 0 works -- hence d is caller-supplied and d-independence is
    asserted in the tests rather than assumed here.

    Direct quadrature of V converges like 1/height (V ~ 1/(sqrt(2 pi) z)),
    so the first M = _N_SUBTRACT Taylor terms of U(., s) at t = 0 are inverted
    in closed form (z^(-m-1) <-> t^m/m!) and only the remainder is
    integrated.  With u_m(s) = prod_{j<=m} W(s-j)/sqrt(2 pi) the Taylor
    coefficients forced by the delay equation, the functional equation
    z V(z, s) = W(s-1) V(z, s-1) + 1/sqrt(2 pi) telescopes into

        V(z, s) - sum_{m<M} u_m(s) z^(-m-1)
          = W(s-1) [V(z, s-1) - sum_{k<M-1} u_k(s-1) z^(-k-1)] / z,

    so eval_V at argument s - 1 gives an integrand decaying like z^(-M-1),
    and the contour never has to leave Re z > 0, where V's branch lives.
    Each batch of quadrature panels is one eval_V call on all its nodes.
    Needs Re s in (1, 2) so that s - 1 stays in V's strip.
    """
    s = _validate_s(s)
    if not s.real > 1.0:
        raise ValueError(
            f"the inverse transform consults V at s - 1, so it needs "
            f"Re s in (1, 2); got s = {s}")
    if not t > 0.0:
        raise ValueError(f"the inverse transform needs t > 0, got {t}")
    if d is None:
        d = 0.8
    if not d > 0.0:
        raise ValueError(f"the line must sit in Re z > 0, got d = {d}")
    ev = evaluator if evaluator is not None else default_evaluator()
    w_shift = complex(eval_W(np.array([s - 1.0]))[0])

    m = np.arange(_N_SUBTRACT)
    poly = complex(np.dot(taylor_terms(s, _N_SUBTRACT), t ** m)) * INV_SQRT_2PI
    # u_k(s - 1) = k! * c_k(s - 1) / sqrt(2 pi), c_k the taylor_terms.
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, _N_SUBTRACT - 1))))
    u_shift = taylor_terms(s - 1.0, _N_SUBTRACT - 1) * fact * INV_SQRT_2PI

    def f(z):
        v = eval_V(z, s - 1.0, evaluator=ev, rel_tol=rel_tol * 1e-2)
        head = np.power.outer(z, -(m[:-1] + 1.0)) @ u_shift
        return np.exp(z * t) * w_shift * (v - head) / z

    # Truncation height from the declared z^(-M-1) tail: the remainder's
    # leading coefficient is W(s-1) u_{M-1}(s-1); a 10x safety margin and
    # a 0.3 share of the absolute budget fix the height.
    tol_abs = rel_tol * INV_SQRT_2PI
    u_lead = abs(w_shift) * max(abs(u_shift[-1]) * (_N_SUBTRACT - 1),
                                INV_SQRT_2PI)
    height = (10.0 * u_lead / (_N_SUBTRACT * 0.3 * tol_abs)) ** (1.0 / _N_SUBTRACT)
    height = min(max(height, 10.0), 220.0)
    spec = ContourSpec(abscissa=d, half_height=height, rel_tol=rel_tol,
                       abs_tol=tol_abs, center=0.0)
    r = integrate_vertical(f, spec,
                           tail=TailModel("power", rate=_N_SUBTRACT + 1.0),
                           osc_freq=t)
    return poly + complex(r.value) / (2j * np.pi)


def eval_U_line(t, s_values, beta=None, evaluator=None):
    """Evaluate U(t, s) for many s sharing one real part, on one B-line.

    The workhorse behind profile reconstruction.  The s-values share the
    line Re sigma = beta, and their Im s must be equispaced with step
    Delta (a single s is allowed): Im s_k may miss Im s_0 + k Delta by at
    most 1e-12 * max(1, |Im s range|).  A caller's beta lies in (Re s, 2),
    d = beta - Re s from the Gamma pole at sigma = s.  Without one, the
    line is ``_default_beta``'s, or at Re s > 1 the left line beta' of the
    module docstring (``_lattice_line``), on the 0.1 grid in
    (Re s - 1, Re s) with d = min(Re s - beta', beta' - Re s + 1), about
    1/2, wherever that d is the larger; the crossed pole adds 1/B(s) to
    the integral I, and U = (1 + B(s) I)/sqrt(2 pi).  The integral is the
    sigma-lattice trapezoid rule of the module docstring, with h starting
    below pi d / 40.  When Delta >= 2 pi d / 40 the step is h = Delta/m, m
    even, so every Im s is a lattice node and one FFT correlation of 1/B
    against the Gamma kernel gives the whole line; a denser line (or a
    single s) takes one kernel row per s on a lattice of step pi d / 40
    over the whole window.  h halves at most three times while the h and
    2h rules differ by more than _LINE_TOL * max(|U|, 1e-4/sqrt(2 pi)) at
    some s: the tolerance holds on U, residue included.  Returns (values,
    errs) aligned with s_values; an error is the h-vs-2h difference plus
    the truncation tail plus the rounding floor.
    """
    s_values = np.asarray(s_values, dtype=complex)
    if s_values.size == 0:
        return np.zeros(0, dtype=complex), np.zeros(0)
    re = s_values.real
    if not np.allclose(re, re[0], rtol=0.0, atol=1e-12):
        raise ValueError("all s must share one real part")
    s0 = complex(re[0], 0.0)
    _validate_s(s0)
    if not t > 0.0:
        raise ValueError(f"the batched route needs t > 0, got {t}")
    crossed = False
    if beta is None:
        beta, crossed = _lattice_line(s0)
    elif not s0.real < beta < 2.0:
        raise ValueError(f"beta must lie in (Re s, 2), got {beta}")
    im = s_values.imag
    if im.size > 1:
        span = im[-1] - im[0]
        grid = im[0] + span * np.arange(im.size) / (im.size - 1)
        if span == 0.0 or (np.abs(im - grid).max()
                           > 1e-12 * max(1.0, abs(span))):
            raise ValueError("Im s must be equispaced and distinct")
    ev = evaluator if evaluator is not None else default_evaluator()
    a = beta - s0.real

    def kernel(eta, r):
        return _gamma_t_kernel(a, t, eta)

    b_s = ev.eval_B_many(s_values)
    scale = np.abs(b_s) / SQRT_2PI
    raw, err = _lattice_rule(
        ev, beta, im, kernel, 1, d=min(abs(a), a + 1.0), reach=_HALF_HEIGHT,
        rel_tol=_LINE_TOL,
        abs_tol=_LINE_TOL * INV_SQRT_2PI * 1e-4 / np.maximum(scale, 1e-300),
        tail_rate=_TAIL_RATE, residue=1.0 / b_s if crossed else 0.0)
    values = b_s / SQRT_2PI * raw[0]
    return (values + INV_SQRT_2PI if crossed else values), scale * err[0]


def envelope(t, s, constant):
    """The decay envelope constant * exp(-2 t log|ENV_B * s|)."""
    return constant * math.exp(-2.0 * t * math.log(abs(ENV_B * complex(s))))
