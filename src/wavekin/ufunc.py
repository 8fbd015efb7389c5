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
``eval_dU_ds`` and ``eval_V`` evaluate them by one trapezoid rule on the
absolute lattice w = j h (``_spectral_rule``), and so does the assembled
Lambda line (``line._conv_core``).  No kernel row in w is built:

- the kept spectrum.  The evaluator keeps the DFT of 1/B, sampled once
  off its line interpolant, on the lattice of step h over a fixed tile of
  the line (``_tile_spectrum``, a ``bfunc.memo`` map of _SPECTRA
  entries of at most _KEPT_BINS bins, keyed by beta, h and the tile);
- closed-form kernel spectra.  Each kernel is a Fourier integral
  K(eta) = int G(u) e^(i eta u) du whose G is known: e^(a u - t e^u) for
  U, a = beta - Re s, from the Mellin pair of Gamma (minus 1 inside the
  exponential past the pole at sigma = s); -u G for dU/ds's second row;
  (z/2 pi i) e^(a u)/(z + e^u) for V, from int_0^inf x^(w-1)/(z + x) dx =
  pi z^(w-1)/sin(pi w) (``_gamma_t_spectrum``, ``_v_spectrum``).  By
  Poisson summation the lattice sum at Im s = y is
  (1/n) sum_f S_f G(u_f) e^(-i y u_f) over the n bins of the spectrum S,
  u_f = -theta_f / h, up to aliases of G below e^(-pi d/h);
- two read-outs of one spectrum.  A line whose Im s are lattice nodes
  m steps apart (step m h) takes the phase of its first y, folds the
  bins f, f + n/m, ... and one inverse FFT of n/m bins gives all of its
  outputs (``_conv_core``).  A single s, a z array, or a line denser than
  the lattice takes its phases e^(-i y u) and one dot over the bins.

The 2h rule on the even nodes sums (-1)^j / B, whose spectrum is S
shifted by half the bins, so it comes from the same spectrum.  Im s < 0
is the mirror: the rule sums the conjugate kernel at -Im s against the
same samples and conjugates (B(conj s) = conj B(s)), so a tile serves
both signs.  A new s on a seen (beta, h) and tile thus costs its kernel
spectra, its phases and the read-out: no log Gamma or digamma, no sample
of 1/B and no forward FFT.
The rule converges
geometrically in the strip of analyticity about the line, with error about
e^(-2 pi d/h) for a pole at distance d (Trefethen & Weideman, SIAM Rev. 56,
2014); here d is the distance from the line to the Gamma pole at
sigma = s (for U right of that pole), to the nearer of the poles at
sigma = s and s - 1 (for U's left line, d about 1/2) or to the nearer
pole of the reflection kernel (for V).
h starts at or below pi d / 40, where even the 2h rule on the even nodes
is exact to rounding: a line's step over the least even m of the form
2^k or 3 * 2^k that gets there, or for the dots the ladder step 2^k or
3 * 2^(k-1) below it (``_ladder_step``), so that nearby s share a
spectrum.  The two rules are compared at every output: h halves, at most
three times, while they differ by more than the tolerance or the
rounding floor 10 eps (1/n) sum |S_f G(u_f)|.  The tolerance is relative
to the integral plus the residue of a crossed pole, so it applies to U
itself, not to the shifted integral.  The reported error is the h-vs-2h
difference plus the truncation tail past the tile plus that floor.
Only ``eval_U`` and ``eval_U_small_t`` keep the adaptive
``integrate_vertical``, through one line integral
(``_gamma_line_integral``): they are the independent oracles of the
lattice rule.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.fft

from wavekin.bfunc import BranchError, _fft_length, default_evaluator, memo
from wavekin.complexfn import EULER, eval_W, log_gamma
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
# Rounding floor of a lattice sum, per unit of the sum of its terms'
# magnitudes.
_ROUND_FLOOR = 10.0 * np.finfo(float).eps
# Default line abscissae sit on a grid of 1/_GRID, so that ops at nearby
# Re s read one B line; a grid point keeps at least _GRID_KEEP of the
# default's distance to the poles, or the default stays.
_GRID = 10
_GRID_KEEP = 0.75
# Lattice nodes one spectrum may hold (a line too close to a pole needs
# more), and the entries (bins times kernel rows, and bins times outputs)
# one read holds at a time.
_MAX_NODES = 2 ** 20
_READ_ENTRIES = 2 ** 19
# The kept spectra of 1/B: tile n of a line serves the |Im s| in
# [n _TILE, (n + 1) _TILE), on a lattice that reaches _TILE_REACH past
# them on both sides, where |Gamma(a + i eta)| and V's kernels (both
# decaying at rate >= pi/2 for Re z > 0) have fallen below 1e-19 of
# their peaks.  A tile spans 127, 4,065 nodes at the step 1/32 of most
# single s, within 4,096 bins, and the tile n = 0 holds the symbol's
# lines up to |Im s| = 64.  An evaluator keeps the _SPECTRA most
# recently used of at most _KEPT_BINS bins, 2^24 bytes in all; a longer
# one, of a line near a pole, is built for its call alone.
_TILE = 64.0
_TILE_REACH = 31.5
_SPECTRA = 64
_KEPT_BINS = 2 ** 14
# A bin whose exponent a u - t e^u lies below -_UNDERFLOW has the
# exponential 0 exactly (exp underflows below -745.13).
_UNDERFLOW = 746.0


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


def _gamma_t_abs(a, t, eta):
    """|Gamma(a + i eta) t^(-(a + i eta))| from Stirling's leading term,
    within 1 % at |eta| >= 20: what a line's truncation tail reads at the
    ends of its lattice, with no log Gamma."""
    z = np.hypot(a, eta)
    return np.exp(0.5 * math.log(2.0 * math.pi) + (a - 0.5) * np.log(z)
                  - np.abs(eta) * np.arctan2(np.abs(eta), a) - a
                  - a * math.log(t))


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _ladder_step(h0):
    """The largest step 2^k or 3 * 2^(k-1), k an integer, not above h0.
    Single s read spectra of these steps, so nearby d share one, and a
    halved step stays on the ladder."""
    h = 2.0 ** math.floor(math.log2(h0))
    return 1.5 * h if 1.5 * h <= h0 else h


def _fold_steps(delta, h0):
    """The fold m of a line of step delta: the least even m among 2^k and
    3 * 2^k with delta / m <= h0; 0 for a line denser than that
    (delta < h0), which is read by dots."""
    if delta < h0:
        return 0
    m = _fft_length(max(2, math.ceil(delta / h0)))
    return m + m % 2


@functools.lru_cache(maxsize=32)
def _bins(h, n_fft):
    """(u, e^u) at the bins of an n_fft-point spectrum of a lattice of
    step h: u = -theta/h at the frequency theta = 2 pi f/n_fft of bin f,
    wrapped to [-pi, pi), in fftshift order (f = n_fft/2 first), so u
    falls from pi/h to just above -pi/h.  e^u is capped at e^700; past it
    lie only bins that an underflowing kernel skips."""
    u = (-2.0 * np.pi / h) * np.fft.fftshift(np.fft.fftfreq(n_fft))
    return _frozen(u), _frozen(np.exp(np.minimum(u, 700.0)))


def _underflow_bins(u, a, t, cap):
    """The number of leading bins of u (falling, as ``_bins`` orders them)
    at which e^(a u - t e^u) is exactly 0, for a > 0: those with u >=
    log((_UNDERFLOW + a u[0])/t), where t e^u - a u >= _UNDERFLOW; at most
    cap, and none for a <= 0, where the spectrum does not underflow.  Past
    t = _UNDERFLOW + a u[0] the cut lies below u = 0; what lies past cap
    is computed, and underflows alike."""
    if a <= 0.0:
        return 0
    return min(cap, u.size - int(np.searchsorted(
        u[::-1], math.log((_UNDERFLOW + a * u[0]) / t), side="left")))


def _rising(u):
    """The number of leading bins of u (falling, as ``_bins`` orders them)
    at which u > 0."""
    return u.size - int(np.searchsorted(u[::-1], 0.0, side="right"))


def _gamma_t_spectrum(u, exp_u, a, t, du=False):
    """The spectrum G of the kernel K(eta) = Gamma(a + i eta)
    t^(-(a + i eta)) on the bins u (with e^u): K(eta) = int G(u)
    e^(i eta u) du.

    Substituting x = e^u in the Mellin pair Gamma(z) t^(-z) = int_0^inf
    x^(z-1) e^(-t x) dx gives G(u) = e^(a u - t e^u) for a > 0.  Left of
    the pole at z = 0, for a in (-1, 0), the Cauchy-Saalschuetz integral
    subtracts 1 from e^(-t x): G(u) = e^(a u) (e^(-t e^u) - 1), summed as
    -t e^((a + 1) u) (1 - e^(-x))/x at u <= 0, x = t e^u, so that no
    factor overflows.  With du, a second row -u G(u): d/dz Gamma(z)
    t^(-z) = int u e^(z u) (...) du, so -u G is the spectrum of the
    kernel (log t - psi(z)) Gamma(z) t^(-z) of dU/ds.
    """
    if a > 0.0:
        g = np.exp(a * u - t * exp_u)
    else:
        k = _rising(u)
        g = np.empty(u.shape)
        x = np.maximum(t * exp_u[k:], 1e-300)
        g[k:] = np.exp((a + 1.0) * u[k:]) * np.expm1(-x) * (t / x)
        with np.errstate(over="ignore"):
            g[:k] = np.exp(a * u[:k]) * np.expm1(-t * exp_u[:k])
    return np.stack([g, -u * g]) if du else g


def _v_spectrum(u, exp_u, a, z):
    """The spectra (z/2 pi i) e^(a u)/(z + e^u) on the bins u (with e^u),
    one row per z, of V's kernels e^((a + i eta) log(-z)) k_plus: the
    Mellin pair int_0^inf x^(w-1)/(z + x) dx = pi z^(w-1)/sin(pi w),
    0 < Re w < 1, with x = e^u and log(-z) = log z - i pi.  They fall like
    e^(a u) as u -> -inf and e^((a - 1) u) as u -> inf.  Returned as the
    (rows, weight, scale) of ``_spectral_rule``: 1/(z e^-u + 1) times the
    weight e^((a - 1) u) at u > 0 and 1/(z + e^u) times e^(a u) at u <= 0,
    the forms whose exponentials do not overflow, and the scale z/2 pi i,
    so each entry of a row costs one complex reciprocal."""
    k = _rising(u)
    alpha, beta, weight = np.ones(u.size), np.ones(u.size), np.empty(u.size)
    alpha[:k] = 1.0 / exp_u[:k]
    beta[k:] = exp_u[k:]
    weight[:k] = np.exp((a - 1.0) * u[:k])
    weight[k:] = np.exp(a * u[k:])
    rows = np.multiply.outer(z, alpha)
    rows += beta
    return np.reciprocal(rows, out=rows), weight, z / (2j * math.pi)


def _inv_b_samples(ev, beta, h, j_lo, n_lat):
    """1/B(beta + i w) on the lattice w = j h, j_lo <= j < j_lo + n_lat,
    off the evaluator's line interpolant."""
    w = j_lo * h + h * np.arange(n_lat)
    line = ev.line_interpolator(beta, float(w.min()) - 0.5,
                                float(w.max()) + 0.5)
    return 1.0 / line(beta + 1j * w)


def _lattice_spectrum(g, j_lo, n_fft, fold):
    """The DFT over n_fft bins of lattice samples g whose first sits at
    j = j_lo: zero-padded and rolled so that w = 0 sits at bin 0, so bin
    f holds sum_j g_j e^(-2 i pi j f/n_fft) over the absolute j, divided
    by fold, in the fftshift order of ``_bins``."""
    padded = np.zeros(n_fft, complex)
    padded[:g.size] = g
    return _frozen(np.fft.fftshift(scipy.fft.fft(np.roll(padded, j_lo))
                                   / fold))


def _conv_core(spectrum, g, fold, skip=0):
    """The inverse FFT over n/fold bins of the product spectrum[skip:] g,
    folded: the bins i, i + n/fold, ... (of the fftshift order) summed.

    The sigma-line sum of the module docstring at the outputs y0 + k fold
    h is this, over fold, with g the kernel spectra times e^(-i y0 u).
    The leading skip bins of g are 0 (``_underflow_bins``), at most the
    first fold - 1 rows of the fold, so the last row is whole and the
    others are added onto it from skip on.  Leading axes of spectrum and
    g broadcast.
    """
    n = spectrum.shape[-1]
    width = n // fold
    prod = spectrum[..., skip:] * g
    folded = prod[..., n - width - skip:]
    for r in range(fold - 1):
        lo = max(r * width, skip)
        if lo < (r + 1) * width:
            folded[..., lo - r * width:] += prod[..., lo - skip:
                                                 (r + 1) * width - skip]
    return scipy.fft.ifft(folded)


@functools.lru_cache(maxsize=8)
def _roots(n_fft):
    """The n_fft-th roots of unity e^(2 i pi k/n_fft), k < n_fft."""
    return _frozen(np.exp((2j * math.pi / n_fft) * np.arange(n_fft)))


def _phases(y, h, n_fft):
    """e^(-i y u) at the bins of ``_bins(h, n_fft)``, one row per y.

    With y = J h + delta, J the nearest integer, e^(-i J h u) is the root
    of unity of index J (i - n_fft/2) mod n_fft at bin i, read off a table
    exactly, and e^(-i delta u) has |delta u| <= pi/2, so no phase carries
    the rounding of a large argument y u.  u is linear in the bin i = k b
    + r, b = 64, so each row is the outer product of its phases at the
    n_fft/b bins k b and at the first b bins.
    """
    y = np.reshape(y, (-1, 1))
    j = np.rint(y / h)
    # delta in long double, where J h is exact to the bits of y
    delta = (y.astype(np.longdouble) - j * np.longdouble(h)).astype(float)
    dc = delta * (2.0 * math.pi / (h * n_fft))
    j = j.astype(np.int64)
    b = math.gcd(n_fft, 64)
    roots = _roots(n_fft)
    hi = b * np.arange(n_fft // b) - n_fft // 2
    lo = np.arange(b)
    hi = roots[j * hi % n_fft] * np.exp(1j * (dc * hi))
    lo = roots[j * lo % n_fft] * np.exp(1j * (dc * lo))
    return (hi[:, :, None] * lo[:, None, :]).reshape(y.shape[0], n_fft)


@dataclasses.dataclass(frozen=True)
class _Spectrum:
    """The kept spectrum of 1/B on one tile of a line (``_tile_spectrum``):
    its bins (read-only), the ends w_lo, w_hi of its lattice and |1/B|
    there, which the truncation tail reads."""

    bins: np.ndarray
    w_lo: float
    w_hi: float
    g_lo: float
    g_hi: float


@memo(_SPECTRA, keep=lambda sp: sp.bins.size <= _KEPT_BINS)
def _tile_spectrum(ev, beta, h, tile, fold):
    """The spectrum of 1/B(beta + i w) on the lattice w = j h over tile
    [tile _TILE - _TILE_REACH, (tile + 1) _TILE + _TILE_REACH]: its node
    count n_lat, at most _MAX_NODES, rounded up to fold times a length
    2^k or 3 * 2^k, and undivided (``_lattice_spectrum``)."""
    j_lo = math.floor((tile * _TILE - _TILE_REACH) / h)
    n_lat = math.ceil(((tile + 1.0) * _TILE + _TILE_REACH) / h) + 1 - j_lo
    if n_lat > _MAX_NODES:
        raise ConvergenceError(
            f"sigma-lattice rule on Re sigma = {beta} would need more "
            f"than {_MAX_NODES} nodes at step {h:.3g}")
    g = _inv_b_samples(ev, beta, h, j_lo, n_lat)
    n_fft = fold * _fft_length(-(-n_lat // fold))
    return _Spectrum(_lattice_spectrum(g, j_lo, n_fft, 1), j_lo * h,
                     (j_lo + n_lat - 1) * h, abs(g[0]), abs(g[-1]))


def _runs(y):
    """(mirror, tile, idx) per run of the Im s y that one kept spectrum
    serves: the y < 0 are read mirrored, at -y, and |y| picks the tile;
    idx lists a run's outputs by rising |y|."""
    mirror = y < 0.0
    tile = np.floor(np.abs(y) / _TILE)
    for flip, n in sorted(set(zip(mirror.tolist(), tile.tolist()))):
        idx = np.flatnonzero((mirror == flip) & (tile == n))
        yield flip, int(n), idx[np.argsort(np.abs(y[idx]), kind="stable")]


def _spectral_sums(ev, beta, h, fold, y, kernel, n_rows, underflow,
                   edge_abs):
    """(T_h, |T_h - T_2h|, rounding floor, truncation tail), each of
    shape (n_rows, len(y)): the sigma-lattice sums of the module docstring
    at step h, folded by fold, or by dots where fold is 0."""
    value = np.empty((n_rows, y.size), dtype=complex)
    diff, floor, tail = (np.zeros((n_rows, y.size)) for _ in range(3))
    for flip, tile, idx in _runs(y):
        yy = np.abs(y[idx])
        sp = _tile_spectrum(ev, beta, h, float(tile), max(fold, 1))
        spec = sp.bins
        n_fft = spec.size
        half = n_fft // 2
        u, exp_u = _bins(h, n_fft)
        skip = 0 if underflow is None else _underflow_bins(
            u, *underflow, n_fft - n_fft // max(fold, 2))
        mag = np.abs(spec[skip:])
        if fold:
            # the 2h rule's sum is that of (-1)^j g_j: the bins shifted
            # by half
            both = np.stack([spec, np.concatenate([spec[half:],
                                                   spec[:half]])])
            phase = _phases(yy[:1], h, n_fft)[:, skip:]
        block = max(1, _READ_ENTRIES // n_fft)
        for r0 in range(0, n_rows, block):
            r = slice(r0, r0 + block)
            g, weight, scale = kernel(u[skip:], exp_u[skip:], r)
            if flip:
                g, scale = g.conj(), np.conj(scale)
            scale = np.reshape(scale, (-1, 1))
            floor[r, idx] = (_ROUND_FLOOR / n_fft * np.abs(scale)
                             * (np.abs(g) @ (weight * mag))[:, None])
            if fold:
                out = _conv_core(both, (scale * g * (weight * phase))[
                    :, None, :], fold, skip)[..., :yy.size] / fold
                value[r, idx] = out[:, 0].conj() if flip else out[:, 0]
                diff[r, idx] = np.abs(out[:, 1])
                continue
            for c0 in range(0, yy.size, block):
                sl = slice(c0, c0 + block)
                p = _phases(yy[sl], h, n_fft)[:, skip:] * weight
                fine = scale * (g @ (p * spec[skip:]).T) / n_fft
                value[r, idx[sl]] = fine.conj() if flip else fine
                diff[r, idx[sl]] = np.abs(scale * (
                    g[:, :half - skip] @ (p[:, :half - skip]
                                          * spec[half + skip:]).T
                    + g[:, half - skip:] @ (p[:, half - skip:]
                                            * spec[:half]).T)) / n_fft
        if edge_abs is not None:
            tail[:, idx] = (sp.g_lo * edge_abs(sp.w_lo - yy)
                            + sp.g_hi * edge_abs(sp.w_hi - yy))
    return value, diff, floor, tail


def _spectral_rule(ev, beta, y, kernel, n_rows, d, rel_tol, abs_tol,
                   residue=0.0, underflow=None, edge_abs=None):
    """(1/2 pi) int K_r(w - y_k) / B(beta + i w) dw for r < n_rows, every k.

    The sigma-lattice rule of the module docstring.  kernel(u, exp_u, r)
    returns (rows, weight, scale): the spectra G_r of the kernels, K_r(eta)
    = int G_r(u) e^(i eta u) du, on the bins u (with e^u) for the row
    indices r (a slice) are scale_r rows_r(u) weight(u), rows of shape
    (len(r), len(u)), weight a real factor of the bins and scale one per
    row, so that a dot need not form the spectra; each K_r is analytic
    within d of the real eta axis.  At y < 0 the rule sums the mirrored
    integral at -y, whose kernels conj K_r(-eta) have the spectra conj
    G_r, and conjugates it.  underflow = (a, t) says that the rows are
    e^(a u - t e^u)
    times powers of u, which skip the bins where that underflows
    (``_underflow_bins``).  edge_abs(eta) bounds |K_r(eta)| at the ends of
    the lattice, for the truncation tail, which decays at _TAIL_RATE; the
    error of a route that reports none leaves it out.  The step starts
    at h0 = pi d / _H_DIV and the rule takes one of two forms:

    - folded: y holds several Im s, equispaced with a step Delta >= h0.
      Then h = Delta/m, m the least even length 2^k or 3 * 2^k with h <=
      h0, and one inverse FFT of the folded bins gives every output of a
      tile;
    - by dots: one y, or a line denser than h0.  The step is the ladder's
      below h0 (``_ladder_step``), and each output is one dot over the
      bins.

    h halves, at most _LINE_REFINEMENTS times, until |T_h - T_2h| <=
    max(rel_tol |T_h + residue|, abs_tol, floor) at every output, where
    residue (per y_k) is what a crossed pole adds to the integral and the
    rounding floor is _ROUND_FLOOR times the sum of |terms| over the bins;
    then ConvergenceError.  Returns (T_h, error), shape (n_rows, len(y));
    the error is |T_h - T_2h| plus the rounding floor plus that tail.
    """
    n = y.size
    h0 = math.pi * d / _H_DIV
    delta = abs(y[-1] - y[0]) / (n - 1) if n > 1 else 0.0
    fold = _fold_steps(delta, h0) if n > 1 else 0
    h = delta / fold if fold else _ladder_step(h0)
    for _ in range(_LINE_REFINEMENTS + 1):
        value, diff, floor, tail = _spectral_sums(
            ev, beta, h, fold, y, kernel, n_rows, underflow, edge_abs)
        if (diff <= np.maximum(
                np.maximum(rel_tol * np.abs(value + residue), abs_tol),
                floor)).all():
            return value, diff + floor + tail / (2.0 * math.pi * _TAIL_RATE)
        h /= 2.0
        fold *= 2
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
        return (_gamma_t_kernel(sigma.real - s.real, t, sigma.imag - s.imag)
                / b_line(sigma))

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
    (``_spectral_rule``) on the line of ``eval_U_line`` (``_lattice_line``):
    ``_default_beta``'s, or at Re s > 1 the left line past the Gamma pole
    at sigma = s, whose residues 1/B(s) and -B'(s)/B(s)^2 the tolerance
    counts and dU/ds cancels (module docstring).  Their spectra are G(u) =
    e^(a u - t e^u) (less 1 in the exponential's place past the pole) and
    -u G(u), read by one dot each against the kept spectrum of 1/B on the
    ladder step below pi d / 40, to the oracle tolerances _ORACLE_TOL
    relative and _ORACLE_TOL/|B(s)| absolute; the spectrum is the one a
    one-point ``eval_U_line`` on that s reads.  L comes from the strip
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
    # the residues of the crossed pole, per kernel row
    residue = (np.array([[1.0 / b_s], [-b_prime / b_s ** 2]]) if crossed
               else 0.0)
    raw, _ = _spectral_rule(
        ev, beta, np.array([s.imag]),
        lambda u, exp_u, r: (_gamma_t_spectrum(u, exp_u, a, t, du=True)[r],
                             1.0, 1.0),
        2, d=min(abs(a), a + 1.0), rel_tol=_ORACLE_TOL,
        abs_tol=_ORACLE_TOL / max(abs(b_s), 1e-300), residue=residue,
        underflow=(a, t))
    base, inner = raw[:, 0]
    return complex(b_prime * base + b_s * inner) / SQRT_2PI


def eval_V(z, s, beta=None, evaluator=None, rel_tol=1e-10):
    """Laplace transform V(z, s) of U in t, for Re z > 0, Re s in (0, 2).

    z may be a scalar or an array; every z shares one kept spectrum of
    1/B.  The line sits at beta in (Re s, Re s + 1), by default Re s + 1/2
    moved onto the 0.1 grid (``_on_grid``), between two poles of the
    reflection kernel k_plus, d = min(beta - Re s, Re s + 1 - beta) from
    the nearer; the branch of log(-z) is the one with arg(-z) in
    (-2 pi, 0], and for Re z > 0 both line ends decay at rate >= pi/2.
    The kernel of each z, e^((sigma - s) log(-z)) k_plus(sigma - s), has
    the spectrum (z/2 pi i) e^(a u)/(z + e^u) (``_v_spectrum``); each z is
    one dot of its spectrum with the phase e^(-i Im s u) against the kept
    spectrum of 1/B on the ladder step below pi d / 40 (``_spectral_rule``,
    module docstring).  h halves at most three times while the h and 2h
    rules differ by more than rel_tol (relative to the integral, or to
    1/|B(s)|) or the rounding floor at some z; then ConvergenceError is
    raised.  The z are read in blocks of at most _READ_ENTRIES bins times
    rows, so memory stays bounded for any beta and any number of z.
    Returns a complex for scalar z, else an array of z's shape.
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
    raw, _ = _spectral_rule(
        ev, beta, np.array([s.imag]),
        lambda u, exp_u, r: _v_spectrum(u, exp_u, a, zf[r]), zf.size,
        d=min(a, 1.0 - a), rel_tol=rel_tol,
        abs_tol=rel_tol / (2.0 * math.pi * max(abs(b_s), 1e-300)))
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
    most 16 eps max(1, max |Im s|), a few ulps, since each s is evaluated
    at its grid node; ``np.linspace`` lines sit within that.  A caller's
    beta lies in (Re s, 2), d = beta - Re s from the Gamma pole at
    sigma = s.  Without one, the
    line is ``_default_beta``'s, or at Re s > 1 the left line beta' of the
    module docstring (``_lattice_line``), on the 0.1 grid in
    (Re s - 1, Re s) with d = min(Re s - beta', beta' - Re s + 1), about
    1/2, wherever that d is the larger; the crossed pole adds 1/B(s) to
    the integral I, and U = (1 + B(s) I)/sqrt(2 pi).  The integral is the
    sigma-lattice trapezoid rule of the module docstring
    (``_spectral_rule``), against the spectrum of 1/B the evaluator keeps
    per tile of the line.  When Delta >= pi d / 40 the step is h =
    Delta/m, m the least even length 2^k or 3 * 2^k that takes h below
    pi d / 40, so every Im s is a lattice node and one inverse FFT of the
    folded bins gives the line's points of a tile; a denser line, or a
    single s, takes one dot over the bins per s, on the ladder step below
    pi d / 40.  The Im s < 0 are read mirrored.  h halves at most three
    times while the h and 2h rules differ by more than _LINE_TOL *
    max(|U|, 1e-4/sqrt(2 pi)) at some s: the tolerance holds on U,
    residue included.  Returns (values, errs) aligned with s_values; an
    error is the h-vs-2h difference plus the truncation tail plus the
    rounding floor.
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
                           > 16.0 * np.finfo(float).eps
                           * max(1.0, np.abs(im).max())):
            raise ValueError("Im s must be equispaced and distinct")
    ev = evaluator if evaluator is not None else default_evaluator()
    a = beta - s0.real
    b_s = ev.eval_B_many(s_values)
    scale = np.abs(b_s) / SQRT_2PI
    raw, err = _spectral_rule(
        ev, beta, im, lambda u, exp_u, _r: (_gamma_t_spectrum(
            u, exp_u, a, t)[None], 1.0, 1.0), 1, d=min(abs(a), a + 1.0),
        rel_tol=_LINE_TOL,
        abs_tol=_LINE_TOL * INV_SQRT_2PI * 1e-4 / np.maximum(scale, 1e-300),
        residue=1.0 / b_s if crossed else 0.0, underflow=(a, t),
        edge_abs=lambda eta: _gamma_t_abs(a, t, eta))
    values = b_s / SQRT_2PI * raw[0]
    return (values + INV_SQRT_2PI if crossed else values), scale * err[0]


def envelope(t, s, constant):
    """The decay envelope constant * exp(-2 t log|ENV_B * s|)."""
    return constant * math.exp(-2.0 * t * math.log(abs(ENV_B * complex(s))))
