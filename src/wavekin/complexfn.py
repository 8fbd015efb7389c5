"""Gamma-family special functions and the Mellin multiplier W(s).

W(s) = -2 gamma_e - 2 psi(s/2) - pi cot(pi s/4)

is the symbol of the linearized collision operator in Mellin variables.  This
module evaluates W and its first three derivatives anywhere in the plane
(including the removable double points s = -4m where the psi and cot poles
cancel, which take the reflection form in psi(1 - s/2) and tan(pi s/4)),
gives its residues, and finds its real zeros.

The polygamma engine is hand-rolled (recurrence shift to Re z >= 12 plus the
Bernoulli asymptotic series): it must be uniformly accurate on vertical lines
with |Im z| up to 1e4 *and* support complex trigamma and higher orders, which
scipy.special does not provide.  log Gamma is delegated to scipy, which does
handle complex arguments.
"""

import dataclasses
import math

import numpy as np
import scipy.special

# unused here; perfbench's tracer wraps the name complexfn.integrate_circle
from wavekin.contour import integrate_circle  # noqa: F401
from wavekin.errors import NoSignChangeError, PoleError

__all__ = [
    "PoleZeroTable",
    "log_gamma",
    "digamma",
    "trigamma",
    "eval_W",
    "eval_W_prime",
    "eval_W_d2",
    "eval_W_d3",
    "locate_W_roots",
    "w_residue",
    "EULER",
]

EULER = 0.5772156649015328606

# Bernoulli numbers B_2, B_4, ..., B_16 for the polygamma asymptotic series.
_BERNOULLI = [
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
]

_SHIFT_TARGET = 12.0

# Taylor coefficients of W at s = 0 (simple zero; the 4/s poles of the psi and
# cot parts cancel).  a_k is the coefficient of s^k:
#   a_{2k} = zeta(2k+1) / 2^{2k-1},
#   a_{2k-1} = 2 zeta(2k) (4^{1-2k} - 2^{1-2k})
# (the psi series less the cot series).  Verified against 40-digit numerical
# differentiation: a_k = W^(k)(eps)/k! at eps = 1e-36 with mpmath at 50
# digits, using W(s) = -2 gamma - 2 psi(s/2) - pi cot(pi s/4); the terms past
# the tenth are the formula at 40 digits.  The series converges for |s| < 2
# (the poles at -2 and 4); its 40 terms hold W to 1e-17 at |s| = 0.75.
_W_SERIES = [
    -0.8224670334241132182,    # -pi^2/12
    0.6010284515797971427,     # zeta(3)/2
    -0.2367582073743114794,    # -7 pi^4/2880
    0.1296159693929212408,     # zeta(5)/8
    -0.0615969432060896940,    # -31 pi^6/483840
    0.0315109149181850883,     # zeta(7)/32
    -0.0155661406539476234,    # -127 pi^8/77414400
    0.0078281905689537673,     # zeta(9)/128
    -0.0039024980765557483,
    0.0019540902121174208,     # zeta(11)/512
    -0.000976325864398299,
    0.0004883411686267473,
    -0.00024412577401024894,
    0.00012207404641556482,
    -6.1034226331476204e-05,
    3.051781119377557e-05,
    -1.5258730894006502e-05,
    7.629409089757664e-06,
    -3.814693628736807e-06,
    1.9073495424899805e-06,
    -9.536740890629108e-07,
    4.768372150516157e-07,
    -2.384185648915511e-07,
    1.1920929310363572e-07,
    -5.9604643887235644e-08,
    2.980232260974383e-08,
    -1.4901161138337157e-08,
    7.450580610801725e-09,
    -3.7252902949924853e-09,
    1.8626451500983217e-09,
    -9.313225743986386e-10,
    4.656612873619495e-10,
    -2.3283064364031713e-10,
    1.1641532183032295e-10,
    -5.8207660912620374e-11,
    2.910383045694546e-11,
    -1.4551915228313912e-11,
    7.27595761419666e-12,
    -3.6379788070884042e-12,
    1.8189894035466837e-12,
]

# Radius of the series zone at s=0 and the reflection zones at -4m.  Inside
# this zone the generic psi/cot difference loses up to s^{-4}*eps absolute
# accuracy for the third derivative, so the zone cannot be made much smaller.
_W_GUARD = 0.05
# W itself takes the series out to |s| < _W_SERIES_R: there the generic
# difference of the two 4/s poles loses about 5e-16/|s|^2 relative (9e-14 at
# |s| = 0.1), which every B next to its pole at 0 inherits.
_W_SERIES_R = 0.75
_W_POLE_TOL = 1e-8


def _as_array(z):
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.asarray(z).ndim == 0
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite argument")
    return arr, scalar


def _unwrap(values, scalar):
    return values.item() if scalar else values


def _check_gamma_poles(z, what):
    n = np.round(z.real)
    on_pole = (n <= 0) & (np.abs(z - n) < 1e-13)
    if on_pole.any():
        raise PoleError(f"{what} pole at z = {z[on_pole][0]}")


def _polygamma(k, z):
    """psi^(k)(z) for k in 0..3, complex z, vectorized.

    Recurrence psi^(k)(z) = psi^(k)(z+1) + (-1)^(k+1) k!/z^(k+1) shifts every
    point to Re z >= 12, where the Bernoulli asymptotic series converges to
    below 1e-13 relative.
    """
    w = z.copy()
    acc = np.zeros(z.shape, dtype=complex)
    mask = w.real < _SHIFT_TARGET
    while mask.any():
        acc[mask] += w[mask] ** (-(k + 1))
        w[mask] = w[mask] + 1.0
        mask = w.real < _SHIFT_TARGET

    iw = 1.0 / w
    iw2 = iw * iw
    if k == 0:
        out = np.log(w) - 0.5 * iw
        term = iw2.copy()
        for j, b in enumerate(_BERNOULLI, start=1):
            out -= (b / (2 * j)) * term
            term = term * iw2
        return out - acc

    out = math.factorial(k - 1) * iw ** k + (math.factorial(k) / 2.0) * iw ** (k + 1)
    term = iw ** (k + 2)
    for j, b in enumerate(_BERNOULLI, start=1):
        # B_2j (2j+k-1)! / (2j)! z^{-(2j+k)}
        coeff = b * math.factorial(2 * j + k - 1) / math.factorial(2 * j)
        out += coeff * term
        term = term * iw2
    if k % 2 == 0:
        out = -out
    return out + (-1.0) ** (k + 1) * math.factorial(k) * acc


def log_gamma(z):
    """Principal-branch log Gamma (scipy.special.loggamma with pole guard)."""
    arr, scalar = _as_array(z)
    _check_gamma_poles(arr, "log_gamma")
    return _unwrap(scipy.special.loggamma(arr), scalar)


def digamma(z):
    arr, scalar = _as_array(z)
    _check_gamma_poles(arr, "digamma")
    return _unwrap(_polygamma(0, arr), scalar)


def trigamma(z):
    arr, scalar = _as_array(z)
    _check_gamma_poles(arr, "trigamma")
    return _unwrap(_polygamma(1, arr), scalar)


def _cot_csc2(w):
    """(cot w, csc^2 w), overflow-safe for any |Im w|.

    For |Im w| > 1 the direct trig ratios are replaced by rational functions
    of q = e^{2iw} (upper half) or p = e^{-2iw} (lower half); |q|, |p| < e^-2
    there, so no cancellation and no overflow at |Im w| ~ 1e4.
    """
    cot = np.empty(w.shape, dtype=complex)
    csc2 = np.empty(w.shape, dtype=complex)

    up = w.imag > 1.0
    if up.any():
        q = np.exp(2j * w[up])
        cot[up] = 1j * (q + 1.0) / (q - 1.0)
        csc2[up] = -4.0 * q / (q - 1.0) ** 2
    dn = w.imag < -1.0
    if dn.any():
        p = np.exp(-2j * w[dn])
        cot[dn] = 1j * (1.0 + p) / (1.0 - p)
        csc2[dn] = -4.0 * p / (1.0 - p) ** 2
    mid = ~(up | dn)
    if mid.any():
        sw = np.sin(w[mid])
        cot[mid] = np.cos(w[mid]) / sw
        csc2[mid] = 1.0 / (sw * sw)
    return cot, csc2


def _w_pole_distance(s):
    """Distance to the nearest genuine pole of W (4n, n>=1 or -2(2n+1), n>=0)."""
    dist = np.full(s.shape, np.inf)
    m4 = np.round(s.real / 4.0) * 4.0
    pos = m4 >= 4.0
    dist[pos] = np.abs(s[pos] - m4[pos])
    m2 = np.round((s.real + 2.0) / 4.0) * 4.0 - 2.0
    neg = m2 <= -2.0
    dist[neg] = np.minimum(dist[neg], np.abs(s[neg] - m2[neg]))
    return dist


def _w_series_eval(s, order):
    out = np.zeros(s.shape, dtype=complex)
    lo = max(order, 1)
    for j in range(len(_W_SERIES), lo - 1, -1):
        a = _W_SERIES[j - 1] * math.factorial(j) / math.factorial(j - order)
        out = out * s + a
    return out * s if order == 0 else out


def _w_generic(s, order):
    cot, csc2 = _cot_csc2(np.pi * s / 4.0)
    pi = np.pi
    if order == 0:
        return -2.0 * EULER - 2.0 * _polygamma(0, s / 2.0) - pi * cot
    if order == 1:
        return -_polygamma(1, s / 2.0) + (pi ** 2 / 4.0) * csc2
    if order == 2:
        return -0.5 * _polygamma(2, s / 2.0) - (pi ** 3 / 8.0) * csc2 * cot
    return -0.25 * _polygamma(3, s / 2.0) + (pi ** 4 / 32.0) * (
        2.0 * csc2 * cot * cot + csc2 * csc2
    )


def _w_reflected(s, order):
    """W and its derivatives by the reflection form, analytic at s = -4m.

    psi(s/2) = psi(1 - s/2) - pi cot(pi s/2) and 2 cot(2a) - cot(a) =
    -tan(a) give W = -2 gamma_e - 2 psi(z) - pi T with z = 1 - s/2 and
    T = tan(pi s/4), in which the cancelling psi and cot poles at -4m no
    longer appear.  dT/ds = (pi/4) S with S = 1 + T^2.
    """
    z = 1.0 - s / 2.0
    tan = np.tan(np.pi * s / 4.0)
    sec2 = 1.0 + tan * tan
    pi = np.pi
    if order == 0:
        return -2.0 * EULER - 2.0 * _polygamma(0, z) - pi * tan
    if order == 1:
        return _polygamma(1, z) - (pi ** 2 / 4.0) * sec2
    if order == 2:
        return -0.5 * _polygamma(2, z) - (pi ** 3 / 8.0) * tan * sec2
    return 0.25 * _polygamma(3, z) - (pi ** 4 / 32.0) * (
        sec2 * sec2 + 2.0 * tan * tan * sec2
    )


def _w_eval(z, order):
    s, scalar = _as_array(z)
    bad = _w_pole_distance(s) < _W_POLE_TOL
    if bad.any():
        raise PoleError(f"W pole at s = {s[bad][0]}")

    out = np.empty(s.shape, dtype=complex)
    near0 = np.abs(s) < (_W_SERIES_R if order == 0 else _W_GUARD)
    # removable double points s = -4m (psi pole cancels cot pole)
    m4 = np.round(s.real / 4.0) * 4.0
    nearrem = (m4 <= -4.0) & (np.abs(s - m4) < _W_GUARD) & ~near0
    main = ~(near0 | nearrem)

    if main.any():
        out[main] = _w_generic(s[main], order)
    if near0.any():
        out[near0] = _w_series_eval(s[near0], order)
    if nearrem.any():
        out[nearrem] = _w_reflected(s[nearrem], order)

    if order == 0:
        exact = (s == 0.0) | (s == 2.0)
        out[exact] = 0.0
    return _unwrap(out, scalar)


def eval_W(s):
    """W(s); exactly 0 at s = 0 and s = 2, finite at the removable s = -4m."""
    return _w_eval(s, 0)


def eval_W_prime(s):
    """W'(s) = -psi'(s/2) + (pi^2/4) csc^2(pi s/4)."""
    return _w_eval(s, 1)


def eval_W_d2(s):
    return _w_eval(s, 2)


def eval_W_d3(s):
    return _w_eval(s, 3)


@dataclasses.dataclass(frozen=True)
class PoleZeroTable:
    """Real poles and zeros of W.

    Poles: 4n (n >= 1) with residue -4, and -2(2n+1) (n >= 0) with residue
    +4.  Points -4m are removable (the two poles cancel).

    ``w_zeros_neg`` starts at the zero in (-6,-5): the reflection symmetry
    W(2-s) = W(s) pairs each positive zero sigma_n with 2 - sigma_n, and W has
    *no* zero in (-2,-1) (it is positive on all of (-2,0)), so the negative
    family has one fewer member than a naive bracket count suggests.
    """

    w_poles_pos: tuple
    w_poles_neg: tuple
    w_zeros_pos: tuple
    w_zeros_neg: tuple
    trivial_zeros: tuple = (0.0, 2.0)

    def __post_init__(self):
        for n, root in enumerate(self.w_zeros_pos, start=1):
            if not 4 * (n + 1) - 1 < root < 4 * (n + 1):
                raise ValueError(f"positive zero {root} outside bracket for n={n}")
        for n, root in enumerate(self.w_zeros_neg, start=1):
            if not -2 * (2 * n + 1) < root < -2 * (2 * n + 1) + 1:
                raise ValueError(f"negative zero {root} outside bracket for n={n}")


_BISECT_WIDTH = 1e-6   # brackets bisected to this width, then Newton
_NEWTON_STEPS = 6


def _bracketed_zeros(lo, hi):
    """The zero of W in each bracket (lo[i], hi[i]), all brackets together.

    Every step halves all brackets with one array ``eval_W`` call, until
    each is narrower than _BISECT_WIDTH; Newton steps on ``eval_W_prime``
    then take the midpoints to rounding level (W is simple there, so each
    step squares the error).  Raises NoSignChangeError if W has the same
    sign at both ends of some bracket.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_ends = eval_W(np.concatenate([lo, hi])).real
    f_lo, f_hi = f_ends[:lo.size], f_ends[lo.size:]
    same = (f_lo > 0) == (f_hi > 0)
    if same.any():
        i = np.argmax(same)
        raise NoSignChangeError(
            f"W({lo[i]}) = {f_lo[i]:.6g} and W({hi[i]}) = {f_hi[i]:.6g} "
            f"have the same sign")
    while (hi - lo).max() > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = eval_W(mid).real
        right = (f_mid > 0) == (f_lo > 0)     # the zero lies in (mid, hi)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)
        hi = np.where(right, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        step = eval_W(x).real / eval_W_prime(x).real
        x = x - step
        if (np.abs(step) <= 4.0 * np.finfo(float).eps * np.abs(x)).all():
            break
    return x


def locate_W_roots(n_max):
    """The real zeros sigma_n and sigma*_n of W, n = 1..n_max.

    Brackets (4(n+1)-1, 4(n+1)) and (-2(2n+1), -2(2n+1)+1), with the pole
    endpoint pulled in by 1e-6 so W is evaluable, are bisected together
    and Newton-polished to rounding level (``_bracketed_zeros``).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(1, n_max + 1)
    zeros = _bracketed_zeros(
        np.concatenate([4.0 * (n + 1) - 1.0, -2.0 * (2 * n + 1) + 1e-6]),
        np.concatenate([4.0 * (n + 1) - 1e-6, -2.0 * (2 * n + 1) + 1.0]))
    return PoleZeroTable(
        w_poles_pos=tuple(4.0 * n for n in range(1, n_max + 2)),
        w_poles_neg=tuple(-2.0 * (2 * n + 1) for n in range(0, n_max + 1)),
        w_zeros_pos=tuple(zeros[:n_max].tolist()),
        w_zeros_neg=tuple(zeros[n_max:].tolist()),
    )


def w_residue(pole):
    """Residue of W at a real pole: -4 at 4n (n >= 1), +4 at -2(2n+1).

    -pi cot(pi s/4) has residue -4 at every 4n and -2 psi(s/2) residue +4
    at every -2(2n+1); at -4m the two cancel.  PoleError off that lattice.
    """
    pole = float(pole)
    if pole > 0.0 and pole % 4.0 == 0.0:
        return complex(-4.0)
    if pole < 0.0 and (pole + 2.0) % 4.0 == 0.0:
        return complex(4.0)
    raise PoleError(f"W has no pole at {pole}")
