"""The normalizer B(s): strip representation, functional equation, residues.

B solves the multiplicative functional equation

    B(s) = -W(s-1) B(s-1)

and is constructed on the strip beta < Re s < beta + 1 as the exponential of a
vertical-line integral of log(-W) against a periodic kernel:

    B(s) = exp( int_{Re rho = beta} log(-W(rho))
                [ 1/(1 - e^{2 i pi (s - rho)}) - 1/(1 + e^{-2 i pi (rho - beta)}) ]
                d rho ).

The line integral is a trapezoid rule on the lattice rho = beta + i w_j,
w_j = (j + 1/2) h, h = 0.025, shared by every caller.  The integrand is
analytic in a strip of half-width >= 1/4 about the line (beta keeps the
kernel poles >= 1/4 away; the nearest singularity of log(-W) to the
line 0.3 is the zero of W at 0), so the rule converges geometrically
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Rev. 56, 2014).  It is checked against the 2h rule on the even nodes,
and h halves, at most three times, where the two differ by more than 1e-11
relative.  Each kernel is split into a step and a remainder:
k_plus = g_plus + [w <= Im s] and k_minus = g_minus + [w < 0].  Both g's
decay like e^{-2 pi |w - centre|}, so each is summed over a +-6.5 window,
and the steps leave a plateau: the sum of the samples between 0 and Im s,
which must count the node at w = Im s because g_plus takes the step there.
The plateau reaches ~400 at |Im s| ~ 200 and its last digits are the phase
of B, so it is summed outward from w = 0 in long double, and the exponent
stays in long double until its exponential.  Every node sums its g_plus
window directly, the taps within 6.5 of Im s at their lattice places, in
its own reduction: a scattered point with its own kernel row, the nodes of
a line with the rows of their offset in the segment, shared along the line
(``_strip_segments``).  So B's value at a point does not depend on the
other points of the call, and a line's nodes agree with scattered points to
~1e-15 relative (an FFT correlation of the windows left ~1e-13).

B lines are kept in blocks.  A line Re s = c is cut into 0.8-wide segments
on a fixed grid, 8 to a block, Im s in [6.4 n, 6.4 (n + 1)); the evaluator
builds each block once per (c, n), from the values at the 24 Chebyshev
nodes of its segments, and keeps it in a store bounded by _LINE_BYTES.  A
line interpolant (``BLineInterpolator``) is a view of the blocks that
cover its window, so its values do not depend on the window either.
Segments whose Bernstein ellipse reaches a real pole of B are halved until
it does not.

Each evaluator keeps one lattice per (beta, h) (``_StripLattice``): both
rules' samples, arg(-W) and the long-double plateau sums, grown on demand
to cover each request's window, so log(-W) is sampled once per node.
Growing continues the sequential sums outward, and a request reads the
slice a fresh lattice over its own window would hold, so every value is
the same bit for bit.  A lattice of more than _LATTICE_BYTES shrinks to
the next request's window (and node 0) first, so one far request leaves
no lasting tens of MB behind.  The branch audit runs on every newly
sampled range and the end-decay check on every request.

Two bookkeeping subtleties, both measured and pinned by tests:

* The counterterm must be centered at the line (rho - beta in the second
  exponential), so that its poles move with the line.  The variant with the
  counterterm fixed at the origin jumps by exactly -1/W(1/2) when the line
  crosses that half-odd counterterm pole (measured ratio 3.5211285608185445
  to machine precision), breaking the functional equation.  Even centered,
  the exponent retains a *constant* (s-independent, real, measured constant
  to 15 digits) additive dependence on beta; since the functional equation
  and every downstream quantity (which use only B-ratios) are gauge
  invariant, we fix the gauge by splicing the strip's second line,
  beta = 0.8, back to the canonical beta = 0.3 line through one probe
  point, and fix the one remaining global scale by the documented _B_SCALE
  constant so that |B| meets its strip bounds on the contract box.

* Outside the strip, B is continued by walking the functional equation.  A
  walk factor may land on a pole or zero of W even when B itself is finite
  there (the flagship case: B(5) = 4 B'(4), a W-pole times a B-zero).  On
  the real axis the ladder (``BEvaluator.laurent``) takes each such factor
  by its leading term, W' at a zero of W and Res W at a pole, and so gives
  the order and leading coefficient of B exactly: every residue and
  integer value the Lambda routes read comes from it.  Elsewhere a
  collision falls back to a Cauchy-circle average of B, whose nodes walk
  cleanly; that circle, residue_B and residue_inv_B are the oracles the
  tests hold the ladder to.  Left of the W table's last pole (-22) the
  guards know none of B's poles, and a collision raises PoleError.

B' is B times the log-derivative L = B'/B (``BEvaluator._log_derivative``).
The walk adds W'/W for each of its factors.  At the base, the strip
exponent's s-derivative is one more window sum on the same lattice, against
d/ds k_plus = 2 i pi k_plus (k_plus - 1), which has no step and so no
plateau.  A Cauchy derivative circle serves only where the walk collides,
as the circle average serves B there.  Along a line, B' is the derivative
of B's interpolant (``BLineInterpolator.derivative``), read off the same
kept blocks as B with no step to choose; it shares only the strip values
with eval_B_prime, and the tests hold both routes to a Cauchy derivative
circle on eval_B_many.

The poles and zeros of B on the real axis follow from the ladder, as the
W-poles and W-zeros its walk crosses.  Poles: 0 and -1, the integers m >= 9
(of order floor((m - 1)/4) - 1: simple at 9..12, double at 13..16), and the
descending ladders sigma*_n - j (j >= 0) below each negative zero of W; 5 is
*not* a pole.  Zeros: 3 and 4, the integers m <= -6 (of order
floor((-m - 2)/4): simple at -6..-9), and the ladders sigma_n + j (j >= 1)
above each positive zero of W.  ``_b_singularities`` is their one list.
"""

import collections
import copy
import dataclasses
import functools
import itertools
import math

import numpy as np

from wavekin.complexfn import (_w_pole_distance, eval_W, eval_W_prime,
                               locate_W_roots, w_residue)
from wavekin.contour import integrate_circle
from wavekin.errors import ConvergenceError, PoleError, WavekinError

__all__ = [
    "BEvaluator",
    "ResidueLedger",
    "BranchError",
    "default_evaluator",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

_WALK_LO = 0.55          # base window Re in [_WALK_LO, _WALK_LO + 1)
_POLE_GUARD = 1e-6
_COLLIDE_TOL = 1e-6
_LADDER_TOL = 1e-9       # a ladder factor this close to a W zero/pole is on it
_MARGIN = 6.5            # g+/g- windows: both decay below 2e-18 beyond
_GAUGE_BETA = 0.3        # canonical line: the other line splices onto it
_UPPER_BETA = _GAUGE_BETA + 0.5   # the strip's line for Re s >= 1.05
_LINE_BYTES = 2 ** 24    # line blocks one evaluator keeps (oldest go first)
_POINT_CACHE = 2 ** 15   # strip points one evaluator keeps (oldest go first)
_LATTICE_BYTES = 2 ** 23  # a strip lattice over 8 MB shrinks (104 B/node)

# Global scale of B (a free gauge: the construction determines B only up to a
# positive constant, and all derived quantities are scale invariant).  Chosen
# at the center of the measured feasibility window so that |B| lies within
# the contract bounds [0.2, 5] on Re s in [0.5, 1.5], |Im s| in [5, 500];
# see scripts/calibrate.py.  (The functional equation forces
# |B(x+1+iT)| / |B(x+iT)| = |W(x+iT)| ~ 2 log T, so no single constant can
# hold the bounds over the full open strip at large |Im s|.)
_B_SCALE = 7.37


def memo(maxsize, keep=None):
    """Memoize ``fn(ev, *args)`` in an LRU map that the evaluator ev owns.

    The map lives in ``ev._memo`` under fn, so it is freed with the
    evaluator and keeps no evaluator alive.  It is keyed on the arguments
    and keeps the maxsize most recently used entries; a hit renews its
    entry.  A value for which keep(value) is false is returned but not
    kept.  fn never returns None.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def cached(ev, *args):
            store = ev._memo.get(fn)
            if store is None:
                store = ev._memo[fn] = collections.OrderedDict()
            val = store.get(args)
            if val is None:
                val = fn(ev, *args)
                if keep is None or keep(val):
                    store[args] = val
                    if len(store) > maxsize:
                        store.popitem(last=False)
            else:
                store.move_to_end(args)
            return val
        return cached
    return decorate


class BranchError(WavekinError):
    """arg(-W) wrapped by >= pi between audit nodes on the contour."""


@dataclasses.dataclass(frozen=True)
class ResidueLedger:
    """Residues of 1/B and the derived constants of the long-time expansion.

    P[n] = Res(Gamma(w)/B(w), w=-n) and Q[n] = -n P[n] for n = 0..5.
    c2 and c3 carry the 1/sqrt(2pi) of Lambda's mass-1 normalization; no
    route reads the ledger, the tests hold the long-time laws to it.
    """

    rho4: complex
    resB0: complex
    c1: complex
    c2: complex
    c3: complex
    P: tuple
    Q: tuple

    def __post_init__(self):
        for n, (p, q) in enumerate(zip(self.P, self.Q)):
            if abs(q - (-n * p)) > 1e-12 * max(1.0, abs(p)):
                raise ValueError(f"Q({n}) != -{n} P({n})")


@functools.lru_cache(maxsize=1)
def _w_zero_table():
    """The real zeros and poles of W that B's pole guards and ladder read."""
    return locate_W_roots(5)


def _b_singularities(lo, hi):
    """(poles, zeros): the real poles and zeros of B in [lo, hi], sorted.

    The families of the module docstring, over the zeros of W that
    ``_w_zero_table`` holds; the cost grows with hi - lo.  The pole
    guards, circle radii, residue checks and short-time series read it.
    """
    table = _w_zero_table()
    m = np.arange(math.ceil(lo), math.floor(hi) + 1.0)
    poles = [m[(m == 0) | (m == -1) | (m >= 9)]] + [
        r - np.arange(max(0, math.floor(r - hi)), math.ceil(r - lo) + 1)
        for r in table.w_zeros_neg]
    zeros = [m[(m == 3) | (m == 4) | (m <= -6)]] + [
        r + np.arange(max(1, math.floor(lo - r)), math.ceil(hi - r) + 1)
        for r in table.w_zeros_pos]
    return tuple(np.sort(x[(x >= lo) & (x <= hi)])
                 for x in map(np.concatenate, (poles, zeros)))


@functools.lru_cache(maxsize=64)
def _b_poles(lo, hi):
    """B's real poles in [lo, hi] for integers lo and hi, sorted: the
    table ``_pole_distance`` reads, so a walk does not list them again."""
    poles = _b_singularities(lo, hi)[0]
    poles.flags.writeable = False
    return poles


def _pole_distance(s):
    """Distance from each s (scalar or array) to B's nearest real pole
    among those within 1 of the real parts of s, or inf if none is."""
    s = np.asarray(s, dtype=complex)
    if not s.size:
        return np.full(s.shape, np.inf)
    lo, hi = s.real.min() - 1.0, s.real.max() + 1.0
    table = _b_poles(math.floor(lo), math.ceil(hi))
    poles = np.concatenate([[-np.inf], table[table.searchsorted(lo):
                                             table.searchsorted(hi, "right")],
                            [np.inf]])
    i = np.searchsorted(poles, s.real)
    return np.minimum(np.abs(s - poles[i - 1]), np.abs(s - poles[i]))[()]


def _k_minus(v):
    # 1/(1 + e^{-2 i pi (rho - beta)}) on rho = beta + iv: a real logistic
    y = 2.0 * np.pi * v
    out = np.empty(v.shape, dtype=float)
    grow = y > 0
    u = np.exp(-y[grow])
    out[grow] = u / (u + 1.0)
    out[~grow] = 1.0 / (1.0 + np.exp(y[~grow]))
    return out


def _beta_for(re_base):
    # re_base in [_WALK_LO, _WALK_LO + 1); keep >= 0.25 margin to the
    # kernel poles of 1/(1 - e^{2 i pi (s - rho)}) at Re rho = Re s - n
    return _GAUGE_BETA if re_base < _WALK_LO + 0.5 else _UPPER_BETA


_CHEB_DEG = 24
_CHEB_SEG = 0.8
_SEG_STEPS = 32          # lattice steps per Chebyshev segment
_STEP = _CHEB_SEG / _SEG_STEPS   # lattice step h
_REL_TOL = 1e-11         # h rule against 2h rule, relative to max(|F|, 1)
_MAX_REFINEMENTS = 3     # halvings of h before ConvergenceError
_BLOCK_SEGS = 8          # segments per line block: Im s in [6.4 n, 6.4 (n+1))
_RHO_MIN = 5.0           # Bernstein ellipse a segment keeps clear of B's poles
_MAX_SPLITS = 6          # halvings of a segment toward a pole
_QUERY_CHUNK = 4096      # line queries evaluated together (temporaries ~2 MB)


# the Chebyshev nodes (first kind) of one segment and their barycentric
# weights (computed once)
_CHEB_THETA = np.pi * (np.arange(_CHEB_DEG) + 0.5) / _CHEB_DEG
_CHEB_X = np.cos(_CHEB_THETA)
_BARY_W = np.where(np.arange(_CHEB_DEG) % 2 == 0, 1.0, -1.0) * np.sin(
    _CHEB_THETA)
# the differentiation matrix of the interpolant at those nodes (Berrut &
# Trefethen, SIAM Rev. 46, 2004, eq. 9.4): (w_j / w_i) / (x_i - x_j) off
# the diagonal, and on it minus the rest of its row, so that the slopes of
# a constant are 0 to rounding
_CHEB_D = _BARY_W / _BARY_W[:, None] / (
    _CHEB_X[:, None] - _CHEB_X + np.eye(_CHEB_DEG))
np.fill_diagonal(_CHEB_D, 0.0)
np.fill_diagonal(_CHEB_D, -_CHEB_D.sum(axis=1))


def _lattice_kernel(f, q, h):
    """g_plus(2 pi h (m - f), q) at the taps |m| <= ceil(_MARGIN / h).

    One row per fractional lattice position f in [0, 1) of a node (and
    one q per row, or one for all): the taps are the lattice nodes about
    it, m <= 0 on the step side.  There e^(-|x|) is a power of e^(-2 pi h)
    times e^(-+2 pi h f), and with |q| = 1 both branches of g_plus,
    -u/(q - u) for x > 0 and q u/(1 - q u) for x <= 0 (u = e^(-|x|)),
    share the denominator |q - u|^2 = |1 - q u|^2 = (1 - u)^2 + 2u(1 - Re q),
    so every entry is real arithmetic: (+-u (u - Re q) + i u Im q) / D.
    """
    m_half = math.ceil(_MARGIN / h)
    powers = np.exp(-2.0 * np.pi * h * np.arange(m_half + 1.0))
    f = np.asarray(f, dtype=float)[..., None]
    q = np.asarray(q, dtype=complex)[..., None]
    u = np.concatenate([np.exp(-2.0 * np.pi * h * f) * powers[::-1],
                        np.exp(2.0 * np.pi * h * f) * powers[1:]], axis=-1)
    c = q.real
    t = u / ((1.0 - u) ** 2 + 2.0 * u * (1.0 - c))
    out = np.empty(u.shape, dtype=complex)
    out.imag = t * q.imag
    u -= c
    out.real = t * u
    out.real[..., :m_half + 1] *= -1.0
    return out


@functools.lru_cache(maxsize=4)
def _segment_rows(q):
    """Kernel rows of the 24 node offsets of a segment, for line blocks.

    A node of segment i of the _CHEB_SEG grid sits at lattice position
    _SEG_STEPS i + j_c + f_c (j_c integer, f_c in [0, 1), the same for
    every segment); its g_plus window sum is the row g_plus(2 pi h (m -
    f_c)) against the samples j_c + _SEG_STEPS i + m.  The rows are
    shifted right by j_c - min j (fewer than _SEG_STEPS zero columns) so
    that every segment reads one window of the samples.  Returns (j_c,
    f_c, rows, their derivatives in x, the row sums), rows shape (24,
    2 ceil(_MARGIN / h) + 1 + max shift): a node off f_c by df in lattice
    units takes rows - 2 pi h df derivatives, exact to second order in df.
    """
    p = 0.5 * _CHEB_SEG * (1.0 + _CHEB_X) / _STEP - 0.5
    j = np.floor(p).astype(int)
    f = p - j
    g = _lattice_kernel(f, q, _STEP)
    m_half = g.shape[1] // 2
    x = 2.0 * np.pi * _STEP * (np.arange(-m_half, m_half + 1) - f[:, None])
    u = np.exp(-np.abs(x))
    # d/dx of -u/(q - u) (x > 0) and of q u/(1 - q u) (x <= 0)
    dg = g * g * np.where(x > 0, q / u, 1.0 / (q * u))
    shift = j - j.min()
    rows = np.zeros((2, _CHEB_DEG, g.shape[1] + shift.max()), dtype=complex)
    cols = shift[:, None] + np.arange(g.shape[1])
    rows[0, np.arange(_CHEB_DEG)[:, None], cols] = g
    rows[1, np.arange(_CHEB_DEG)[:, None], cols] = dg
    row_sums = g.astype(np.clongdouble).sum(axis=1).astype(complex)
    for arr in (rows, row_sums):
        arr.flags.writeable = False
    return j, f, rows[0], rows[1], row_sums


def _segment_nodes(edges):
    """(mids, half-widths) of the segments between sorted edges (along
    the last axis)."""
    half = 0.5 * np.diff(edges)
    return edges[..., :-1] + half, half


def _ellipse_rho(mid, half, re_line, poles):
    """Least Bernstein ellipse parameter of each segment (mid, half) of the
    line re_line about the real poles: the 24-point interpolant on it is
    good to about rho^-24."""
    z = (-mid[:, None] + 1j * np.abs(re_line - poles)) / half[:, None]
    root = np.sqrt(z * z - 1.0)
    rho = np.maximum(np.abs(z + root), np.abs(z - root))
    return rho.min(axis=1, initial=np.inf)


def _split_near_poles(edges, re_line):
    """edges with each segment halved until its Bernstein ellipse keeps
    rho >= _RHO_MIN from B's real poles, at most _MAX_SPLITS times."""
    poles = _b_poles(math.floor(re_line) - 1, math.ceil(re_line) + 1)
    for _ in range(_MAX_SPLITS):
        mid, half = _segment_nodes(edges)
        bad = _ellipse_rho(mid, half, re_line, poles) < _RHO_MIN
        if not bad.any():
            break
        edges = np.sort(np.concatenate([edges, mid[bad]]))
    return edges


def _fft_length(n):
    """The least of 2^k and 3 * 2^k that is >= n."""
    p = 1 << (n - 1).bit_length()
    return 3 * p // 4 if 3 * p // 4 >= n else p


def _audit_samples(arg, beta):
    # arg(-W) on sorted nodes must stay clear of +-pi and never jump by pi
    if np.abs(arg).max() > np.pi - 0.1:
        raise BranchError(
            f"arg(-W) reaches {np.abs(arg).max():.3f} on Re rho = {beta}"
        )
    if np.abs(np.diff(arg)).max() >= np.pi:
        raise BranchError("arg(-W) jumped by >= pi between audit nodes")


def _audit_ends(arg_lo, arg_hi):
    if max(abs(arg_lo), abs(arg_hi)) > 0.5:
        raise BranchError("arg(-W) does not decay at the window ends")


def _running_sums(start, a):
    # start + a[:, 0], start + a[:, 0] + a[:, 1], ... summed in sequence in
    # long double: the digits one cumsum over the earlier terms and a gives
    # (from start = 0 too, as no sample of log(-W) off the real axis is -0)
    both = np.concatenate([start[:, None], a], axis=1)
    return np.cumsum(both, axis=1, dtype=np.clongdouble)[:, 1:]


class _StripLattice:
    """The strip rule's samples on one line beta, step h, grown on demand.

    For the nodes w_j = (j + 1/2) h, j in [lo, hi): ``a`` holds both rules'
    weighted samples and ``arg`` arg(-W) (see BEvaluator._rule_samples);
    ``plateau[:, J - lo]``, J in [lo, hi], is the signed sum of the samples
    between w = 0 and node J, and ``gm`` the g_minus window sum.  Growing
    samples log(-W) at the new nodes only, audits them together with the
    nodes they join, and continues the plateau sums outward, so every entry
    equals the one a lattice sampled afresh over the whole range holds.
    A lattice of more than _LATTICE_BYTES first drops the nodes that a
    request and node 0, where the sums start, do not span; regrowth then
    continues the sums from the kept edges, so the values stay the same.
    """

    def __init__(self, beta, h):
        self.beta, self.h = beta, h
        self.lo = self.hi = 0
        self.a = np.zeros((2, 0), dtype=complex)
        self.arg = np.zeros(0)
        self.plateau = np.zeros((2, 1), dtype=np.clongdouble)
        self.gm = None

    def cover(self, lo, hi):
        """Grow to cover j in [lo, hi); every window spans |w| <= _MARGIN."""
        if (self.a.nbytes + self.arg.nbytes
                + self.plateau.nbytes > _LATTICE_BYTES):
            keep_lo = max(self.lo, min(0, lo))
            keep_hi = min(self.hi, max(0, hi))
            i0, i1 = keep_lo - self.lo, keep_hi - self.lo
            # copies, so that the dropped nodes are freed
            self.a = self.a[:, i0:i1].copy()
            self.arg = self.arg[i0:i1].copy()
            self.plateau = self.plateau[:, i0:i1 + 1].copy()
            self.lo, self.hi = keep_lo, keep_hi
        if lo >= self.lo and hi <= self.hi:
            return
        h = self.h
        j_dn = np.arange(min(lo, self.lo), self.lo)
        j_up = np.arange(self.hi, max(hi, self.hi))
        j = np.concatenate([j_dn, j_up])
        lw = np.log(-eval_W(self.beta + 1j * ((j + 0.5) * h)))
        n_dn = j_dn.size
        arg = np.concatenate([lw.imag[:n_dn], self.arg, lw.imag[n_dn:]])
        _audit_samples(arg, self.beta)
        a = np.stack([h * lw, np.where(j % 2 == 0, 2.0 * h * lw, 0.0)])
        a_dn, a_up = a[:, :n_dn], a[:, n_dn:]
        # the sums run outward from w = 0: upward from node 0, downward
        # from node -1, and the plateau holds the downward ones negated
        up = _running_sums(self.plateau[:, -1], a_up)
        dn = _running_sums(-self.plateau[:, 0], a_dn[:, ::-1])
        self.plateau = np.concatenate([-dn[:, ::-1], self.plateau, up],
                                      axis=1)
        self.a = np.concatenate([a_dn, self.a, a_up], axis=1)
        self.arg = arg
        self.lo, self.hi = self.lo - n_dn, self.hi + j_up.size
        if self.gm is None:
            w = (np.arange(self.lo, self.hi) + 0.5) * h
            near0 = np.abs(w) <= _MARGIN
            self.gm = (self.a[:, near0]
                       @ (_k_minus(w[near0]) - (w[near0] < 0.0)))


class BLineInterpolator:
    """Chebyshev interpolant of B along one vertical line, over a window.

    The line is cut into 0.8-wide segments on a fixed grid (edges 0.8 k),
    and B is interpolated by degree 23 on each, from its values at the 24
    Chebyshev points, in barycentric form (Higham, IMA J. Numer. Anal. 24,
    2004): that is forward stable to a few eps, where Chebyshev
    coefficients and Clenshaw's recurrence lost ~6e-15.  B restricted to
    the line is analytic, and a segment whose Bernstein ellipse would
    reach a real pole of B is halved until it keeps rho >= _RHO_MIN clear
    (``_split_near_poles``).  The segments come in blocks of _BLOCK_SEGS,
    Im s in [6.4 n, 6.4 (n + 1)), which the evaluator builds once per
    (line, n) and keeps (``BEvaluator._line_blocks``); an interpolant is a
    view of the blocks that cover [im_lo, im_hi], so its values do not
    depend on the window that asked for them.  Quadrature routines that
    sample the same line thousands of times query this instead of
    evaluating B per node.  ``derivative`` gives B' along the line off the
    same node values; the tests hold it to eval_B_prime and to a Cauchy
    derivative circle.
    """

    def __init__(self, evaluator, re_line, im_lo, im_hi):
        if not im_hi > im_lo:
            raise ValueError("empty line window")
        self.re_line = float(re_line)
        width = _BLOCK_SEGS * _CHEB_SEG
        blocks = evaluator._line_blocks(
            self.re_line, math.floor(im_lo / width), math.ceil(im_hi / width))
        self.edges = np.concatenate([blocks[0][0][:1]]
                                    + [edges[1:] for edges, _ in blocks])
        self.mids, self.half = _segment_nodes(self.edges)
        self.vals = np.concatenate([vals for _, vals in blocks])

    def __call__(self, s_arr):
        s_arr = np.asarray(s_arr, dtype=complex)
        x = s_arr.ravel().imag
        if x.size and (x.min() < self.edges[0] or x.max() > self.edges[-1]):
            raise ValueError(
                f"query at Im s in [{x.min():.2f}, {x.max():.2f}] outside "
                f"the interpolated window "
                f"[{self.edges[0]:.2f}, {self.edges[-1]:.2f}]"
            )
        out = np.empty(x.shape, dtype=complex)
        for c in range(0, x.size, _QUERY_CHUNK):
            sl = slice(c, c + _QUERY_CHUNK)
            idx = np.clip(np.searchsorted(self.edges, x[sl]) - 1, 0,
                          len(self.mids) - 1)
            t = (x[sl] - self.mids[idx]) / self.half[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                r = _BARY_W / (t[:, None] - _CHEB_X)
                den = r.sum(axis=1)
                out[sl].real = np.vecdot(r, np.take(self.vals.real, idx, 0))
                out[sl].imag = np.vecdot(r, np.take(self.vals.imag, idx, 0))
                out[sl] /= den
            # a query on a node (r infinite there) takes the node's value
            on_node = ~np.isfinite(den)
            if on_node.any():
                out[sl][on_node] = self.vals[
                    idx[on_node], np.abs(t[on_node, None] - _CHEB_X).argmin(1)]
        return out.reshape(s_arr.shape)

    def derivative(self):
        """The interpolant of B' on the same segments.

        Its node values are the slopes of each segment's interpolant, the
        24 values times _CHEB_D, over the segment's half-width: dB/dv on
        the line s = re_line + i v, which is i B'.  Exact differentiation
        of the kept blocks, so no step amplifies B's rounding.
        """
        out = copy.copy(self)
        out.vals = -1j * (self.vals @ _CHEB_D.T) / self.half[:, None]
        return out


class BEvaluator:
    """Evaluator for B, ``BEvaluator()``.

    The strip rule runs on two fixed lines, _GAUGE_BETA = 0.3 for
    Re s < 1.05 and _UPPER_BETA = 0.8 above, so every point keeps a margin
    of at least 1/4 from the kernel poles; the centered counterterm makes
    the value independent of that choice once the upper line is spliced
    onto the lower one (``_gauge_offset``).  B and B' are the strip rule
    walked by the functional equation; a Cauchy circle serves only where
    a walk collides with a zero or pole of W (``_cauchy_fallback``,
    ``eval_B_prime``).  Along a line, B' is the derivative of the line
    interpolant (``BLineInterpolator.derivative``); the tests hold both
    B' routes to a Cauchy derivative circle.

    The evaluator owns all of its caches, which are freed with it: one
    strip lattice per (line, step), the point cache ``cache``, keyed on
    (Re s, Im s) to 1e-12, which keeps the _POINT_CACHE most recently added
    strip values, the store of line blocks, which keeps the most recently
    used up to _LINE_BYTES, and the ``memo`` maps: the gauge offset, the
    ladder (``laurent``), ufunc's kept spectra of 1/B per line, step and
    tile (``ufunc._tile_spectrum``), ``line``'s grid lines of B and B',
    its spectra of 1/B and its assemblies, and ``asymptotic``'s
    Mellin-Barnes lines.
    """

    def __init__(self):
        self.cache = {}       # quantized (re, im) -> strip value, oldest first
        self._lattices = {}   # (beta, h) -> _StripLattice
        self._blocks = collections.OrderedDict()   # line blocks, LRU first
        self._block_bytes = 0
        self._memo = {}       # memoized function -> its LRU map (see memo)

    # ---------------- strip representation ----------------

    def _rule_samples(self, beta, lo, hi, h):
        """Weighted samples of the h and 2h trapezoid rules over [lo, hi].

        The nodes are w_j = (j + 1/2) h, so none sits on the step of
        k_minus at 0.  Row 0 of ``a`` is h log(-W(beta + i w_j)); row 1 is
        the 2h rule on the even j (2h log(-W) there, 0 at odd j).
        ``plateau[:, n]`` is the signed sum of the samples between 0 and
        the first n nodes: the sum over [0, w_n) when w_n > 0, minus the
        sum over [w_n, 0) otherwise.  It is summed outward from w = 0 in
        long double, since it reaches ~400 at |Im s| ~ 200 and its last
        digits are the phase of B.  ``gm`` is the g_minus window sum.
        All are read off the evaluator's lattice for (beta, h), grown to
        cover [lo, hi].  The principal branch of log(-W) is the continuous
        one here: growing audits, on the sorted nodes, that arg(-W) never
        approaches +-pi nor jumps by >= pi between nodes, and the end-decay
        check, on this window's own ends, that it decays there, which pins
        the branch the representation needs (arg -> 0 at +-i infinity).
        Returns (j_lo, a, plateau, gm), j_lo the index of the window's
        first node.
        """
        j_lo = math.floor(lo / h - 0.5) - 2
        j_hi = math.ceil(hi / h - 0.5) + 3
        lattice = self._lattices.get((beta, h))
        if lattice is None:
            lattice = self._lattices[(beta, h)] = _StripLattice(beta, h)
        lattice.cover(j_lo, j_hi)
        i0, i1 = j_lo - lattice.lo, j_hi - lattice.lo
        _audit_ends(lattice.arg[i0], lattice.arg[i1 - 1])
        return (j_lo, lattice.a[:, i0:i1], lattice.plateau[:, i0:i1 + 1],
                lattice.gm)

    def _strip_rule(self, beta, y, h, window_sums):
        """Strip exponent F at nodes Im s = y on one beta line, step h.

        The trapezoid rule of the module docstring, shared by scattered
        points and line blocks; they differ only in how they form the
        g_plus window sums.  ``window_sums(j_lo, a)`` returns those sums
        for both rules, shape (2, n), and each node's lattice index j0,
        the last node w_j <= Im s, which indexes the plateau.  Returns
        (1j F, accepted): the h rule is accepted at a node where it is
        within _REL_TOL * max(|F|, 1) of the 2h rule.  F stays in long
        double, as the plateau is, until ``_strip_values`` takes its
        exponential: a double F of ~400 would round the phase of B by
        ~3e-14.
        """
        j_lo, a, plateau, gm = self._rule_samples(
            beta, min(0.0, y.min()) - _MARGIN, max(0.0, y.max()) + _MARGIN, h)
        g, j0 = window_sums(j_lo, a)
        fine, coarse = plateau[:, j0 + 1 - j_lo] + (g - gm[:, None])
        ok = np.abs(fine - coarse) <= _REL_TOL * np.maximum(np.abs(fine), 1.0)
        return 1j * fine, ok

    def _strip_batch(self, s_arr, beta):
        """Strip exponent F(s) at scattered points s sharing one beta line.

        Each point sums its own g_plus window, the taps within _MARGIN of
        Im s, directly against the lattice samples, with its own kernel
        row (``_lattice_kernel``) and its own reduction, so its value does
        not depend on the other points of the call.  The h rule's sum is
        taken about the sample a at the point, a (sum of the row) plus the
        row against the samples less a: log(-W) is smooth, so those terms
        are small, and the sum's rounding is ~1e-17, not ~1e-15.  The
        point's lattice place y/h - 1/2 is taken in long double, so the
        kernel sits where the point is to about 1e-19 of |Im s|.  A point
        keeps the first step h at which its two rules agree; h halves, at
        most _MAX_REFINEMENTS times, for the points that do not.
        """
        F = np.empty(s_arr.shape, dtype=np.clongdouble)
        todo = np.arange(s_arr.size)
        h = _STEP
        for _ in range(_MAX_REFINEMENTS + 1):
            ss = s_arr[todo]
            p = ss.imag.astype(np.longdouble) / h - 0.5
            j0 = np.floor(p)
            f = (p - j0).astype(float)
            j0 = j0.astype(np.int64)
            q = np.exp(2j * np.pi * (ss.real - beta))
            m_half = math.ceil(_MARGIN / h)

            def window_sums(j_lo, a):
                windows = np.lib.stride_tricks.sliding_window_view(
                    a, 2 * m_half + 1, axis=1)
                g = np.empty((2, ss.size), dtype=complex)
                for c in range(0, ss.size, 128):
                    sl = slice(c, c + 128)
                    # vecdot conjugates its first argument
                    kern = _lattice_kernel(f[sl], q[sl], h).conj()
                    win = windows[:, j0[sl] - m_half - j_lo]
                    ref = win[0, :, m_half, None]
                    g[0, sl] = (ref[:, 0] * kern.sum(-1).conj()
                                + np.vecdot(kern, win[0] - ref))
                    g[1, sl] = np.vecdot(kern, win[1])
                return g, j0

            val, ok = self._strip_rule(beta, ss.imag, h, window_sums)
            F[todo[ok]] = val[ok]
            todo = todo[~ok]
            if not todo.size:
                return F
            h /= 2.0
        raise ConvergenceError(f"B strip rule stalled at lattice step {h}")

    def _strip_segments(self, re_base, beta, mids, half):
        """Strip exponent at the Chebyshev nodes mids + half X_c, shape
        (n, 24), of whole segments of the 0.8 grid on the line re_base.

        A node of offset c in segment i has the kernel row of c
        (``_segment_rows``), so every segment's window sums are one matrix
        product against a window of the samples that starts _SEG_STEPS
        nodes further per segment; each node's distance df from the lattice
        place of its row, taken in long double at the exact node, enters
        through the derivative rows.  The h rule's sums are taken about
        the sample at the segment's centre, as ``_strip_batch`` takes its
        own, so a node agrees with that route at its point to ~1e-16.
        A block's base line lies in the walk window, at least 1/4 from the
        kernel's poles, where the h rule meets the 2h rule far inside
        _REL_TOL; a node that misses it raises ConvergenceError.
        """
        q = np.exp(2j * np.pi * (re_base - beta))
        j_c, f_c, rows, drows, row_sums = _segment_rows(q)
        seg = np.rint((mids - _CHEB_SEG / 2) / _CHEB_SEG).astype(np.int64)
        j0 = _SEG_STEPS * seg[:, None] + j_c
        ld = np.longdouble
        p = (mids.astype(ld)[:, None] + half.astype(ld)[:, None] * _CHEB_X
             ) / _STEP - 0.5
        df = (p - j0).astype(float) - f_c
        ys = mids[:, None] + half[:, None] * _CHEB_X

        def window_sums(j_lo, a):
            start = j0.min(axis=1) - math.ceil(_MARGIN / _STEP) - j_lo
            win = np.lib.stride_tricks.sliding_window_view(
                a, rows.shape[1], axis=1)[:, start]
            ref = a[0, _SEG_STEPS * seg + _SEG_STEPS // 2 - j_lo, None]
            g = np.empty((2,) + df.shape, dtype=complex)
            # one product per block, so a block's sums are the same bits
            # whichever blocks are built with it
            for b in range(0, len(seg), _BLOCK_SEGS):
                w, sl = win[:, b:b + _BLOCK_SEGS], slice(b, b + _BLOCK_SEGS)
                g[0, sl] = ((w[0] - ref[sl]) @ rows.T + ref[sl] * row_sums
                            - (2.0 * np.pi * _STEP) * df[sl]
                            * (w[0] @ drows.T))
                g[1, sl] = w[1] @ rows.T
            return g.reshape(2, -1), j0.ravel()

        val, ok = self._strip_rule(beta, ys.ravel(), _STEP, window_sums)
        if not ok.all():
            raise ConvergenceError(
                f"B line rule missed its 2h rule at {np.count_nonzero(~ok)} "
                f"of {ok.size} nodes on Re s = {re_base}")
        return val.reshape(ys.shape)

    @memo(1)
    def _gauge_offset(self):
        """F-offset of the _UPPER_BETA line relative to the canonical line.

        The strip exponent F(s; beta) depends on beta through an s-independent
        real constant, read at the one probe 1.05 that sits 1/4 inside the
        strips of both lines.
        """
        probe = np.array([_GAUGE_BETA + 0.75 + 0j])
        return (self._strip_batch(probe, _UPPER_BETA)[0]
                - self._strip_batch(probe, _GAUGE_BETA)[0]).real

    def eval_B_strip(self, s):
        """B(s) by the line integral alone (no walking).

        Valid for 0.32 < Re s < 1.78: the line 0.3 serves Re s < 1.05 and
        the line 0.8 the rest, each at least 0.02 left of Re s.
        """
        s = complex(s)
        if not _GAUGE_BETA + 0.02 < s.real < _GAUGE_BETA + 1.48:
            raise ValueError(
                f"Re s = {s.real} outside the strip (0.32, 1.78)")
        return complex(self._strip_many(np.atleast_1d(np.asarray(s, complex)))[0])

    def _strip_many(self, s_arr):
        out = np.empty(s_arr.shape, dtype=complex)
        key_re = np.round(s_arr.real * 1e12).astype(np.int64)
        key_im = np.round(s_arr.imag * 1e12).astype(np.int64)
        todo = []
        keys = list(zip(key_re.tolist(), key_im.tolist()))
        cache_get = self.cache.get
        for i, key in enumerate(keys):
            hit = cache_get(key)
            if hit is None:
                todo.append(i)
            else:
                out[i] = hit
        if todo:
            vals = self._strip_fresh(s_arr[todo])
            out[todo] = vals
            for i, val in zip(todo, vals.tolist()):
                self.cache[keys[i]] = val
            excess = len(self.cache) - _POINT_CACHE
            if excess > 0:
                for key in list(itertools.islice(self.cache, excess)):
                    del self.cache[key]
        return out

    def _strip_fresh(self, s_arr):
        """B at points s_arr of the walk window by the strip rule, each on
        its line (``_beta_for``), without the point cache."""
        out = np.empty(s_arr.shape, dtype=complex)
        betas = np.array([_beta_for(x) for x in s_arr.real])
        for beta in np.unique(betas):
            grp = betas == beta
            out[grp] = self._strip_values(
                self._strip_batch(s_arr[grp], beta), beta)
        return out

    def _strip_values(self, F, beta):
        # exp of the long-double F in two parts: e^hi (1 + lo) with lo, the
        # part of F below double precision, of order 1e-14
        off = 0.0 if beta == _GAUGE_BETA else self._gauge_offset()
        hi = F.astype(complex)
        lo = (F - hi).astype(complex)
        return np.exp(hi - off) * _B_SCALE * (1.0 + lo)

    # ---------------- continuation by functional equation ----------------

    def eval_B(self, s):
        """B anywhere off the pole lattice, by strip + functional equation."""
        return complex(self.eval_B_many(np.array([s], dtype=complex))[0])

    def eval_B_many(self, s_arr):
        s_arr = np.asarray(s_arr, dtype=complex)
        out = self._walk(s_arr.ravel(),
                         lambda _idx, base: self._strip_many(base))
        return out.reshape(s_arr.shape)

    def _line_blocks(self, re_line, n_lo, n_hi):
        """Blocks n_lo <= n < n_hi of the line re_line, each (edges, values
        at the Chebyshev nodes).

        Block n is Im s in [6.4 n, 6.4 (n + 1)): _BLOCK_SEGS segments of
        the 0.8 grid, those near a real pole of B halved as
        ``_split_near_poles`` says.  The nodes of whole segments take the
        strip exponent of ``_strip_segments`` and the walk of eval_B_many;
        the nodes of halved segments are eval_B_many's scattered points,
        taken past the point cache.  The blocks a request lacks are built
        together, each of them to the same bits as alone, and kept in the
        evaluator's store, which drops the least recently used blocks past
        _LINE_BYTES.
        """
        line = round(re_line * 1e12)
        blocks = {}
        for n in range(n_lo, n_hi):
            block = self._blocks.get((line, n))
            if block is not None:
                self._blocks.move_to_end((line, n))
                blocks[n] = block
        missing = [n for n in range(n_lo, n_hi) if n not in blocks]
        if missing:
            uniform = _CHEB_SEG * (_BLOCK_SEGS * np.array(missing)[:, None]
                                   + np.arange(_BLOCK_SEGS + 1.0))
            mids, half = (a.ravel() for a in _segment_nodes(uniform))
            ys = mids[:, None] + half[:, None] * _CHEB_X
            k = math.floor(re_line - _WALK_LO)
            beta = _beta_for(re_line - k)
            base = self._strip_values(
                self._strip_segments(re_line - k, beta, mids, half),
                beta).ravel()
            vals = self._walk((re_line + 1j * ys).ravel(),
                              lambda idx, _base: base[idx])
            for n, edges, v in zip(missing, uniform, vals.reshape(
                    len(missing), _BLOCK_SEGS, _CHEB_DEG)):
                blocks[n] = self._keep_block(
                    (line, n), self._split_block(re_line, edges, v))
        return [blocks[n] for n in range(n_lo, n_hi)]

    def _split_block(self, re_line, uniform, vals):
        """(edges, node values) of a block whose whole segments' values
        are vals: segments near a real pole of B halved, their nodes
        B at scattered points."""
        edges = _split_near_poles(uniform, re_line)
        if edges.size == uniform.size:
            return edges, vals
        mids, half = _segment_nodes(edges)
        whole = np.isin(edges[:-1], uniform) & np.isin(edges[1:], uniform)
        split = np.empty((edges.size - 1, _CHEB_DEG), dtype=complex)
        split[whole] = vals[np.searchsorted(uniform, edges[:-1][whole])]
        pts = re_line + 1j * (mids[~whole, None]
                              + half[~whole, None] * _CHEB_X)
        split[~whole] = self._walk(
            pts.ravel(), lambda _idx, base: self._strip_fresh(base)
        ).reshape(pts.shape)
        return edges, split

    def _keep_block(self, key, block):
        for arr in block:
            arr.flags.writeable = False
        self._blocks[key] = block
        self._block_bytes += sum(arr.nbytes for arr in block)
        while self._block_bytes > _LINE_BYTES and len(self._blocks) > 1:
            _, old = self._blocks.popitem(last=False)
            self._block_bytes -= sum(arr.nbytes for arr in old)
        return block

    def _walk(self, flat, strip):
        """B at the points flat, walked by the functional equation.

        Each point is moved by an integer k into the base window
        [_WALK_LO, _WALK_LO + 1); ``strip(idx, base)`` returns B at the
        base points base = flat[idx] - k of one k.  Points whose walk
        factor lands on a pole or zero of W take the circle fallback; left
        of the W table's last pole they raise PoleError.
        """
        near = _pole_distance(flat) < _POLE_GUARD
        if near.any():
            raise PoleError(
                f"B has a pole at or near s = {flat[np.argmax(near)]}"
            )
        out = np.empty(flat.shape, dtype=complex)
        k_all = np.floor(flat.real - _WALK_LO).astype(int)
        for k in np.unique(k_all):
            idx = np.nonzero(k_all == k)[0]
            grp = flat[idx]
            base = grp - k
            collided = np.zeros(len(grp), dtype=bool)
            factors = np.ones(len(grp), dtype=complex)
            if k:
                # W at every step's arguments base + j in one call, the
                # factors still multiplied step by step
                steps = np.arange(min(k, 0), max(k, 0))
                bad_all, w_all = self._w_collision(
                    (base + steps[:, None]).ravel())
                for bad, w_arg in zip(bad_all.reshape(steps.size, -1),
                                      w_all.reshape(steps.size, -1)):
                    collided |= bad
                    safe = ~bad
                    if safe.any():
                        # out of place: numpy rounds an in-place complex
                        # product on one element otherwise than on many
                        w = -w_arg[safe]
                        if k > 0:
                            factors[safe] = factors[safe] * w
                        else:
                            factors[safe] = factors[safe] / w
            clean = ~collided
            if clean.any():
                out[idx[clean]] = (strip(idx[clean], base[clean])
                                   * factors[clean])
            for i in np.nonzero(collided)[0]:
                if grp[i].real < _w_zero_table().w_poles_neg[-1]:
                    raise PoleError(
                        f"the walk from s = {grp[i]} meets a zero or pole "
                        f"of W beyond the tabulated ones")
                out[idx[i]] = self._cauchy_fallback(grp[i])
        return out

    def line_interpolator(self, re_line, im_lo, im_hi):
        """Chebyshev interpolant of B on the line Re s = re_line over the
        blocks that cover [im_lo, im_hi] (``BLineInterpolator``)."""
        return BLineInterpolator(self, re_line, im_lo, im_hi)

    @staticmethod
    def _w_collision(arg):
        """Mask of walk factors on or next to a pole or zero of W, and W.

        Returns (bad, w).  W is evaluated off its poles alone and reads 0
        on them; the walk reuses w as its factors.
        """
        bad = _w_pole_distance(arg) < _COLLIDE_TOL
        w = np.zeros(len(arg), dtype=complex)
        if not bad.all():
            w[~bad] = eval_W(arg[~bad])
        return bad | (np.abs(w) < _COLLIDE_TOL), w

    def _cauchy_fallback(self, s):
        """Circle average of B around s when the direct walk collides.

        The radius, 0.3, shrinks to stay clear of the nearest true
        singularity of B (e.g. B(-5) sits 0.0457 from the pole ladder head
        sigma*_1 - 0).
        """
        d_min = _pole_distance(s)
        radius = min(0.3, 0.6 * d_min)
        if not radius >= 0.01:
            raise PoleError(
                f"cannot average B around {s}: singularity within {d_min:.4f}"
            )
        r = integrate_circle(
            lambda z: self.eval_B_many(z) / (z - s), s, radius, n_min=32
        )
        return complex(r.value)

    # ---------------- residues and constants ----------------

    def residue_inv_B(self, sigma, radius=0.3):
        """Res(1/B, sigma) by circle quadrature (0 where 1/B is analytic).

        The independent oracle for the ladder (``laurent``), which the
        Lambda routes read; it also serves points off the real axis.
        """
        sigma = complex(sigma)
        # no zero or pole of B may sit on or inside the circle except sigma
        reach = radius + 0.02
        for z0 in np.concatenate(_b_singularities(sigma.real - reach,
                                                  sigma.real + reach)):
            if abs(z0 - sigma) > 1e-9 and abs(z0 - sigma) < reach:
                raise PoleError(
                    f"circle of radius {radius} at {sigma} encloses or "
                    f"touches a singularity of 1/B at {z0}"
                )
        r = integrate_circle(
            lambda z: 1.0 / self.eval_B_many(z), sigma, radius, n_min=32
        )
        return complex(r.value)

    def residue_B(self, sigma):
        """Res(B, sigma) by circle quadrature of radius 0.3: the independent
        oracle for the ladder (``laurent``), which the Lambda routes read."""
        r = integrate_circle(self.eval_B_many, complex(sigma), 0.3, n_min=32)
        return complex(r.value)

    def _log_derivative(self, s):
        """B'(s)/B(s) by the strip rule's derivative kernel and the walk,
        or None where the walk collides with a zero or pole of W.

        s walks to b = s - k in the walk window, as in eval_B, so
        log B(s) = log B(b) + sum_j log(-W(b + j)) over 0 <= j < k (less
        the factors k <= j < 0 when k < 0), and the walk adds
        +-sum_j W'(b + j)/W(b + j).  d/ds k_plus = 2 i pi k_plus (k_plus
        - 1), so the strip exponent's derivative at b is
        -2 pi int log(-W(beta + i w)) k_plus (k_plus - 1) dw: it has no
        plateau, and k_plus (k_plus - 1) = g_plus (g_plus -+ 1), +1 on the
        step side x <= 0 and -1 beyond, decays like g_plus.  So it is one
        window of taps within _MARGIN of Im b on the strip lattice
        (``_rule_samples``), against ``_lattice_kernel``'s row, checked
        against the 2h rule as ``_strip_batch`` checks B, with h halving
        at most _MAX_REFINEMENTS times while they differ by more than
        _REL_TOL * max(|L|, 1).
        """
        s = complex(s)
        k = math.floor(s.real - _WALK_LO)
        b = s - k
        walk = 0.0
        if k:
            x = b + np.arange(min(k, 0), max(k, 0))
            bad, w = self._w_collision(x)
            if bad.any():
                return None
            walk = np.sum(eval_W_prime(x) / w) * (1 if k > 0 else -1)
        beta = _beta_for(b.real)
        q = np.exp(2j * np.pi * (b.real - beta))
        h = _STEP
        for _ in range(_MAX_REFINEMENTS + 1):
            m_half = math.ceil(_MARGIN / h)
            p = np.longdouble(b.imag) / h - 0.5
            j0 = math.floor(p)
            g = _lattice_kernel(float(p - j0), q, h)
            kern = g * (g + np.where(np.arange(g.size) <= m_half, 1.0, -1.0))
            j_lo, a, _, _ = self._rule_samples(
                beta, min(0.0, b.imag) - _MARGIN, max(0.0, b.imag) + _MARGIN,
                h)
            fine, coarse = -2.0 * np.pi * (
                a[:, j0 - m_half - j_lo:j0 + m_half + 1 - j_lo] @ kern)
            if abs(fine - coarse) <= _REL_TOL * max(abs(fine), 1.0):
                return complex(fine + walk)
            h /= 2.0
        raise ConvergenceError(f"B' strip rule stalled at lattice step {h}")

    def eval_B_prime(self, s):
        """B'(s) = B(s) * ``_log_derivative``(s).

        Where the walk collides with a zero or pole of W (as at the zeros
        3 and 4 of B, where B'/B is infinite), B' is a Cauchy derivative
        circle of radius 0.05 or less instead, as B there is the circle
        average of ``_cauchy_fallback``.
        """
        s = complex(s)
        log_d = self._log_derivative(s)
        if log_d is not None:
            return log_d * self.eval_B(s)
        d_min = _pole_distance(s)
        radius = min(0.05, 0.5 * d_min)
        if not radius >= 1e-3:
            raise PoleError(f"B'({s}): singularity within {d_min:.4f}")
        r = integrate_circle(
            lambda z: self.eval_B_many(z) / (z - s) ** 2, s, radius, n_min=32
        )
        return complex(r.value)

    @memo(64)
    def laurent(self, s):
        """(m, c) with B(s + e) = c e^m + O(e^(m+1)) at the real point s.

        The functional-equation ladder: s walks to b = s - k in the walk
        window, where B is analytic and nonzero, and B(s) is B(b) times the
        factors -W(b + j), 0 <= j < k (divided by the factors k <= j < 0
        when k < 0).  Each factor contributes its leading term: -W(x) where
        W is regular, -W'(x) e at a zero of W (0, 2, sigma_n, sigma*_n;
        order +1) and -Res(W, x) / e at a pole (4n, -2(2n+1); order -1,
        the residue from ``w_residue``).  A factor within _LADDER_TOL of a
        zero or pole sits on it.  So every real residue of B and of 1/B,
        and B where the walk collides, come from one strip value and W
        alone, with no circle of B; at a regular point c is eval_B(s).
        The factors must stay within the poles that bound _w_zero_table.
        The evaluator keeps the 64 most recently read points, the bases
        among them, so B is read once at each distinct base b: 1 for the
        integers, and two more for the cascade zeros of the series.
        """
        s = float(s)
        k = math.floor(s - _WALK_LO)
        if k == 0:
            return 0, self.eval_B(s)
        base = s - k
        x = base + np.arange(min(k, 0), max(k, 0))
        table = _w_zero_table()
        if x.size and not (table.w_poles_neg[-1] <= x.min()
                           and x.max() <= table.w_poles_pos[-1]):
            raise ValueError(f"the ladder from s = {s} leaves the W table")
        zeros = np.array(table.trivial_zeros + table.w_zeros_pos
                         + table.w_zeros_neg)
        poles = np.array(table.w_poles_pos + table.w_poles_neg)
        zero = zeros[np.abs(x[:, None] - zeros).argmin(axis=1)]
        pole = poles[np.abs(x[:, None] - poles).argmin(axis=1)]
        on_zero = np.abs(x - zero) < _LADDER_TOL
        on_pole = np.abs(x - pole) < _LADDER_TOL
        regular = ~(on_zero | on_pole)
        lead = np.empty(x.size, dtype=complex)
        if on_zero.any():
            lead[on_zero] = eval_W_prime(zero[on_zero])
        if regular.any():
            lead[regular] = eval_W(x[regular])
        for i in np.nonzero(on_pole)[0]:
            lead[i] = w_residue(float(pole[i]))
        factors = 1.0 + 0j
        for w in lead:
            factors = factors * -w if k > 0 else factors / -w
        order = int(on_zero.sum() - on_pole.sum())
        return (order if k > 0 else -order), self.laurent(base)[1] * factors

    def derived_constants(self):
        """The residue ledger of the long-time asymptotics of Lambda.

        Every entry is read off the ladder (``laurent``): B has simple
        zeros at 3 and 4 and a simple pole at 0, and is finite at 5 (a
        W-pole times a B-zero) and at -2..-5 (W-zeros against W-poles).
        So c1 = -Res(1/B, 3) = -1/(B(1) W(1) W'(2)), and
        c2 = 6 rho4 Res(B, 0)/sqrt(2 pi) = -6 rho4 B(1)/(sqrt(2 pi) W'(0)).
        """
        rho4 = 1.0 / self.laurent(4.0)[1]
        b5 = self.laurent(5.0)[1]
        resB0 = self.laurent(0.0)[1]
        c1 = -1.0 / self.laurent(3.0)[1]
        c2 = 6.0 * rho4 * resB0 / SQRT_2PI
        c3 = rho4 * b5 / SQRT_2PI
        P = [0.0 + 0j, 0.0 + 0j]
        for n in range(2, 6):
            P.append((-1.0) ** n
                     / (math.factorial(n) * self.laurent(-float(n))[1]))
        Q = tuple(-n * p for n, p in enumerate(P))
        return ResidueLedger(
            rho4=rho4, resB0=resB0, c1=c1, c2=c2, c3=c3, P=tuple(P), Q=Q
        )


_DEFAULT = None


def default_evaluator():
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BEvaluator()
    return _DEFAULT

