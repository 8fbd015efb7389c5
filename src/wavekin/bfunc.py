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
reference line is the zero of W at 0), so the rule converges geometrically
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Rev. 56, 2014).  It is checked against the 2h rule on the even nodes,
and h halves, at most three times, where the two differ by more than 1e-11
relative.  Each kernel is split into a step and a remainder:
k_plus = g_plus + [w <= Im s] and k_minus = g_minus + [w < 0].  Both g's
decay like e^{-2 pi |w - centre|}, so each is summed over a +-6.5 window,
and the steps leave a plateau: the sum of the samples between 0 and Im s,
which must count the node at w = Im s because g_plus takes the step there.
The plateau reaches ~400 at |Im s| ~ 200 and its last digits are the phase
of B, so it is summed outward from w = 0 in long double.  Scattered points
sum their g_plus windows directly.  The nodes of a line interpolant repeat
every 16 lattice steps, so a line build forms all its windows with one
batched FFT correlation (``_fft_correlate``, on scipy.fft).

Each evaluator keeps one lattice per (beta, h) (``_StripLattice``): both
rules' samples, arg(-W) and the long-double plateau sums, grown on demand
to cover each request's window, so log(-W) is sampled once per node.
Growing continues the sequential sums outward, and a request reads the
slice a fresh lattice over its own window would hold, so every value is
the same bit for bit.  The branch audit runs on every newly sampled range
and the end-decay check on every request.

Two bookkeeping subtleties, both measured and pinned by tests:

* The counterterm must be centered at the line (rho - beta in the second
  exponential), so that its poles move with the line.  The variant with the
  counterterm fixed at the origin jumps by exactly -1/W(1/2) when the line
  crosses that half-odd counterterm pole (measured ratio 3.5211285608185445
  to machine precision), breaking the functional equation.  Even centered,
  the exponent retains a *constant* (s-independent, real, measured constant
  to 15 digits) additive dependence on beta; since the functional equation
  and every downstream quantity (which use only B-ratios) are gauge
  invariant, we fix the gauge by splicing every line back to the canonical
  beta = 0.3 line through probe points, and fix the one remaining global
  scale by the documented _B_SCALE constant so that |B| meets its strip
  bounds on the contract box.

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

The poles and zeros of B on the real axis follow from the ladder, as the
W-poles and W-zeros its walk crosses.  Poles: 0 and -1, the integers m >= 9
(of order floor((m - 1)/4) - 1: simple at 9..12, double at 13..16), and the
descending ladders sigma*_n - j (j >= 0) below each negative zero of W; 5 is
*not* a pole.  Zeros: 3 and 4, the integers m <= -6 (of order
floor((-m - 2)/4): simple at -6..-9), and the ladders sigma_n + j (j >= 1)
above each positive zero of W.
"""

import collections
import dataclasses
import functools
import itertools
import math

import numpy as np
import scipy.fft

from wavekin.complexfn import eval_W, eval_W_prime, locate_W_roots, w_residue
from wavekin.contour import integrate_circle
from wavekin.errors import ConvergenceError, PoleError, WavekinError

__all__ = [
    "BEvaluator",
    "ResidueLedger",
    "BranchError",
    "default_evaluator",
    "eval_B",
    "eval_B_strip",
    "residue_inv_B",
    "derived_constants",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

_WALK_LO = 0.55          # base window Re in [_WALK_LO, _WALK_LO + 1)
_POLE_GUARD = 1e-6
_COLLIDE_TOL = 1e-6
_LADDER_TOL = 1e-9       # a ladder factor this close to a W zero/pole is on it
_PANEL_W = 0.25          # eval_B_prime_strip's Gauss panel width
_MARGIN = 6.5            # g+/g- windows: both decay below 2e-18 beyond
_GAUGE_BETA = 0.3        # canonical line: all other lines splice onto it
_LINE_CACHE = 16         # line interpolants one evaluator keeps (LRU)
_POINT_CACHE = 2 ** 15   # strip points one evaluator keeps (oldest go first)

# Global scale of B (a free gauge: the construction determines B only up to a
# positive constant, and all derived quantities are scale invariant).  Chosen
# at the center of the measured feasibility window so that |B| lies within
# the contract bounds [0.2, 5] on Re s in [0.5, 1.5], |Im s| in [5, 500];
# see scripts/calibrate.py.  (The functional equation forces
# |B(x+1+iT)| / |B(x+iT)| = |W(x+iT)| ~ 2 log T, so no single constant can
# hold the bounds over the full open strip at large |Im s|.)
_B_SCALE = 7.37


def memo(maxsize, key=None):
    """Memoize ``fn(ev, *args)`` in an LRU map that the evaluator ev owns.

    The map lives in ``ev._memo`` under fn, so it is freed with the
    evaluator and keeps no evaluator alive.  It is keyed on ``key(*args)``
    (the arguments themselves by default) and keeps the maxsize most
    recently used entries; a hit renews its entry.  fn never returns None.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def cached(ev, *args):
            k = args if key is None else key(*args)
            store = ev._memo.get(fn)
            if store is None:
                store = ev._memo[fn] = collections.OrderedDict()
            val = store.get(k)
            if val is None:
                val = store[k] = fn(ev, *args)
                if len(store) > maxsize:
                    store.popitem(last=False)
            else:
                store.move_to_end(k)
            return val
        return cached
    return decorate


def _line_key(re_line, im_lo, im_hi):
    # a line window snaps outward to the 2.0 lattice: 2 * key[1], 2 * key[2]
    return (round(re_line * 1e12), math.floor(im_lo / 2.0),
            math.ceil(im_hi / 2.0))


class BranchError(WavekinError):
    """arg(-W) wrapped by >= pi between audit nodes on the contour."""


@dataclasses.dataclass(frozen=True)
class ResidueLedger:
    """Residues of 1/B and the derived constants of the long-time expansion.

    P[n] = Res(Gamma(w)/B(w), w=-n) and Q[n] = -n P[n] for n = 0..5.
    c2 and c3 carry the 1/sqrt(2pi) of the mass-1 normalization used by the
    fundamental-solution module.
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


def _near_b_pole_mask(s):
    """Mask of points within _POLE_GUARD of the known pole lattice of B."""
    s = np.asarray(s, dtype=complex)
    m = (np.abs(s) < _POLE_GUARD) | (np.abs(s + 1.0) < _POLE_GUARD)
    n = np.round(s.real)
    m |= (n >= 9) & (np.abs(s - n) < _POLE_GUARD)
    # the ladders star - j, j >= 0, below each negative zero of W
    stars = np.array(_w_zero_table().w_zeros_neg)
    j = np.round(stars - s.real[..., None])
    m |= ((j >= 0) & (np.abs(s[..., None] - (stars - j))
                      < _POLE_GUARD)).any(axis=-1)
    return m


def _k_plus(s, beta, v):
    # 1/(1 - e^{2 i pi (s - rho)}) on rho = beta + iv, overflow-free
    q = np.exp(2j * np.pi * (s.real - beta))
    x = 2.0 * np.pi * (v - s.imag)
    out = np.empty(v.shape, dtype=complex)
    grow = x > 0
    u = np.exp(-x[grow])
    out[grow] = -u / (q - u)
    out[~grow] = 1.0 / (1.0 - q * np.exp(x[~grow]))
    return out


def _k_minus(v):
    # 1/(1 + e^{-2 i pi (rho - beta)}) on rho = beta + iv: a real logistic
    y = 2.0 * np.pi * v
    out = np.empty(v.shape, dtype=float)
    grow = y > 0
    u = np.exp(-y[grow])
    out[grow] = u / (u + 1.0)
    out[~grow] = 1.0 / (1.0 + np.exp(y[~grow]))
    return out


_gl24 = np.polynomial.legendre.leggauss(24)   # eval_B_prime_strip's panels

_CHEB_DEG = 24
_CHEB_SEG = 0.4
_STEP = _CHEB_SEG / 16   # lattice step h: 16 steps per Chebyshev segment
_REL_TOL = 1e-11         # h rule against 2h rule, relative to max(|F|, 1)
_MAX_REFINEMENTS = 3     # halvings of h before ConvergenceError


@functools.lru_cache(maxsize=4)
def _cheb_basis(deg):
    k = np.arange(deg)
    theta = np.pi * (k + 0.5) / deg
    mat = (2.0 / deg) * np.cos(np.outer(np.arange(deg), theta))
    mat[0] *= 0.5
    return mat, np.cos(theta)


def _g_plus(x, q):
    # k_plus less its step at x = 2 pi (w - Im s): the step is taken where
    # x <= 0, so the plateau must count the nodes w <= Im s
    u = np.exp(-np.abs(x))
    return np.where(x > 0, -u / (q - u), q * u / (1.0 - q * u))


def _fft_correlate(a, kern):
    """out[..., k] = sum_i kern[..., i] * a[..., i + k], 0 <= k <= N - K.

    The correlation along the last axis (N = a.shape[-1] >= K =
    kern.shape[-1]; the leading axes broadcast), as the convolution of a
    with kern reversed in the arithmetic of scipy.signal.fftconvolve, so
    its values are those of fftconvolve's "valid" mode bit for bit:
    fftn/ifftn, or rfftn/irfftn when both inputs are real, at length
    next_fast_len(N + K - 1).  scipy.signal is not imported because it
    and the scipy.stats it loads take most of a cold start.
    """
    n_a, n_k = a.shape[-1], kern.shape[-1]
    real = not (np.iscomplexobj(a) or np.iscomplexobj(kern))
    fft, ifft = ((scipy.fft.rfftn, scipy.fft.irfftn) if real
                 else (scipy.fft.fftn, scipy.fft.ifftn))
    size = (scipy.fft.next_fast_len(n_a + n_k - 1, real),)
    spectrum = fft(a, size, axes=(-1,)) * fft(kern[..., ::-1], size,
                                              axes=(-1,))
    full = ifft(spectrum, size, axes=(-1,))
    return full[..., n_k - 1:n_a]


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
    """Chebyshev interpolant of B along one vertical line.

    B restricted to a line inside the strip is analytic with the nearest
    singularity at least ~0.5 away, so a degree-24 fit per 0.4-wide
    segment reproduces it to ~1e-12; quadrature routines that sample the
    same line thousands of times query this instead of evaluating B per
    node.  A segment is 16 steps of the strip rule's lattice, so the 24
    node offsets repeat along the lattice and the strip exponent at every
    node comes from one batched FFT convolution (BEvaluator._strip_line).
    """

    def __init__(self, evaluator, re_line, im_lo, im_hi):
        if not im_hi > im_lo:
            raise ValueError("empty line window")
        self.re_line = float(re_line)
        n_seg = int(math.ceil((im_hi - im_lo) / _CHEB_SEG))
        self.edges = im_lo + _CHEB_SEG * np.arange(n_seg + 1.0)
        self.edges[-1] = max(self.edges[-1], im_hi)
        self.half = 0.5 * _CHEB_SEG
        self.mids = self.edges[:-1] + self.half
        mat, xnodes = _cheb_basis(_CHEB_DEG)
        vals = evaluator._eval_B_line(
            self.re_line, self.mids[0] + self.half * xnodes, n_seg)
        self.coef = mat @ vals.T      # (degree, segment)
        self.deg = _CHEB_DEG

    def __call__(self, s_arr):
        s_arr = np.asarray(s_arr, dtype=complex)
        x = s_arr.ravel().imag
        if x.size and (x.min() < self.edges[0] or x.max() > self.edges[-1]):
            raise ValueError(
                f"query at Im s in [{x.min():.2f}, {x.max():.2f}] outside "
                f"the interpolated window "
                f"[{self.edges[0]:.2f}, {self.edges[-1]:.2f}]"
            )
        idx = np.clip(np.searchsorted(self.edges, x) - 1, 0,
                      len(self.mids) - 1)
        tloc = (x - self.mids[idx]) / self.half
        b1 = np.zeros(x.shape, dtype=complex)
        b2 = np.zeros(x.shape, dtype=complex)
        for j in range(self.deg - 1, 0, -1):
            b1, b2 = 2.0 * tloc * b1 - b2 + self.coef[j][idx], b1
        return (tloc * b1 - b2 + self.coef[0][idx]).reshape(s_arr.shape)


class BEvaluator:
    """Evaluator for B, ``BEvaluator(beta=0.3)``.

    ``beta`` is the reference abscissa.  Per-call lines use beta or
    beta + 1/2 depending on where Re s falls in the strip, keeping a margin
    of at least 1/4 from the kernel poles; the centered counterterm makes the
    value independent of that choice.

    The evaluator owns all of its caches, which are freed with it: one
    strip lattice per (line, step), the gauge offsets, the point cache
    ``cache``, keyed on (Re s, Im s) to 1e-12, which keeps the _POINT_CACHE
    most recently added strip values, and the ``memo`` maps: the
    _LINE_CACHE most recently used line interpolants, and fundsol's line
    tables, assemblies, Mellin-Barnes lines, ledger and series constants.
    """

    def __init__(self, beta=0.3):
        if not 0.2 <= beta <= 0.45:
            raise ValueError("reference beta must sit in [0.2, 0.45]")
        self.beta = beta
        self.cache = {}       # quantized (re, im) -> strip value, oldest first
        self._gauge = {}      # beta_used -> F-offset onto the canonical line
        self._lattices = {}   # (beta, h) -> _StripLattice
        self._memo = {}       # memoized function -> its LRU map (see memo)

    # ---------------- strip representation ----------------

    def _line_values(self, beta, v):
        """log(-W) at beta + i v, with the branch audit.

        The principal branch is the continuous one here: the audit checks,
        on the sorted nodes v themselves, that arg(-W) = Im log(-W) never
        approaches +-pi nor jumps by >= pi between nodes, and that it decays
        at the window ends, which pins the branch the representation needs
        (arg -> 0 at +-i infinity).
        """
        logw = np.log(-eval_W(beta + 1j * v))
        _audit_samples(logw.imag, beta)
        _audit_ends(logw.imag[0], logw.imag[-1])
        return logw

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
        cover [lo, hi] with the audit of _line_values; the end-decay check
        runs on this window's own ends.
        """
        j_lo = math.floor(lo / h - 0.5) - 2
        j_hi = math.ceil(hi / h - 0.5) + 3
        lattice = self._lattices.get((beta, h))
        if lattice is None:
            lattice = self._lattices[(beta, h)] = _StripLattice(beta, h)
        lattice.cover(j_lo, j_hi)
        i0, i1 = j_lo - lattice.lo, j_hi - lattice.lo
        _audit_ends(lattice.arg[i0], lattice.arg[i1 - 1])
        w = (np.arange(j_lo, j_hi) + 0.5) * h
        return (w, lattice.a[:, i0:i1], lattice.plateau[:, i0:i1 + 1],
                lattice.gm)

    def _strip_rule(self, beta, y_lo, y_hi, g_plus):
        """Strip exponent F at nodes with Im s in [y_lo, y_hi], one beta line.

        The trapezoid rule of the module docstring, shared by scattered
        points and line builds; they differ only in how they form the
        g_plus window sums.  ``g_plus(w, a, h)`` returns those sums for
        both rules, shape (2, n), and for each node the number of lattice
        nodes w_j <= Im s, which index the plateau.  The h rule is accepted
        where it is within _REL_TOL * max(|F|, 1) of the 2h rule at every
        node; otherwise h halves, at most _MAX_REFINEMENTS times.
        """
        lo = min(0.0, y_lo) - _MARGIN
        hi = max(0.0, y_hi) + _MARGIN
        h = _STEP
        for _ in range(_MAX_REFINEMENTS + 1):
            w, a, plateau, gm = self._rule_samples(beta, lo, hi, h)
            g, count = g_plus(w, a, h)
            fine, coarse = (plateau[:, count] + (g - gm[:, None])).astype(
                complex)
            if (np.abs(fine - coarse)
                    <= _REL_TOL * np.maximum(np.abs(fine), 1.0)).all():
                return 1j * fine
            h /= 2.0
        raise ConvergenceError(f"B strip rule stalled at lattice step {h}")

    def _strip_batch(self, s_arr, beta):
        """Strip exponent F(s) at scattered points s sharing one beta line.

        Each point sums its g_plus window directly against the lattice
        samples, in chunks of 128 points sorted by Im s.
        """
        order = np.argsort(s_arr.imag, kind="stable")
        ss = s_arr[order]
        q = np.exp(2j * np.pi * (ss.real - beta))

        def g_plus(w, a, h):
            g = np.empty((2, ss.size), dtype=complex)
            for c in range(0, ss.size, 128):
                y = ss.imag[c:c + 128]
                i0, i1 = np.searchsorted(w, [y[0] - _MARGIN, y[-1] + _MARGIN])
                kern = _g_plus(2.0 * np.pi * (w[None, i0:i1] - y[:, None]),
                               q[c:c + 128, None])
                g[:, c:c + 128] = a[:, i0:i1] @ kern.T
            return g, np.searchsorted(w, ss.imag, side="right")

        F = np.empty(ss.shape, dtype=complex)
        F[order] = self._strip_rule(beta, ss.imag[0], ss.imag[-1], g_plus)
        return F

    def _strip_line(self, re_base, beta, y0, n_rep):
        """Strip exponent at re_base + i (y0 + 0.4 k), k < n_rep, by FFT.

        With stride = 0.4 / h, the node of offset c in repeat k sits at
        lattice index j_c + stride k plus the fraction f_c, so its g_plus
        window sum is a correlation of the samples with the row
        g_plus(2 pi h (m - f_c)), |m| <= 6.5 / h, read every stride
        outputs: one batched FFT correlation (_fft_correlate) of both rules
        against the len(y0) rows.  Returns shape (n_rep, len(y0)).
        """
        q = np.exp(2j * np.pi * (re_base - beta))
        reps = np.arange(n_rep)

        def g_plus(w, a, h):
            stride = round(_CHEB_SEG / h)
            m_half = math.ceil(_MARGIN / h)
            pos = (y0 - w[0]) / h
            j = np.floor(pos).astype(int)
            m = np.arange(-m_half, m_half + 1)
            kern = _g_plus(2.0 * np.pi * h * (m - (pos - j)[:, None]), q)
            lo = j.min() - m_half
            hi = j.max() + stride * (n_rep - 1) + m_half + 1
            conv = _fft_correlate(a[:, None, lo:hi], kern[None])
            pick = (j - j.min())[:, None] + stride * reps
            g = np.take_along_axis(conv, pick[None], axis=2)
            count = j + stride * reps[:, None] + 1
            return g.transpose(0, 2, 1).reshape(2, -1), count.ravel()

        last = y0 + _CHEB_SEG * (n_rep - 1)
        F = self._strip_rule(beta, y0.min(), last.max(), g_plus)
        return F.reshape(n_rep, len(y0))

    def _beta_for(self, re_base):
        # re_base in [_WALK_LO, _WALK_LO + 1); keep >= 0.25 margin to the
        # kernel poles of 1/(1 - e^{2 i pi (s - rho)}) at Re rho = Re s - n
        if re_base < _WALK_LO + 0.5:
            return self.beta
        return self.beta + 0.5

    def _gauge_offset(self, beta_used):
        """F-offset of the beta_used line relative to the canonical line.

        The strip exponent F(s; beta) depends on beta through an s-independent
        real constant.  Probe points with >= 1/4 margin on both lines splice
        any admissible line back onto _GAUGE_BETA (possibly via the reference
        line when beta_used > 0.8 leaves no common probe).
        """
        off = self._gauge.get(beta_used)
        if off is not None:
            return off
        if abs(beta_used - _GAUGE_BETA) < 1e-12:
            off = 0.0
        elif beta_used <= 0.8:
            lo = max(_GAUGE_BETA, beta_used) + 0.25
            hi = min(_GAUGE_BETA, beta_used) + 0.75
            probe = np.array([0.5 * (lo + hi) + 0j])
            off = (self._strip_batch(probe, beta_used)[0]
                   - self._strip_batch(probe, _GAUGE_BETA)[0]).real
        else:
            probe = np.array([beta_used + 0.25 + 0j])
            step = (self._strip_batch(probe, beta_used)[0]
                    - self._strip_batch(probe, beta_used - 0.5)[0]).real
            off = step + self._gauge_offset(beta_used - 0.5)
        self._gauge[beta_used] = off
        return off

    def eval_B_strip(self, s):
        """B(s) by the line integral alone (no walking).

        Valid where some admissible line fits: beta < Re s < beta + 1 with
        >= 0.02 margin, for beta in {reference, reference + 1/2}.
        """
        s = complex(s)
        if not self.beta + 0.02 < s.real < self.beta + 1.48:
            raise ValueError(
                f"Re s = {s.real} outside the strip reachable from "
                f"beta = {self.beta}"
            )
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
            sub = s_arr[todo]
            betas = np.array([self._beta_for(x) for x in sub.real])
            for beta in np.unique(betas):
                grp = np.nonzero(betas == beta)[0]
                vals = self._strip_values(self._strip_batch(sub[grp], beta),
                                          beta)
                for j, i in enumerate(grp):
                    out[todo[i]] = vals[j]
                    self.cache[keys[todo[i]]] = complex(vals[j])
            excess = len(self.cache) - _POINT_CACHE
            if excess > 0:
                for key in list(itertools.islice(self.cache, excess)):
                    del self.cache[key]
        return out

    def _strip_values(self, F, beta):
        return np.exp(F - self._gauge_offset(beta)) * _B_SCALE

    # ---------------- continuation by functional equation ----------------

    def eval_B(self, s):
        """B anywhere off the pole lattice, by strip + functional equation."""
        return complex(self.eval_B_many(np.array([s], dtype=complex))[0])

    def eval_B_many(self, s_arr):
        s_arr = np.asarray(s_arr, dtype=complex)
        out = self._walk(s_arr.ravel(),
                         lambda _idx, base: self._strip_many(base))
        return out.reshape(s_arr.shape)

    def _eval_B_line(self, re_line, y0, n_rep):
        """B at re_line + i (y0 + 0.4 k), k < n_rep, shape (n_rep, len(y0)).

        The line-build route: one FFT gives the strip exponent at every
        node of the base line (_strip_line), then the same walk as
        eval_B_many.  The values do not enter the point cache.
        """
        ys = y0 + _CHEB_SEG * np.arange(n_rep)[:, None]
        k = math.floor(re_line - _WALK_LO)
        beta = self._beta_for(re_line - k)
        base = self._strip_values(
            self._strip_line(re_line - k, beta, y0, n_rep), beta).ravel()
        out = self._walk((re_line + 1j * ys).ravel(),
                         lambda idx, _base: base[idx])
        return out.reshape(ys.shape)

    def _walk(self, flat, strip):
        """B at the points flat, walked by the functional equation.

        Each point is moved by an integer k into the base window
        [_WALK_LO, _WALK_LO + 1); ``strip(idx, base)`` returns B at the
        base points base = flat[idx] - k of one k.  Points whose walk
        factor lands on a pole or zero of W take the circle fallback; left
        of the W table's last pole they raise PoleError.
        """
        near = _near_b_pole_mask(flat)
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
            args_list = (
                [base + j for j in range(k)] if k >= 0
                else [base + j for j in range(k, 0)]
            )
            for arg in args_list:
                bad, w_arg = self._w_collision(arg)
                collided |= bad
                safe = ~bad
                if safe.any():
                    w = -w_arg[safe]
                    if k >= 0:
                        factors[safe] *= w
                    else:
                        factors[safe] /= w
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

    @memo(_LINE_CACHE, key=_line_key)
    def line_interpolator(self, re_line, im_lo, im_hi):
        """Cached Chebyshev interpolant of B on the line Re s = re_line.

        Windows snap outward to a 2.0 lattice so nearby requests share
        one interpolant.  The evaluator keeps the _LINE_CACHE most recently
        used ones: queries at scattered s open a new window almost every
        time, and an unbounded cache would grow with every query.
        """
        _, lo, hi = _line_key(re_line, im_lo, im_hi)
        return BLineInterpolator(self, re_line, 2.0 * lo, 2.0 * hi)

    @staticmethod
    def _w_collision(arg):
        """Mask of walk factors on or next to a pole or zero of W, and W.

        Returns (bad, w).  W is evaluated off the lattice of its poles and
        zeros alone and reads 0 on it; the walk reuses w as its factors.
        """
        lattice = np.minimum(
            np.abs(arg - np.round(arg.real / 4.0) * 4.0),
            np.abs(arg - (np.round((arg.real + 2.0) / 4.0) * 4.0 - 2.0)),
        )
        bad = lattice < _COLLIDE_TOL
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
        d_min = min(
            (abs(z0 - s) for z0 in self._singular_points_near(s, 1.3)),
            default=np.inf,
        )
        radius = min(0.3, 0.6 * d_min)
        if not radius >= 0.01:
            raise PoleError(
                f"cannot average B around {s}: singularity within {d_min:.4f}"
            )
        r = integrate_circle(
            lambda z: self.eval_B_many(z) / (z - s), s, radius, n_min=32
        )
        return complex(r.value)

    def _singular_points_near(self, s, reach):
        pts = [0.0 + 0j, -1.0 + 0j]
        n0 = int(round(s.real))
        pts += [complex(n) for n in range(max(9, n0 - 2), n0 + 3)]
        for star in _w_zero_table().w_zeros_neg:
            j = round(star - s.real)
            for jj in (j - 1, j, j + 1):
                if jj >= 0:
                    pts.append(complex(star - jj))
        return [p for p in pts if abs(p - s) <= reach + 1.0]

    # ---------------- residues and constants ----------------

    def residue_inv_B(self, sigma, radius=0.3):
        """Res(1/B, sigma) by circle quadrature (0 where 1/B is analytic).

        The independent oracle for the ladder (``laurent``), which the
        Lambda routes read; it also serves points off the real axis.
        """
        sigma = complex(sigma)
        # no zero or pole of B may sit on or inside the circle except sigma
        lattice = [complex(0.0), complex(-1.0), complex(3.0), complex(4.0)]
        n0 = int(round(sigma.real))
        lattice += [complex(n) for n in range(n0 - 2, n0 + 3)
                    if n >= 9 or n <= -6]
        table = _w_zero_table()
        for root in table.w_zeros_pos + table.w_zeros_neg:
            j = round(abs(sigma.real - root))
            for jj in (j - 1, j, j + 1):
                if root > 0 and jj >= 1:
                    lattice.append(complex(root + jj))
                if root < 0 and jj >= 0:
                    lattice.append(complex(root - jj))
        for z0 in lattice:
            if abs(z0 - sigma) > 1e-9 and abs(z0 - sigma) < radius + 0.02:
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

    def eval_B_prime(self, s):
        """B'(s) by a Cauchy derivative circle of radius 0.05 or less."""
        s = complex(s)
        d_min = min(
            (abs(z0 - s) for z0 in self._singular_points_near(s, 1.05)),
            default=np.inf,
        )
        radius = min(0.05, 0.5 * d_min)
        if not radius >= 1e-3:
            raise PoleError(f"B'({s}): singularity within {d_min:.4f}")
        r = integrate_circle(
            lambda z: self.eval_B_many(z) / (z - s) ** 2, s, radius, n_min=32
        )
        return complex(r.value)

    def eval_B_prime_strip(self, s):
        """B'(s) by differentiating the strip kernel (independent route).

        Valid only in the walk window Re s in [0.55, 1.55); used to
        cross-check the circle derivative.
        """
        s = complex(s)
        if not _WALK_LO <= s.real < _WALK_LO + 1.0:
            raise ValueError("strip derivative needs Re s in the walk window")
        beta = self._beta_for(s.real)
        width = _PANEL_W
        lo = min(0.0, s.imag) - _MARGIN
        hi = max(0.0, s.imag) + _MARGIN
        n_panels = int(math.ceil((hi - lo) / width))
        edges = np.linspace(lo, hi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1] - edges[0])
        x24, w24 = _gl24
        v = (mid + half * x24).ravel()
        wt = np.tile(w24[None, :] * half, (n_panels, 1)).ravel()
        logw = self._line_values(beta, v)
        kp = _k_plus(s, beta, v)
        # dF/ds = i * int L * 2 i pi (k1^2 - k1) dv = -2 pi int L (k1^2-k1) dv
        dF = -2.0 * np.pi * np.sum(logw * (kp * kp - kp) * wt)
        return complex(dF * self.eval_B(s))

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
        """
        s = float(s)
        k = math.floor(s - _WALK_LO)
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
        return (order if k > 0 else -order), self.eval_B(base) * factors

    def derived_constants(self):
        """The residue ledger feeding the long-time asymptotics of Lambda.

        Read off the ladder (``laurent``): B has a simple zero at 4, a
        simple pole at 0, and is finite at 5 (a W-pole times a B-zero) and
        at -2..-5 (W-zeros against W-poles).
        """
        b1 = self.eval_B(1.0)
        w1 = complex(eval_W(1.0))
        wp2 = complex(eval_W_prime(2.0))
        wp0 = complex(eval_W_prime(0.0))
        rho4 = 1.0 / self.laurent(4.0)[1]
        b5 = self.laurent(5.0)[1]
        resB0 = self.laurent(0.0)[1]
        c1 = -1.0 / (b1 * w1 * wp2)
        c2 = -6.0 * rho4 * b1 / (SQRT_2PI * wp0)
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


def eval_B_strip(s):
    return default_evaluator().eval_B_strip(s)


def eval_B(s):
    return default_evaluator().eval_B(s)


def residue_inv_B(sigma):
    return default_evaluator().residue_inv_B(sigma)


def derived_constants():
    return default_evaluator().derived_constants()
