"""The normalizer B(s): strip representation, functional equation, residues.

B solves the multiplicative functional equation

    B(s) = -W(s-1) B(s-1)

and is constructed on the strip beta < Re s < beta + 1 as the exponential of a
vertical-line integral of log(-W) against a periodic kernel:

    B(s) = exp( int_{Re rho = beta} log(-W(rho))
                [ 1/(1 - e^{2 i pi (s - rho)}) - 1/(1 + e^{-2 i pi (rho - beta)}) ]
                d rho ).

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
  there (the flagship case: B(5) = 4 B'(4), a W-pole times a B-zero); such
  collisions fall back to a Cauchy-circle average of B, whose nodes walk
  cleanly.

Pole set of B (measured; the first few confirmed numerically): 0 and -1, the
integers >= 9, and the descending ladders sigma*_n - j (j >= 0) below each
negative zero of W.  (4n+1 for n >= 2 seeds the integer ladder; 5 is *not* a
pole.)  Zeros: 3 and 4, the integers <= -6, and the ladders sigma_n + j
(j >= 1) above each positive zero of W.
"""

import dataclasses
import functools
import math
import os
import struct

import numpy as np

from wavekin.complexfn import eval_W, eval_W_prime, locate_W_roots
from wavekin.contour import ContourSpec, integrate_circle
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
_PANEL_W = 0.25          # analyticity half-width along the line is ~0.25
_MARGIN = 6.0            # window extension beyond the kernel plateau
_GAUGE_BETA = 0.3        # canonical line: all other lines splice onto it

# Global scale of B (a free gauge: the construction determines B only up to a
# positive constant, and all derived quantities are scale invariant).  Chosen
# at the center of the measured feasibility window so that |B| lies within
# the contract bounds [0.2, 5] on Re s in [0.5, 1.5], |Im s| in [5, 500];
# see scripts/calibrate.py.  (The functional equation forces
# |B(x+1+iT)| / |B(x+iT)| = |W(x+iT)| ~ 2 log T, so no single constant can
# hold the bounds over the full open strip at large |Im s|.)
_B_SCALE = 7.37


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
    return locate_W_roots(5)


def _near_b_pole_mask(s, tol=_POLE_GUARD):
    """Mask of points within tol of the known pole lattice of B."""
    s = np.asarray(s, dtype=complex)
    m = (np.abs(s) < tol) | (np.abs(s + 1.0) < tol)
    n = np.round(s.real)
    m |= (n >= 9) & (np.abs(s - n) < tol)
    for star in _w_zero_table().w_zeros_neg:
        j = np.round(star - s.real)
        m |= (j >= 0) & (np.abs(s - (star - j)) < tol)
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


_gl24 = np.polynomial.legendre.leggauss(24)
_gl12 = np.polynomial.legendre.leggauss(12)

_CHEB_DEG = 24
_CHEB_SEG = 0.4


@functools.lru_cache(maxsize=4)
def _cheb_basis(deg):
    k = np.arange(deg)
    theta = np.pi * (k + 0.5) / deg
    mat = (2.0 / deg) * np.cos(np.outer(np.arange(deg), theta))
    mat[0] *= 0.5
    return mat, np.cos(theta)


class BLineInterpolator:
    """Chebyshev interpolant of B along one vertical line.

    B restricted to a line inside the strip is analytic with the nearest
    singularity at least ~0.5 away, so a degree-24 fit per 0.4-wide
    segment reproduces it to ~1e-12; quadrature routines that sample the
    same line thousands of times query this instead of re-running the
    strip integral per node.
    """

    def __init__(self, evaluator, re_line, im_lo, im_hi,
                 seg=_CHEB_SEG, deg=_CHEB_DEG):
        if not im_hi > im_lo:
            raise ValueError("empty line window")
        self.re_line = float(re_line)
        n_seg = int(math.ceil((im_hi - im_lo) / seg))
        self.edges = np.linspace(im_lo, im_hi, n_seg + 1)
        self.mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.half = 0.5 * (self.edges[1] - self.edges[0])
        mat, xnodes = _cheb_basis(deg)
        ims = (self.mids[:, None] + self.half * xnodes).ravel()
        vals = evaluator.eval_B_many(self.re_line + 1j * ims)
        self.coef = (mat @ vals.reshape(n_seg, deg).T).T
        self.deg = deg

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
        c = self.coef[idx]
        b1 = np.zeros(x.shape, dtype=complex)
        b2 = np.zeros(x.shape, dtype=complex)
        for j in range(self.deg - 1, 0, -1):
            b1, b2 = 2.0 * tloc * b1 - b2 + c[:, j], b1
        return (tloc * b1 - b2 + c[:, 0]).reshape(s_arr.shape)


class BEvaluator:
    """Evaluator for B with a quantized-point cache.

    ``beta`` is the reference abscissa.  Per-call lines use beta or
    beta + 1/2 depending on where Re s falls in the strip, keeping a margin
    of at least 1/4 from the kernel poles; the centered counterterm makes the
    value independent of that choice.
    """

    def __init__(self, beta=0.3, contour=None, cache=None, cache_path=None):
        if not 0.2 <= beta <= 0.45:
            raise ValueError("reference beta must sit in [0.2, 0.45]")
        self.beta = beta
        self.contour = contour or ContourSpec(
            abscissa=beta, half_height=_MARGIN, rel_tol=1e-11, abs_tol=1e-13,
            max_refinements=3,
        )
        self.cache = {} if cache is None else cache
        self.cache_path = cache_path
        self._gauge = {}      # beta_used -> F-offset onto the canonical line
        self._lines = {}      # (re, lo-lattice, hi-lattice) -> interpolator
        if cache_path and os.path.exists(cache_path):
            self.load_cache(cache_path)

    # ---------------- strip representation ----------------

    def _line_values(self, beta, v):
        """log(-W) on the line, with the branch audit.

        The principal branch is the continuous one here: the audit checks
        arg(-W) never approaches +-pi nor jumps by >= pi between nodes, and
        decays at the window ends, which pins the branch the representation
        needs (arg -> 0 at +-i infinity).
        """
        w = eval_W(beta + 1j * v)
        logw = np.log(-w)
        return logw

    def _branch_audit(self, beta, lo, hi):
        v = np.arange(lo, hi + 0.05, 0.05)
        arg = np.angle(-eval_W(beta + 1j * v))
        if np.abs(arg).max() > np.pi - 0.1:
            raise BranchError(
                f"arg(-W) reaches {np.abs(arg).max():.3f} on Re rho = {beta}"
            )
        if np.abs(np.diff(arg)).max() >= np.pi:
            raise BranchError("arg(-W) jumped by >= pi between audit nodes")
        if max(abs(arg[0]), abs(arg[-1])) > 0.5:
            raise BranchError("arg(-W) does not decay at the window ends")

    def _strip_batch(self, s_arr, beta):
        """exp-argument F(s) for a batch of s sharing one beta line.

        Fixed uniform Gauss-Legendre panels over the union window; the
        expensive log(-W) values are computed once and shared by every s in
        the batch.  Embedded 12-point estimate controls the error.
        """
        ims = s_arr.imag
        lo = min(0.0, ims.min()) - _MARGIN
        hi = max(0.0, ims.max()) + _MARGIN
        self._branch_audit(beta, lo, hi)

        width = _PANEL_W
        for refinement in range(self.contour.max_refinements + 1):
            n_panels = int(math.ceil((hi - lo) / width))
            edges = np.linspace(lo, hi, n_panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
            half = 0.5 * (edges[1] - edges[0])
            x24, w24 = _gl24
            x12, w12 = _gl12
            v = np.concatenate(
                [(mid + half * x24).ravel(), (mid + half * x12).ravel()]
            )
            logw = self._line_values(beta, v)
            km = _k_minus(v)
            n24 = n_panels * 24
            wt24 = np.tile(w24, n_panels) * half
            wt12 = np.tile(w12, n_panels) * half
            # Exact node-sum reassembly that makes the cost per point O(1)
            # instead of O(line).  Write k_plus = g_plus + step(v < Im s)
            # and km = gm + step(v < 0); both g's decay like e^{-2 pi dv}
            # around their transition, so each needs only a +-6.5 window,
            # and the step difference is a cumulative sum over line nodes.
            res = []
            for v_r, lw in ((v[:n24], logw[:n24] * wt24),
                            (v[n24:], logw[n24:] * wt12)):
                km_r = _k_minus(v_r)
                j0, j1 = np.searchsorted(v_r, [-6.5, 6.5])
                gm = km_r[j0:j1] - (v_r[j0:j1] < 0.0)
                gm_dot = np.dot(lw[j0:j1], gm)
                csum = np.concatenate([[0.0], np.cumsum(lw)])
                zero_idx = np.searchsorted(v_r, 0.0)
                order = np.argsort(s_arr.imag, kind="stable")
                ss = s_arr[order]
                acc_s = np.empty(ss.shape, dtype=complex)
                for a in range(0, ss.size, 128):
                    chunk = ss[a:a + 128]
                    y = chunk.imag[:, None]
                    q = np.exp(2j * np.pi * (chunk.real - beta))[:, None]
                    w_lo, w_hi = chunk.imag[0] - 6.5, chunk.imag[-1] + 6.5
                    i0, i1 = np.searchsorted(v_r, [w_lo, w_hi])
                    x = 2.0 * np.pi * (v_r[None, i0:i1] - y)
                    u = np.exp(-np.abs(x))
                    gp = np.where(x > 0, -u / (q - u), q * u / (1.0 - q * u))
                    y_idx = np.searchsorted(v_r, chunk.imag)
                    plateau = csum[y_idx] - csum[zero_idx]
                    acc_s[a:a + 128] = gp @ lw[i0:i1] - gm_dot + plateau
                acc = np.empty(ss.shape, dtype=complex)
                acc[order] = acc_s
                res.append(acc)
            fine, coarse = res
            F = 1j * fine
            err = np.abs(fine - coarse)
            scale = np.maximum(np.abs(F), 1.0)
            if (err <= self.contour.rel_tol * scale).all():
                return F
            width /= 2.0
        raise ConvergenceError(
            f"B strip quadrature stalled at panel width {width}"
        )

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
        key_b = round(self.beta * 1e12)
        key_tol = self.contour.rel_tol
        todo = []
        keys = []
        cache_get = self.cache.get
        for i in range(s_arr.size):
            key = (int(key_re[i]), int(key_im[i]), key_b, key_tol)
            keys.append(key)
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
                F = self._strip_batch(sub[grp], beta)
                vals = np.exp(F - self._gauge_offset(beta)) * _B_SCALE
                for j, i in enumerate(grp):
                    out[todo[i]] = vals[j]
                    self.cache[keys[todo[i]]] = complex(vals[j])
        return out

    # ---------------- continuation by functional equation ----------------

    def eval_B(self, s):
        """B anywhere off the pole lattice, by strip + functional equation."""
        return complex(self.eval_B_many(np.array([s], dtype=complex))[0])

    def eval_B_many(self, s_arr):
        s_arr = np.asarray(s_arr, dtype=complex)
        flat = s_arr.ravel()
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
                bad = self._w_collision(arg)
                collided |= bad
                safe = ~bad
                if safe.any():
                    w = -eval_W(arg[safe])
                    if k >= 0:
                        factors[safe] *= w
                    else:
                        factors[safe] /= w
            clean = ~collided
            if clean.any():
                out[idx[clean]] = self._strip_many(base[clean]) * factors[clean]
            for i in np.nonzero(collided)[0]:
                out[idx[i]] = self._cauchy_fallback(grp[i])
        return out.reshape(s_arr.shape)

    def line_interpolator(self, re_line, im_lo, im_hi):
        """Cached Chebyshev interpolant of B on the line Re s = re_line.

        Windows snap outward to a 2.0 lattice so nearby requests share
        one interpolant.
        """
        lo = math.floor(im_lo / 2.0) * 2.0
        hi = math.ceil(im_hi / 2.0) * 2.0
        key = (round(re_line * 1e12), round(lo), round(hi))
        interp = self._lines.get(key)
        if interp is None:
            interp = BLineInterpolator(self, re_line, lo, hi)
            self._lines[key] = interp
        return interp

    @staticmethod
    def _w_collision(arg):
        # a walk factor lands on (or next to) a pole or zero of W
        lattice = np.minimum(
            np.abs(arg - np.round(arg.real / 4.0) * 4.0),
            np.abs(arg - (np.round((arg.real + 2.0) / 4.0) * 4.0 - 2.0)),
        )
        bad = lattice < _COLLIDE_TOL
        safe = ~bad
        if safe.any():
            small = np.zeros(len(arg), dtype=bool)
            small[safe] = np.abs(eval_W(arg[safe])) < _COLLIDE_TOL
            bad |= small
        return bad

    def _cauchy_fallback(self, s, radius=0.3):
        """Circle average of B around s when the direct walk collides.

        The radius shrinks to stay clear of the nearest true singularity of
        B (e.g. B(-5) sits 0.0457 from the pole ladder head sigma*_1 - 0).
        """
        d_min = min(
            (abs(z0 - s) for z0 in self._singular_points_near(s, radius + 1.0)),
            default=np.inf,
        )
        radius = min(radius, 0.6 * d_min)
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
        """Res(1/B, sigma) by circle quadrature (0 where 1/B is analytic)."""
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

    def residue_B(self, sigma, radius=0.3):
        """Res(B, sigma) by circle quadrature (for the poles at 0, -1)."""
        r = integrate_circle(self.eval_B_many, complex(sigma), radius, n_min=32)
        return complex(r.value)

    def eval_B_prime(self, s, radius=0.05):
        """B'(s) by a Cauchy derivative circle."""
        s = complex(s)
        d_min = min(
            (abs(z0 - s) for z0 in self._singular_points_near(s, radius + 1.0)),
            default=np.inf,
        )
        radius = min(radius, 0.5 * d_min)
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
        self._branch_audit(beta, min(0.0, s.imag) - _MARGIN,
                           max(0.0, s.imag) + _MARGIN)
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

    def derived_constants(self):
        """The residue ledger feeding the long-time asymptotics of Lambda."""
        b1 = self.eval_B(1.0)
        w1 = complex(eval_W(1.0))
        wp2 = complex(eval_W_prime(2.0))
        wp0 = complex(eval_W_prime(0.0))
        rho4 = self.residue_inv_B(4.0)
        b5 = self.eval_B(5.0)          # finite: W-pole times B-zero collision
        resB0 = self.residue_B(0.0)
        c1 = -1.0 / (b1 * w1 * wp2)
        c2 = -6.0 * rho4 * b1 / (SQRT_2PI * wp0)
        c3 = rho4 * b5 / SQRT_2PI
        P = [0.0 + 0j, 0.0 + 0j]
        for n in range(2, 6):
            P.append((-1.0) ** n / (math.factorial(n) * self.eval_B(-float(n))))
        Q = tuple(-n * p for n, p in enumerate(P))
        return ResidueLedger(
            rho4=rho4, resB0=resB0, c1=c1, c2=c2, c3=c3, P=tuple(P), Q=Q
        )

    # ---------------- cache persistence ----------------

    def save_cache(self, path):
        """Flat little-endian records (re, im, beta, tol, val_re, val_im)."""
        with open(path, "wb") as fh:
            for (re_q, im_q, beta_q, tol), val in sorted(self.cache.items()):
                fh.write(struct.pack(
                    "<6d", re_q * 1e-12, im_q * 1e-12, beta_q * 1e-12, tol,
                    val.real, val.imag,
                ))

    def load_cache(self, path):
        rec = struct.calcsize("<6d")
        with open(path, "rb") as fh:
            blob = fh.read()
        for off in range(0, len(blob) - rec + 1, rec):
            re, im, beta, tol, vr, vi = struct.unpack_from("<6d", blob, off)
            key = (round(re * 1e12), round(im * 1e12), round(beta * 1e12), tol)
            self.cache[key] = complex(vr, vi)


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
