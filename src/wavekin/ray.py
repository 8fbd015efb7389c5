"""The tail of the assembled Lambda line beyond V, and its rotated ray.

Beyond V the line's symbol is a five-term model of its (ENV_B s)^(-2t)
decay (``_tail_model``), fit by ``line`` and integrated here along a
rotated ray (``_ray_tail``), which keeps the integral non-oscillatory for
any q.  The model is a sum of powers s^(-alpha) (and one log s s^(-alpha)
for "du" and "dt"), whose ray integrals are incomplete Gamma functions: for
|q| |s0| <= 1, s0 = c + i V, their series (DLMF 8.7.3) gives them in closed
form (``_RaySeries``), kept with the line, and the cusp q^(2t-1) of Lambda
at x = 1 is its Gamma term.  Every other q sums geometric 16-point Gauss
panels: each starts its panels at its own depth, short enough for the rule
to resolve the ray's decay e^(-|q| r/sqrt 2), and sweeps them only until
its own sum has settled, within 14 panels.  Only base = (ENV_B s)^(-2t) of
the tail model depends on t, so the fit and the ray read it the same way:
from t-free columns, log(ENV_B s) and the model's ladder
(``_tail_columns``), as e^(-2t log(ENV_B s)) times the columns' sum with
the line's amplitudes (``_tail_model``).  Each kind's ladder is stated
once, in ``_RAY_LADDERS``, which the columns and the closed form read.
The fit keeps its columns per kind and abscissa (``line._fit_ladders``), the
ray per lane and block, with its Gauss weights (``_ray_columns``); the q of
one ray direction and depth, a lane, share those samples.  The ray's nodes
double their distance from a fixed point from one panel to the next, so
e^(-(s-c) q) is one prefactor per q times factors that are, on each panel,
the squares of the last panel's: a q takes one exponential per node only on
every eighth panel.  The lanes are swept in turn, on panel nodes, weights
and anchors kept per lane and block (``_ray_geometry``).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import digamma, gammaln, gammasgn, zeta

from wavekin.ufunc import ENV_B, _frozen

__all__ = []

#: height at which the tabulated window hands over to the power-model tail
_V_CUT = 168.0
#: scale entering the tail-model basis (b s)^(-2t) (V_bar/s)^k
_V_BAR = 120.0
_MODEL_K = 5

_GL16 = leggauss(16)
#: the 16 Gauss nodes mapped to [0, 2], where a ray panel scales them
_GL16_UNIT = _GL16[0] + 1.0
#: the 16 Gauss nodes mapped to [1, 2]: panel j of a ray whose first
#: panel is L long has its nodes at L 2^j _GL16_RHO from the point L
#: before the ray's start
_GL16_RHO = 0.5 * (_GL16[0] + 3.0)
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


#: the tail model as powers of s, the one statement of each kind's ladder
#: (``_tail_columns``, ``_RaySeries``): (shift, j, log) with column k the
#: power s^(-alpha_k), alpha_k - 1 = 2t - 1 + shift + j[k], times
#: V_BAR^j[k], and column ``log`` that power times log s; shift is -1, 0
#: or 1
_RAY_LADDERS = {"u": (0, (0, 1, 2, 3, 4), None),
                "q2": (0, (0, 1, 2, 3, 4), None),
                "su": (-1, (0, 1, 2, 3, 4), None),
                "dt": (0, (0, 0, 1, 2, 3), 0),
                "du": (1, (0, 0, 1, 2, 3), 1)}


def _tail_columns(kind, s, w=1.0):
    """(log(ENV_B s), cols): the t-free parts of the tail model at s, the
    model of the symbol beyond V (``_tail_model``), with cols times w.

    With p = V_BAR / s, the kind's ladder in ``_RAY_LADDERS`` gives the
    columns, (..., 5) for s of shape (...): column k is p^j[k], times log s
    for k = log, all times s for shift -1 and over s for shift 1.  So "u"
    and "q2" are the power ladder [1, p, p^2, p^3, p^4] and "su" s times it,
    "dt" the log ladder [log s, 1, p, p^2, p^3] and "du" [1, log s, p, p^2,
    p^3] over s.  The model is base = (ENV_B s)^(-2t) times their sum with a
    line's amplitudes.  The columns are analytic in the closed upper-right
    region swept by the rotated rays (principal branches; the tabulated line
    and both ray directions stay in Im s >= V > 0).  The fit keeps them at
    its nodes (``_fit_ladders``), and the ray at each lane's nodes, times
    the Gauss weights (``_ray_columns``).
    """
    shift, powers, log = _RAY_LADDERS[kind]
    p = _V_BAR / s
    p2 = p * p
    ladder = (np.ones_like(s), p, p2, p2 * p, p2 * p2)
    cols = [ladder[j] for j in powers]
    if log is not None:
        cols[log] = np.log(s) * cols[log]
    cols = np.stack(cols, axis=-1)
    if shift < 0:
        cols *= s[..., None]
    elif shift > 0:
        cols /= s[..., None]
    return np.log(ENV_B * s), cols * np.asarray(w)[..., None]


def _tail_model(t, columns, a):
    """sum_k a[k] col_k(s), the model of the symbol beyond V, from its
    columns at s, (log(ENV_B s), cols) of ``_tail_columns``: base =
    e^(-2t log(ENV_B s)) times cols @ a.  a is a line's (5,) amplitudes.
    Only base depends on t, so the fit and the ray keep the columns of
    their nodes and read the model this one way."""
    log_b, cols = columns
    return np.exp(-2.0 * t * log_b) * (cols @ a)



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
    e^(-2t log(ENV_B s)) times the columns' sum with the line's
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


#: terms of the closed form's series in q: with |q z0| <= 1 the first
#: left out is below 1/24! ~ 1.6e-24 of the sum
_RAY_SERIES = 24
#: an exponent alpha - 1 within _RAY_POLE_GAP of a whole m >= 0 takes the
#: pole of Gamma(1 - alpha) and the series' term n = m as one term: apart,
#: each is about 1/eps (1/eps^2 for a log column) times the sum, and at
#: |eps| = 0.002 a line of the log ladder lost 1e-9 of it
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
    a_k ENV_B^(-2t) V_BAR^j, in z = s from z0 = s0, and e^(-(s-c) q) =
    e^(c q) e^(-z q).  Along the rotated ray each power is an incomplete
    Gamma function, q^(alpha-1) Gamma(1-alpha, q z0) continued to q < 0
    through the sector the rays sweep, and its series (DLMF 8.7.3) gives

        int z^(-alpha) e^(-z q) dz = Gamma(1-alpha) q*^(alpha-1)
            - sum_n (-q)^n z0^(1-alpha+n) / (n! (1-alpha+n)),

    q* = |q| e^(-i pi [q < 0]).  A log column, log z z^(-alpha), is minus
    the alpha-derivative.  Since alpha_k - 1 = e + j_k, the sum over k is
    e^(c q) [q*^e (G0(q) + log q* G1(q)) - P(-q)], two short polynomials
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
        self.c = c
        z0 = complex(c, _V_CUT)
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
        grow = np.exp(self.c * q)
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
