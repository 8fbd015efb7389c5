"""The assembled Lambda line: the tabulated symbol, its Filon panels, the
tail model's fit and the store of q-only rows.

The line integral of Lambda (``fundsol``) is split at a fixed height V: on
[0, V] the symbol is tabulated on a uniform grid by a matched-grid
convolution (see ``_symbol_line``) and integrated panel-wise against exact
oscillatory moments (Filon--Legendre); on [V, inf) a five-term model of the
symbol's (ENV_B s)^(-2t) decay, ``ray._tail_model``, is fit on [0.55 V,
0.98 V] and integrated along a rotated ray (``ray._ray_tail``).  One
tabulation and fit (``_line_assembly``) serves every q: calling it with an
array of q evaluates the moments, the phases and the ray panels of all of
them at once, so profiles and integrals cost one call per batch of points.
Per q, the 240 panel phases are the outer product of 15 and 16
exponentials, and the panel sum is one BLAS product with the Legendre
coefficients.  A query's Filon moments and phases, its lanes, their
prefactors and their node factors on the first eight panels (block 0, which
every swept q sweeps) depend on q and the abscissa alone.  A q array of two
or more q keeps them in a store of the last eight arrays used, keyed on its
bytes and the abscissa (``_q_store``), so a profile on a fixed grid, or a
panel sweep, repeated at a new t takes them from there and pays only for
its line.  The line is the sigma-lattice rule of ``ufunc``, the engine that
``eval_U_line``, ``eval_dU_ds`` and ``eval_V`` read too: in U only the
kernel Gamma(z) t^(-z) depends on t, so B on the grid (``_b_grid``) and the
spectrum of 1/B on the auxiliary line (``_inv_b_spectrum``, built by
``ufunc._lattice_spectrum``) are tabulated once per abscissa, and the
kernel's spectrum is known in closed form (``ufunc._gamma_t_spectrum``);
``_conv_core`` is that engine's fold by 2 on this fixed layout.  The time
derivative ("dt") reads the same spectrum of 1/B: d/dt of the kernel is
the kernel with its offset moved by 1, negated.  A new t costs the real
exponential of the bins that do not underflow (about half of them), one
inverse FFT, the Legendre coefficients and the fit.  Every cache
of a quantity that reads B is a bounded ``bfunc.memo`` map kept inside the
evaluator, holds one quantity keyed by what it depends on, and is freed
with the evaluator and keeps none alive; the fit's and the ray's columns,
the ray's geometry and the q-only rows read no B and sit in bounded
module-level maps, and the closed form of a line's ray is kept on the line.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.special import jv

from wavekin.bfunc import _fft_length, memo
from wavekin.errors import RegimeError
from wavekin.ray import (_MODEL_K, _V_CUT, _RaySeries, _ray_lanes, _ray_tail,
                         _tail_columns)
from wavekin.ufunc import (_bins, _conv_core as _fold, _frozen,
                           _gamma_t_spectrum, _inv_b_samples,
                           _lattice_spectrum, _underflow_bins as _cut)

__all__ = []

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

_C_DIRECT = 1.0
#: largest log of the scale a line's integral is multiplied by, x^-c or a
#: Mellin--Barnes line's e^(-cL): e^700 ~ 1e304 leaves four decades below
#: the overflow for the integral; past it the routes raise RegimeError
_LOG_SCALE_MAX = 700.0


# equispaced nodes tau_j = -1 + j/5, the degree-10 Legendre interpolation
# matrix on them and its inverse (computed once)
_TAU = np.linspace(-1.0, 1.0, 11)
_LEG_VAND = legvander(_TAU, 10)
_LEG_INV = np.linalg.inv(_LEG_VAND)
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
    kind "dt"  Sym = dU/dt (t, s)
    kind "su"  Sym = s U(t, s)
    kind "q2"  Sym = U_rem(t, s), the remainder of U after removing the
               residue at the first zero of B (auxiliary line at _BETA2)

    The one map from a kind to its lines: "u", "du" and "dt" convolve on
    the auxiliary line c + _B_OFF, "q2" on _BETA2, and "su" reads the "u"
    line.  Only the kernel Gamma(z) t^(-z) depends on t, and its
    t-derivative is -Gamma(z + 1) t^(-(z + 1)) (DLMF 5.5.1): "dt" is the
    "u" line's convolution with the kernel's offset moved by 1.  B and B'
    on the grid and the spectrum of 1/B are memoized per evaluator and
    abscissa, and the kernel's spectrum e^(a u - t e^u) is known in closed
    form (``_conv_core``), so a new t costs the real exponential of the
    bins that do not underflow and one inverse FFT.
    """
    if kind == "su":
        return (c + 1j * _V_GRID) * _symbol_line(ev, t, c, "u")
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
    if kind == "dt":
        return -_b_grid(ev, c) * _conv_core(spectrum, _B_OFF + 1.0, t)
    raise ValueError(f"unknown symbol kind {kind!r}")



# ---------------------------------------------------------------------------
# the assembled line
# ---------------------------------------------------------------------------


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
