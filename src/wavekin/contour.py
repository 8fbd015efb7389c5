"""Adaptive quadrature on vertical lines and circles in the complex plane.

This is the package's oracle engine: integrals along truncated vertical
contours Re = c, which check the U routes' lattice rules and invert V, and
circle integrals for B's residue oracles, derivative and walk fallback.

Tail behaviour beyond the truncation height is never guessed.  Callers declare
a decay model (exponential or power law, optionally improved by a known
oscillation frequency) and the engine estimates the discarded mass from that
model, reporting it in ``QuadResult.truncation_tail`` *without* adding it to
the value.  The value is always the integral over the truncated contour only.
"""

import dataclasses
import math

import numpy as np

from wavekin.errors import ConvergenceError, TailModelError

__all__ = [
    "ContourSpec",
    "QuadResult",
    "TailModel",
    "integrate_vertical",
    "integrate_circle",
]

# Rounding floor of a circle rule, per unit of the mean |f(z)(z - c)|.
_CIRCLE_FLOOR = 10.0 * np.finfo(float).eps


@dataclasses.dataclass(frozen=True)
class ContourSpec:
    """A truncated vertical contour Re = abscissa, Im in center +- half_height.

    ``center`` shifts the window vertically; integrands produced by the
    Mellin symbol U decay away from Im s, not away from 0, so their windows
    are centered there.
    """

    abscissa: float
    half_height: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    center: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.abscissa):
            raise ValueError("abscissa must be finite")
        if not self.half_height > 0:
            raise ValueError("half_height must be positive")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclasses.dataclass(frozen=True)
class QuadResult:
    """Value and accounting of one quadrature run.

    ``truncation_tail`` is the modeled magnitude of the discarded tail beyond
    the truncation height; it is informational and never added to ``value``.
    """

    value: complex
    error_estimate: float
    evaluations: int
    truncation_tail: float


@dataclasses.dataclass(frozen=True)
class TailModel:
    """Declared decay of |f| near the ends of a vertical contour.

    kind "exp":   |f(c+iv)| ~ A exp(-rate*|v - center|)
    kind "power": |f(c+iv)| ~ A |v - center|^(-rate)
    """

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in ("exp", "power"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if not self.rate > 0:
            raise ValueError("tail rate must be positive")


_N_FINE = 24
_N_COARSE = 12
_PANEL_CAP = 500_000
# refinement sweeps of integrate_vertical before ConvergenceError
_MAX_REFINEMENTS = 14
_GL_FINE = np.polynomial.legendre.leggauss(_N_FINE)
_GL_COARSE = np.polynomial.legendre.leggauss(_N_COARSE)


def _eval_panels(f, c, lo, hi, counter):
    # Gauss-Legendre 24 value with an embedded 12-point estimate; one batched
    # call to f covers every node of every panel in the batch.
    xf, wf = _GL_FINE
    xc, wc = _GL_COARSE
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    v = np.concatenate([mid + half * xf, mid + half * xc], axis=1)
    fv = np.asarray(f(c + 1j * v.ravel()), dtype=complex)
    fv = fv.reshape(len(lo), _N_FINE + _N_COARSE)
    counter[0] += v.size
    fine = (fv[:, :_N_FINE] * wf).sum(axis=1) * half[:, 0]
    coarse = (fv[:, _N_FINE:] * wc).sum(axis=1) * half[:, 0]
    return fine, np.abs(fine - coarse)


def _model_ratio(tail, u_far, u_near):
    if tail.kind == "exp":
        return math.exp(-tail.rate * (u_far - u_near))
    return (u_near / u_far) ** tail.rate


def _tail_accounting(f, spec, tail, osc_freq, counter):
    """End-point tail estimate per declared model, plus a violation check.

    The check anchors the declared envelope at |v - center| = V/2 and flags
    the run when the endpoint magnitude exceeds 10x the envelope there --
    i.e. when f decays materially slower than promised.
    """
    c, V, mid = spec.abscissa, spec.half_height, spec.center
    ends = np.array([mid - V, mid + V])
    f_end = np.abs(np.asarray(f(c + 1j * ends), dtype=complex))
    counter[0] += 2
    if tail is None:
        # no declared model: report the endpoint magnitude as a scale
        return float(f_end.sum())

    offs = V * np.linspace(0.45, 0.55, 5)
    probe = np.concatenate([mid - offs, mid + offs])
    f_probe = np.abs(np.asarray(f(c + 1j * probe), dtype=complex))
    counter[0] += probe.size
    anchor = np.array([f_probe[:5].max(), f_probe[5:].max()])
    ratio = _model_ratio(tail, V, 0.5 * V)
    bad = f_end > 10.0 * anchor * ratio + 1e-300
    if bad.any():
        side = "lower" if bad[0] else "upper"
        raise TailModelError(
            f"integrand violates declared {tail.kind} tail (rate {tail.rate}) "
            f"at the {side} end: |f(end)|={f_end[bad].max():.3e} vs envelope "
            f"{(10.0 * anchor * ratio)[bad].max():.3e}"
        )

    if tail.kind == "exp":
        est = f_end / tail.rate
    elif tail.rate > 1.0:
        est = f_end * V / (tail.rate - 1.0)
    elif osc_freq > 0.0:
        est = np.full(2, np.inf)
    else:
        raise TailModelError(
            "power tail with rate <= 1 is not integrable without oscillation"
        )
    if osc_freq > 0.0:
        est = np.minimum(est, 2.0 * f_end / osc_freq)
    return float(est.sum())


def integrate_vertical(f, spec, *, tail=None, osc_freq=0.0):
    """Integrate f along the vertical contour described by spec.

    Returns ``QuadResult`` with value = integral of f(s) ds over the truncated
    line (the i factor from ds = i dv is included).  ``f`` must accept a numpy
    array of complex points and return an array of values.

    Parameters
    ----------
    tail : TailModel or None
        Declared decay of |f| away from the window center, used for the
        truncation-tail estimate and the violation check.
    osc_freq : float
        Known oscillation frequency along the line (e.g. |log x| for an
        x^{-s} factor).  Caps panel width at pi/(4*osc_freq) and sharpens
        the tail estimate.
    """
    V = spec.half_height
    v_lo, v_hi = spec.center - V, spec.center + V
    counter = [0]

    width = (v_hi - v_lo) / 8.0
    if osc_freq > 0.0:
        width = min(width, math.pi / (4.0 * osc_freq))
    n0 = int(math.ceil((v_hi - v_lo) / width))
    if n0 > _PANEL_CAP:
        raise ConvergenceError(
            f"oscillation frequency {osc_freq} demands {n0} initial panels"
        )
    edges = np.linspace(v_lo, v_hi, n0 + 1)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    val, err = _eval_panels(f, spec.abscissa, lo, hi, counter)

    for iteration in range(_MAX_REFINEMENTS + 1):
        order = np.argsort(lo, kind="stable")
        lo, hi, val, err = lo[order], hi[order], val[order], err[order]
        total = val.sum()
        total_err = float(err.sum())
        tol_total = max(spec.rel_tol * abs(total), spec.abs_tol)
        if total_err <= tol_total:
            break
        if iteration == _MAX_REFINEMENTS:
            raise ConvergenceError(
                f"error {total_err:.3e} > tolerance {tol_total:.3e} after "
                f"{_MAX_REFINEMENTS} refinements ({len(lo)} panels)"
            )
        sel = err > tol_total / len(lo)
        mid_s = 0.5 * (lo[sel] + hi[sel])
        new_lo = np.concatenate([lo[sel], mid_s])
        new_hi = np.concatenate([mid_s, hi[sel]])
        if len(lo) + len(mid_s) > _PANEL_CAP:
            raise ConvergenceError("panel budget exhausted")
        new_val, new_err = _eval_panels(f, spec.abscissa, new_lo, new_hi, counter)
        lo = np.concatenate([lo[~sel], new_lo])
        hi = np.concatenate([hi[~sel], new_hi])
        val = np.concatenate([val[~sel], new_val])
        err = np.concatenate([err[~sel], new_err])

    tail_est = _tail_accounting(f, spec, tail, osc_freq, counter)
    return QuadResult(
        value=complex(1j * total),
        error_estimate=total_err,
        evaluations=counter[0],
        truncation_tail=tail_est,
    )


def integrate_circle(f, center, radius, n_min=32):
    """(1/2pi i) times the contour integral of f around a circle.

    Trapezoidal rule with node doubling until 1e-12 relative stagnation;
    spectrally accurate for f analytic on the circle.  Previously computed
    nodes are reused across doublings.  The reported error is the change
    of the last doubling plus the rounding floor 10 eps mean |f(z)(z - c)|,
    which the change alone misses once the rule has converged.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    n = max(4, int(n_min))
    theta = 2.0 * np.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * theta)
    fz = np.asarray(f(z), dtype=complex)
    S = (fz * (z - center)).sum()
    terms = np.abs(fz * (z - center))
    scale0, magnitude = float(terms.max()), float(terms.sum())
    evaluations = n
    Z = S / n

    for _ in range(20):
        zn = center + radius * np.exp(1j * (theta + np.pi / n))
        fn = np.asarray(f(zn), dtype=complex)
        evaluations += n
        S = S + (fn * (zn - center)).sum()
        terms = np.abs(fn * (zn - center))
        scale0 = max(scale0, float(terms.max()))
        magnitude += float(terms.sum())
        Z_new = S / (2 * n)
        change = abs(Z_new - Z)
        n *= 2
        theta = 2.0 * np.pi * np.arange(n) / n
        Z = Z_new
        if change <= 1e-12 * max(abs(Z), 1e-3 * scale0):
            floor = _CIRCLE_FLOOR * magnitude / evaluations
            return QuadResult(complex(Z), float(change) + floor,
                              evaluations, 0.0)
    raise ConvergenceError(
        f"circle quadrature did not stagnate (last change {change:.3e}, "
        f"{evaluations} evaluations)"
    )

