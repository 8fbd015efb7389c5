"""Fundamental solution Lambda(t, x) of the degenerate kinetic transport
equation and its derived quantities.

Lambda is the inverse Mellin transform of the evolution symbol,

    Lambda(t, x) = (1/2 i pi) int_{Re s = c} sqrt(2 pi) U(t, s) x^(-s) ds,

with c = 1 inside the analyticity strip.  Conjugate symmetry folds the line
onto v = Im s >= 0:

    Lambda(t, x) = (x^(-c)/pi) int_0^inf Re[ sqrt(2 pi) U(t, c+iv) e^(-ivq) ] dv,

q = log x.  The routes read four modules, each importing only those before
it: ``ray`` (the tail beyond V), ``line`` (the assembled line), then
``asymptotic`` and ``integrals``.  This module holds the queries, the
dispatch over the regimes below and the derivatives, and re-exports the
public names of the last two.

Regimes
-------
auto                the direct line for every x != 1; at x = 1 with
                    t <= 1/2, where Lambda is infinite, it returns (inf, inf).
direct              the line integral of U itself.  For t > 1/2 the
                    |U| ~ v^(-2t) tail is absolutely integrable at x = 1; for
                    t <= 1/2 it is not, and the line reads (inf, inf) there,
                    as every line does at q = 0 where its ray diverges.  For
                    x != 1 the rotated ray integrates the tail model, in
                    closed form next to x = 1, so the line keeps its
                    relative accuracy down to |x-1| ~ 1e-30 and below, where
                    Lambda ~ A |x-1|^(2t-1).
log_regularized     the same line applied to dU/ds; since
                    log x * Lambda = (1/2 i pi) int sqrt(2 pi) dU/ds x^(-s) ds
                    (by parts; the boundary term vanishes on the line)
                    and |dU/ds| ~ v^(-1-2t) log v, this converges for every
                    t > 0 but degrades as x -> 1 where the division by
                    log x amplifies the quadrature error.  Kept for
                    t <= 0.6 as an independent check on direct; auto never
                    picks it.
large_t_asymptotic  t^(-3) Q1(x/t) + Q2(t, x/t), exact for t > 1 (Q2's
                    remainder line converges absolutely there); see
                    ``asymptotic``.
small_t_series      the short-time residue series of ``eval_lambda_series``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from wavekin.asymptotic import (_q1_with_error, _q2_with_error,
                                _series_with_error, eval_lambda_series,
                                eval_Q1, eval_Q2)
from wavekin.bfunc import default_evaluator
# unused here; perfbench's tracer wraps the names fundsol.eval_W and
# fundsol.integrate_vertical
from wavekin.complexfn import eval_W  # noqa: F401
from wavekin.contour import integrate_vertical  # noqa: F401
from wavekin.errors import RegimeError
from wavekin.integrals import (TestFunction, delta_pairing, l1_norm_lambda,
                               transport_apply)
from wavekin.line import _C_DIRECT, _check_arg, _check_scale, _line_assembly

__all__ = [
    "REGIMES",
    "LambdaQuery",
    "RadialProfile",
    "eval_lambda",
    "eval_lambda_with_error",
    "eval_lambda_log",
    "radial_profile",
    "eval_lambda_series",
    "eval_Q1",
    "eval_Q2",
    "eval_dlambda_dt",
    "eval_dlambda_dx",
    "eval_G",
    "TestFunction",
    "l1_norm_lambda",
    "delta_pairing",
    "transport_apply",
]

REGIMES = (
    "auto",
    "direct",
    "log_regularized",
    "large_t_asymptotic",
    "small_t_series",
)

_T_LOGREG_MAX = 0.6


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
        _check_arg("t", self.t)
        _check_arg("x", self.x)
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


def _direct(t, q, ev):
    """(Lambda, error) on the direct line at x = e^q; q scalar or array."""
    return _line_assembly(ev, t, _C_DIRECT, "u")(q)


def _eval_q(t, q, regime, ev):
    """(Lambda, error) at x = e^q by the named regime; x = 1 is q = 0."""
    if regime in ("auto", "direct"):
        return _direct(t, q, ev)
    if regime == "log_regularized":
        if q == 0.0:
            raise RegimeError("log regularization divides by log x; x=1")
        if t > _T_LOGREG_MAX:
            raise RegimeError(
                f"log-regularized line is kept to t <= {_T_LOGREG_MAX}; "
                f"use direct for t={t}")
        val, err = _line_assembly(ev, t, _C_DIRECT, "du")(q)
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
        return _series_with_error(t, math.exp(q), ev)
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
    _check_arg("t", t)
    if not math.isfinite(log_x):
        raise ValueError(f"log_x must be finite, got {log_x}")
    if regime not in ("auto", "direct", "log_regularized"):
        raise ValueError(f"regime {regime!r} needs the plain coordinate")
    ev = evaluator or default_evaluator()
    return _eval_q(t, float(log_x), regime, ev)[0]


def radial_profile(t, x_min, x_max, n_points, evaluator=None):
    """Lambda(t, .) on a geometric grid of n_points from x_min to x_max.

    The whole grid goes through one call of the direct line, which shares
    the tabulation and evaluates every point at once; x = 1 with t <= 1/2
    gives inf, as in eval_lambda.
    """
    _check_arg("t", t)
    _check_arg("x_min", x_min)
    _check_arg("x_max", x_max)
    if not x_max > x_min:
        raise ValueError("need 0 < x_min < x_max")
    if n_points < 2:
        raise ValueError("need at least two points")
    ev = evaluator or default_evaluator()
    grid = np.geomspace(x_min, x_max, int(n_points))
    vals, _ = _direct(t, np.log(grid), ev)
    return RadialProfile(grid=grid, values=vals, t_stamp=float(t))


# ---------------------------------------------------------------------------
# derivatives and the rescaled kernel
# ---------------------------------------------------------------------------


def eval_dlambda_dt(t, x, evaluator=None):
    """d Lambda / d t on the direct line, Re s = 1.

    In U only the kernel Gamma(z) t^(-z) depends on t, and its
    t-derivative is -Gamma(z + 1) t^(-(z + 1)): the line is U's own
    convolution with the kernel's offset moved by 1 (``line._symbol_line``,
    kind "dt").  For t <= 1/2 the tail is only conditionally integrable,
    so x = 1 is refused there.  Where x^-1 passes e^_LOG_SCALE_MAX (x below
    about 1e-304) the line raises RegimeError.
    """
    _check_arg("t", t)
    _check_arg("x", x)
    ev = evaluator or default_evaluator()
    if x == 1.0 and t <= 0.5:
        raise RegimeError("dLambda/dt at x = 1 needs t > 1/2")
    return _line_assembly(ev, t, _C_DIRECT, "dt")(math.log(x))[0]


def eval_dlambda_dx(t, x, evaluator=None):
    """d Lambda / d x = -(1/x) (1/2 i pi) int sqrt(2 pi) s U(t,s) x^-s ds.

    The extra factor s slows the tail to v^(1-2t), absolutely integrable
    only for t > 1; smaller t raises RegimeError, and so does an x at
    which the scale x^(-c-1) passes e^_LOG_SCALE_MAX.
    """
    _check_arg("t", t)
    _check_arg("x", x)
    if not t > 1.0:
        raise RegimeError(f"x-derivative line needs t > 1; t={t}")
    q = math.log(x)
    _check_scale(-(_C_DIRECT + 1.0) * q, "the x-derivative line")
    ev = evaluator or default_evaluator()
    val, _ = _line_assembly(ev, t, _C_DIRECT, "su")(q)
    return -val / x


def eval_G(t, x, y, evaluator=None):
    """Green kernel for initial mass at y: G(t, x; y) = Lambda(t/y, x/y)/y.

    Scaling covariance G(a t, a x; a y) = G(t, x; y)/a holds by
    construction and is pinned by tests.
    """
    for name, value in (("t", t), ("x", x), ("y", y)):
        _check_arg(name, value)
    val, _ = _eval_q(t / y, math.log(x / y), "auto",
                     evaluator or default_evaluator())
    return val / y
