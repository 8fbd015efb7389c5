"""Collision kernels and the identities tying them to the Mellin symbol W.

Two kernels appear in the classical (low-temperature) approximation of the
linearized three-wave collision operator:

- ``K(x,y)``: the interaction kernel, positive, singular like 1/|x-y| on the
  diagonal;
- ``H(r)``: the transport kernel obtained by integrating K in its second
  argument, log-singular at r=1, H ~ 2r at 0 and H ~ -r^-5 at infinity.

The two consistency checks are quadrature cross-validations, deliberately
independent of the closed forms they test:

- ``check_H_from_K``: H(x/z) = 2z * int_z^inf K(x,y) dy for z > x (and
  -2z * int_0^z for z < x).  The 2z normalization is forced by direct
  integration of K; e.g. int_2^inf K(1,y) dy = (1/2) log(5/3) = H(1/2)/4.
- ``check_W_mellin``: W(s) = -s int_0^inf r^s H(r) dr on -2 < Re s < 4.
"""

import numpy as np

from wavekin.complexfn import eval_W
from wavekin.errors import PoleError, TruncationError

__all__ = [
    "eval_K",
    "eval_H",
    "check_H_from_K",
    "check_W_mellin",
]


def eval_K(x, y):
    """K(x,y) = (1/|x^2-y^2| - 1/(x^2+y^2)) * y/x for x, y > 0, x != y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("K requires x, y > 0")
    d = np.abs(x * x - y * y)
    if np.any(d == 0):
        raise PoleError("K is singular on the diagonal x = y")
    out = (1.0 / d - 1.0 / (x * x + y * y)) * (y / x)
    return out if out.ndim else float(out)


def eval_H(r):
    """Transport kernel H; positive on (0,1), negative on (1, inf).

    Four stable branches: a Taylor series below 0.01, log1p forms up to 1,
    a factored form just above 1 (log(r-1) is exact there by Sterbenz
    subtraction), and log1p(-r^-4) beyond 1.5.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("H requires r > 0")
    if np.any(r == 1.0):
        raise PoleError("H has a log singularity at r = 1")
    out = np.empty(r.shape)

    tiny = r < 0.01
    if tiny.any():
        q = r[tiny] ** 4
        out[tiny] = 2.0 * r[tiny] * (1.0 + q / 3.0 + q * q / 5.0)
    low = (r >= 0.01) & (r < 1.0)
    if low.any():
        rl = r[low]
        out[low] = (np.log1p(rl * rl) - np.log1p(-rl) - np.log1p(rl)) / rl
    near = (r > 1.0) & (r <= 1.5)
    if near.any():
        rn = r[near]
        out[near] = (
            np.log(rn - 1.0) + np.log(rn + 1.0) + np.log(rn * rn + 1.0)
            - 4.0 * np.log(rn)
        ) / rn
    far = r > 1.5
    if far.any():
        rf = r[far]
        out[far] = np.log1p(-(rf ** -4)) / rf
    return out if out.ndim else float(out)


def check_H_from_K(x, z, tol):
    """|H(x/z) - 2z * (+-) int K(x,y) dy|, the integral done by quadrature.

    Upper branch (z > x): 2z * int_z^inf K(x,y) dy.
    Lower branch (z < x): -2z * int_0^z K(x,y) dy.
    """
    if x <= 0 or z <= 0 or x == z:
        raise ValueError("need x, z > 0 and x != z")
    # imported here: scipy.integrate serves this oracle alone and would
    # add to every import of the package
    import scipy.integrate

    eps = min(0.01 * tol, 1e-10)
    if z > x:
        val, est = scipy.integrate.quad(
            lambda yy: eval_K(x, yy), z, np.inf, epsabs=eps, epsrel=1e-12,
            limit=200,
        )
        integral = 2.0 * z * val
    else:
        val, est = scipy.integrate.quad(
            lambda yy: eval_K(x, yy), 0.0, z, epsabs=eps, epsrel=1e-12,
            limit=200,
        )
        integral = -2.0 * z * val
    if est > 100 * eps + 1e-13:
        raise TruncationError(f"kernel quadrature error estimate {est:.2e}")
    return abs(eval_H(x / z) - integral)


def _gl_real(f, a, b, rel=1e-12):
    # doubling Gauss-Legendre panels on [a,b] until stagnation; integrands
    # here are analytic, convergence is geometric
    nodes, weights = np.polynomial.legendre.leggauss(24)
    prev = None
    for n_panels in (4, 8, 16, 32, 64, 128):
        edges = np.linspace(a, b, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1] - edges[0])
        v = (mid + half * nodes).ravel()
        total = half * (f(v).reshape(n_panels, -1) * weights).sum()
        if prev is not None and abs(total - prev) <= rel * max(1.0, abs(total)):
            return total
        prev = total
    raise TruncationError("real-line quadrature did not stagnate")


def _mellin_H_lower(s, n_terms=30):
    # int_0^{1/2} r^s H dr via H = 2 sum_k r^{4k+1}/(2k+1), exact termwise
    k = np.arange(n_terms)
    p = s + 4.0 * k + 2.0
    return 2.0 * np.sum(0.5 ** p / ((2.0 * k + 1.0) * p))


def _mellin_H_tail(s, R=2.0, n_terms=30):
    # int_R^inf r^s H dr via H = -(1/r) sum_m r^{-4m}/m; needs R >= 2
    m = np.arange(1, n_terms + 1)
    return np.sum(R ** (s - 4.0 * m) / (m * (s - 4.0 * m)))


def check_W_mellin(s, tol):
    """|W(s) + s int_0^inf r^s H(r) dr| on the strip -2 < Re s < 4.

    The r-integral is split at 1/2, 1, 2: closed-form series on the outer
    pieces, and the substitutions r = 1 -+ e^{-w} on the middle pieces to
    linearize the log singularity at r = 1.
    """
    s = complex(s)
    if not -2.0 < s.real < 4.0:
        raise ValueError("Mellin transform of H converges on -2 < Re s < 4")

    def inner_left(w):
        r = 1.0 - np.exp(-w)
        h = (np.log1p(r * r) + w - np.log1p(r)) / r
        return np.exp(s * np.log(r) - w) * h

    def inner_right(w):
        r = 1.0 + np.exp(-w)
        h = (-w + np.log(r + 1.0) + np.log(r * r + 1.0) - 4.0 * np.log(r)) / r
        return np.exp(s * np.log(r) - w) * h

    integral = (
        _mellin_H_lower(s)
        + _gl_real(inner_left, np.log(2.0), 42.0)
        + _gl_real(inner_right, 0.0, 42.0)
        + _mellin_H_tail(s)
    )
    return abs(eval_W(s) + s * integral)
