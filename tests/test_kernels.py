"""Kernel closed forms, stability at the singular points, and the two
quadrature identities (H from K, W from H).

The interaction kernel K and both identity checks live here: the package
needs H alone.  The checks are quadrature cross-validations, deliberately
independent of the closed forms they test.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from wavekin.complexfn import eval_W
from wavekin.errors import PoleError, TruncationError
from wavekin.kernels import eval_H


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


def check_H_from_K(x, z, tol):
    """|H(x/z) - 2z * (+-) int K(x,y) dy|, the integral done by quadrature.

    Upper branch (z > x): 2z * int_z^inf K(x,y) dy.
    Lower branch (z < x): -2z * int_0^z K(x,y) dy.
    The 2z normalization is forced by direct integration of K; e.g.
    int_2^inf K(1,y) dy = (1/2) log(5/3) = H(1/2)/4.
    """
    if x <= 0 or z <= 0 or x == z:
        raise ValueError("need x, z > 0 and x != z")
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


class TestK:
    def test_hand_values(self):
        assert abs(eval_K(1.0, 2.0) - 4.0 / 15.0) < 1e-15
        assert abs(eval_K(2.0, 1.0) - 1.0 / 15.0) < 1e-15

    def test_near_diagonal_scale(self):
        v = eval_K(1.0, 1.0 + 1e-8)
        assert v > 0
        assert abs(v * 2e-8 - 1.0) < 1e-6  # leading 1/|x^2-y^2| ~ 1/(2e-8)

    def test_no_overflow_deep_in_singularity(self):
        """Finite at the closest representable off-diagonal point."""
        assert math.isfinite(eval_K(1.0, np.nextafter(1.0, 2.0)))

    def test_diagonal_raises(self):
        with pytest.raises(PoleError):
            eval_K(1.5, 1.5)

    def test_positivity_and_symmetry_sweep(self):
        """K > 0 off-diagonal and K(x,y) x/y = K(y,x) y/x (symmetric core)."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0.05, 20.0, size=200)
        y = rng.uniform(0.05, 20.0, size=200)
        keep = np.abs(x - y) > 1e-9
        x, y = x[keep], y[keep]
        kxy = eval_K(x, y)
        kyx = eval_K(y, x)
        assert (kxy > 0).all()
        np.testing.assert_allclose(kxy * x / y, kyx * y / x, rtol=1e-13)


class TestH:
    def test_hand_values(self):
        assert abs(eval_H(0.5) - 2.0 * math.log(5.0 / 3.0)) < 1e-15
        assert abs(eval_H(2.0) - 0.5 * math.log(15.0 / 16.0)) < 1e-16

    def test_small_r(self):
        assert abs(eval_H(1e-4) - 2.0000000000000000667e-4) < 1e-19
        assert abs(eval_H(1e-8) / 2e-8 - 1.0) < 1e-12

    def test_signs(self):
        r = np.linspace(0.02, 0.999, 40)
        assert (eval_H(r) > 0).all()
        r = np.concatenate([np.linspace(1.001, 1.5, 20), np.linspace(1.6, 50, 20)])
        assert (eval_H(r) < 0).all()

    def test_near_one_stability(self):
        # mpmath at 40 digits, evaluated at the exact binary doubles
        assert abs(eval_H(1.0 - 1e-12) - 27.631043237920489015) < 1e-12
        assert abs(eval_H(1.0 + 1e-12) - (-26.244637858153992412)) < 1e-12
        assert abs(eval_H(1.0000001) - (-14.731800066074535921)) < 1e-12

    def test_far_tail(self):
        assert abs(eval_H(1e6) - (-1e-30)) < 1e-45

    def test_singularity_raises(self):
        with pytest.raises(PoleError):
            eval_H(1.0)

    def test_branch_seams(self):
        """mpmath anchors just inside each formula branch."""
        assert abs(eval_H(0.0099) - 0.019800000063399338652) < 1e-17  # series
        assert abs(eval_H(0.0101) - 0.020200000070067336317) < 1e-16  # log1p
        assert abs(eval_H(1.49) - (-0.15218741090980271994)) < 1e-15  # factored
        assert abs(eval_H(1.51) - (-0.14147449913325707197)) < 1e-15  # far


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_h_refuses_r_up_to_zero(r):
    with pytest.raises(ValueError, match="r > 0"):
        eval_H(r)


class TestHFromK:
    def test_upper_branch(self):
        assert check_H_from_K(1.0, 2.0, 1e-8) <= 1e-8

    def test_lower_branch(self):
        assert check_H_from_K(2.0, 1.0, 1e-8) <= 1e-8

    def test_near_singular(self):
        z = 1.0
        assert check_H_from_K(z * (1.0 + 1e-3), z, 1e-5) <= 1e-5

    def test_grid(self):
        """20-point (x,z) grid, ratios in [0.1, 10]."""
        ratios = [0.1, 0.31, 0.52, 0.73, 0.94, 1.06, 1.45, 2.8, 5.4, 10.0]
        for z in (0.7, 3.1):
            for q in ratios:
                x = q * z
                assert check_H_from_K(x, z, 1e-8) <= 1e-8, f"x={x}, z={z}"


class TestWMellin:
    def test_at_one(self):
        assert check_W_mellin(1.0, 1e-8) <= 1e-8

    def test_at_two(self):
        """W(2) = 0, so the transform itself must vanish there."""
        assert check_W_mellin(2.0, 1e-8) <= 1e-8

    def test_complex_point(self):
        assert check_W_mellin(0.5 + 3.0j, 1e-7) <= 1e-7

    def test_more_points(self):
        for s in (3.5, -1.5, -1.0 + 5.0j, 0.25 - 2.0j):
            assert check_W_mellin(s, 1e-8) <= 1e-8, f"s={s}"

    def test_out_of_strip(self):
        with pytest.raises(ValueError):
            check_W_mellin(4.5, 1e-8)

    def test_tail_decay_rate(self):
        """int_R^inf r^s H dr decays like R^{s-4} (H ~ -r^-5)."""
        for s in (0.0, 1.0, 2.0, 3.0):
            t1 = _mellin_H_tail(s, R=4.0)
            t2 = _mellin_H_tail(s, R=8.0)
            assert abs(t2 / t1 - 2.0 ** (s - 4.0)) < 0.05 * 2.0 ** (s - 4.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
