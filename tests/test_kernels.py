"""Kernel closed forms, stability at the singular points, and the two
quadrature identities (H from K, W from H)."""

import math

import numpy as np
import pytest

from wavekin.errors import PoleError
from wavekin.kernels import (
    _mellin_H_tail,
    check_H_from_K,
    check_W_mellin,
    eval_H,
    eval_K,
)


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
