"""Quadrature engine oracles: Gaussian, arctangent, residues."""

import math

import numpy as np
import pytest

from wavekin import contour
from wavekin.contour import (
    ContourSpec,
    TailModel,
    integrate_circle,
    integrate_vertical,
)
from wavekin.errors import ConvergenceError, TailModelError


class TestIntegrateVertical:
    def test_gaussian(self):
        """int e^{-v^2} i dv over Re s = 0 equals i sqrt(pi)."""
        spec = ContourSpec(abscissa=0.0, half_height=10.0)
        r = integrate_vertical(
            lambda s: np.exp(-(s.imag ** 2)), spec, tail=TailModel("exp", 10.0)
        )
        assert abs(r.value - 1j * math.sqrt(math.pi)) < 1e-10, r.value
        assert r.error_estimate <= max(1e-10 * abs(r.value), spec.abs_tol)
        assert r.truncation_tail < 1e-40

    def test_lorentzian(self):
        """int dv/(1+v^2) -> pi; the truncated line is short of pi by ~2/V,
        which is exactly what truncation_tail reports."""
        spec = ContourSpec(abscissa=0.0, half_height=1e4, rel_tol=1e-9)
        r = integrate_vertical(
            lambda s: 1.0 / (1.0 + s.imag ** 2), spec, tail=TailModel("power", 2.0)
        )
        assert abs(r.value - 1j * math.pi) < 1e-6 + r.truncation_tail, (
            f"|value - i pi| = {abs(r.value - 1j * math.pi):.3e}, "
            f"tail = {r.truncation_tail:.3e}"
        )
        # the modeled tail matches the true discarded mass 2/V to ~1%
        assert abs(r.truncation_tail - 2e-4) < 3e-6

    def test_zero_integrand(self):
        spec = ContourSpec(abscissa=1.0, half_height=5.0)
        r = integrate_vertical(lambda s: np.zeros_like(s), spec)
        assert r.value == 0
        assert r.error_estimate == 0
        assert r.truncation_tail == 0

    def test_doubling_height_bounded_by_tail(self):
        """Doubling half_height moves the value by < 2 * truncation_tail."""
        f = lambda s: 1.0 / (1.0 + s.imag ** 2)
        r1 = integrate_vertical(
            f, ContourSpec(0.0, 1e4, rel_tol=1e-9), tail=TailModel("power", 2.0)
        )
        r2 = integrate_vertical(
            f, ContourSpec(0.0, 2e4, rel_tol=1e-9), tail=TailModel("power", 2.0)
        )
        assert abs(r2.value - r1.value) < 2.0 * r1.truncation_tail

    def test_off_center_window(self):
        """A window centered at Im s = 30 integrates a bump living there."""
        spec = ContourSpec(abscissa=0.5, half_height=12.0, center=30.0)
        r = integrate_vertical(
            lambda s: np.exp(-((s.imag - 30.0) ** 2)),
            spec,
            tail=TailModel("exp", 12.0),
        )
        assert abs(r.value - 1j * math.sqrt(math.pi)) < 1e-10

    def test_oscillatory(self):
        """int e^{-v^2} cos(w v) dv = sqrt(pi) e^{-w^2/4} with panel capping."""
        w = 40.0
        spec = ContourSpec(abscissa=0.0, half_height=12.0, rel_tol=1e-9)
        r = integrate_vertical(
            lambda s: np.exp(-(s.imag ** 2)) * np.cos(w * s.imag),
            spec,
            tail=TailModel("exp", 12.0),
            osc_freq=w,
        )
        exact = 1j * math.sqrt(math.pi) * math.exp(-(w ** 2) / 4.0)
        assert abs(r.value - exact) < 1e-12

    def test_tail_model_violation(self):
        """Declaring fast exponential decay for a Lorentzian is rejected."""
        spec = ContourSpec(abscissa=0.0, half_height=50.0)
        with pytest.raises(TailModelError):
            integrate_vertical(
                lambda s: 1.0 / (1.0 + s.imag ** 2), spec, tail=TailModel("exp", 2.0)
            )

    def test_nonintegrable_power_tail(self):
        spec = ContourSpec(abscissa=0.0, half_height=50.0, rel_tol=1e-6)
        with pytest.raises(TailModelError):
            integrate_vertical(
                lambda s: 1.0 / np.sqrt(1.0 + s.imag ** 2),
                spec,
                tail=TailModel("power", 0.5),
            )

    def test_nonconvergence_raises(self, monkeypatch):
        """A kink the panel refinement cannot resolve within 1 refinement."""
        monkeypatch.setattr(contour, "_MAX_REFINEMENTS", 1)
        spec = ContourSpec(
            abscissa=0.0, half_height=3.0, rel_tol=1e-14, abs_tol=1e-15)
        with pytest.raises(ConvergenceError):
            integrate_vertical(lambda s: np.abs(s.imag - 0.1) ** 0.3, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(abscissa=0.0, half_height=-1.0)
        with pytest.raises(ValueError):
            ContourSpec(abscissa=0.0, half_height=1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            ContourSpec(abscissa=math.inf, half_height=1.0)
        with pytest.raises(ValueError):
            TailModel("gauss", 1.0)
        with pytest.raises(ValueError):
            TailModel("exp", 0.0)


class TestIntegrateCircle:
    def test_residue_of_inverse_z(self):
        r = integrate_circle(lambda z: 1.0 / z, 0.0, 1.0, n_min=16)
        assert abs(r.value - 1.0) < 1e-12

    def test_no_residue(self):
        r = integrate_circle(lambda z: 1.0 / z ** 2, 0.0, 0.5, n_min=16)
        assert abs(r.value) < 1e-12

    def test_gamma_residue_at_minus_one(self):
        """Res Gamma(z) at z=-1 is -1."""
        from scipy.special import gamma

        r = integrate_circle(gamma, -1.0, 0.3, n_min=32)
        assert abs(r.value - (-1.0)) < 1e-10

    def test_radius_independence(self):
        from scipy.special import gamma

        r1 = integrate_circle(gamma, -1.0, 0.3, n_min=32)
        r2 = integrate_circle(gamma, -1.0, 0.15, n_min=32)
        assert abs(r1.value - r2.value) < 1e-10

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            integrate_circle(lambda z: z, 0.0, 0.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
