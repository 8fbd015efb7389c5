"""Special-function oracles: gamma family, W, its derivatives, zeros, residues.

Frozen reference values were produced with mpmath at 30+ digits.
"""

import math

import numpy as np
import pytest

from wavekin import complexfn
from wavekin.complexfn import (
    EULER,
    digamma,
    eval_W,
    eval_W_d2,
    eval_W_d3,
    eval_W_prime,
    locate_W_roots,
    log_gamma,
    trigamma,
    w_residue,
)
from wavekin.contour import integrate_circle
from wavekin.errors import NoSignChangeError, PoleError

PI = math.pi


class TestLogGamma:
    def test_anchor_values(self):
        assert abs(log_gamma(1.0)) < 1e-14
        assert abs(log_gamma(0.5) - math.log(math.sqrt(PI))) < 1e-14
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_complex_point(self):
        ref = 0.726446751624426474 - 2.71806429244114567j
        assert abs(log_gamma(3.7 - 2.2j) - ref) < 1e-13

    def test_recurrence_consistency(self):
        """exp(log_gamma(z+1)) = z exp(log_gamma(z)), 50 random z in |z|<=10."""
        rng = np.random.default_rng(7)
        n = 0
        while n < 50:
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10 or (z.real < 0.5 and abs(z.imag) < 0.3):
                continue  # stay clear of the pole line
            lhs = np.exp(log_gamma(z + 1.0))
            rhs = z * np.exp(log_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs), f"z={z}"
            n += 1

    def test_pole(self):
        with pytest.raises(PoleError):
            log_gamma(0.0)
        with pytest.raises(PoleError):
            log_gamma(-3.0)


class TestDigammaTrigamma:
    def test_digamma_anchors(self):
        assert abs(digamma(1.0) - (-EULER)) < 1e-13
        assert abs(digamma(0.5) - (-EULER - 2.0 * math.log(2.0))) < 1e-13
        assert abs(digamma(2.0) - (1.0 - EULER)) < 1e-13

    def test_trigamma_anchors(self):
        assert abs(trigamma(1.0) - PI ** 2 / 6.0) < 1e-13
        assert abs(trigamma(0.5) - PI ** 2 / 2.0) < 1e-13
        assert abs(trigamma(2.0) - (PI ** 2 / 6.0 - 1.0)) < 1e-13

    # mpmath, 30 digits
    _REF = {
        3.7 - 2.2j: (
            1.35769694203957136 - 0.599729405175855532j,
            0.212502571763818164 + 0.144510703300729752j,
        ),
        -6.3 + 0.4j: (
            2.3776429507142438 + 2.89507679180030231j,
            1.20866053700915033 + 2.69765834533369742j,
        ),
        0.25 + 44.0j: (
            3.7841842532870215 + 1.57647832843279937j,
            -0.000129144741121233137 - 0.0227275173069475335j,
        ),
        -17.2 - 3.3j: (
            2.89076930731992429 - 2.95731451632924777j,
            -0.0545871687375728925 + 0.0101720064034538048j,
        ),
    }

    def test_complex_points(self):
        for z, (psi0, psi1) in self._REF.items():
            assert abs(digamma(z) - psi0) < 1e-12 * abs(psi0), f"z={z}"
            assert abs(trigamma(z) - psi1) < 1e-12 * abs(psi1), f"z={z}"

    def test_recurrence_random(self):
        """psi(z+1) = psi(z) + 1/z and the trigamma analogue, seeded sweep."""
        rng = np.random.default_rng(11)
        for _ in range(60):
            z = complex(rng.uniform(-20, 20), rng.uniform(0.2, 30.0))
            assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-12
            assert abs(trigamma(z + 1) - trigamma(z) + 1.0 / z ** 2) < 1e-12

    def test_vectorized(self):
        z = np.array([1.0, 2.0, 0.5], dtype=complex)
        out = digamma(z)
        assert out.shape == (3,)
        assert abs(out[0] - (-EULER)) < 1e-13

    def test_high_line(self):
        """Accuracy survives |Im z| = 1e4 (the contour engine's regime)."""
        z = 0.65 + 1e4j
        # psi(z) ~ log z - 1/(2z): compare against the recurrence-consistency
        # anchor instead of a frozen constant
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-12

    def test_poles(self):
        with pytest.raises(PoleError):
            digamma(-1.0)
        with pytest.raises(PoleError):
            trigamma(0.0)


class TestEvalW:
    def test_trivial_zeros_exact(self):
        assert eval_W(2.0) == 0.0
        assert eval_W(0.0) == 0.0

    def test_anchor_one(self):
        """W(1) = 4 ln 2 - pi (digamma half-argument + cot(pi/4) = 1)."""
        assert abs(eval_W(1.0) - (4.0 * math.log(2.0) - PI)) < 1e-13

    def test_anchor_three(self):
        assert abs(eval_W(3.0) - (4.0 * math.log(2.0) - 4.0 + PI)) < 1e-13
        assert abs(eval_W(-1.0) - eval_W(3.0)) < 1e-14

    # mpmath spot values
    def test_complex_spots(self):
        assert abs(eval_W(1.5 + 3.7j)
                   - (-2.3919258082134393576 + 0.26253222792563031271j)) < 1e-13
        assert abs(eval_W(0.3 + 80.0j)
                   - (-8.5322147205340810567 - 0.017500464924117970586j)) < 1e-12
        assert abs(eval_W(-12.3 - 200.0j)
                   - (-10.369175978637648027 + 0.13280556410984296195j)) < 1e-12

    def test_reflection_symmetry(self):
        """W(2-s) = W(s): psi reflection + cot - tan = 2 cot(2x)."""
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = complex(rng.uniform(-15, 15), rng.uniform(0.3, 50.0))
            w1, w2 = eval_W(s), eval_W(2.0 - s)
            assert abs(w1 - w2) < 1e-11 * max(1.0, abs(w1)), f"s={s}"

    def test_conjugation(self):
        s = 1.2 + 6.5j
        assert abs(eval_W(np.conj(s)) - np.conj(eval_W(s))) < 1e-13

    def test_near_zero_series(self):
        # mpmath: W(1e-4) = -8.22406932946407702e-5
        assert abs(eval_W(1e-4) - (-8.22406932946407702e-5)) < 1e-17

    def test_removable_point(self):
        """s=-4: the psi pole and the cot pole cancel; W(-4) = W(6) = -3."""
        assert abs(eval_W(-4.0) - (-3.0)) < 1e-10
        # mpmath: W(-4 + 1e-4) = -3.00020724631856028
        assert abs(eval_W(-4.0 + 1e-4) - (-3.00020724631856028)) < 1e-9
        assert abs(eval_W(6.0) - (-3.0)) < 1e-12

    def test_poles_raise(self):
        for s in [4.0, 8.0, -2.0, -6.0, 4.0 + 1e-9j]:
            with pytest.raises(PoleError):
                eval_W(s)

    def test_vectorized_mixed_branches(self):
        s = np.array([2.0, 1e-5, -4.0 + 1e-5, 1.5 + 3.7j])
        out = eval_W(s)
        assert out[0] == 0.0
        assert abs(out[3] - eval_W(1.5 + 3.7j)) < 1e-15


class TestEvalWPrime:
    def test_endpoints_of_trivial_strip(self):
        assert abs(eval_W_prime(0.0) - (-PI ** 2 / 12.0)) < 1e-13
        assert abs(eval_W_prime(2.0) - (PI ** 2 / 12.0)) < 1e-13

    def test_critical_point_at_one(self):
        """W'(1) = -psi'(1/2) + pi^2/2 = 0 exactly; the finite difference of
        eval_W is then also ~0 and the two agree in the absolute sense."""
        assert abs(eval_W_prime(1.0)) < 1e-12
        h = 1e-5
        fd = (eval_W(1.0 + h) - eval_W(1.0 - h)) / (2.0 * h)
        assert abs(fd) < 1e-9
        assert abs(eval_W_prime(1.0) - fd) < 1e-7

    def test_matches_finite_differences_on_strip(self):
        """Analytic derivative vs central differences, 1e-8 relative."""
        rng = np.random.default_rng(5)
        h = 1e-5
        checked = 0
        while checked < 30:
            s = complex(rng.uniform(-1.4, 3.4), rng.uniform(-8.0, 8.0))
            if min(abs(s), abs(s - 2.0), abs(s - 1.0)) < 0.3:
                continue  # relative comparison needs |W'| bounded away from 0
            fd = (eval_W(s + h) - eval_W(s - h)) / (2.0 * h)
            wp = eval_W_prime(s)
            assert abs(wp - fd) <= 1e-8 * abs(wp), f"s={s}"
            checked += 1

    def test_complex_spot(self):
        ref = -0.057103271053679402702 + 0.52304197013858605662j
        assert abs(eval_W_prime(1.5 + 3.7j) - ref) < 1e-13


class TestHigherDerivatives:
    def test_spots(self):
        assert abs(eval_W_d2(1.5 + 3.7j)
                   - (-0.116086696623525435 - 0.0126626652197157746j)) < 1e-12
        assert abs(eval_W_d3(1.5 + 3.7j)
                   - (-0.0104514005281240918 - 0.0305349751528605549j)) < 1e-12

    def test_fd_chain(self):
        h = 1e-5
        s = 0.7 + 1.3j
        fd2 = (eval_W_prime(s + h) - eval_W_prime(s - h)) / (2 * h)
        assert abs(eval_W_d2(s) - fd2) < 1e-8
        fd3 = (eval_W_d2(s + h) - eval_W_d2(s - h)) / (2 * h)
        assert abs(eval_W_d3(s) - fd3) < 1e-8

    def test_branch_boundary_values(self):
        """mpmath anchors on both sides of the |s| = 0.05 series boundary."""
        # series side
        assert abs(eval_W(0.049) - (-0.038884939455371474)) < 1e-14
        # generic side; d3 there carries ~8|s|^-4 * eps cancellation noise
        assert abs(eval_W_d3(0.0501) - (-1.2735198281787544)) < 5e-9
        assert abs(eval_W_d3(0.05 + 0.02j)
                   - (-1.2725272091169997 + 0.0553346102590413j)) < 5e-9

    def test_removable_zone_boundary(self):
        """Reflection branch near -4 agrees with mpmath at distance 0.04."""
        assert abs(eval_W(-3.96) - (-3.0828691993354078)) < 1e-11

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_removable_zone_matches_circle(self, order):
        """Reflection form at s = -4m against a Cauchy circle of radius 1.

        The circle's nodes sit outside the removable zone, so they take the
        generic psi/cot branch: an independent route to W^(k).
        """
        rng = np.random.default_rng(400 + order)
        funcs = (eval_W, eval_W_prime, eval_W_d2, eval_W_d3)
        for center in (-4.0, -8.0, -12.0, -20.0):
            for _ in range(5):
                p = center + 0.049 * rng.uniform() * np.exp(
                    2j * np.pi * rng.uniform())
                r = integrate_circle(
                    lambda z: eval_W(z) / (z - p) ** (order + 1),
                    center, 1.0, n_min=64)
                ref = math.factorial(order) * complex(r.value)
                got = complex(funcs[order](p))
                assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0), p


def asymptote_check(s):
    """|W(s) - (-2 log|s/2| - 2 gamma_e)|: the large-|Im s| residual.

    Stirling applied to psi(s/2) gives the constant -2 gamma_e (one gamma_e
    from the definition, one from psi itself); the residual decays like 1/|s|
    and is below 5/|s| throughout |Im s| >= 50, 0 < Re s < 2.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    resid = np.abs(eval_W(arr) - (-2.0 * np.log(np.abs(arr / 2.0)) - 2.0 * EULER))
    return float(resid[0])


class TestAsymptote:
    def test_spec_points(self):
        assert asymptote_check(1.0 + 100.0j) <= 0.05
        assert asymptote_check(0.5 + 1000.0j) <= 0.005
        assert asymptote_check(1.9 + 50.0j) <= 0.1

    def test_measured_magnitudes(self):
        # the residual is genuinely O(1/|s|), not merely below the cap
        assert abs(asymptote_check(1.0 + 100.0j) - 1.33331e-4) < 1e-8

    def test_five_over_s_contract(self):
        for re in (0.1, 0.7, 1.3, 1.9):
            for im in (50.0, 120.0, 700.0, 5000.0, -90.0):
                s = complex(re, im)
                assert asymptote_check(s) <= 5.0 / abs(s), f"s={s}"


class TestRootsAndResidues:
    def test_table(self):
        table = locate_W_roots(2)
        assert table.trivial_zeros == (0.0, 2.0)
        assert table.w_poles_pos == (4.0, 8.0, 12.0)
        assert table.w_poles_neg == (-2.0, -6.0, -10.0)
        # mpmath: 7.0457345795777610482, 11.213060715517199944
        assert abs(table.w_zeros_pos[0] - 7.0457345795777610482) < 1e-13
        assert abs(table.w_zeros_pos[1] - 11.213060715517199944) < 1e-13
        assert abs(table.w_zeros_neg[0] - (-5.0457345795777610482)) < 1e-13
        assert abs(table.w_zeros_neg[1] - (-9.213060715517199944)) < 1e-13

    def test_roots_are_roots(self):
        # Newton-polished: one more Newton step moves none by 2 ulps
        table = locate_W_roots(5)
        for root in table.w_zeros_pos + table.w_zeros_neg:
            step = complex(eval_W(root) / eval_W_prime(root))
            assert abs(step) <= 2.0 * abs(np.spacing(root)), f"root={root}"

    def test_roots_take_one_w_call_per_step(self, monkeypatch):
        calls = []
        real = complexfn.eval_W

        def spy(s):
            calls.append(np.size(s))
            return real(s)

        monkeypatch.setattr(complexfn, "eval_W", spy)
        locate_W_roots(5)
        assert len(calls) <= 60
        assert set(calls) == {10, 20}     # all ten brackets in every call

    def test_reflection_pairs_zeros(self):
        table = locate_W_roots(2)
        for sp, sn in zip(table.w_zeros_pos, table.w_zeros_neg):
            assert abs(sn - (2.0 - sp)) < 1e-9

    def test_no_zero_in_minus2_minus1(self):
        """W > 0 on the whole of (-2,0): the bracket (-2,-1) has no root,
        and the batch refuses it next to the good bracket about sigma_1."""
        with pytest.raises(NoSignChangeError):
            complexfn._bracketed_zeros([7.0, -1.999], [7.5, -1.0])

    def test_residues_measured(self):
        """Exactly -4 at every 4n and +4 at every -2(2n+1)."""
        assert w_residue(4.0) == w_residue(8.0) == -4.0
        assert w_residue(-2.0) == w_residue(-6.0) == 4.0

    def test_residues_within_circle_error(self):
        """Each residue lies within the reported error of a circle of W,
        plus 1e-14 relative: eval_W rounds to about that next to its
        poles (1.8e-14 relative at worst against 40-digit mpmath)."""
        for pole in (4.0, 8.0, 12.0, 16.0, 20.0, 24.0,
                     -2.0, -6.0, -10.0, -14.0, -18.0, -22.0):
            r = integrate_circle(eval_W, complex(pole), 0.1, n_min=64)
            assert abs(w_residue(pole) - r.value) <= (
                r.error_estimate + 1e-14 * 4.0), pole

    @pytest.mark.parametrize("radius", [0.1, 0.5])
    @pytest.mark.parametrize("pole", [8.0, 16.0, 24.0, -2.0, -6.0, -10.0])
    def test_circle_error_bounds_the_exact_residue(self, pole, radius):
        """The circle's reported error, rounding floor included, alone
        bounds its miss of the exact residue (at 16, radius 0.1, the last
        doubling changes the value by 3.8e-18 and the miss is 1.8e-15)."""
        r = integrate_circle(eval_W, complex(pole), radius, n_min=64)
        assert abs(w_residue(pole) - r.value) <= r.error_estimate

    def test_no_residue_off_the_pole_lattice(self):
        # 0 and 2 are zeros of W; at -4m the two poles cancel
        for s in (0.0, 2.0, -4.0, -8.0, 4.5, 5.0, -3.0):
            with pytest.raises(PoleError):
                w_residue(s)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])


@pytest.mark.parametrize("call, match", [
    (lambda: log_gamma(math.nan), "non-finite"),
    (lambda: locate_W_roots(0), "n_max"),
], ids=["log_gamma_nan", "roots_n_max_zero"])
def test_routes_refuse_arguments_outside_their_zone(call, match):
    with pytest.raises(ValueError, match=match):
        call()
