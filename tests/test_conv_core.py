"""The convolution of the Lambda line reads the Gamma kernel's spectrum in
closed form.

``line_mod._conv_core`` never builds the kernel row Gamma(z) t^(-z): it
reads the row's DFT off the Mellin pair of Gamma as e^(a u - t e^u)
(Poisson summation).  These tests hold its lines to the explicit trapezoid
sum with the kernel rows of ``ufunc._gamma_t_kernel``, hold the bins it
skips where the kernel's spectrum underflows to the fold of every bin, bit
for bit, and pin what a new t on a seen line costs: no forward FFT, no
loggamma or digamma, and one inverse FFT per line.
"""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from wavekin import (asymptotic, bfunc, complexfn, fundsol, integrals, ray,
                     ufunc)
from wavekin import line as line_mod
from wavekin.bfunc import BEvaluator
from wavekin.line import _H_W, _K_HALF, _N_FFT, _N_LAT, _NV


@pytest.fixture(scope="module")
def ev():
    return BEvaluator()


def _aux_line(c, kind):
    # (beta, a): the auxiliary line of the convolution and the kernel offset
    if kind == "q2":
        return line_mod._BETA2, line_mod._BETA2 - c
    return c + line_mod._B_OFF, line_mod._B_OFF


def _trapezoid_rows(ev, t, c, kind):
    # h/(2 pi) sum_w K_r(w - v) / B(beta + i w) at every output node v,
    # summed in long double over the kernel nodes |eta| <= _K_HALF h
    beta, a = _aux_line(c, kind)
    # the lattice of _inv_b_spectrum, node for node
    w = -_K_HALF * _H_W + _H_W * np.arange(_N_LAT)
    inv_b = 1.0 / line_mod._line_B(ev, beta, w)
    eta = _H_W * np.arange(-_K_HALF, _K_HALF + 1)
    k = ufunc._gamma_t_kernel(a, t, eta)
    rows = [k]
    if kind == "du":
        rows.append((math.log(t) - scipy.special.digamma(a + 1j * eta)) * k)
    elif kind == "dt":
        # d/dt Gamma(z) t^(-z) = -Gamma(z + 1) t^(-(z + 1))
        rows = [-ufunc._gamma_t_kernel(a + 1.0, t, eta)]
    windows = np.lib.stride_tricks.sliding_window_view(
        inv_b.astype(np.clongdouble), eta.size)[::2]
    assert windows.shape[0] == _NV
    return [(_H_W / (2.0 * np.pi))
            * (windows @ r.astype(np.clongdouble)).astype(complex)
            for r in rows]


@pytest.mark.parametrize("t", [0.05, 0.2, 1.0, 6.0])
@pytest.mark.parametrize("kind", ["u", "q2", "du", "dt"])
def test_closed_form_spectrum_matches_the_trapezoid_sum(ev, kind, t):
    c = line_mod._C_DIRECT
    beta, a = _aux_line(c, kind)
    spectrum = line_mod._inv_b_spectrum(ev, beta)
    if kind == "dt":
        # the "u" line's spectrum against the kernel's offset moved by 1
        got = [-line_mod._conv_core(spectrum, a + 1.0, t)]
    else:
        got = line_mod._conv_core(spectrum, a, t, du=kind == "du")
        got = got if kind == "du" else [got]
    exact = _trapezoid_rows(ev, t, c, kind)
    assert len(got) == len(exact)
    for row, ref in zip(got, exact):
        assert row.shape == (_NV,)
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()


def _all_bins(spectrum, a, t, du):
    # the kernel's spectrum on every bin, and the fold that adds bins i
    # and i + _N_FFT/2 of _U's order
    g = np.exp(a * line_mod._U - t * line_mod._EXP_U)
    if du:
        g = np.stack([g, -line_mod._U * g])
    prod = spectrum * g
    folded = prod[..., _N_FFT // 2:] + prod[..., :_N_FFT // 2]
    return scipy.fft.ifft(folded)[..., :_NV]


@pytest.mark.parametrize("t", [0.05, 0.2, 1.0, 6.0, 40.0, 1000.0])
@pytest.mark.parametrize("kind", ["u", "q2", "du", "dt"])
def test_skipped_bins_change_no_bit(ev, kind, t):
    # the bins that _conv_core skips underflow, so its line is the fold of
    # every bin bit for bit, both rows of du included; at t = 1000 the
    # underflow reaches below u = 0 for every offset, and the cut stops at
    # the upper half of the fold
    beta, a = _aux_line(line_mod._C_DIRECT, kind)
    if kind == "dt":
        a += 1.0    # the offset of the "dt" kernel
    spectrum = line_mod._inv_b_spectrum(ev, beta)
    skip = line_mod._underflow_bins(a, t)
    assert 3600 <= skip <= _N_FFT // 2
    u = line_mod._U[:skip]
    assert (a * u - t * line_mod._EXP_U[:skip]).max() <= -745.2
    got = line_mod._conv_core(spectrum, a, t, du=kind == "du")
    ref = _all_bins(spectrum, a, t, kind == "du")
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_a_new_t_costs_one_inverse_fft(ev, monkeypatch):
    kinds = [(kind, 1.0) for kind in ray._RAY_LADDERS]
    for kind, c in kinds:
        line_mod._symbol_line(ev, 0.9, c, kind)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod in (scipy.fft, np.fft):
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    for mod in (scipy.special, fundsol, ray, line_mod, asymptotic,
                integrals, ufunc, bfunc, complexfn):
        for name in ("loggamma", "digamma", "log_gamma"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    spy(name, getattr(mod, name)))
    for kind, c in kinds:
        line = line_mod._symbol_line(ev, 1.7, c, kind)
        assert line.shape == (_NV,) and np.isfinite(line).all()
        assert calls == ["ifft"], kind
        calls.clear()
