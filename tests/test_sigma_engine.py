"""The sigma-line engine of ``ufunc`` reads kept spectra of 1/B against
kernel spectra in closed form.

``ufunc._spectral_sums`` never builds a kernel row in eta: it reads the
kernels' spectra off Mellin pairs, e^(a u - t e^u) for Gamma(z) t^(-z),
-u times that for the digamma row of dU/ds, and (z/2 pi i) e^(a u)/(z + e^u)
for V, against the spectrum of 1/B that the evaluator keeps per line, step
and tile.  These tests hold every read-out, the fold of a line, the dots of
single s, of a z array and of a dense line, to the explicit trapezoid sums
of the kernel rows in long double; they pin what a new s on a seen line
costs (no log Gamma or digamma, no sample of 1/B, no forward FFT), hold a
long dense line to eval_U, and hold the mirrored reads at Im s < 0 to the
adaptive oracle.
"""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from wavekin import complexfn, ufunc
from wavekin.bfunc import BEvaluator
from wavekin.ufunc import eval_dU_ds, eval_U, eval_U_line, eval_V


@pytest.fixture(scope="module")
def ev():
    return BEvaluator()


def _reflection(s, beta, v):
    # V's kernel factor 1/(1 - e^(2 i pi (s - rho))) on rho = beta + i v,
    # in the form that stays finite on either side of v = Im s
    pi = np.longdouble(np.pi)
    x = 2.0 * pi * (v - np.longdouble(s.imag))
    q = np.exp(2j * pi * (np.longdouble(s.real) - np.longdouble(beta)))
    u = np.exp(-np.abs(x))
    return np.where(x > 0, -u / (q - u), 1.0 + q * u / (1.0 - q * u))


def _captured(monkeypatch):
    """Records the arguments and results of every ``_spectral_sums`` call."""
    calls = []
    real = ufunc._spectral_sums

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(ufunc, "_spectral_sums", spy)
    return calls


def _positions(y, h, fold):
    """The Im s at which the engine sums, in long double: each y, or in a
    fold the first |y| of its run plus k fold h, mirrored where y < 0."""
    p = y.astype(np.longdouble)
    if fold:
        for flip, _tile, idx in ufunc._runs(y):
            step = np.longdouble(fold) * np.longdouble(h)
            p[idx] = ((np.longdouble(abs(y[idx[0]])) + np.arange(idx.size)
                       * step) * (-1.0 if flip else 1.0))
    return p


def _direct(ev, beta, h, fold, y, rows):
    """(T_h, T_h - T_2h) at every y by explicit trapezoid sums in long
    double, on the lattice of the tile each y reads; rows(eta) are the
    kernel rows K_r(eta), shape (n_rows, len(eta)), for eta in long
    double.  A y < 0 is summed where the engine reads it, on the mirrored
    lattice w = -j h with the samples conj(1/B(beta + i j h))."""
    fine, diff = [], []
    for yk, pk in zip(y, _positions(y, h, fold)):
        sp = ufunc._tile_spectrum(ev, beta, h, float(math.floor(
            abs(yk) / ufunc._TILE)), max(fold, 1))
        j_lo = round(sp.w_lo / h)
        n_lat = round((sp.w_hi - sp.w_lo) / h) + 1
        g = ufunc._inv_b_samples(ev, beta, h, j_lo, n_lat)
        j = j_lo + np.arange(n_lat)
        w = j * np.longdouble(h)
        if yk < 0.0:
            w, g = -w, np.conj(g)
        terms = (rows(w - pk).astype(np.clongdouble)
                 * g.astype(np.clongdouble))
        t_h = (h / (2.0 * np.pi)) * terms.sum(-1)
        t_2h = (h / np.pi) * terms[:, j % 2 == 0].sum(-1)
        fine.append(t_h.astype(complex))
        diff.append((t_h - t_2h).astype(complex))
    return np.array(fine).T, np.array(diff).T


def _check_reads(ev, calls, rows):
    # every read of a route call against the direct sums: the values
    # within the rounding floor the engine reports, and the h-vs-2h
    # difference it reports within that floor of the direct one
    assert calls
    for (_ev, beta, h, fold, y, *_), (value, diff, floor, _) in calls:
        ref, ref_diff = _direct(ev, beta, h, fold, y, rows)
        assert value.shape == ref.shape
        assert (np.abs(value - ref) <= floor).all()
        assert (np.abs(diff - np.abs(ref_diff)) <= floor).all()


def _u_rows(a, t, du=False):
    def rows(eta):
        eta = eta.astype(float)
        k = ufunc._gamma_t_kernel(a, t, eta)
        if not du:
            return k[None]
        return np.stack([k, (math.log(t) - scipy.special.digamma(
            a + 1j * eta)) * k])
    return rows


@pytest.mark.parametrize("t, s", [(0.5, 1.0 + 5.0j), (0.8, 0.6 + 20.0j),
                                  (2.9, 1.9 - 37.0j), (0.3, 1.3 + 70.0j)])
def test_single_s_dot_matches_direct_sums(ev, monkeypatch, t, s):
    # one s reads its tile by one dot of the bins; at Re s > 1 the line
    # lies past the pole at sigma = s, where the spectrum subtracts 1
    calls = _captured(monkeypatch)
    eval_U_line(t, np.array([s]), evaluator=ev)
    (args, _), = calls
    beta, fold = args[1], args[3]
    assert fold == 0
    _check_reads(ev, calls, _u_rows(beta - s.real, t))


@pytest.mark.parametrize("t, s", [(0.7, 0.8 + 12.0j), (0.7, 1.5 - 20.0j),
                                  (2.5, 1.7 + 50.0j)])
def test_du_rows_match_direct_sums(ev, monkeypatch, t, s):
    # the two rows of dU/ds, the Gamma kernel and its digamma row, from
    # one spectrum of 1/B
    calls = _captured(monkeypatch)
    eval_dU_ds(t, s, evaluator=ev)
    beta = calls[0][0][1]
    _check_reads(ev, calls, _u_rows(beta - s.real, t, du=True))


@pytest.mark.parametrize("s", [1.2 + 0.5j, 1.99 + 0j, 0.7 - 40.0j])
def test_v_rows_match_direct_sums(ev, monkeypatch, s):
    z = np.array([1.0, 2.0 + 3.0j, 1e6])
    calls = _captured(monkeypatch)
    eval_V(z, s, evaluator=ev)
    beta = calls[0][0][1]
    # in long double: at |z| = 1e6, e^(i eta log|z|) turns 470 radians
    # over the reach of the lattice, which a double phase resolves to 5e-14
    ld = np.clongdouble
    a = np.longdouble(beta) - np.longdouble(s.real)
    zl = z.astype(ld)
    logmz = np.log(np.abs(zl)) + 1j * (np.arctan2(zl.imag, zl.real)
                                       - np.longdouble(np.pi))

    def rows(eta):
        return (np.exp(logmz[:, None] * (a + 1j * eta))
                * _reflection(s, beta, np.longdouble(s.imag) + eta))

    _check_reads(ev, calls, rows)


@pytest.mark.parametrize("re, im_lo", [(0.5, 13.3), (1.88, -10.4),
                                       (1.2, 50.0)])
def test_folded_line_matches_direct_sums(ev, monkeypatch, re, im_lo):
    # a line of the symbol workload, 100 points of step 20/99: its Im s
    # are lattice nodes m steps apart, so its reads are folds; a line
    # through Im s = 0 reads its lower part mirrored, and one through
    # |Im s| = 64 reads two tiles
    svals = re + 1j * np.linspace(im_lo, im_lo + 20.0, 100)
    calls = _captured(monkeypatch)
    eval_U_line(1.1, svals, evaluator=ev)
    beta, fold = calls[0][0][1], calls[0][0][3]
    assert fold > 0
    _check_reads(ev, calls, _u_rows(beta - re, 1.1))


def test_dense_line_dots_match_direct_sums(ev, monkeypatch):
    svals = 1.95 + 1j * (-0.02 + 1e-3 * np.arange(40))
    calls = _captured(monkeypatch)
    eval_U_line(0.7, svals, evaluator=ev)
    beta, fold = calls[0][0][1], calls[0][0][3]
    assert fold == 0
    _check_reads(ev, calls, _u_rows(beta - 1.95, 0.7))


def _cost_spy(monkeypatch, ev):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod in (scipy.fft, np.fft):
        monkeypatch.setattr(mod, "fft", spy("fft", mod.fft))
    for mod, name in ((ufunc, "log_gamma"), (complexfn, "log_gamma"),
                      (complexfn, "digamma"), (scipy.special, "loggamma"),
                      (scipy.special, "digamma"), (ufunc, "_gamma_t_kernel"),
                      (ufunc, "_inv_b_samples")):
        monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    monkeypatch.setattr(ev, "line_interpolator",
                        spy("line_interpolator", ev.line_interpolator))
    return calls


@pytest.mark.parametrize("route", [
    lambda ev, dy: eval_dU_ds(0.9, 1.37 + (23.3 + dy) * 1j, evaluator=ev),
    lambda ev, dy: eval_dU_ds(0.9, 0.62 + (23.3 + dy) * 1j, evaluator=ev),
    lambda ev, dy: eval_V(np.array([1.2 + 0.4j, 3.0]), 1.37 + (23.3 + dy) * 1j,
                          evaluator=ev),
    lambda ev, dy: eval_U_line(0.9, np.array([1.47 + (23.3 + dy) * 1j]),
                               evaluator=ev),
    lambda ev, dy: eval_U_line(
        0.9, 1.47 + 1j * np.linspace(13.3 + dy, 33.3 + dy, 100),
        evaluator=ev),
], ids=["du_crossed", "du_right", "v", "line_one_point", "line_folded"])
def test_a_new_s_on_a_seen_line_reads_only_kernel_spectra(monkeypatch,
                                                          route):
    # on a seen (beta, h) and tile, a new Im s costs its kernel spectra
    # and the read-out: no log Gamma or digamma, no kernel row, no sample
    # of 1/B and no forward FFT
    ev = BEvaluator()
    route(ev, 0.0)
    calls = _cost_spy(monkeypatch, ev)
    route(ev, 0.37)
    assert calls == []


def test_a_dense_line_of_2001_points_builds_no_kernel_row(ev, monkeypatch):
    # Im s 0.1 apart on Re s = 0.5, where pi d / 40 = 0.055: the line
    # folds by 2 at h = 0.05 on two tiles, read directly and mirrored,
    # where a kernel row per s took 1.26 s
    t, svals = 1.5, 0.5 + 1j * np.linspace(-100.0, 100.0, 2001)
    calls = _cost_spy(monkeypatch, ev)
    vals, errs = eval_U_line(t, svals, evaluator=ev)
    assert "log_gamma" not in calls and "_gamma_t_kernel" not in calls
    monkeypatch.undo()
    for i in (0, 1000, 1717, 2000):
        u = eval_U(t, svals[i], evaluator=ev)
        assert abs(vals[i] - u.value) <= u.err + errs[i]


@pytest.mark.parametrize("re", [0.6, 1.5, 1.9])
def test_line_below_the_real_axis_is_the_mirror(ev, re):
    # Im s < 0 reads the mirrored sums; eval_U sums its own line there,
    # so it checks the mirror independently, and the values at s and
    # conj(s) differ only by B's own conjugate symmetry
    t, svals = 0.4, re + 1j * np.array([-30.0, -5.0])
    vals, errs = eval_U_line(t, svals, evaluator=ev)
    up, _ = eval_U_line(t, np.conj(svals), evaluator=ev)
    for s, v, e, w in zip(svals, vals, errs, up):
        u = eval_U(t, s, evaluator=ev)
        assert abs(v - u.value) <= u.err + e
        assert abs(np.conj(w) - v) <= 1e-12 * abs(v)


@pytest.mark.parametrize("s", [0.8 - 12.0j, 1.5 - 20.0j])
def test_du_below_the_real_axis_is_the_mirror(ev, s):
    t = 0.7
    d = eval_dU_ds(t, s, evaluator=ev)
    assert abs(np.conj(eval_dU_ds(t, np.conj(s), evaluator=ev)) - d) <= (
        1e-12 * abs(d))
    h = 0.01
    fd = (8.0 * (eval_U(t, s + h, evaluator=ev).value
                 - eval_U(t, s - h, evaluator=ev).value)
          - (eval_U(t, s + 2 * h, evaluator=ev).value
             - eval_U(t, s - 2 * h, evaluator=ev).value)) / (12.0 * h)
    assert abs(d - fd) <= 1e-6 * abs(fd) + 1e-13
