"""Measure the package's calibration constants and freeze them to disk.

Run from the repository root:

    python3 scripts/calibrate.py

Writes ``tests/data/calibration.json``.  Every envelope or bound in
the library of the form "there exists C such that ..." gets its C from
this script: the constant is measured at the stated reference points,
rounded up to four significant digits, and recorded with enough context
to re-derive it.  Tests assert the inequalities against the frozen file
and never recalibrate on the fly.
"""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wavekin import ufunc  # noqa: E402
from wavekin.bfunc import _B_SCALE, default_evaluator  # noqa: E402

OUT = ROOT / "tests" / "data" / "calibration.json"


def round_up(x, sig=4):
    """Round x up (away from zero is not needed; all constants are > 0)."""
    if x == 0.0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    quantum = 10.0 ** (exp - sig + 1)
    return math.ceil(x / quantum) * quantum


def u_envelope_C():
    """|U(1, s)| <= C e^{-2 log|b s|}, C from the reference point |s| = 10."""
    s = 1.0 + 1j * math.sqrt(99.0)
    u = ufunc.eval_U(1.0, s)
    ratio = abs(u.value) / ufunc.envelope(1.0, s, 1.0)
    return {
        "value": round_up(ratio),
        "measured": ratio,
        "meaning": "|U(1, s)| <= C * exp(-2*log|b*s|)",
        "reference": {"t": 1.0, "s": [1.0, math.sqrt(99.0)], "abs_s": 10.0},
    }


def u_envelope_C_T():
    """|U(t, s)| <= C_T e^{-2 t log|b s|} on the 10x10 (t, Im s) grid, T = 1."""
    ts = np.linspace(0.1, 1.0, 10)
    ims = np.linspace(5.0, 200.0, 10)
    worst = 0.0
    for im in ims:
        s = 1.0 + 1j * im
        for t in ts:
            u = ufunc.eval_U(float(t), s)
            worst = max(worst, abs(u.value) / ufunc.envelope(float(t), s, 1.0))
    return {
        "value": round_up(worst),
        "measured": worst,
        "meaning": "|U(t, s)| <= C_T * exp(-2*t*log|b*s|) for t <= T = 1",
        "reference": {
            "t_grid": [0.1, 1.0, 10],
            "im_s_grid": [5.0, 200.0, 10],
            "re_s": 1.0,
        },
    }


def du_envelope_C():
    """(1+|s|) |dU/ds| <= C t e^{-2 t log|b s|}, C from |s| = 10, t = 0.2."""
    s = 1.0 + 1j * math.sqrt(99.0)
    t = 0.2
    d = ufunc.eval_dU_ds(t, s)
    ratio = (1.0 + abs(s)) * abs(d) / (t * ufunc.envelope(t, s, 1.0))
    return {
        "value": round_up(ratio),
        "measured": ratio,
        "meaning": "(1+|s|)*|dU/ds(t, s)| <= C * t * exp(-2*t*log|b*s|)",
        "reference": {"t": t, "s": [1.0, math.sqrt(99.0)], "abs_s": 10.0},
    }


def u_small_t_C():
    """|U(t, 1) - 1/sqrt(2 pi)| <= C t^{1/2} with beta' = 0.5 (small-t rep).

    The exponent 1/2 is Re s - beta'; the true decay at s = 1 is t^3
    (the first two residue terms vanish against poles of B), so C is
    governed by the largest t in the calibration range.
    """
    worst = 0.0
    for t in (0.02, 0.05, 0.1):
        u = ufunc.eval_U_small_t(t, 1.0, beta_prime=0.5)
        worst = max(worst, abs(u.value - ufunc.INV_SQRT_2PI) / math.sqrt(t))
    return {
        "value": round_up(worst),
        "measured": worst,
        "meaning": "|U(t, 1) - 1/sqrt(2pi)| <= C * t**0.5, beta' = 0.5",
        "reference": {"t_grid": [0.02, 0.05, 0.1], "s": 1.0},
    }


def b_gauge_window():
    """Feasible gauge window for the scale of B.

    The normalization of B is a free positive constant; the contract
    |B| in [0.2, 5] on Re s in [0.5, 1.5] pins it to a finite window.
    With the unit gauge B / _B_SCALE attaining magnitudes in [m, M] over
    the sampled region, any scale in [0.2/m, 5/M] is admissible; the
    shipped _B_SCALE sits near the geometric center of that window.
    """
    ev = default_evaluator()
    res = np.array([0.5, 0.75, 1.0, 1.25, 1.5])
    ims = np.concatenate([np.linspace(5.0, 50.0, 10),
                          np.geomspace(50.0, 500.0, 8)])
    mags = []
    for re in res:
        pts = re + 1j * ims
        mags.append(np.abs(ev.eval_B_many(pts)))
        # B is real on the real axis, so |B| is symmetric in Im s.
    mags = np.concatenate(mags) / _B_SCALE
    lo, hi = 0.2 / mags.min(), 5.0 / mags.max()
    return {
        "value": _B_SCALE,
        "window": [lo, hi],
        "geometric_center": math.sqrt(lo * hi),
        "meaning": "gauge scale of B; window keeps |B| in [0.2, 5] on "
                   "Re s in [0.5, 1.5], Im s in [5, 500]",
        "reference": {"re_grid": res.tolist(),
                      "im_range": [5.0, 500.0], "n_im": int(ims.size)},
    }


def git_head():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except Exception:
        return None


def main():
    record = {
        "u_envelope_C": u_envelope_C(),
        "u_envelope_C_T": u_envelope_C_T(),
        "du_envelope_C": du_envelope_C(),
        "u_small_t_C": u_small_t_C(),
        "b_gauge": b_gauge_window(),
        "generated_by": {"script": "scripts/calibrate.py",
                         "git_head": git_head()},
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    for key, entry in record.items():
        if isinstance(entry, dict) and "value" in entry:
            print(f"{key:18s} = {entry['value']}")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
