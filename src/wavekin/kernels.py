"""The transport kernel H of the linearized collision operator.

In the classical (low-temperature) approximation of the linearized
three-wave collision operator, H(r) is the interaction kernel K(x, y) =
(1/|x^2-y^2| - 1/(x^2+y^2)) y/x integrated in its second argument:
H(x/z) = 2z int_z^inf K(x, y) dy for z > x.  It is log-singular at r = 1,
H ~ 2r at 0 and H ~ -r^-5 at infinity, and its Mellin transform is the
symbol W: W(s) = -s int_0^inf r^s H(r) dr on -2 < Re s < 4.  Both
identities are checked by quadrature in ``tests/test_kernels.py``.
"""

import numpy as np

from wavekin.errors import PoleError

__all__ = ["eval_H"]


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
