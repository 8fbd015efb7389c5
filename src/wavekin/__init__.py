"""Fundamental solution of a linearized wave-kinetic equation.

The package evaluates the dispersion symbol W, the periodic normalizer B built
from it, the Mellin symbol U(t, s) of the fundamental solution, and the
fundamental solution Lambda(t, x) itself, with independent contour routes
checking one another at every layer.

Layout:

- ``contour``   generic vertical-line / circle quadrature engine
- ``complexfn`` gamma-family special functions and the symbol W
- ``kernels``   collision kernels K, H, M and their consistency checks
- ``bfunc``     the normalizer B(s) and the residue/constant ledger
- ``ufunc``     U(t, s) (Mellin symbol) and V(z, s) (Laplace transform)
- ``fundsol``   Lambda(t, x): regimes, profiles, Q1/Q2 asymptotics, pairings
- ``calibration`` frozen constants from ``data/calibration.json``
- ``errors``    the ``WavekinError`` hierarchy
"""

from wavekin.errors import (
    BracketError,
    NoSignChangeError,
    PoleError,
    RegimeError,
    TailModelError,
    TruncationError,
    WavekinError,
)

__version__ = "0.1.0"

__all__ = [
    "WavekinError",
    "BracketError",
    "NoSignChangeError",
    "PoleError",
    "RegimeError",
    "TailModelError",
    "TruncationError",
    "__version__",
]
