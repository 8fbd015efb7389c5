"""Fundamental solution of a linearized wave-kinetic equation.

The package evaluates the dispersion symbol W, the periodic normalizer B built
from it, the Mellin symbol U(t, s) of the fundamental solution, and the
fundamental solution Lambda(t, x) itself, with independent contour routes
checking one another at every layer.

Layout:

- ``contour``   generic vertical-line / circle quadrature engine
- ``complexfn`` gamma-family special functions and the symbol W
- ``kernels``   the transport kernel H
- ``bfunc``     the normalizer B(s) and its residue ladder (``laurent``)
- ``ufunc``     U(t, s) (Mellin symbol) and V(z, s) (Laplace transform)
- ``ray``       the tail model of a Lambda line beyond V and its rotated ray
- ``line``      the assembled Lambda line: symbol grid, Filon panels, fit
- ``asymptotic`` Q1/Q2 long-time decomposition, short-time residue series
- ``integrals`` L1 norm, pairings with test functions, transport adjoint
- ``fundsol``   Lambda(t, x): regimes, queries, profiles, derivatives; it
  re-exports the public names of ``asymptotic`` and ``integrals``
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
