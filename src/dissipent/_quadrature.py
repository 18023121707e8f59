"""The package's one integration rule: fixed panels of Gauss-Legendre nodes.

Every integral here is taken over a log variable on a finite range, with
the tails beyond it handled by the caller in closed form.  The integrands
are analytic within pi/2 of the real axis of the log variable (the
oscillator's poles sit at imaginary part pi/2, the spin-boson flows' further
out or nowhere), so a 16-point rule on unit panels is exact to rounding,
and the same rule on panels twice as wide, which shares no node with it,
is still accurate enough for the gap between the two to bound the error of
the narrow one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_ROUNDING = 8.0 * np.finfo(float).eps


@functools.cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The 16 Gauss-Legendre nodes and weights on [-1, 1]."""
    # on first use: importing numpy.polynomial would add ~5 ms to every
    # `import dissipent`, and most runs integrate nothing
    from numpy.polynomial.legendre import leggauss

    return leggauss(16)


def _panels(a: float, b: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule on equal panels at most `width` wide."""
    nodes, weights = _rule()
    n = max(1, math.ceil((b - a) / width))
    h = (b - a) / n
    mids = a + h * (np.arange(n) + 0.5)
    return (mids[:, None] + 0.5 * h * nodes).ravel(), np.tile(0.5 * h * weights, n)


def gauss_legendre(f, a: float, b: float):
    """(integral, error estimate) of f over [a, b].

    f maps a 1-D array of nodes to values of shape (..., nodes), so
    integrands that share work are taken in one call and come back as an
    array.  The estimate is the gap between the rule on unit panels and on
    panels twice as wide, plus 8 eps sum |w f|, the rounding of integrand
    values good to a few ulps and of their sum.
    """
    x_fine, w_fine = _panels(a, b, 1.0)
    x_wide, w_wide = _panels(a, b, 2.0)
    vals = f(np.concatenate([x_fine, x_wide]))
    fine = vals[..., : len(x_fine)]
    value = fine @ w_fine
    gap = np.abs(value - vals[..., len(x_fine) :] @ w_wide)
    return value, gap + _ROUNDING * (np.abs(fine) @ w_fine)
