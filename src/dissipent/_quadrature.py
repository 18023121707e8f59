"""The package's one integration rule: fixed panels of Gauss-Legendre nodes.

Every integral here is taken over a log variable on a finite range, with
the tails beyond it handled by the caller in closed form.  The integrands
are analytic within pi/2 of the real axis of the log variable (the
oscillator's poles sit at imaginary part pi/2, the spin-boson flows' further
out or nowhere), so a 16-point rule on unit panels is exact to rounding,
and the same rule on panels twice as wide, which shares no node with it,
is still accurate enough for the gap between the two to bound the error of
the narrow one.

The rule's 16 nodes and weights are float literals, the values that
numpy.polynomial.legendre.leggauss(16) returns bit for bit, so integrating
loads numpy's core alone.  Its callers import this module where they
integrate, so numpy is loaded on the first integral, not with the package.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_ROUNDING = 8.0 * sys.float_info.epsilon

# the positive nodes of the 16-point rule on [-1, 1], ascending, each with
# its weight; the rule is symmetric, and the other eight nodes are their
# mirrors with the same weights
_HALF_RULE = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
# the 16 nodes in ascending order and their weights
_NODES = np.array([-x for x, _ in reversed(_HALF_RULE)] + [x for x, _ in _HALF_RULE])
_WEIGHTS = np.array([w for _, w in reversed(_HALF_RULE)] + [w for _, w in _HALF_RULE])


def _panels(a: float, b: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule on equal panels at most `width` wide."""
    n = max(1, math.ceil((b - a) / width))
    h = (b - a) / n
    mids = a + h * (np.arange(n) + 0.5)
    return (mids[:, None] + 0.5 * h * _NODES).ravel(), np.tile(0.5 * h * _WEIGHTS, n)


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
