"""Power-law bath spectral densities and the integrals taken over them.

The environment is characterised by

    J(omega) = 2 * alpha * omega**s * cutoff**(1 - s)   for 0 <= omega <= cutoff

and J = 0 above the (sharp) cutoff.  s = 1 is the Ohmic case, s < 1
sub-Ohmic, s > 1 super-Ohmic.  The proportionality constant is fixed to 1
so that s = 1 gives J = 2*alpha*omega; together with the 1/2 in
`adiabatic_exponent` this reproduces the Ohmic running
Delta(L) = Delta0 * (L / cutoff)**alpha of the tunneling amplitude.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, _Checked, _finite, _in_range

__all__ = ["BathSpec", "adiabatic_exponent"]
_TINY = sys.float_info.min  # the smallest normal double


class BathSpec(_Checked, namedtuple("BathSpec", "s alpha cutoff")):
    """Parameterisation of a power-law bath.

    Attributes
    ----------
    s : bath exponent, > 0 (1 = Ohmic)
    alpha : dimensionless coupling strength, >= 0
    cutoff : upper frequency of the bath spectrum, > 0; the cutoff is sharp
             (J = 0 above it)
    """

    __slots__ = ()

    def __new__(cls, s: float, alpha: float, cutoff: float):
        _in_range("bath exponent s", s, ">", 0)
        _in_range("coupling alpha", alpha, ">=", 0)
        _in_range("cutoff", cutoff, ">", 0)
        return tuple.__new__(cls, (s, alpha, cutoff))

    is_ohmic = property(lambda self: _is_ohmic(self.s))


def _is_ohmic(s: float) -> bool:
    return abs(s - 1.0) < 1e-12


def adiabatic_exponent(bath: BathSpec, lambda_low: float) -> float:
    """Exponent X(L) = (1/2) * integral_L^cutoff J(w) / w**2 dw.

    The running tunneling amplitude of a two-level system follows
    Delta(L) = Delta0 * exp(-X(L)).  Closed forms:

        s = 1:  alpha * ln(cutoff / L)
        else :  alpha * (1 - (L / cutoff)**(s-1)) / (s - 1)

    which diverges as L -> 0 for s <= 1 and converges to alpha/(s-1)
    for s > 1; NumericalError where it passes the largest double.
    """
    u = _log_scale("lambda_low", lambda_low, bath.cutoff)
    try:
        x = _log_exponent(bath.alpha, bath.s)(u)[0]
    except OverflowError:  # math.expm1 past the largest double
        x = math.inf if bath.alpha else 0.0
    return _finite("the adiabatic exponent", x)


def _log_scale(name: str, scale: float, cutoff: float) -> float:
    """u = ln(scale / cutoff) <= 0 of a running scale, which must lie in
    (0, cutoff]: the package's one rule for it, else a DomainError."""
    if not 0 < scale <= cutoff:
        raise DomainError(f"{name} must lie in (0, cutoff], got {scale} with cutoff {cutoff}")
    return _log_ratio(scale, cutoff)


def _log_ratio(num: float, den: float) -> float:
    """ln(num / den) for positive num and den, also where the quotient is
    past the largest double or below the smallest normal one: there it is
    ln(num) - ln(den), which loses nothing because the log is large."""
    q = num / den
    return math.log(q) if _TINY <= q < math.inf else math.log(num) - math.log(den)


def _log_exponent(alpha: float, s: float, expm1=math.expm1):
    """The exponent of a bath with coupling alpha and exponent s as a
    function of u = ln(L/cutoff) <= 0: a function mapping u to (X, dX/du),

        s = 1:  X = -alpha u,                          dX/du = -alpha
        else :  X = -alpha expm1((s-1) u) / (s-1),     dX/du = -alpha e^((s-1) u)

    with alpha and s - 1 bound once and dX/du taken from the same expm1.
    Pass numpy's expm1 to evaluate it on an array of u.
    """
    if _is_ohmic(s):
        return lambda u: (-alpha * u, -alpha)
    sm1 = s - 1.0

    def exponent(u):
        # expm1 keeps precision when s is close to 1 or L close to the cutoff
        e = expm1(sm1 * u)
        return -alpha * e / sm1, -alpha * (1.0 + e)

    return exponent
