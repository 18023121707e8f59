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
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["BathSpec", "adiabatic_exponent"]


@dataclass(frozen=True)
class BathSpec:
    """Parameterisation of a power-law bath.

    Attributes
    ----------
    s : bath exponent, > 0 (1 = Ohmic)
    alpha : dimensionless coupling strength, >= 0
    cutoff : upper frequency of the bath spectrum, > 0; the cutoff is sharp
             (J = 0 above it)
    """

    s: float
    alpha: float
    cutoff: float

    def __post_init__(self):
        if not 0 < self.s < math.inf:
            raise DomainError(f"bath exponent s must be finite and > 0, got {self.s}")
        if not 0 <= self.alpha < math.inf:
            raise DomainError(f"coupling alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.cutoff < math.inf:
            raise DomainError(f"cutoff must be finite and > 0, got {self.cutoff}")

    @property
    def is_ohmic(self) -> bool:
        return abs(self.s - 1.0) < 1e-12


def adiabatic_exponent(bath: BathSpec, lambda_low: float) -> float:
    """Exponent X(L) = (1/2) * integral_L^cutoff J(w) / w**2 dw.

    The running tunneling amplitude of a two-level system follows
    Delta(L) = Delta0 * exp(-X(L)).  Closed forms:

        s = 1:  alpha * ln(cutoff / L)
        else :  alpha * (1 - (L / cutoff)**(s-1)) / (s - 1)

    which diverges as L -> 0 for s <= 1 and converges to alpha/(s-1)
    for s > 1.
    """
    if not 0 < lambda_low <= bath.cutoff:
        raise DomainError(
            f"lambda_low must lie in (0, cutoff], got {lambda_low} with cutoff {bath.cutoff}"
        )
    return _log_exponent(bath)(math.log(lambda_low / bath.cutoff))[0]


def _log_exponent(bath: BathSpec, expm1=math.expm1):
    """The exponent as a function of u = ln(L/cutoff) <= 0: a function
    mapping u to (X, dX/du),

        s = 1:  X = -alpha u,                          dX/du = -alpha
        else :  X = -alpha expm1((s-1) u) / (s-1),     dX/du = -alpha e^((s-1) u)

    with alpha and s - 1 bound once and dX/du taken from the same expm1.
    Pass numpy's expm1 to evaluate it on an array of u.
    """
    alpha = bath.alpha
    if bath.is_ohmic:
        return lambda u: (-alpha * u, -alpha)
    sm1 = bath.s - 1.0

    def exponent(u):
        # expm1 keeps precision when s is close to 1 or L close to the cutoff
        e = expm1(sm1 * u)
        return -alpha * e / sm1, -alpha * (1.0 + e)

    return exponent
