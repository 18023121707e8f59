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

__all__ = ["BathSpec", "spectral_density", "adiabatic_exponent"]


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
        if not self.s > 0:
            raise DomainError(f"bath exponent s must be > 0, got {self.s}")
        if self.alpha < 0:
            raise DomainError(f"coupling alpha must be >= 0, got {self.alpha}")
        if not self.cutoff > 0:
            raise DomainError(f"cutoff must be > 0, got {self.cutoff}")

    @property
    def is_ohmic(self) -> bool:
        return abs(self.s - 1.0) < 1e-12


def spectral_density(bath: BathSpec, omega):
    """J(omega) for a scalar or array of frequencies.

    Raises DomainError for negative frequencies.  Zero above the cutoff.
    """
    import numpy as np

    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise DomainError("spectral density is defined for omega >= 0")
    j = 2.0 * bath.alpha * np.power(w, bath.s) * bath.cutoff ** (1.0 - bath.s)
    j = np.where(w > bath.cutoff, 0.0, j)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(j)
    return j


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
    log_ratio = math.log(lambda_low / bath.cutoff)  # <= 0
    if bath.is_ohmic:
        return -bath.alpha * log_ratio
    # -expm1 keeps precision when s is close to 1 or L close to the cutoff
    return -bath.alpha * math.expm1((bath.s - 1.0) * log_ratio) / (bath.s - 1.0)
