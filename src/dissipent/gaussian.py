"""Closed forms for the dissipative free particle and damped harmonic oscillator.

Both models are quadratic, so the reduced state of the distinguished
coordinate is Gaussian and everything follows from second moments.  Units:
hbar = 1, mass = 1; the Ohmic friction coefficient eta has energy units.

For the oscillator the dimensionless friction is kappa = eta / (2*omega0);
the coupling strength used on sweep axes is alpha = eta / (2*pi*omega0)
= kappa / pi, so the underdamped/overdamped crossover kappa = 1 sits at
alpha = 1/pi.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple

from .bath import _log_ratio
from .errors import DomainError, RegimeError, _Checked, _finite, _in_range, _shown

__all__ = [
    "FreeParticleParams",
    "FreeParticleResult",
    "OscillatorParams",
    "GaussianKernel",
    "MomentPair",
    "free_particle_kernel_width",
    "free_particle_entropy",
    "oscillator_f",
    "oscillator_moments",
    "oscillator_entropy_expansion",
    "oscillator_entropy",
    "gaussian_entropy",
    "kernel_from_moments",
    "kappa_from_alpha",
    "alpha_from_kappa",
]
_LOG_PI = math.log(math.pi)


def kappa_from_alpha(alpha: float) -> float:
    return _finite("kappa", math.pi * alpha)


def alpha_from_kappa(kappa: float) -> float:
    return kappa / math.pi


class FreeParticleParams(
    _Checked, namedtuple("FreeParticleParams", "eta omega_c length dim", defaults=(1,))
):
    """Dissipative free particle: friction eta, bath cutoff omega_c,
    box regulator L (the entropy is only defined relative to L) and
    spatial dimension d, an integer >= 1 (not a bool)."""

    __slots__ = ()

    def __new__(cls, eta: float, omega_c: float, length: float, dim: int):
        _in_range("eta", eta, ">", 0)
        _in_range("omega_c", omega_c, ">", 0)
        _in_range("length", length, ">", 0)
        if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
            raise DomainError(f"dim must be an integer, got {_shown(dim, repr)}")
        _in_range("dim", dim, ">=", 1)
        return tuple.__new__(cls, (eta, omega_c, length, dim))


class FreeParticleResult(namedtuple("FreeParticleResult", "entropy a a_l2")):
    """entropy, the kernel width a (free_particle_kernel_width) and a * L**2,
    the argument of the leading logarithm."""

    __slots__ = ()


def free_particle_kernel_width(p: FreeParticleParams) -> float:
    """Width coefficient a of the reduced kernel exp(-a (x - x')**2) / L,

        a = (1/4) (eta / pi) ln(1 + x**2),   x = omega_c / eta,

    taken without forming x**2 where it would leave the normal doubles:
    for x > 1 as (eta / 4 pi) (2 ln x + log1p(x**-2)), and for x <= 1 as
    (omega_c x / 4 pi) log1p(x**2) / x**2, whose last factor is 1 where
    x**2 underflows.
    """
    return _kernel_width(p.eta, p.omega_c)


def _kernel_width(eta: float, omega_c: float) -> float:
    """free_particle_kernel_width on floats; like each core here, it checks nothing."""
    x = omega_c / eta
    if x > 1.0:
        log1p_x2 = 2.0 * _log_ratio(omega_c, eta) + math.log1p(1.0 / x / x)
        return 0.25 * (eta / math.pi) * log1p_x2
    y = x * x
    return 0.25 * (omega_c / math.pi) * x * (math.log1p(y) / y if y else 1.0)


def _free_particle(eta: float, omega_c: float, length2: float, dim) -> tuple:
    """(S, a, a L**2) of free_particle_entropy, with length2 = _square(L);
    DomainError unless a L**2 is a positive finite double, NumericalError
    where a large dim takes S past the largest double."""
    a = _kernel_width(eta, omega_c)
    a_l2 = _in_range("a L**2", a * length2, ">", 0)
    return _finite("S", 0.5 * dim * (math.log(a_l2) + 1.0 - _LOG_PI)), a, a_l2


def free_particle_entropy(p: FreeParticleParams) -> FreeParticleResult:
    """Specific entropy of the dissipative free particle,

        S = (d/2) * (ln(a L**2) + 1 - ln pi),

    returned together with the kernel width a and a*L**2.  S is only positive for
    a L**2 > pi / e; the formula is evaluated for any a L**2 that is a positive
    finite double, and one that underflows to 0 or overflows is a DomainError.
    """
    return FreeParticleResult._make(_free_particle(p.eta, p.omega_c, _square(p.length), p.dim))


def _square(x: float) -> float:
    """x**2 as a float, or inf where that passes the largest double."""
    try:
        return float(x**2)
    except OverflowError:
        return math.inf


class OscillatorParams(_Checked, namedtuple("OscillatorParams", "omega0 eta omega_c")):
    """Damped harmonic oscillator: frequency omega0, Ohmic friction eta,
    bath cutoff omega_c (must exceed omega0 for the moment formulas)."""

    __slots__ = ()

    def __new__(cls, omega0: float, eta: float, omega_c: float):
        if _in_range("omega0", omega0, ">", 0) < sys.float_info.min:  # 1/omega0 would overflow
            raise DomainError(f"omega0 = {omega0} is subnormal")
        _in_range("eta", eta, ">=", 0)
        _in_range("omega_c", omega_c, ">", 0)
        return tuple.__new__(cls, (omega0, eta, omega_c))


def oscillator_f(kappa: float) -> float:
    """Ground-state position-variance function f(kappa), with
    <q^2> = f(kappa) / (2 omega0).  With t = kappa - 1 and R = sqrt(|t (2+t)|)
    = sqrt(|kappa^2 - 1|):

        overdamped  (kappa > 1):  f = (2/pi) acosh(kappa) / R,
        underdamped (kappa < 1):  f = (2/pi) arctan(R/kappa) / R.

    acosh(kappa) = log1p(t + R) = (1/2) ln[(kappa + R) / (kappa - R)], taken
    without the cancellation of kappa - R and without overflow up to the
    largest double; R is formed as sqrt(t) sqrt(2+t) for the same reason.
    The underdamped form is the analytic continuation of the overdamped
    one, forced because <q^2> is real and kappa -> 0 must recover the
    undamped ground state (f = 1).  kappa = 1 is a removable singularity:
    there f = 2/pi exactly, and next to it each form keeps full precision,
    so no series window is needed.
    """
    t = _in_range("kappa", kappa, ">=", 0) - 1.0
    if t > 0.0:
        root = math.sqrt(t) * math.sqrt(2.0 + t)
        return (2.0 / math.pi) * math.acosh(kappa) / root
    if t < 0.0:
        root = math.sqrt((1.0 - kappa) * (1.0 + kappa))
        return (2.0 / math.pi) * math.atan2(root, kappa) / root
    return 2.0 / math.pi


class MomentPair(_Checked, namedtuple("MomentPair", "q2 p2")):
    """Second moments of the reduced oscillator state.

    nu = sqrt(<q^2><p^2>) is the symplectic eigenvalue (>= 1/2, with
    equality only for the pure undamped ground state), and eps = 1/nu
    enters the large-(a/b) entropy expansion; a/b = 4 <q^2><p^2> = 4 nu^2.
    """

    __slots__ = ()

    def __new__(cls, q2: float, p2: float):
        # a float product: that of two integers can pass the largest double
        nu = math.sqrt(float(_in_range("<q^2>", q2, ">", 0)) * _in_range("<p^2>", p2, ">", 0))
        if nu < 0.5 - 1e-12:
            raise DomainError(f"nu = {nu} violates the Heisenberg bound 1/2")
        _in_range("a/b = 4 <q^2><p^2>", 4.0 * q2 * p2, ">", 0)
        return tuple.__new__(cls, (q2, p2))

    @property
    def nu(self) -> float:
        return math.sqrt(float(self.q2) * self.p2)

    @property
    def eps(self) -> float:
        return 1.0 / self.nu


def oscillator_moments(p: OscillatorParams) -> MomentPair:
    """T = 0 moments of the damped oscillator in the large-cutoff regime,

        <q^2> = f(kappa) / (2 omega0)
        <p^2> = omega0^2 (1 - 2 kappa^2) <q^2> + (2 omega0 kappa / pi) ln(omega_c/omega0).

    The <p^2> formula is a large-cutoff approximation; a result that is not
    positive, or that puts nu below the Heisenberg bound 1/2, means it was
    used outside its regime and raises RegimeError rather than being clamped.
    """
    return MomentPair(*_moments(p.omega0, p.eta, p.omega_c, _log_ratio(p.omega_c, p.omega0))[:2])


def _moments(omega0: float, eta: float, omega_c: float, log_ratio: float) -> tuple:
    """(q2, p2, nu) of oscillator_moments, with log_ratio = ln(omega_c / omega0)."""
    if omega_c <= omega0:
        raise RegimeError(f"moment formulas need omega_c > omega0 (got {omega_c} <= {omega0})")
    k = eta / (2.0 * omega0)
    f = oscillator_f(k)
    q2 = f / (2.0 * omega0)
    # omega0 factored out, so that omega0^2 neither overflows nor underflows
    p2 = omega0 * ((1.0 - 2.0 * k * k) * f / 2.0 + (2.0 * k / math.pi) * log_ratio)
    nu = math.sqrt(q2 * p2) if p2 > 0 else 0.0
    if nu < 0.5 - 1e-12:
        what = f"nu = {nu} < 1/2" if p2 > 0 else f"<p^2> = {p2} <= 0"
        raise RegimeError(f"{what}: the large-cutoff formula is invalid at kappa={k}, "
                          f"omega_c/omega0={omega_c / omega0}")
    return q2, p2, nu


def oscillator_entropy_expansion(m: MomentPair) -> float:
    """Entropy from the eps-expansion of the replica trace,

        S = -[(eps_tilde/eps) ln eps_tilde + (eps_tilde/eps^2) ln(1 - eps)],
        eps_tilde = eps * sqrt(1 - eps) / sqrt(1 - eps^2 / 4),

    valid for eps = 1/nu < 1 (intended regime a/b >> 1).  Raises RegimeError
    at eps >= 1; use the exact Gaussian entropy there instead.
    """
    e = m.eps
    entropy = _expansion(e)
    if math.isnan(entropy):
        raise RegimeError(
            f"entropy expansion needs eps < 1 (nu > 1), got eps = {e}; "
            "use the exact Gaussian entropy"
        )
    return entropy


def _eps_tilde(e: float) -> float:
    return e * math.sqrt(1.0 - e) / math.sqrt(1.0 - 0.25 * e * e)


def _expansion(e: float) -> float:  # oscillator_entropy_expansion at eps = e, NaN unless e < 1
    if not e < 1.0:
        return math.nan
    et = _eps_tilde(e)
    return -((et / e) * math.log(et) + (et / (e * e)) * math.log1p(-e))


def gaussian_entropy(nu: float) -> float:
    """Exact von Neumann entropy of a single-mode Gaussian state with
    symplectic eigenvalue nu >= 1/2,

        S(nu) = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2),

    evaluated with d = nu - 1/2 as S = log1p(d) + d log1p(1/d), which
    neither rounds nu + 1/2 before the log nor subtracts two large terms.
    S(1/2) = 0 exactly (d <= 0 gives 0), and S -> ln(nu) + 1 for large nu.
    """
    if nu < 0.5 - 1e-12:
        raise DomainError(f"symplectic eigenvalue must be >= 1/2, got {_shown(nu)}")
    d = nu - 0.5
    if d <= 0.0:
        return 0.0
    return math.log1p(d) + d * math.log1p(1.0 / d)


def oscillator_entropy(p: OscillatorParams) -> float:
    """Ground-state entanglement entropy of the damped oscillator: the
    exact single-mode Gaussian entropy S(nu).  The eps-expansion is
    oscillator_entropy_expansion(oscillator_moments(p)); sweeps report
    both so the approximation gap is visible.
    """
    return gaussian_entropy(oscillator_moments(p).nu)


class GaussianKernel(_Checked, namedtuple("GaussianKernel", "a b")):
    """Parameters (a, b) of the normalised Gaussian kernel

        rho(x, x') = sqrt(4 b / pi) exp(-a (x-x')^2 - b (x+x')^2),

    a valid density operator requires a > b > 0.  From oscillator moments:
    a = <p^2>/2, b = 1/(8 <q^2>).
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not b >= 0:
            raise DomainError(f"b must be >= 0, got {_shown(b)}")
        if not a > b:
            raise DomainError(f"need a > b for a valid state, got a={_shown(a)}, b={_shown(b)}")
        return tuple.__new__(cls, (a, b))

    @property
    def a_over_b(self) -> float:
        if self.b == 0:
            raise DomainError("a/b undefined for b = 0")
        return self.a / self.b


def kernel_from_moments(m: MomentPair) -> GaussianKernel:
    return GaussianKernel(a=0.5 * m.p2, b=1.0 / (8.0 * m.q2))
