"""Ground-state observables of the unbiased spin-boson model.

The scaling picture: integrating bath modes between a running cutoff L and
the bare cutoff renormalises the tunneling amplitude,

    Delta(L) = Delta0 * exp(-X(L)),      X = adiabatic_exponent,

and the self-consistent low-energy amplitude Delta_ren solves
Delta = Delta0 * exp(-X(Delta)).  The ground-state energy gain follows from
the flow of the free energy, dF/dL = (Delta(L)/L)^2, integrated from
max(T, Delta_ren) up to the bare cutoff.  In the scaling limit F is
dominated by one of two scales,

    F ~ max(Delta_ren, Delta0^2 / cutoff),

and the coherence observable is the normalised derivative

    sigma_x = max(d Delta_ren / d Delta0, 2 Delta0 / cutoff),  clipped to <= 1.

The two branches cross at alpha = 1/2 exactly for an Ohmic bath (the
underdamped/overdamped crossover); for s != 1 the crossing defines the
coherence-crossover coupling.  The von Neumann entropy of the reduced 2x2
state follows from <sigma_x> alone because <sigma_z> = 0 without bias.

Sign convention: the ground state of (Delta0/2) sigma_x has <sigma_x> = -1;
magnitudes are reported throughout (the entropy is even in <sigma_x>).

The flow integrals (flow_free_energy, sigma_x_deficit) use the package's
fixed Gauss-Legendre rule in log space and the crossover coupling is found
by bisection, so nothing here needs scipy.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .bath import BathSpec, _log_exponent
from .errors import DomainError, NumericalError, RegimeError

__all__ = [
    "SpinBosonPoint",
    "ReducedSpinState",
    "FlowState",
    "Regime",
    "spin_entropy",
    "delta_ren",
    "delta_ren_derivative",
    "delocalized_log_derivative",
    "ohmic_ground_energy",
    "ohmic_sigma_x_energy",
    "sigma_x",
    "coherence_crossover_alpha",
    "flow_free_energy",
    "free_tls_sigma_x",
    "subohmic_rg_flow",
    "kappa_tilde_flow",
    "sigma_x_deficit",
    "subohmic_regime",
]

# fraction of the bare cutoff below which the self-consistency equation is
# declared to have no root (deep sub-Ohmic scaling regime)
BRACKET_FLOOR = 1e-15

# Delta0/cutoff above which the tunneling scale is "of the order of the
# cutoff" and the self-consistent (Franck-Condon) scaling is trusted for
# the coherent sub-Ohmic corner
SCALING_TRUST_MIN_RATIO = 0.1


@dataclass(frozen=True)
class SpinBosonPoint:
    """A point in spin-boson parameter space.

    delta0 : bare tunneling amplitude, 0 < delta0 < bath.cutoff, with
             delta0 / cutoff a normal (not subnormal) double
    bath : BathSpec carrying (s, alpha, cutoff)
    temperature : T >= 0 (enters only through the flow lower limit)
    """

    delta0: float
    bath: BathSpec
    temperature: float = 0.0

    def __post_init__(self):
        if not self.delta0 > 0:
            raise DomainError(f"delta0 must be > 0, got {self.delta0}")
        if self.delta0 >= self.bath.cutoff:
            raise DomainError(
                f"delta0 must be below the cutoff ({self.delta0} >= {self.bath.cutoff})"
            )
        if self.temperature < 0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature}")
        if self.ratio < sys.float_info.min:  # 1/r would overflow
            raise DomainError(f"delta0/cutoff = {self.ratio} is subnormal")

    @property
    def ratio(self) -> float:
        """Delta0 / cutoff."""
        return self.delta0 / self.bath.cutoff

    @property
    def kappa_tilde0(self) -> float:
        """Initial value alpha * cutoff / Delta0 of the one-loop coupling."""
        return self.bath.alpha * self.bath.cutoff / self.delta0


@dataclass(frozen=True)
class ReducedSpinState:
    """Reduced 2x2 state of the spin: magnetisation along x, zero along z
    (no bias), and the resulting von Neumann entropy."""

    sx: float
    sz: float
    entropy: float


def spin_entropy(sx: float) -> float:
    """Entropy of the reduced spin state with eigenvalues (1 +- sx)/2.

    Equals -(1/2)[ln((1-sx^2)/4) + sx ln((1+sx)/(1-sx))]; evaluated through
    the eigenvalues for stability.  S(0) = ln 2, S(+-1) = 0.
    """
    if abs(sx) > 1.0:
        raise DomainError(f"|<sigma_x>| must be <= 1, got {sx}")
    s = 0.0
    for lam in ((1.0 + sx) / 2.0, (1.0 - sx) / 2.0):
        if lam > 0.0:
            s -= lam * math.log(lam)
    return s


# ---------------------------------------------------------------------------
# self-consistent renormalised tunneling amplitude
# ---------------------------------------------------------------------------


def delta_ren(point: SpinBosonPoint) -> float | None:
    """Self-consistent solution of Delta = Delta0 * exp(-X(Delta)).

    Solved for t = ln(Delta/cutoff) as a root of

        h(t) = t - ln(r) + X(t),   X(t) = -alpha t (s = 1),
                                   X(t) = -alpha expm1((s-1) t) / (s-1) (else),

    the exponent written in t, so that L = e^t cutoff is never formed.
    _root_at_or_above decides whether a root lies above
    t_f = ln(BRACKET_FLOOR).  For s < 1 (h convex) Newton from t = 0 falls
    monotonically to the largest root, the first fixed point met flowing
    down from the cutoff; for s >= 1 (h concave, one root) Newton from t_f
    rises monotonically to it.

    Returns None exactly when no root lies above BRACKET_FLOOR * cutoff;
    that is a value, not an error (localized Ohmic phase alpha >= 1, or
    the deep sub-Ohmic scaling regime).
    """
    bath = point.bath
    if bath.alpha == 0.0:
        return point.delta0

    log_r = math.log(point.ratio)
    exponent = _log_exponent(bath)
    t_floor = math.log(BRACKET_FLOOR)
    if not _root_at_or_above(bath, exponent, log_r, t_floor):
        return None
    # Newton steps down from 0 (h > 0 above the root) or up from t_f (h < 0 below it)
    t, sign = (0.0, 1.0) if bath.s < 1.0 else (t_floor, -1.0)

    # monotone Newton: h keeps its starting sign and h' > 0 along the way;
    # either failing means the iterate sits on the root to rounding
    for _ in range(100):
        x, dx = exponent(t)
        h, dh = t - log_r + x, 1.0 + dx
        if not (sign * h > 0.0 and dh > 0.0):
            break
        step = h / dh
        t -= step
        if abs(step) <= 1e-15 * abs(t):
            break
    if abs(t - log_r + exponent(t)[0]) > 1e-9:
        raise NumericalError("delta_ren solver failed to converge")
    if t <= t_floor:
        return None
    return math.exp(t) * bath.cutoff


def _root_at_or_above(bath: BathSpec, exponent, log_r: float, t_low: float) -> bool:
    """Whether delta_ren's h(t) = t - ln r + X(t) has a root in [t_low, 0],
    given exponent = _log_exponent(bath), log_r = ln r < 0 and alpha > 0.

    h(0) = -ln r > 0 and h'' = -alpha (s-1) e^((s-1) t).  So a root lies
    there iff h <= 0 at t_low for s >= 1 (h concave, one root), and for
    s < 1 (h convex) at its minimum ln(alpha)/(1-s) clamped to [t_low, 0].
    """
    t = t_low
    if bath.s < 1.0:
        t = min(max(math.log(bath.alpha) / (1.0 - bath.s), t_low), 0.0)
    return t - log_r + exponent(t)[0] <= 0.0


def _implicit_slope(point: SpinBosonPoint, dr: float) -> float:
    """d Delta_ren / d Delta0 at a root dr of the self-consistency equation."""
    denom = 1.0 - point.bath.alpha * (dr / point.bath.cutoff) ** (point.bath.s - 1.0)
    if denom <= 0:
        raise NumericalError(
            "implicit derivative of the self-consistency equation is singular"
        )
    return (dr / point.delta0) / denom


def delta_ren_derivative(point: SpinBosonPoint) -> float | None:
    """d Delta_ren / d Delta0 at fixed (alpha, s, cutoff), by implicit
    differentiation of the self-consistency equation:

        d Delta_ren / d Delta0 = (Delta_ren / Delta0)
                                 / (1 - alpha * (Delta_ren / cutoff)^(s-1)).

    None when delta_ren has no solution.
    """
    dr = delta_ren(point)
    return None if dr is None else _implicit_slope(point, dr)


def delocalized_log_derivative(point: SpinBosonPoint) -> float:
    """d ln(d Delta_ren / d Delta0) / d alpha on the delocalized branch.

    This is the quantity that carries the weak non-analyticity at the Ohmic
    localization transition: for s = 1 the closed form is

        ln(r) / (1 - alpha)^2 + 1 / (1 - alpha),       r = Delta0 / cutoff,

    which scales with ln(cutoff / Delta0) at fixed distance from alpha = 1.
    For s != 1 a central finite difference of step 1e-5 * max(alpha, 1)
    (re-solving Delta_ren) is used.
    """
    a = point.bath.alpha
    if point.bath.is_ohmic:
        if a >= 1.0:
            raise RegimeError("delocalized branch requires alpha < 1 for s = 1")
        r = point.ratio
        return math.log(r) / (1.0 - a) ** 2 + 1.0 / (1.0 - a)

    def ln_deriv(alpha: float) -> float:
        b = BathSpec(s=point.bath.s, alpha=alpha, cutoff=point.bath.cutoff)
        d = delta_ren_derivative(SpinBosonPoint(point.delta0, b, point.temperature))
        if d is None:
            raise RegimeError("no delocalized branch at alpha = %g" % alpha)
        return math.log(d)

    h = 1e-5 * max(a, 1.0)
    return (ln_deriv(a + h) - ln_deriv(a - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Ohmic ground-state energy and its derivative
# ---------------------------------------------------------------------------


def _ohmic_log_and_g(point: SpinBosonPoint) -> tuple[float, float]:
    """(ln r, g) for the Ohmic energies, 0 < alpha < 1: with
    x = (2a-1) ln(r) / (1-a), r^(a/(1-a)) - r = r expm1(x), and
    g = expm1(x) / x, which is 1 at x = 0 (alpha = 1/2)."""
    a = point.bath.alpha
    log_r = math.log(point.ratio)
    x = (2.0 * a - 1.0) * log_r / (1.0 - a)
    return log_r, (math.expm1(x) / x if x else 1.0)


def ohmic_ground_energy(point: SpinBosonPoint) -> float:
    """Ground-state energy gain of the Ohmic (s = 1) two-level system,
    with r = Delta0/cutoff:

        0 < alpha < 1 : E = [Delta0 r^(a/(1-a)) - Delta0 r] / (1-2a)
                          = -Delta0 r ln(r) g / (1-a),   g as above
        alpha >= 1    : E = Delta0 r / (2a - 1)

    The first line is one analytic function of alpha: at alpha = 1/2 its
    0/0 is removed exactly (g = 1, E = 2 Delta0 r ln(1/r)), and expm1 keeps
    full precision next to it, so there is no window around 1/2.  The
    alpha >= 1 branch keeps the 1/(2a-1) factor so that the piecewise form
    coincides with the flow quadrature (Delta_ren = 0 there); E is
    continuous across alpha = 1.
    """
    if not point.bath.is_ohmic:
        raise RegimeError(f"ohmic_ground_energy requires s = 1, got s = {point.bath.s}")
    a = point.bath.alpha
    if a <= 0:
        raise DomainError("ohmic_ground_energy is defined for alpha > 0")
    r = point.ratio
    if a >= 1.0:
        return point.delta0 * r / (2.0 * a - 1.0)
    log_r, g = _ohmic_log_and_g(point)
    return -point.delta0 * r * log_r * g / (1.0 - a)


def ohmic_sigma_x_energy(point: SpinBosonPoint) -> float:
    """|<sigma_x>| = 2 dE/dDelta0 from the closed-form energy, clipped to
    [0, 1]: (2r/(1-a)) (-g ln(r)/(1-a) - 1) for alpha < 1, with g as in
    ohmic_ground_energy, and 4r/(2a-1) for alpha >= 1.  This is the
    energy-route coherence; the max-rule sigma_x below is the one used for
    crossover analysis."""
    if not point.bath.is_ohmic:
        raise RegimeError(f"requires s = 1, got s = {point.bath.s}")
    a = point.bath.alpha
    r = point.ratio
    if a >= 1.0:
        val = 4.0 * r / (2.0 * a - 1.0)
    else:
        log_r, g = _ohmic_log_and_g(point)
        val = 2.0 * r / (1.0 - a) * (-g * log_r / (1.0 - a) - 1.0)
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# max-rule sigma_x
# ---------------------------------------------------------------------------


def sigma_x(point: SpinBosonPoint) -> float:
    """|<sigma_x>| from free-energy dominance.

    The free energy is dominated by max(Delta_ren, Delta0^2/cutoff); its
    normalised Delta0-derivative gives

        sigma_x = max(d Delta_ren / d Delta0, 2 Delta0 / cutoff),

    clipped to <= 1 (at alpha = 0 the delocalized branch equals 1 exactly).
    When the self-consistency equation has no solution the perturbative
    branch 2 Delta0/cutoff is forced.  Applies to Ohmic and non-Ohmic baths
    alike; for s = 1 the branch crossing sits at alpha = 1/2 exactly.
    """
    if point.temperature != 0.0:
        raise RegimeError("sigma_x is a zero-temperature observable here")
    return _max_rule_sigma_x(point, delta_ren(point))


def _max_rule_sigma_x(point: SpinBosonPoint, dr: float | None) -> float:
    """The max rule of sigma_x, given dr = delta_ren(point)."""
    pert = 2.0 * point.ratio
    val = pert if dr is None else max(_implicit_slope(point, dr), pert)
    return min(1.0, val)


def coherence_crossover_alpha(point: SpinBosonPoint) -> float:
    """Coupling at which the delocalized and perturbative branches of
    sigma_x cross (the coherent/incoherent crossover estimate).

    For s = 1 the crossing is exactly 1/2: there d Delta_ren/d Delta0
    = r^(a/(1-a))/(1-a) equals 2r identically.  For s != 1 it is located
    by bisection to 1e-10 on [1e-6, hi], hi doubled from 1 until the
    perturbative branch wins; for a super-Ohmic bath it sits near
    (s-1) ln(cutoff/Delta0).  RegimeError when the perturbative branch
    already wins at alpha = 1e-6, so that there is no crossing.
    """
    if point.bath.is_ohmic:
        return 0.5

    def gap(alpha: float) -> float:
        b = BathSpec(s=point.bath.s, alpha=alpha, cutoff=point.bath.cutoff)
        d = delta_ren_derivative(SpinBosonPoint(point.delta0, b))
        if d is None:
            return -1.0
        return d - 2.0 * point.ratio

    lo, hi = 1e-6, 1.0
    if not gap(lo) > 0:
        raise RegimeError(
            f"the perturbative branch already wins at alpha = {lo:g}: no coherence crossover"
        )
    while gap(hi) > 0:  # expand until the perturbative branch wins
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError("no coherence crossover found below alpha = 1e6")
    while hi - lo > 1e-10:  # bisection: gap > 0 at lo, <= 0 at hi
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# flow free energy and the free two-level-system check
# ---------------------------------------------------------------------------


def _log_integral(integrand: Callable, lower: float) -> float:
    """Integral over [lower, 0] of integrand, which maps an array of u to
    an array of values, by the package's Gauss-Legendre rule;
    NumericalError if its error estimate exceeds 1e-8 of the value."""
    from ._quadrature import gauss_legendre

    val, err = gauss_legendre(integrand, lower, 0.0)
    if val != 0.0 and err > 1e-8 * abs(val):
        raise NumericalError(f"flow quadrature error {err / abs(val):.2e} above 1e-8")
    return float(val)


def flow_free_energy(point: SpinBosonPoint) -> float:
    """F = integral_{max(T, Delta_ren)}^{cutoff} (Delta(L)/L)^2 dL
    by the Gauss-Legendre rule in ln(L/cutoff); NumericalError if its error
    estimate exceeds 1e-8 of F.

    With Delta_ren = 0 (no self-consistent solution) the lower limit is T;
    at T = 0 the integrand's decay makes the integral converge on its own
    and a floor of 1e-30 * cutoff is used.  For s = 1 this reproduces every
    branch of the closed-form ground energy.
    """
    dr = delta_ren(point)
    lower = max(point.temperature, dr if dr is not None else 0.0)
    cutoff = point.bath.cutoff
    if lower <= 0.0:
        lower = 1e-30 * cutoff
    if lower >= cutoff:
        return 0.0

    import numpy as np

    exponent = _log_exponent(point.bath, np.expm1)
    d0_r = point.delta0 * point.ratio

    def integrand(u):
        # (Delta/L)^2 * L, the log-space measure, with Delta = Delta0 e^-X
        # and L = e^u cutoff: Delta0 r e^(-2X - u)
        return d0_r * np.exp(-2.0 * exponent(u)[0] - u)

    return _log_integral(integrand, math.log(lower / cutoff))


def free_tls_sigma_x(delta0: float, temperature: float) -> tuple[float, float]:
    """(scaling estimate, exact) <sigma_x> of a free two-level system at
    temperature T: the flow argument gives min(Delta0/T, 1), the exact
    result is tanh(Delta0/T)."""
    if not temperature > 0:
        raise DomainError("free_tls_sigma_x needs T > 0")
    if not delta0 > 0:
        raise DomainError("free_tls_sigma_x needs delta0 > 0")
    x = delta0 / temperature
    return min(x, 1.0), math.tanh(x)


# ---------------------------------------------------------------------------
# one-loop sub-Ohmic flow near the fully coherent state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowState:
    """State of the one-loop renormalisation flow at running cutoff
    lambda_: the dimensionless coupling kappa_tilde = alpha * lambda / Delta
    (Delta is not renormalised in this scheme) and the accumulated
    <sigma_x> deficit."""

    lambda_: float
    kappa_tilde: float
    sx_accum: float


def kappa_tilde_flow(kappa_tilde0: float, s: float, ell: float) -> float:
    """Closed-form solution of the one-loop flow d kt / d ell = kt^2 - s*kt
    with ell = ln(cutoff / lambda):

        kt(ell) = s * kt0 / (kt0 + (s - kt0) * exp(s * ell)),

    taken for 0 <= kt0 <= s and ell >= 0 with exp(-s ell) = (lambda/cutoff)^s
    in numerator and denominator, which underflows deep in the flow rather
    than overflowing.  kt0 = s is the (unstable) fixed point and stays put;
    kt0 < s flows to zero as (lambda/cutoff)^s with a relative offset
    kt0/(s - kt0) deep in the flow.
    """
    if kappa_tilde0 == s:
        return s
    return _kappa_tilde_of_decay(kappa_tilde0, s, math.exp(-s * ell))


def _kappa_tilde_of_decay(kappa_tilde0, s, decay):
    """kappa_tilde_flow for kt0 != s, given decay = exp(-s ell) (a float or
    an array)."""
    return s * kappa_tilde0 * decay / (kappa_tilde0 * decay + (s - kappa_tilde0))


def sigma_x_deficit(point: SpinBosonPoint, lambda_stop: float) -> float:
    """Accumulated reduction of <sigma_x> along the flow,

        integral_{lambda_stop}^{cutoff} kt(L) * Delta0 / L^2 dL,

    with kt(L) the one-loop solution and Delta held at Delta0 (the scheme
    starts from the fully coherent state).  Diverges as lambda_stop^(s-1)
    for s < 1: no coherent oscillations survive the scaling limit.  Taken
    by the Gauss-Legendre rule in ln(L/cutoff); NumericalError if its error
    estimate exceeds 1e-8 of the value.
    """
    import numpy as np

    kt0 = point.kappa_tilde0
    s = point.bath.s
    r = point.ratio

    def integrand(u):
        # (kt * Delta0 / L^2) * L with L = e^u cutoff and ell = -u
        kt = s if kt0 == s else _kappa_tilde_of_decay(kt0, s, np.exp(s * u))
        return kt * r * np.exp(-u)

    return _log_integral(integrand, math.log(lambda_stop / point.bath.cutoff))


def subohmic_rg_flow(point: SpinBosonPoint, lambda_stop: float) -> FlowState:
    """Run the one-loop flow from the bare cutoff down to lambda_stop.

    Requires s < 1 and kt0 = alpha*cutoff/Delta0 <= s (on or below the
    delocalized fixed point; above it the coupling runs away towards the
    localized phase and this scheme does not apply).
    """
    s = point.bath.s
    if s >= 1:
        raise RegimeError(f"one-loop sub-Ohmic flow requires s < 1, got s = {s}")
    if not 0 < lambda_stop <= point.bath.cutoff:
        raise DomainError("lambda_stop must lie in (0, cutoff]")
    kt0 = point.kappa_tilde0
    if kt0 > s + 1e-12:
        raise RegimeError(
            f"kappa_tilde0 = {kt0} > s = {s}: localized side, flow runs away"
        )
    ell = math.log(point.bath.cutoff / lambda_stop)
    return FlowState(
        lambda_=lambda_stop,
        kappa_tilde=kappa_tilde_flow(kt0, s, ell),
        sx_accum=sigma_x_deficit(point, lambda_stop),
    )


# ---------------------------------------------------------------------------
# sub-Ohmic regime classification
# ---------------------------------------------------------------------------


class Regime(Enum):
    DELOCALIZED_COHERENT = "DelocalizedCoherent"
    DELOCALIZED_INCOHERENT = "DelocalizedIncoherent"
    LOCALIZED = "Localized"


def subohmic_regime(point: SpinBosonPoint) -> Regime:
    """Classify a sub-Ohmic (s < 1) point.

    alpha = 0 is the free, coherent spin.  When the tunneling amplitude is
    of the order of the cutoff (Delta0/cutoff >= SCALING_TRUST_MIN_RATIO)
    the self-consistent scaling is trusted: a solution with
    Delta_ren >= Delta0^2/cutoff marks the coherent delocalized corner.
    Otherwise the one-loop transition line alpha = s * Delta0/cutoff
    separates the localized phase from the (incoherent) delocalized phase:
    the <sigma_x> deficit integral diverges for s < 1, so no coherent
    oscillations survive in the scaling limit.
    """
    return _classify(point.bath, point.ratio)


def _classify(bath: BathSpec, r: float) -> Regime:
    """The rule of subohmic_regime at r = Delta0/cutoff.  Delta_ren >=
    Delta0^2/cutoff says that delta_ren's h has a root at or above ln r^2:
    its existence test at t_low = ln r^2, with no solve."""
    if bath.s >= 1:
        raise RegimeError(f"subohmic_regime requires s < 1, got s = {bath.s}")
    if bath.alpha == 0.0:
        return Regime.DELOCALIZED_COHERENT
    if r >= SCALING_TRUST_MIN_RATIO:
        log_r = math.log(r)
        if _root_at_or_above(bath, _log_exponent(bath), log_r, 2.0 * log_r):
            return Regime.DELOCALIZED_COHERENT
    if bath.alpha > bath.s * r:
        return Regime.LOCALIZED
    return Regime.DELOCALIZED_INCOHERENT
