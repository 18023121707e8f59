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
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .bath import BathSpec, adiabatic_exponent
from .errors import DomainError, NumericalError, RegimeError

__all__ = [
    "SpinBosonPoint",
    "ReducedSpinState",
    "FlowState",
    "Regime",
    "spin_entropy",
    "delta_of_lambda",
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

_HALF_TOL = 1e-9  # |alpha - 1/2| below which the log branch of E is used


@dataclass(frozen=True)
class SpinBosonPoint:
    """A point in spin-boson parameter space.

    delta0 : bare tunneling amplitude, 0 < delta0 < bath.cutoff
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


def delta_of_lambda(point: SpinBosonPoint, lam: float) -> float:
    """Running tunneling amplitude Delta(L) = Delta0 exp(-X(L))."""
    return point.delta0 * math.exp(-adiabatic_exponent(point.bath, lam))


# ---------------------------------------------------------------------------
# self-consistent renormalised tunneling amplitude
# ---------------------------------------------------------------------------


def _log_residual(point: SpinBosonPoint, t: float) -> float:
    """h(t) = t - ln(r) + X(e^t * cutoff) with t = ln(Delta/cutoff);
    a root of h is a fixed point of the self-consistency map."""
    lam = math.exp(t) * point.bath.cutoff
    return t - math.log(point.ratio) + adiabatic_exponent(point.bath, lam)


def delta_ren(point: SpinBosonPoint) -> float | None:
    """Self-consistent solution of Delta = Delta0 * exp(-X(Delta)).

    Solved for t = ln(Delta/cutoff) as a root of h above.  h(0) = -ln r > 0
    and h'' = -alpha (s-1) e^((s-1) t), so h is convex for s < 1: a root
    above t_f = ln(BRACKET_FLOOR) exists iff h <= 0 at its minimum
    ln(alpha)/(1-s) clamped to [t_f, 0], and Newton from t = 0 falls
    monotonically to the largest root, the first fixed point met flowing
    down from the cutoff.  For s >= 1, h is concave: a root exists iff
    h(t_f) < 0, it is unique, and Newton from t_f rises monotonically to it.

    Returns None exactly when no root lies above BRACKET_FLOOR * cutoff;
    that is a value, not an error (localized Ohmic phase alpha >= 1, or
    the deep sub-Ohmic scaling regime).
    """
    bath = point.bath
    if bath.alpha == 0.0:
        return point.delta0

    t_floor = math.log(BRACKET_FLOOR)
    if bath.s < 1.0:
        lowest = min(max(math.log(bath.alpha) / (1.0 - bath.s), t_floor), 0.0)
        t, sign = 0.0, 1.0  # h > 0 above the root: steps go down
    else:
        lowest = t = t_floor
        sign = -1.0  # h < 0 below the root: steps go up
    if _log_residual(point, lowest) > 0.0:
        return None

    # monotone Newton: h keeps its starting sign and h' > 0 along the way;
    # either failing means the iterate sits on the root to rounding
    for _ in range(100):
        h = _log_residual(point, t)
        dh = 1.0 - bath.alpha * math.exp((bath.s - 1.0) * t)
        if not (sign * h > 0.0 and dh > 0.0):
            break
        step = h / dh
        t -= step
        if abs(step) <= 1e-15 * abs(t):
            break
    if abs(_log_residual(point, t)) > 1e-9:
        raise NumericalError("delta_ren solver failed to converge")
    if t <= t_floor:
        return None
    return math.exp(t) * bath.cutoff


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


def ohmic_ground_energy(point: SpinBosonPoint) -> float:
    """Ground-state energy gain of the Ohmic (s = 1) two-level system.

    Piecewise in alpha with r = Delta0/cutoff:

        0 < alpha < 1/2 : 1/(1-2a) * [Delta0 r^(a/(1-a)) - Delta0 r]
        alpha = 1/2     : 2 Delta0 r ln(1/r)            (the 0/0 limit)
        1/2 < alpha < 1 : 1/(2a-1) * [Delta0 r - Delta0 r^(a/(1-a))]
        alpha >= 1      : Delta0 r / (2a - 1)

    The alpha >= 1 branch keeps the 1/(2a-1) factor so that the piecewise
    form coincides with the flow quadrature (Delta_ren = 0 there); all
    branches are continuous, including across alpha = 1.
    """
    if not point.bath.is_ohmic:
        raise RegimeError(f"ohmic_ground_energy requires s = 1, got s = {point.bath.s}")
    a = point.bath.alpha
    if a <= 0:
        raise DomainError("ohmic_ground_energy is defined for alpha > 0")
    r = point.ratio
    d0 = point.delta0
    if abs(a - 0.5) < _HALF_TOL:
        return 2.0 * d0 * r * math.log(1.0 / r)
    if a >= 1.0:
        return d0 * r / (2.0 * a - 1.0)
    # branches below and above 1/2 are the same analytic expression
    return 1.0 / (1.0 - 2.0 * a) * (d0 * r ** (a / (1.0 - a)) - d0 * r)


def ohmic_sigma_x_energy(point: SpinBosonPoint) -> float:
    """|<sigma_x>| = 2 dE/dDelta0 from the exact branch formulas, clipped
    to [0, 1].  This is the energy-route coherence; the max-rule sigma_x
    below is the one used for crossover analysis."""
    if not point.bath.is_ohmic:
        raise RegimeError(f"requires s = 1, got s = {point.bath.s}")
    a = point.bath.alpha
    r = point.ratio
    if abs(a - 0.5) < _HALF_TOL:
        val = 4.0 * r * (2.0 * math.log(1.0 / r) - 1.0)
    elif a >= 1.0:
        val = 4.0 * r / (2.0 * a - 1.0)
    else:
        val = 2.0 / (1.0 - 2.0 * a) * (r ** (a / (1.0 - a)) / (1.0 - a) - 2.0 * r)
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


def _log_integral(integrand: Callable[[float], float], lower: float) -> float:
    """Integral of integrand(u) over [lower, 0] by the package's
    Gauss-Legendre rule; NumericalError if its error estimate exceeds 1e-8
    of the value."""
    import numpy as np

    from ._quadrature import gauss_legendre

    val, err = gauss_legendre(np.vectorize(integrand, otypes=[float]), lower, 0.0)
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

    d0 = point.delta0

    def integrand(u: float) -> float:
        lam = math.exp(u) * cutoff
        d = d0 * math.exp(-adiabatic_exponent(point.bath, lam))
        return d * d / lam  # (Delta/L)^2 * L, the log-space measure

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

        kt(ell) = s * kt0 / (kt0 + (s - kt0) * exp(s * ell)).

    kt0 = s is the (unstable) fixed point and stays put; kt0 < s flows to
    zero as (lambda/cutoff)^s with a relative offset kt0/(s - kt0) deep in
    the flow.
    """
    if kappa_tilde0 == s:
        return s
    return s * kappa_tilde0 / (kappa_tilde0 + (s - kappa_tilde0) * math.exp(s * ell))


def sigma_x_deficit(point: SpinBosonPoint, lambda_stop: float) -> float:
    """Accumulated reduction of <sigma_x> along the flow,

        integral_{lambda_stop}^{cutoff} kt(L) * Delta0 / L^2 dL,

    with kt(L) the one-loop solution and Delta held at Delta0 (the scheme
    starts from the fully coherent state).  Diverges as lambda_stop^(s-1)
    for s < 1: no coherent oscillations survive the scaling limit.  Taken
    by the Gauss-Legendre rule in ln(L/cutoff); NumericalError if its error
    estimate exceeds 1e-8 of the value.
    """
    cutoff = point.bath.cutoff
    kt0 = point.kappa_tilde0
    s = point.bath.s

    def integrand(u: float) -> float:
        lam = math.exp(u) * cutoff
        kt = kappa_tilde_flow(kt0, s, -u)  # ell = ln(cutoff/lam) = -u
        return kt * point.delta0 / lam  # (kt * Delta0 / L^2) * L

    return _log_integral(integrand, math.log(lambda_stop / cutoff))


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
    return _classify(point, lambda: delta_ren(point))


def _classify(point: SpinBosonPoint, solve: Callable[[], float | None]) -> Regime:
    """The rule of subohmic_regime; `solve()` returns delta_ren(point) and
    is called only where the rule needs it."""
    s = point.bath.s
    if s >= 1:
        raise RegimeError(f"subohmic_regime requires s < 1, got s = {s}")
    alpha = point.bath.alpha
    if alpha == 0.0:
        return Regime.DELOCALIZED_COHERENT
    r = point.ratio
    if r >= SCALING_TRUST_MIN_RATIO:
        dr = solve()
        if dr is not None and dr >= point.delta0 * r:
            return Regime.DELOCALIZED_COHERENT
    if alpha > s * r:
        return Regime.LOCALIZED
    return Regime.DELOCALIZED_INCOHERENT
