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
from collections import namedtuple
from collections.abc import Callable
from enum import Enum

from .bath import BathSpec, _log_exponent, _log_ratio, _log_scale
from .errors import DomainError, NumericalError, RegimeError, _Checked, _finite, _in_range, _shown

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
# declared to have no root (deep sub-Ohmic scaling regime), and its log
BRACKET_FLOOR = 1e-15
_LOG_FLOOR = math.log(BRACKET_FLOOR)

# Delta0/cutoff above which the tunneling scale is "of the order of the
# cutoff" and the self-consistent (Franck-Condon) scaling is trusted for
# the coherent sub-Ohmic corner
SCALING_TRUST_MIN_RATIO = 0.1


class SpinBosonPoint(_Checked, namedtuple("SpinBosonPoint", "delta0 bath")):
    """A point in spin-boson parameter space.

    delta0 : bare tunneling amplitude, 0 < delta0 < bath.cutoff, with
             delta0 and delta0 / cutoff normal (not subnormal) doubles
    bath : BathSpec carrying (s, alpha, cutoff)

    Every observable of a point is a ground-state quantity, except the flow
    free energy, which takes the temperature as its own argument.
    """

    __slots__ = ()

    def __new__(cls, delta0: float, bath: BathSpec):
        if not delta0 > 0:
            raise DomainError(f"delta0 must be > 0, got {_shown(delta0)}")
        if delta0 >= bath.cutoff:
            raise DomainError(f"delta0 must be below the cutoff ({_shown(delta0)} >= {bath.cutoff})")
        ratio = delta0 / bath.cutoff
        if ratio < sys.float_info.min:  # 1/r would overflow
            raise DomainError(f"delta0/cutoff = {ratio} is subnormal")
        if delta0 < sys.float_info.min:  # Delta_ren >= 1e-15 cutoff could round to 0
            raise DomainError(f"delta0 = {delta0} is subnormal")
        return tuple.__new__(cls, (delta0, bath))

    @property
    def ratio(self) -> float:
        """Delta0 / cutoff."""
        return self.delta0 / self.bath.cutoff

    @property
    def kappa_tilde0(self) -> float:
        """Initial value alpha * cutoff / Delta0 of the one-loop coupling."""
        return self.bath.alpha * float(self.bath.cutoff) / self.delta0


class ReducedSpinState(namedtuple("ReducedSpinState", "sx sz entropy")):
    """Reduced 2x2 state of the spin: magnetisation along x, zero along z
    (no bias), and the resulting von Neumann entropy."""

    __slots__ = ()


def spin_entropy(sx: float) -> float:
    """Entropy of the reduced spin state with eigenvalues (1 +- sx)/2:
    -m ln m - (1-m) log1p(-m) in the smaller one, m = (1-|sx|)/2, which keeps
    full precision as |sx| -> 1.  S(0) = ln 2, S(+-1) = 0."""
    if not abs(sx) <= 1.0:
        raise DomainError(f"|<sigma_x>| must be <= 1, got {_shown(sx)}")
    m = (1.0 - abs(sx)) / 2.0  # the smaller eigenvalue, exact for |sx| >= 1/2
    return -m * math.log(m) - (1.0 - m) * math.log1p(-m) if m else 0.0


# ---------------------------------------------------------------------------
# self-consistent renormalised tunneling amplitude
# ---------------------------------------------------------------------------


def delta_ren(point: SpinBosonPoint) -> float | None:
    """Self-consistent solution of Delta = Delta0 * exp(-X(Delta)): e^t cutoff
    with t from _solve.  None exactly when no root lies above BRACKET_FLOOR
    * cutoff; that is a value, not an error (localized Ohmic phase
    alpha >= 1, or the deep sub-Ohmic scaling regime).
    """
    delta0, (s, alpha, cutoff) = point
    if alpha == 0.0:  # exactly: e^(ln r) cutoff can round below delta0
        return delta0
    t = _solve(alpha, s, math.log(delta0 / cutoff))
    return None if t is None else math.exp(t) * cutoff


def _solve(alpha: float, s: float, log_r: float) -> float | None:
    """t = ln(Delta_ren/cutoff) for log_r = ln(Delta0/cutoff): the root of
    h(t) = t - ln(r) + X(t), X = _log_exponent(alpha, s), or None when none
    lies above _LOG_FLOOR.  At alpha = 0 it is ln r, returned as is.  For
    s < 1 (h convex, tested by _root_at_or_above) Newton from t = 0 falls
    monotonically to the largest root, the first fixed point met flowing
    down from the cutoff; for s >= 1 (h concave, one root iff h(floor) <= 0)
    Newton rises to it from the floor.
    """
    if alpha == 0.0:
        return log_r
    exponent = _log_exponent(alpha, s)
    # Newton steps down from 0 (h > 0 above the root) or up from the floor (h < 0 below it)
    t, sign = (0.0, 1.0) if s < 1.0 else (_LOG_FLOOR, -1.0)
    if sign > 0.0 and not _root_at_or_above(exponent, _lowest(alpha, s), log_r, _LOG_FLOOR):
        return None
    x, dx = exponent(t)
    if sign < 0.0 and t - log_r + x > 0.0:  # concave h is lowest here, at the floor: no root
        return None
    # monotone Newton: h keeps its starting sign and h' > 0 along the way;
    # either failing means the iterate sits on the root to rounding
    for _ in range(100):
        h, dh = t - log_r + x, 1.0 + dx
        if not (sign * h > 0.0 and dh > 0.0):
            break
        step = h / dh
        t -= step
        if abs(step) <= 1e-15 * abs(t):
            break
        x, dx = exponent(t)
    if abs(t - log_r + exponent(t)[0]) > 1e-9:
        raise NumericalError("delta_ren solver failed to converge")
    return None if t <= _LOG_FLOOR else t


def _lowest(alpha: float, s: float) -> float:
    """Where delta_ren's h(t) = t - ln r + X(t) is lowest on t <= 0, for
    alpha > 0 and s < 1 (h'' = -alpha (s-1) e^((s-1) t) > 0): min(ln(alpha)/(1-s), 0)."""
    return min(math.log(alpha) / (1.0 - s), 0.0)


def _root_at_or_above(exponent, t_min: float, log_r: float, t_low: float) -> bool:
    """Whether delta_ren's h(t) = t - ln r + X(t) has a root in [t_low, 0],
    given exponent = _log_exponent(alpha, s), t_min = _lowest(alpha, s),
    log_r = ln r < 0 and t_low <= 0.  On [t_low, 0], h is lowest at 0, where
    h = -ln r > 0, or at max(t_min, t_low): a root iff h <= 0 there."""
    t = max(t_min, t_low)
    return t - log_r + exponent(t)[0] <= 0.0


def _slope(dr: float, delta0: float, s: float, alpha: float, cutoff: float) -> float:
    """d Delta_ren / d Delta0 at a root dr of (delta0, BathSpec(s, alpha, cutoff))."""
    return (dr / delta0) / _dh(1.0 - alpha * (dr / cutoff) ** (s - 1.0))


def _dh(dh: float) -> float:
    """dh = h'(t) at delta_ren's root; NumericalError unless it is positive."""
    if not dh > 0.0:
        raise NumericalError("implicit derivative of the self-consistency equation is singular")
    return dh


def delta_ren_derivative(point: SpinBosonPoint) -> float | None:
    """d Delta_ren / d Delta0 at fixed (alpha, s, cutoff), by implicit
    differentiation of the self-consistency equation:

        d Delta_ren / d Delta0 = (Delta_ren / Delta0)
                                 / (1 - alpha * (Delta_ren / cutoff)^(s-1)).

    None when delta_ren has no solution; 1 at alpha = 0.
    """
    dr = delta_ren(point)
    return None if dr is None else _slope(dr, point.delta0, *point.bath)


def delocalized_log_derivative(point: SpinBosonPoint) -> float:
    """d ln(d Delta_ren / d Delta0) / d alpha on the delocalized branch, the
    quantity that carries the weak non-analyticity at the Ohmic localization
    transition.  With X = alpha Y and r = Delta0/cutoff, delta_ren's root
    t = ln(Delta_ren/cutoff) solves t - ln r + alpha Y(t) = 0, and
    ln(d Delta_ren / d Delta0) = t - ln r - ln(1 + alpha Y'); as
    Y'' = (s-1) Y', implicit differentiation in alpha gives

        t_alpha = -Y / (1 + alpha Y'),
        result  = t_alpha - Y' (1 + alpha (s-1) t_alpha) / (1 + alpha Y').

    For s = 1 this is ln(r)/(1 - alpha)^2 + 1/(1 - alpha), which scales with
    ln(cutoff/Delta0) at fixed distance from alpha = 1.  RegimeError where
    delta_ren has no root.
    """
    (s, a, _), log_r = point.bath, math.log(point.ratio)
    if point.bath.is_ohmic:  # in closed form, also below the solver's floor
        t = log_r / (1.0 - a) if a < 1.0 else None
    else:
        t = _solve(a, s, log_r)
    if t is None:
        raise RegimeError(f"no delocalized branch at alpha = {a:g}")
    y, dy = _log_exponent(1.0, s)(t)
    dh = _dh(1.0 + a * dy)
    t_a = -y / dh
    # a dy in (-1, 0] and (s-1) t_a = expm1((s-1) t) / dh: a (s-1) alone can overflow
    return t_a - (dy + a * dy * ((s - 1.0) * t_a)) / dh


# ---------------------------------------------------------------------------
# Ohmic ground-state energy and its derivative
# ---------------------------------------------------------------------------


def _ohmic_energy(point: SpinBosonPoint, caller: str) -> tuple[float, float]:
    """(E, 2 dE/dDelta0) of the closed-form Ohmic energy, the second not yet
    clipped; RegimeError naming caller unless s = 1.  With r = Delta0/cutoff,
    x = (2a-1) ln(r) / (1-a) and g = expm1(x) / x, which is 1 at x = 0
    (alpha = 1/2), r^(a/(1-a)) - r = r expm1(x) for alpha < 1."""
    if not point.bath.is_ohmic:
        raise RegimeError(f"{caller} requires s = 1, got s = {point.bath.s}")
    a = point.bath.alpha
    r = point.ratio
    if a >= 1.0:
        return point.delta0 * r / (2.0 * a - 1.0), 4.0 * r / (2.0 * a - 1.0)
    log_r = math.log(r)
    x = (2.0 * a - 1.0) * log_r / (1.0 - a)
    g = math.expm1(x) / x if x else 1.0
    energy = -(r * log_r * g / (1.0 - a)) * point.delta0  # Delta0 r alone can underflow
    return energy, 2.0 * r / (1.0 - a) * (-g * log_r / (1.0 - a) - 1.0)


def ohmic_ground_energy(point: SpinBosonPoint) -> float:
    """Ground-state energy gain of the Ohmic (s = 1) two-level system,
    with r = Delta0/cutoff:

        0 <= alpha < 1 : E = [Delta0 r^(a/(1-a)) - Delta0 r] / (1-2a)
                           = -Delta0 r ln(r) g / (1-a),   g as in _ohmic_energy
        alpha >= 1     : E = Delta0 r / (2a - 1)

    The first line is one analytic function of alpha, the free spin's
    Delta0 (1 - r) at alpha = 0: at alpha = 1/2 its 0/0 is removed exactly
    (g = 1, E = 2 Delta0 r ln(1/r)), and expm1 keeps full precision next
    to it, so there is no window around 1/2.  The
    alpha >= 1 branch keeps the 1/(2a-1) factor so that the piecewise form
    coincides with the flow quadrature (Delta_ren = 0 there); E is
    continuous across alpha = 1.
    """
    return _ohmic_energy(point, "ohmic_ground_energy")[0]


def ohmic_sigma_x_energy(point: SpinBosonPoint) -> float:
    """|<sigma_x>| = 2 dE/dDelta0 from the closed-form energy, clipped to
    [0, 1]: (2r/(1-a)) (-g ln(r)/(1-a) - 1) for alpha < 1, with g as in
    ohmic_ground_energy, and 4r/(2a-1) for alpha >= 1.  This is the
    energy-route coherence; the max-rule sigma_x below is the one used for
    crossover analysis."""
    return min(1.0, max(0.0, _ohmic_energy(point, "ohmic_sigma_x_energy")[1]))


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
    return _max_rule(delta_ren(point), 2.0 * point.ratio, point.delta0, *point.bath)


def _max_rule(dr, two_r: float, delta0: float, s: float, alpha: float, cutoff: float) -> float:
    """The max rule of sigma_x at (delta0, BathSpec(s, alpha, cutoff)), dr its delta_ren."""
    return min(1.0, two_r if dr is None else max(_slope(dr, delta0, s, alpha, cutoff), two_r))


def coherence_crossover_alpha(point: SpinBosonPoint) -> float:
    """Coupling at which the delocalized and perturbative branches of
    sigma_x cross (the coherent/incoherent crossover estimate).

    For s = 1 the crossing is exactly 1/2: there d Delta_ren/d Delta0
    = r^(a/(1-a))/(1-a) equals 2r identically.  For s != 1 it is located
    by bisection to 1e-10 on [1e-6, hi], hi doubled from 1 until the
    perturbative branch wins, each step one _solve and _slope on floats;
    for a super-Ohmic bath it sits near (s-1) ln(cutoff/Delta0).
    RegimeError when the perturbative branch already wins at alpha = 1e-6,
    so that there is no crossing.
    """
    if point.bath.is_ohmic:
        return 0.5
    delta0, (s, _, cutoff) = point
    log_r, two_r = math.log(point.ratio), 2.0 * point.ratio

    def gap(alpha: float) -> float:  # delta_ren_derivative - 2r, -1 where no root
        t = _solve(alpha, s, log_r)
        return -1.0 if t is None else _slope(math.exp(t) * cutoff, delta0, s, alpha, cutoff) - two_r

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
    NumericalError if the value is not finite or its error estimate exceeds
    1e-8 of it, so numpy's warnings of overflow on the way are not needed."""
    import numpy as np

    from ._quadrature import gauss_legendre

    with np.errstate(all="ignore"):
        val, err = gauss_legendre(integrand, lower, 0.0)
    if val != 0.0 and err > 1e-8 * abs(_finite("the flow integral", val)):
        raise NumericalError(f"flow quadrature error {err / abs(val):.2e} above 1e-8")
    return float(val)


def flow_free_energy(point: SpinBosonPoint, temperature: float = 0.0) -> float:
    """F = integral_{max(T, Delta_ren)}^{cutoff} (Delta(L)/L)^2 dL at
    temperature T, finite and >= 0, by the Gauss-Legendre rule in
    ln(L/cutoff); NumericalError if its error estimate exceeds 1e-8 of F.

    With Delta_ren = 0 (no self-consistent solution) the lower limit is T;
    at T = 0 the integrand's decay makes the integral converge on its own
    and a floor of 1e-30 * cutoff is used.  For s = 1 this reproduces every
    branch of the closed-form ground energy.
    """
    _in_range("temperature", temperature, ">=", 0)
    (s, alpha, cutoff), log_r = point.bath, math.log(point.ratio)
    # limits in u = ln(L/cutoff), which cannot underflow: t = ln(Delta_ren/cutoff) and ln(T/cutoff)
    t = _solve(alpha, s, log_r)
    lower = max(-math.inf if t is None else t,
                _log_ratio(temperature, cutoff) if temperature else -math.inf)
    if lower >= 0.0:
        return 0.0

    import numpy as np

    exponent = _log_exponent(alpha, s, np.expm1)
    log_d0_r = math.log(point.delta0) + log_r

    def integrand(u):
        # (Delta/L)^2 * L, the log-space measure, with Delta = Delta0 e^-X
        # and L = e^u cutoff: Delta0 r e^(-2X - u), its prefactor in the
        # exponent so that neither factor overflows alone
        return np.exp(log_d0_r - 2.0 * exponent(u)[0] - u)

    return _log_integral(integrand, lower if lower > -math.inf else math.log(1e-30))


def free_tls_sigma_x(delta0: float, temperature: float) -> tuple[float, float]:
    """(scaling estimate, exact) <sigma_x> of a free two-level system at
    temperature T: the flow argument gives min(Delta0/T, 1), the exact
    result is tanh(Delta0/T), for finite delta0 > 0 and T > 0."""
    x = _in_range("delta0", delta0, ">", 0) / _in_range("temperature", temperature, ">", 0)
    return min(x, 1.0), math.tanh(x)


# ---------------------------------------------------------------------------
# one-loop sub-Ohmic flow near the fully coherent state
# ---------------------------------------------------------------------------


class FlowState(namedtuple("FlowState", "lambda_ kappa_tilde sx_accum")):
    """State of the one-loop renormalisation flow at running cutoff
    lambda_: the dimensionless coupling kappa_tilde = alpha * lambda / Delta
    (Delta is not renormalised in this scheme) and the accumulated
    <sigma_x> deficit."""

    __slots__ = ()


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
    return _kappa_tilde_of_decay(kappa_tilde0, s, math.exp(-s * float(ell)))


def _kappa_tilde_of_decay(kappa_tilde0, s, decay):
    """kappa_tilde_flow given decay = exp(-s ell) (a float or an array); s
    itself at the fixed point kt0 = s, where the quotient rounds, or is
    0/0 once decay underflows; s multiplies last, as s kt0 can overflow."""
    if kappa_tilde0 == s:
        return s
    return kappa_tilde0 * decay / (kappa_tilde0 * decay + (s - kappa_tilde0)) * s


def sigma_x_deficit(point: SpinBosonPoint, lambda_stop: float) -> float:
    """Accumulated reduction of <sigma_x> along the flow,

        integral_{lambda_stop}^{cutoff} kt(L) * Delta0 / L^2 dL,

    with kt(L) the one-loop solution and Delta held at Delta0 (the scheme
    starts from the fully coherent state).  Diverges as lambda_stop^(s-1)
    for s < 1: no coherent oscillations survive the scaling limit.  Taken
    by the Gauss-Legendre rule in ln(L/cutoff); NumericalError if its error
    estimate exceeds 1e-8 of the value, RegimeError for kt0 > s.
    """
    import numpy as np

    kt0, s = _flow_start(point)
    r = point.ratio

    def integrand(u):
        # (kt * Delta0 / L^2) * L with L = e^u cutoff and ell = -u
        return _kappa_tilde_of_decay(kt0, s, np.exp(s * u)) * r * np.exp(-u)

    return _log_integral(integrand, _log_scale("lambda_stop", lambda_stop, point.bath.cutoff))


def subohmic_rg_flow(point: SpinBosonPoint, lambda_stop: float) -> FlowState:
    """Run the one-loop flow from the bare cutoff down to lambda_stop.

    Requires s < 1 and kt0 = alpha*cutoff/Delta0 <= s (on or below the
    delocalized fixed point; above it the coupling runs away towards the
    localized phase and this scheme does not apply).
    """
    s = point.bath.s
    if s >= 1:
        raise RegimeError(f"one-loop sub-Ohmic flow requires s < 1, got s = {s}")
    ell = -_log_scale("lambda_stop", lambda_stop, point.bath.cutoff)
    return FlowState(
        lambda_=lambda_stop,
        kappa_tilde=kappa_tilde_flow(_flow_start(point)[0], s, ell),
        sx_accum=sigma_x_deficit(point, lambda_stop),
    )


def _flow_start(point: SpinBosonPoint) -> tuple[float, float]:
    """(kt0, s) where the one-loop flow starts: RegimeError above the
    fixed point kt0 = s, where the flow runs through the pole of its
    solution, and kt0 within 1e-12 above s taken as s."""
    kt0, s = point.kappa_tilde0, point.bath.s
    if kt0 > s + 1e-12:
        raise RegimeError(f"kappa_tilde0 = {kt0} > s = {s}: localized side, flow runs away")
    return min(kt0, s), s


# ---------------------------------------------------------------------------
# sub-Ohmic regime classification
# ---------------------------------------------------------------------------


class Regime(Enum):
    DELOCALIZED_COHERENT = "DelocalizedCoherent"
    DELOCALIZED_INCOHERENT = "DelocalizedIncoherent"
    LOCALIZED = "Localized"


_COHERENT, _INCOHERENT, _LOCALIZED = (regime.value for regime in Regime)


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
    bath = point.bath
    if bath.s >= 1:
        raise RegimeError(f"subohmic_regime requires s < 1, got s = {bath.s}")
    return Regime(_labels(bath.alpha, bath.s, _cells(bath.s, [point.ratio]))[0])


def _cells(s: float, ratios) -> list[tuple]:
    """(ln r, s r, r >= SCALING_TRUST_MIN_RATIO), which _labels reads, of each ratio r."""
    return [(math.log(r), s * r, r >= SCALING_TRUST_MIN_RATIO) for r in ratios]


def _labels(alpha: float, s: float, cells) -> list[str]:
    """The rule of subohmic_regime along a row of _cells(s, ratios), at
    coupling alpha >= 0 and exponent s < 1, with the exponent built once.
    Delta_ren >= Delta0^2/cutoff says that delta_ren's h has a root at or
    above ln r^2: its existence test at t_low = ln r^2, with no solve.  The
    line alpha = s r is written here alone."""
    if alpha == 0.0:
        return [_COHERENT] * len(cells)
    exponent, t_min = _log_exponent(alpha, s), _lowest(alpha, s)
    return [
        _COHERENT
        if trusted and _root_at_or_above(exponent, t_min, log_r, 2.0 * log_r)
        else _LOCALIZED if alpha > s_r else _INCOHERENT
        for log_r, s_r, trusted in cells
    ]
