import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from dissipent import (
    BathSpec,
    DomainError,
    NumericalError,
    Regime,
    RegimeError,
    SpinBosonPoint,
    adiabatic_exponent,
    coherence_crossover_alpha,
    delocalized_log_derivative,
    delta_ren,
    delta_ren_derivative,
    flow_free_energy,
    free_tls_sigma_x,
    kappa_tilde_flow,
    ohmic_ground_energy,
    ohmic_sigma_x_energy,
    sigma_x,
    sigma_x_deficit,
    spin_entropy,
    subohmic_regime,
    subohmic_rg_flow,
)
from dissipent import spinboson
from dissipent.spinboson import BRACKET_FLOOR


def point(s, alpha, ratio, cutoff=100.0):
    return SpinBosonPoint(delta0=ratio * cutoff, bath=BathSpec(s=s, alpha=alpha, cutoff=cutoff))


# ------------------------------------------------------------------ entropy


def test_spin_entropy_limits():
    assert spin_entropy(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert spin_entropy(1.0) == 0.0
    assert spin_entropy(-1.0) == 0.0


def test_spin_entropy_half():
    # eigenvalue oracle: -0.75 ln 0.75 - 0.25 ln 0.25
    assert spin_entropy(0.5) == pytest.approx(0.5623351446188083, rel=1e-14)


@pytest.mark.parametrize("sx", [0.0, 0.3, 0.9, 1 - 1e-9, 1 - 2**-52, -0.7])
def test_spin_entropy_is_that_of_the_diagonalised_state(sx):
    # an oracle that shares no formula with spin_entropy: mpmath's Jacobi
    # eigenvalues of the reduced density matrix [[1, sx], [sx, 1]] / 2 at 50
    # digits, where spin_entropy writes down m = (1 - |sx|)/2
    mp = mpmath.mp.clone()
    mp.dps = 50
    lams = mp.eigsy(mp.matrix([[1, sx], [sx, 1]]) / 2, eigvals_only=True)
    want = -mp.fsum(lam * mp.log(lam) for lam in lams)
    assert abs(spin_entropy(sx) - want) <= 4 * 2.0**-53 * want


def test_spin_entropy_even_and_bounded():
    for sx in np.linspace(0.0, 1.0, 21):
        s = spin_entropy(sx)
        assert s == pytest.approx(spin_entropy(-sx), rel=1e-14)
        assert 0.0 <= s <= math.log(2.0) + 1e-15


def test_spin_entropy_domain():
    with pytest.raises(DomainError):
        spin_entropy(1.0001)


# ------------------------------------------------------------------ delta_ren


def test_delta_ren_free_spin():
    pt = point(1.0, 0.0, 0.01)
    assert delta_ren(pt) == pt.delta0


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_delta_ren_ohmic_power_law(alpha):
    pt = point(1.0, alpha, 0.1)
    expected = pt.delta0 * (0.1) ** (alpha / (1.0 - alpha))
    assert delta_ren(pt) == pytest.approx(expected, rel=1e-10)


def test_delta_ren_ohmic_localized():
    assert delta_ren(point(1.0, 1.0, 0.01)) is None
    assert delta_ren(point(1.0, 1.5, 0.01)) is None


def test_delta_ren_superohmic_asymptote():
    # lower-limit correction is negligible deep in the scaling limit
    pt = point(2.0, 3.0, 1e-3)
    assert delta_ren(pt) == pytest.approx(pt.delta0 * math.exp(-3.0), rel=1e-3)


def test_delta_ren_subohmic_no_solution():
    assert delta_ren(point(0.5, 0.5, 1e-6)) is None


def test_delta_ren_subohmic_near_cutoff():
    pt = point(0.5, 0.05, 0.8)
    dr = delta_ren(pt)
    assert dr is not None
    # self-consistency residual vanishes
    assert dr == pytest.approx(pt.delta0 * math.exp(-adiabatic_exponent(pt.bath, dr)), rel=1e-12)


def test_delta_ren_monotone_in_alpha():
    vals = []
    for alpha in np.linspace(0.05, 0.9, 18):
        vals.append(delta_ren(point(1.0, alpha, 0.1)))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_ren_derivative_implicit():
    # finite-difference check of the implicit derivative
    for s, alpha in [(1.0, 0.3), (2.0, 1.5), (0.5, 0.05)]:
        ratio = 0.8 if s < 1 else 0.01
        pt = point(s, alpha, ratio)
        d_an = delta_ren_derivative(pt)
        h = 1e-6 * pt.delta0
        up = SpinBosonPoint(delta0=pt.delta0 + h, bath=pt.bath)
        dn = SpinBosonPoint(delta0=pt.delta0 - h, bath=pt.bath)
        d_fd = (delta_ren(up) - delta_ren(dn)) / (2.0 * h)
        assert d_an == pytest.approx(d_fd, rel=1e-6)


T_FLOOR = math.log(BRACKET_FLOOR)


def log_residual(pt, t):
    """h(t) = t - ln r + X(cutoff e^t); its roots are the fixed points."""
    return t - math.log(pt.ratio) + adiabatic_exponent(pt.bath, math.exp(t) * pt.bath.cutoff)


def min_residual(pt, lo, hi):
    """Smallest h on [lo, hi] from a dense grid refined by a bounded search
    around the grid minimum (catches a dip narrower than the grid)."""
    ts = np.linspace(lo, hi, 2001)
    hs = [log_residual(pt, t) for t in ts]
    i = int(np.argmin(hs))
    res = minimize_scalar(
        lambda t: log_residual(pt, t),
        bounds=(ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return min(hs[i], res.fun)


bath_exponents = st.one_of(st.just(1.0), st.floats(0.05, 3.0))
couplings = st.floats(0.0, 2.0)
log_ratios = st.floats(-8.0, -1e-3)  # log10 of delta0 / cutoff


@given(s=bath_exponents, alpha=couplings, log_ratio=log_ratios)
def test_delta_ren_root_properties(s, alpha, log_ratio):
    pt = point(s, alpha, 10.0**log_ratio)
    dr = delta_ren(pt)
    lowest = min_residual(pt, T_FLOOR, 0.0)
    # None exactly when no root lies above the floor (h(0) > 0, so a
    # negative minimum means a sign change in (t_floor, 0))
    assume(abs(lowest) > 1e-9)
    assert (dr is None) == (lowest > 0.0)
    if dr is not None:
        t = math.log(dr / pt.bath.cutoff)
        assert t > T_FLOOR
        assert abs(log_residual(pt, t)) <= 1e-9
        # the largest root: no sign change above it
        above = np.linspace(t, 0.0, 2001)[1:]
        assert min(log_residual(pt, u) for u in above) > -1e-12


@given(alpha=st.floats(0.0, 0.9), log_ratio=log_ratios)
def test_delta_ren_ohmic_closed_form(alpha, log_ratio):
    # alpha <= 0.9: as alpha -> 1 the root's conditioning 1/(1 - alpha)
    # amplifies the rounding of h past rel 1e-12
    pt = point(1.0, alpha, 10.0**log_ratio)
    t = math.log(pt.ratio) / (1.0 - alpha)
    assume(abs(t - T_FLOOR) > 1e-9)
    expected = pt.delta0 * pt.ratio ** (alpha / (1.0 - alpha))
    if t < T_FLOOR:
        assert delta_ren(pt) is None
    else:
        assert delta_ren(pt) == pytest.approx(expected, rel=1e-12)


@given(alpha=st.floats(0.0, 1.2), step=st.floats(1e-6, 1.0), log_ratio=log_ratios)
def test_ohmic_delta_ren_and_sigma_x_monotone_in_alpha(alpha, step, log_ratio):
    # the property form of the grid tests test_delta_ren_monotone_in_alpha
    # and test_sigma_x_bounded_and_monotone_ohmic
    weak = point(1.0, alpha, 10.0**log_ratio)
    strong = point(1.0, alpha + step, 10.0**log_ratio)
    d_weak, d_strong = delta_ren(weak), delta_ren(strong)
    assert d_weak is not None or d_strong is None  # localized stays localized
    if d_strong is not None:
        assert d_weak > d_strong
    assert sigma_x(weak) >= sigma_x(strong) - 1e-15


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_delta_ren_zero_coupling_is_bare(s):
    pt = point(s, 0.0, 0.3)
    assert delta_ren(pt) == pt.delta0


@pytest.mark.parametrize("alpha", [0.5 - 1e-12, 0.5, 0.5 + 1e-12])
def test_delta_ren_ohmic_near_half(alpha):
    pt = point(1.0, alpha, 0.1)
    expected = pt.delta0 * 0.1 ** (alpha / (1.0 - alpha))
    assert delta_ren(pt) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("alpha", [1.0 - 1e-9, 1.0, 1.0 + 1e-9])
def test_delta_ren_near_alpha_one(s, alpha):
    if s == 1.0:
        # root at t = ln r / (1 - alpha): only a ratio next to 1 keeps it
        # above the floor just below alpha = 1
        assert delta_ren(point(s, alpha, 0.01)) is None
        near = point(s, alpha, 1.0 - 1e-9)
        if alpha < 1.0:
            # t = ln r / (1 - alpha) = -1, conditioned by 1 / (1 - alpha) = 1e9
            expected = near.delta0 * near.ratio ** (alpha / (1.0 - alpha))
            assert delta_ren(near) == pytest.approx(expected, rel=1e-5)
        else:
            assert delta_ren(near) is None
    elif s < 1.0:
        # h' = 1 - alpha e^((s-1) t) < 0 below t = 0: h stays above h(0) > 0
        assert delta_ren(point(s, alpha, 0.9)) is None
    else:
        pt = point(s, alpha, 0.01)
        dr = delta_ren(pt)
        assert abs(log_residual(pt, math.log(dr / pt.bath.cutoff))) <= 1e-12


@pytest.mark.parametrize("ds", [-1e-13, 1e-13])
def test_delta_ren_next_to_ohmic(ds):
    pt = point(1.0 + ds, 0.3, 0.01)
    expected = pt.delta0 * 0.01 ** (0.3 / 0.7)
    assert delta_ren(pt) == pytest.approx(expected, rel=1e-12)
    assert delta_ren(point(1.0 + ds, 1.0, 0.01)) is None
    assert delta_ren(point(1.0 + ds, 1.2, 0.01)) is None


@pytest.mark.parametrize("s, alpha", [(0.5, 1e-8), (0.2, 1e-13), (1.0, 0.3), (1.5, 0.5)])
@pytest.mark.parametrize("offset", [1e-6, -1e-6])
def test_delta_ren_at_the_floor(s, alpha, offset):
    # choose r so that the root sits just above or just below the floor.
    # For s < 1 that root is the largest only when h is still rising at
    # the floor, i.e. ln(alpha)/(1-s) lies below it and the bracket is
    # clamped there: alpha < BRACKET_FLOOR^(1-s)
    t_root = T_FLOOR + offset
    bath = BathSpec(s=s, alpha=alpha, cutoff=1.0)
    ratio = math.exp(t_root + adiabatic_exponent(bath, math.exp(t_root)))
    pt = SpinBosonPoint(delta0=ratio, bath=bath)
    dr = delta_ren(pt)
    if offset > 0:
        assert dr == pytest.approx(math.exp(t_root), rel=1e-12)
    else:
        assert dr is None


def test_delta_ren_near_tangent_root():
    # s = 0.5: h has its minimum at t_c = 2 ln(alpha) with
    # h(t_c) = 2 ln(alpha) + 2 - 2 alpha - ln r; this ratio puts the minimum
    # at -1e-5, so two roots sit 1.3e-2 apart in t around t_c.  A 1024-point
    # scan in t (spacing 0.034) can see no sign change and miss both.
    alpha, eps = 0.1, 1e-5
    ratio = math.exp(2.0 * math.log(alpha) + 2.0 - 2.0 * alpha + eps)
    pt = SpinBosonPoint(delta0=ratio, bath=BathSpec(s=0.5, alpha=alpha, cutoff=1.0))
    dr = delta_ren(pt)
    assert dr == pytest.approx(0.01006348, rel=1e-6)
    t = math.log(dr)
    assert t > 2.0 * math.log(alpha)  # the larger of the two roots
    assert abs(log_residual(pt, t)) <= 1e-12


def solve_before_floor_reuse(alpha, s, log_r):
    """spinboson._solve as it was before it started Newton for s >= 1 from
    the h(floor) of its existence test: the reference the solver must
    match bit for bit.  It reads the exponent through the module, so that a
    test can count its evaluations; for s >= 1 it lowers the existence test
    to the floor by t_min = -inf, as _lowest did."""
    exponent = spinboson._log_exponent(alpha, s)
    t_min = spinboson._lowest(alpha, s) if s < 1.0 else -math.inf  # h concave: no minimum
    if not spinboson._root_at_or_above(exponent, t_min, log_r, spinboson._LOG_FLOOR):
        return None
    t, sign = (0.0, 1.0) if s < 1.0 else (spinboson._LOG_FLOOR, -1.0)
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
    return None if t <= spinboson._LOG_FLOOR else t


def solve_outcome(solve, alpha, s, log_r):
    """solve's root, None, or the NumericalError it raised, by message."""
    try:
        return solve(alpha, s, log_r)
    except NumericalError as exc:
        return str(exc)


@given(
    s=st.one_of(st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13]),
                st.floats(0.1, 3.0, exclude_min=True, exclude_max=True)),
    alpha=st.floats(0.0, 3.0, exclude_min=True),
    log_r=st.floats(-40.0, -1e-6),
    root_offset=st.one_of(st.none(), st.floats(-1e-6, 1e-6)),
)
@example(s=1.0, alpha=0.3, log_r=math.log(0.01), root_offset=None)
@example(s=1.5, alpha=0.5, log_r=0.0, root_offset=1e-9)  # a root just above the floor
@example(s=1.5, alpha=0.5, log_r=0.0, root_offset=-1e-9)  # and just below it
def test_solve_matches_the_solver_before_floor_reuse(s, alpha, log_r, root_offset):
    if root_offset is not None:  # ln r that puts the root at the floor plus root_offset
        t_root = T_FLOOR + root_offset
        log_r = t_root + spinboson._log_exponent(alpha, s)(t_root)[0]
        assume(log_r < 0.0)
    want = solve_outcome(solve_before_floor_reuse, alpha, s, log_r)
    got = solve_outcome(spinboson._solve, alpha, s, log_r)
    assert got == want and type(got) is type(want)


def exponent_evaluations(monkeypatch, solve, alpha, s, log_r):
    """How many times solve evaluates the bath exponent for one root."""
    count = [0]
    build = spinboson._log_exponent

    def counted(*args):
        exponent = build(*args)

        def evaluate(u):
            count[0] += 1
            return exponent(u)

        return evaluate

    with monkeypatch.context() as patch:
        patch.setattr(spinboson, "_log_exponent", counted)
        solve(alpha, s, log_r)
    return count[0]


# (s, alpha, r) with a root, and the exponent evaluations of one solve
# before and now: for s >= 1 the existence test's h(floor) is Newton's
# first step, one evaluation fewer; for s < 1 nothing changed
@pytest.mark.parametrize("s, alpha, r, before, now", [
    (1.0, 0.3, 0.01, 4, 3), (1.0, 0.9, 0.5, 5, 4), (1.5, 0.5, 0.01, 7, 6), (2.0, 1.0, 1e-3, 6, 5),
    (0.5, 0.1, 0.3, 7, 7), (0.8, 0.05, 0.01, 7, 7),
])
def test_solve_evaluates_the_exponent_once_fewer_for_s_at_least_one(
    monkeypatch, s, alpha, r, before, now
):
    log_r = math.log(r)
    assert spinboson._solve(alpha, s, log_r) is not None
    assert exponent_evaluations(monkeypatch, solve_before_floor_reuse, alpha, s, log_r) == before
    assert exponent_evaluations(monkeypatch, spinboson._solve, alpha, s, log_r) == now


# r = 1e-20 puts ln r below the floor: the free spin's root is returned all the same
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("r", [0.3, 0.01, 1e-20])
def test_solve_at_zero_coupling_is_log_r(s, r):
    # every consumer of the root (delta_ren aside, which returns delta0 as
    # is), flow_free_energy and delocalized_log_derivative included, reads
    # the free spin's t = ln r from _solve
    assert spinboson._solve(0.0, s, math.log(r)) == math.log(r)


# ------------------------------------------------------------------ Ohmic energy


def test_ohmic_energy_weak_coupling_limit():
    pt = point(1.0, 1e-9, 0.01)
    # E -> C [Delta0 - Delta0^2 / cutoff]
    assert ohmic_ground_energy(pt) == pytest.approx(pt.delta0 * 0.99, rel=1e-6)


def test_ohmic_energy_middle_branch():
    pt = point(1.0, 0.5, 0.01)
    expected = 2.0 * (pt.delta0**2 / pt.bath.cutoff) * math.log(100.0)
    assert ohmic_ground_energy(pt) == pytest.approx(expected, rel=1e-14)


def test_ohmic_energy_localized_branch_keeps_integral_factor():
    # exact flow integral gives C Delta0^2 / ((2a - 1) cutoff) for alpha > 1
    pt = point(1.0, 2.0, 0.01)
    expected = pt.delta0**2 / pt.bath.cutoff / 3.0
    assert ohmic_ground_energy(pt) == pytest.approx(expected, rel=1e-14)


def test_ohmic_energy_continuity_at_half_and_one():
    for a0 in (0.5, 1.0):
        e_mid = ohmic_ground_energy(point(1.0, a0, 0.01))
        for da in (-1e-6, 1e-6):
            e = ohmic_ground_energy(point(1.0, a0 + da, 0.01))
            assert abs(e - e_mid) <= 1e-4 * abs(e_mid)


def test_ohmic_energy_wrong_model():
    # one guard for both energies; its message names the function called
    for energy in (ohmic_ground_energy, ohmic_sigma_x_energy):
        with pytest.raises(RegimeError, match=rf"^{energy.__name__} requires s = 1, got s = 0.5$"):
            energy(point(0.5, 0.3, 0.01))


def test_subnormal_ratio_is_a_domain_error():
    # 1/r overflows below the smallest normal double, and so can expm1 in
    # the Ohmic energies
    with pytest.raises(DomainError, match="subnormal"):
        point(1.0, 1e-6, 1e-310, cutoff=1.0)


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -1.0])
def test_temperature_must_be_finite_and_non_negative(temperature):
    # NaN ended flow_free_energy in a ValueError from the quadrature, and
    # inf made it return 0.0
    message = f"temperature must be finite and >= 0, got {temperature}"
    with pytest.raises(DomainError, match=message):
        flow_free_energy(point(1.0, 0.1, 0.01), temperature)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 3.0])
@pytest.mark.parametrize("ratio", [1e-4, 1e-2, 0.2])
def test_ohmic_sigma_x_energy_is_twice_the_energy_slope(alpha, ratio):
    # 2 dE/dDelta0 at fixed cutoff by a central difference of step 1e-5 Delta0
    def energy(delta0):  # at cutoff 1, delta0 is the ratio
        return ohmic_ground_energy(point(1.0, alpha, delta0, cutoff=1.0))

    h = 1e-5 * ratio
    want = min(1.0, max(0.0, (energy(ratio + h) - energy(ratio - h)) / h))
    got = ohmic_sigma_x_energy(point(1.0, alpha, ratio, cutoff=1.0))
    assert got == pytest.approx(want, rel=1e-9)


def test_ohmic_sigma_x_energy_values():
    # alpha -> 0: clipped to 1
    assert ohmic_sigma_x_energy(point(1.0, 1e-12, 0.01)) == 1.0
    # at the crossover: 4 C r (2 ln(1/r) - 1), frozen
    assert ohmic_sigma_x_energy(point(1.0, 0.5, 0.01)) == pytest.approx(
        0.32841361487904736, rel=1e-13
    )
    # limit of the generic branch approaches the alpha = 1/2 value
    assert ohmic_sigma_x_energy(point(1.0, 0.5 - 1e-7, 0.01)) == pytest.approx(
        0.32841361487904736, rel=1e-5
    )


# ------------------------------------------------------------------ sigma_x (max rule)


def test_sigma_x_free_spin_is_one():
    assert sigma_x(point(1.0, 0.0, 1e-4)) == 1.0


def test_sigma_x_bounded_and_monotone_ohmic():
    vals = [sigma_x(point(1.0, a, 0.01)) for a in np.linspace(0.0, 1.2, 61)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_sigma_x_perturbative_floor():
    # past the crossover the perturbative branch 2 Delta0/cutoff wins
    assert sigma_x(point(1.0, 0.8, 0.01)) == pytest.approx(0.02, rel=1e-12)
    # localized (no Delta_ren): same floor
    assert sigma_x(point(1.0, 1.5, 0.01)) == pytest.approx(0.02, rel=1e-12)


def test_sigma_x_kink_sits_at_half_for_ohmic():
    r = 0.01
    eps = 1e-6
    lo = sigma_x(point(1.0, 0.5 - eps, r))
    mid = sigma_x(point(1.0, 0.5, r))
    hi = sigma_x(point(1.0, 0.5 + eps, r))
    assert mid == pytest.approx(2.0 * r, rel=1e-10)  # branches meet
    left_slope = (mid - lo) / eps
    right_slope = (hi - mid) / eps
    assert abs(right_slope) < 1e-3  # flat perturbative side
    assert left_slope < -0.1  # delocalized side falls steeply


def test_sigma_x_superohmic_max_form():
    # sigma_x ~ max(exp(-alpha/(s-1)), 2 Delta0/cutoff)
    pt = point(2.0, 2.0, 1e-3)
    assert sigma_x(pt) == pytest.approx(math.exp(-2.0), rel=1e-2)
    deep = point(2.0, 12.0, 1e-3)
    assert sigma_x(deep) == pytest.approx(2e-3, rel=1e-10)


# |gap| / (alpha^2 ln^2 r + alpha r) of the max rule against second-order
# perturbation theory reads at most 1.95 on this grid (r = 1e-2, alpha =
# 1e-5) and about 0.36 at r = 1e-6; as alpha -> 0 it tends to 2 - 1.5 r,
# since the two slopes differ by alpha (2 r + O(r^2))
PT_BOUND = 2.5
PT_COUPLINGS = [1e-5, 1e-4, 1e-3, 1e-2]
PT_RATIOS = [1e-2, 1e-3, 1e-4, 1e-6]


def meets_weak_coupling_perturbation_theory(observable, r, alpha) -> bool:
    """Whether observable (a route to |<sigma_x>|) at s = 1, cutoff 1 and
    Delta0 = r lies within PT_BOUND (alpha^2 ln^2 r + alpha r) of continuum
    second-order PT for (Delta0/2) sigma_x + sigma_z sum (lambda_k/2)(b_k +
    b_k^dag), J = 2 alpha w: |<sigma_x>| = 1 - alpha (ln((1+r)/r) -
    1/(1+r)) + O(alpha^2)."""
    pt = 1.0 - alpha * (math.log1p(r) - math.log(r) - 1.0 / (1.0 + r))
    gap = observable(SpinBosonPoint(delta0=r, bath=BathSpec(s=1.0, alpha=alpha, cutoff=1.0))) - pt
    return abs(gap) <= PT_BOUND * (alpha**2 * math.log(r) ** 2 + alpha * r)


@pytest.mark.parametrize("alpha", PT_COUPLINGS)
@pytest.mark.parametrize("r", PT_RATIOS)
def test_sigma_x_matches_weak_coupling_perturbation_theory(r, alpha):
    assert meets_weak_coupling_perturbation_theory(sigma_x, r, alpha)


@pytest.mark.xfail(
    strict=True,
    reason="known discrepancy 4: the energy route 2 dE/dDelta0 misses "
    "weak-coupling PT at all 16 points of the max rule's check.  At "
    "alpha = 0 it is 2 (1 - 2r) before its clip to 1, because the free "
    "spin's flow energy Delta0 (1 - r) already carries the factor 2 that "
    "the Hellmann-Feynman route applies again, so it stays at 1 while PT "
    "falls as 1 - alpha I_1(r); halved, its slope at alpha = 0 is "
    "ln r + 3 - 4r, still 2 off PT's",
)
def test_ohmic_sigma_x_energy_matches_weak_coupling_perturbation_theory():
    misses = [
        (r, alpha)
        for r in PT_RATIOS
        for alpha in PT_COUPLINGS
        if not meets_weak_coupling_perturbation_theory(ohmic_sigma_x_energy, r, alpha)
    ]
    assert not misses, misses


# At the Toulouse point s = 1, alpha = 1/2 the model maps onto the
# resonant-level model, whose ground-state energy carries a log: for
# (Delta0/2) sigma_x, |<sigma_x>| = c r ln(1/r) + O(r), with c = 4 for an
# exponential cutoff and 4 e^-gamma (about 2.25) for the sharp one.  The
# bracket holds both and excludes 0.
TOULOUSE_RATIOS = [1e-2, 1e-4, 1e-6, 1e-8]
TOULOUSE_SLOPE = (1.0, 8.0)


def toulouse_slope(route) -> float:
    """Least-squares slope of route(point)/r against ln(1/r) at s = 1,
    alpha = 1/2, cutoff 1 and Delta0 = r, over TOULOUSE_RATIOS."""
    x = np.log(1.0 / np.array(TOULOUSE_RATIOS))
    y = [route(SpinBosonPoint(delta0=r, bath=BathSpec(s=1.0, alpha=0.5, cutoff=1.0))) / r
         for r in TOULOUSE_RATIOS]
    return float(np.polyfit(x, y, 1)[0])


@pytest.mark.xfail(
    strict=True,
    reason="known discrepancy 5: at alpha = 1/2 both branches of the max "
    "rule are 2r exactly, so sigma_x/r reads 2.0000 at every r (slope 0) "
    "and misses the Toulouse point's r ln(1/r); its alpha = 1/2 kink "
    "belongs to the rule, not to the model",
)
def test_sigma_x_carries_the_toulouse_log():
    lo, hi = TOULOUSE_SLOPE
    assert lo <= toulouse_slope(sigma_x) <= hi


def test_energy_slope_carries_the_toulouse_log():
    # dE/dDelta0 = r (4 ln(1/r) - 2) of the closed form at alpha = 1/2, by a
    # central difference of ohmic_ground_energy: 16.42, 34.84, 53.26 and
    # 71.68 over r, a slope of 4 inside the bracket
    def energy_slope(pt):
        h = 1e-5 * pt.delta0
        up, down = pt._replace(delta0=pt.delta0 + h), pt._replace(delta0=pt.delta0 - h)
        return (ohmic_ground_energy(up) - ohmic_ground_energy(down)) / (2.0 * h)

    for r in TOULOUSE_RATIOS:
        pt = SpinBosonPoint(delta0=r, bath=BathSpec(s=1.0, alpha=0.5, cutoff=1.0))
        assert energy_slope(pt) == pytest.approx(r * (4.0 * math.log(1.0 / r) - 2.0), rel=1e-8)
    slope, (lo, hi) = toulouse_slope(energy_slope), TOULOUSE_SLOPE
    assert slope == pytest.approx(4.0, rel=1e-6) and lo <= slope <= hi


# Away from s = 1 the max rule's O(alpha) slope of |<sigma_x>| is not PT's.
# This is a measured curve, not a bug: the adiabatic exponent's sharp lower
# limit gives the slope -Y(r) + r^(s-1), Y = (1 - r^(s-1))/(s-1), where PT
# gives -I_s(r), I_s(r) = int_0^1 w^s/(r+w)^2 dw (cutoff 1, Delta0 = r).
# As r -> 0 their ratio tends to pi (1-s)/sin(pi s) for s < 1, and to 1
# for s > 1.
def adiabatic_slope(s, r):
    return r ** (s - 1.0) - (1.0 - r ** (s - 1.0)) / (s - 1.0)


def package_slope(s, r):
    # (d Delta_ren / d Delta0 - 1)/alpha, at an alpha that moves it by 1e-9
    alpha = 1e-9 / abs(adiabatic_slope(s, r))
    bath = BathSpec(s=s, alpha=alpha, cutoff=1.0)
    return (delta_ren_derivative(SpinBosonPoint(delta0=r, bath=bath)) - 1.0) / alpha


def pt_slope(s, r):
    return -float(mpmath.quad(lambda w: w**s / (r + w) ** 2, [0, r, 1]))


@pytest.mark.parametrize("r", [1e-8, 1e-2])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.5, 2.0])
def test_weak_coupling_slope_is_the_adiabatic_one(s, r):
    # the largest relative gap read 2.4e-6, at s = 0.8 and r = 1e-8
    assert package_slope(s, r) == pytest.approx(adiabatic_slope(s, r), rel=5e-6)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_subohmic_slope_ratio_to_pt_tends_to_its_limit(s):
    # 2.71827, 1.57091 and 1.07119 read against 2.71826, 1.57080 and 1.06896
    ratio = pt_slope(s, 1e-8) / package_slope(s, 1e-8)
    assert ratio == pytest.approx(math.pi * (1.0 - s) / math.sin(math.pi * s), rel=3e-3)


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_superohmic_slope_ratio_to_pt_tends_to_one(s):
    # 0.999913 at s = 1.5 and 0.999998 at s = 2
    assert abs(pt_slope(s, 1e-8) / package_slope(s, 1e-8) - 1.0) <= 1e-4


@pytest.mark.parametrize("s, pt, adiabatic", [(0.5, -13.72, -8.00), (1.5, -1.569, -1.700),
                                              (2.0, -0.918, -0.980)])
def test_weak_coupling_slopes_at_a_ratio_of_a_hundredth(s, pt, adiabatic):
    # each to the digits it is quoted with
    digits = 2 if s < 1 else 3
    assert round(pt_slope(s, 1e-2), digits) == pt
    assert round(package_slope(s, 1e-2), digits) == adiabatic


def test_coherence_crossover_alpha():
    assert coherence_crossover_alpha(point(1.0, 0.1, 0.01)) == 0.5
    # super-Ohmic: crossing of exp(-alpha) with 2r, i.e. ln(1/(2r))
    a_star = coherence_crossover_alpha(point(2.0, 0.1, 1e-3))
    assert a_star == pytest.approx(math.log(1.0 / 2e-3), abs=0.05)


@pytest.mark.parametrize("s, ratio", [(0.5, 0.2), (0.5, 0.01), (2.0, 1e-3)])
def test_coherence_crossover_alpha_brackets_the_crossing(s, ratio):
    # the returned coupling sits within 1e-10 of where the delocalized slope
    # d Delta_ren / d Delta0 falls below the perturbative 2 r (for s = 0.5
    # by the self-consistent root vanishing, counted as slope 0)
    a_star = coherence_crossover_alpha(point(s, 0.1, ratio))

    def slope(alpha):
        d = delta_ren_derivative(point(s, alpha, ratio))
        return 0.0 if d is None else d

    assert slope(a_star - 1e-10) > 2.0 * ratio >= slope(a_star + 1e-10)


def test_coherence_crossover_alpha_without_a_crossing_is_regime_error():
    # at s = 0.5, Delta0/cutoff = 0.8 the perturbative branch 2 r = 1.6
    # already wins at alpha = 1e-6
    with pytest.raises(RegimeError, match="no coherence crossover"):
        coherence_crossover_alpha(point(0.5, 0.1, 0.8))


# values of the implementation that built a BathSpec and a SpinBosonPoint
# per evaluation; solving in place must return them bit for bit
@pytest.mark.parametrize(
    "s, alpha, ratio, want",
    [
        (2.0, 0.1, 0.01, 3.9135875220898813),
        (2.0, 0.1, 1e-3, 6.2146329567504),
        (0.5, 0.1, 0.2, 0.2011841033856809),
        (0.5, 0.1, 0.01, 0.03822124177530485),
        (1.5, 0.3, 0.05, 1.283375229585391),
    ],
)
def test_coherence_crossover_alpha_values_are_unchanged(s, alpha, ratio, want):
    assert coherence_crossover_alpha(point(s, alpha, ratio)) == want


@pytest.mark.parametrize("s, ratio", [(2.0, 0.01), (0.5, 0.2), (1.5, 0.05)])
def test_coherence_crossover_alpha_bisects_on_floats(monkeypatch, s, ratio):
    # each bisection step solves on floats: no record is built after the
    # argument, where one SpinBosonPoint and one BathSpec per step were
    pt = point(s, 0.1, ratio)
    built = []

    def counted(new):
        def build(cls, *args):
            built.append(cls)
            return new(cls, *args)

        return build

    for record in (SpinBosonPoint, BathSpec):
        monkeypatch.setattr(record, "__new__", counted(record.__new__))
    assert coherence_crossover_alpha(pt) > 0.0
    assert built == []


def log_slope_derivative_ref(s, alpha, ratio):
    """d ln(d Delta_ren / d Delta0) / d alpha at 40 digits: the root t of
    t - ln r + X(t) by mpmath's findroot, started from delta_ren, and
    ln(d Delta_ren / d Delta0) = t - ln r - ln(1 - alpha e^((s-1) t))
    differentiated in alpha by mpmath's diff."""
    t0 = math.log(delta_ren(point(s, alpha, ratio)) / 100.0)
    mp = mpmath.mp.clone()
    mp.dps = 40
    sm1, log_r = mp.mpf(s) - 1, mp.log(ratio)

    def ln_slope(a):
        def h(t):
            return t - log_r + (-a * t if sm1 == 0 else -a * mp.expm1(sm1 * t) / sm1)

        t = mp.findroot(h, t0)
        return t - log_r - mp.log(1 - a * mp.exp(sm1 * t))

    return mp.diff(ln_slope, mp.mpf(alpha))


@pytest.mark.parametrize(
    "s, alpha, ratio",
    [
        (2.0, 1.0, 1e-4),
        (1.5, 0.3, 0.01),
        (0.5, 0.01, 0.2),
        (3.0, 2.0, 1e-3),
        (2.0, 1e-5, 0.01),
        (0.5, 1e-5, 0.2),
        # the bare spin and couplings next to it
        (0.5, 0.0, 0.2),
        (0.5, 5e-6, 0.2),
        (2.0, 0.0, 0.2),
        (2.0, 5e-6, 0.2),
        (1.0, 0.3, 0.01),
    ],
)
def test_delocalized_log_derivative_matches_40_digits(s, alpha, ratio):
    want = log_slope_derivative_ref(s, alpha, ratio)
    got = delocalized_log_derivative(point(s, alpha, ratio))
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_delocalized_log_derivative_without_a_root_is_a_regime_error(alpha):
    with pytest.raises(RegimeError, match="no delocalized branch"):
        delocalized_log_derivative(point(0.5, alpha, 0.2 if alpha == 0.3 else 0.01))


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_delocalized_log_derivative_ohmic_without_a_root_is_a_regime_error(alpha):
    with pytest.raises(RegimeError, match=f"no delocalized branch at alpha = {alpha:g}"):
        delocalized_log_derivative(point(1.0, alpha, 0.01))


def test_delocalized_log_derivative_ohmic_closed_form():
    pt = point(1.0, 0.99, 1e-2)
    expected = math.log(1e-2) / (1.0 - 0.99) ** 2 + 1.0 / (1.0 - 0.99)
    assert delocalized_log_derivative(pt) == pytest.approx(expected, rel=1e-13)


def test_delocalized_log_derivative_superohmic_fd():
    # for s = 2 deep in the scaling limit d ln(dDren/dD0)/dalpha ~ -1/(s-1)
    pt = point(2.0, 1.0, 1e-4)
    assert delocalized_log_derivative(pt) == pytest.approx(-1.0, rel=1e-2)


# ------------------------------------------------------------------ flow free energy


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 2.0])
def test_flow_matches_ohmic_branches(alpha):
    pt = point(1.0, alpha, 1e-3, cutoff=1000.0)
    assert flow_free_energy(pt) == pytest.approx(ohmic_ground_energy(pt), rel=1e-6)


def test_flow_free_tls_limits():
    # alpha = 0: flow cut at max(T, Delta0)
    free = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=1.0, alpha=0.0, cutoff=1e6))
    assert flow_free_energy(free, temperature=10.0) == pytest.approx(1.0 / 10.0, rel=1e-4)
    assert flow_free_energy(free, temperature=0.01) == pytest.approx(1.0, rel=1e-4)


def test_free_tls_sigma_x_pairs():
    sc, ex = free_tls_sigma_x(0.1, 1.0)
    assert sc == pytest.approx(0.1, rel=1e-15)
    assert ex == pytest.approx(math.tanh(0.1), rel=1e-15)
    sc, ex = free_tls_sigma_x(1.0, 1.0)
    assert sc == 1.0
    assert ex == pytest.approx(math.tanh(1.0), rel=1e-15)
    sc, ex = free_tls_sigma_x(1e6, 1.0)
    assert sc == 1.0 and ex == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", ["delta0", "temperature"])
def test_free_tls_sigma_x_refuses_each_argument_out_of_range(name, bad):
    # an infinite delta0 or T was accepted and gave (1, 1) or (0, 0)
    args = {"delta0": 1.0, "temperature": 1.0, name: bad}
    with pytest.raises(DomainError, match=f"{name} must be finite and > 0, got {bad}"):
        free_tls_sigma_x(**args)


# ------------------------------------------------------------------ sub-Ohmic flow


def test_flow_stationary_at_fixed_point():
    # kappa_tilde0 = alpha * cutoff / delta0 = s exactly
    pt = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.25, cutoff=2.0))
    assert pt.kappa_tilde0 == 0.5
    for lam in [0.2, 2e-2, 2e-3, 2e-4]:
        st = subohmic_rg_flow(pt, lam)
        assert abs(st.kappa_tilde - 0.5) < 1e-12


def test_flow_closed_form_vs_ode_integration():
    # independent oracle: integrate d kt/d ell = kt^2 - s kt numerically
    s, kt0 = 0.6, 0.31
    sol = solve_ivp(
        lambda ell, y: y * (y - s),
        (0.0, 9.0),
        [kt0],
        rtol=1e-11,
        atol=1e-14,
        dense_output=True,
    )
    for ell in [0.5, 2.0, 5.0, 9.0]:
        assert kappa_tilde_flow(kt0, s, ell) == pytest.approx(
            float(sol.sol(ell)[0]), rel=1e-8
        )


def test_flow_tracks_linearized_power_law():
    pt = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.005, cutoff=2.0))
    kt0 = pt.kappa_tilde0  # 0.01
    for lam_frac in [0.1, 0.01, 1e-3]:
        st = subohmic_rg_flow(pt, lam_frac * 2.0)
        assert abs(st.kappa_tilde / kt0 - lam_frac**0.5) < 0.01


def test_flow_deficit_divergence_exponent():
    pt = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.005, cutoff=2.0))
    lams = np.geomspace(1e-6, 1e-2, 9) * 2.0
    deficits = np.array([sigma_x_deficit(pt, lam) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(deficits), 1)[0]
    assert slope == pytest.approx(0.5 - 1.0, abs=0.02)
    # the deficit grows without bound as the flow proceeds: incoherence
    assert deficits[0] > 50.0 * deficits[-1]


def test_flow_deficit_matches_linearized_antiderivative():
    # with kt ~ kt0 (lam/cutoff)^s the integral is analytic
    pt = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.0005, cutoff=2.0))
    kt0, s, cut = pt.kappa_tilde0, 0.5, 2.0
    lam = 1e-4 * cut
    exact = (
        kt0 * pt.delta0 / cut * ((lam / cut) ** (s - 1.0) - 1.0) / (1.0 - s)
    )
    assert sigma_x_deficit(pt, lam) == pytest.approx(exact, rel=2e-3)


def test_flow_preconditions():
    with pytest.raises(RegimeError):
        subohmic_rg_flow(point(1.5, 0.1, 0.01), 0.1)  # s >= 1
    with pytest.raises(RegimeError):
        # kappa_tilde0 = alpha cutoff / delta0 = 10 > s
        subohmic_rg_flow(point(0.5, 0.1, 0.01), 0.1)
    with pytest.raises(DomainError):
        subohmic_rg_flow(SpinBosonPoint(1.0, BathSpec(0.5, 0.1, cutoff=2.0)), 3.0)
    for lambda_stop in (1e-2, 1e-6, 1e-20):
        # kappa_tilde0 = 0.6 > s: the deficit integral ran through the pole
        # of the one-loop solution (-6.0e9 at lambda_stop = 1e-20)
        with pytest.raises(RegimeError, match="localized side"):
            sigma_x_deficit(point(0.5, 0.06, 0.1, cutoff=1.0), lambda_stop)


def test_flow_deficit_just_above_the_fixed_point_is_the_fixed_point_deficit():
    # kappa_tilde0 within 1e-12 above s is s, for the deficit as for
    # kappa_tilde (it was -1.0e62 against 5.0e98)
    at, above = (sigma_x_deficit(point(0.5, alpha, 0.1, cutoff=1.0), 1e-100)
                 for alpha in (0.05, 0.05 * (1.0 + 1e-13)))
    assert above == at == pytest.approx(5.0e98, rel=1e-2)


# ------------------------------------------------------------------ regimes


def test_regime_examples():
    assert subohmic_regime(point(0.5, 0.05, 0.8)) is Regime.DELOCALIZED_COHERENT
    assert subohmic_regime(point(0.5, 1e-4, 1e-3)) is Regime.DELOCALIZED_INCOHERENT
    assert subohmic_regime(point(0.5, 0.1, 1e-3)) is Regime.LOCALIZED


def test_regime_free_spin_row_is_delocalized():
    for ratio in [1e-3, 0.05, 0.5]:
        reg = subohmic_regime(point(0.5, 0.0, ratio))
        assert reg in (Regime.DELOCALIZED_COHERENT, Regime.DELOCALIZED_INCOHERENT)


def test_regime_wrong_model():
    with pytest.raises(RegimeError):
        subohmic_regime(point(1.0, 0.1, 0.01))


@given(
    st.floats(0.02, 0.999),
    st.floats(0.0, 3.0),
    st.floats(0.1, 1.0, exclude_max=True),
    st.floats(1e-3, 1e3),
)
def test_subohmic_regime_is_the_rule_on_delta_ren(s, alpha, ratio, cutoff):
    # subohmic_regime decides Delta_ren >= Delta0^2/cutoff by a sign test;
    # here the rule is written with the solver's root.  Within rounding of
    # r^2 that comparison is noise (next to r = 1, where both sides are
    # 1 - O(ulp)); test_subohmic_regime_next_to_ratio_one covers that band.
    assume(ratio * cutoff < cutoff)
    pt = point(s, alpha, ratio, cutoff)
    r = pt.ratio
    dr = delta_ren(pt)
    assume(dr is None or abs(dr / cutoff - r * r) > 1e-12 * r * r)
    if alpha == 0.0 or (r >= 0.1 and dr is not None and dr / cutoff >= r * r):
        want = Regime.DELOCALIZED_COHERENT
    elif alpha > s * r:
        want = Regime.LOCALIZED
    else:
        want = Regime.DELOCALIZED_INCOHERENT
    assert subohmic_regime(pt) is want


@pytest.mark.parametrize("k", [47, 50, 52])
@pytest.mark.parametrize("alpha", [0.49, 0.502, 0.51])
def test_subohmic_regime_next_to_ratio_one(k, alpha):
    # r = 1 - 2^-k: Delta_ren/cutoff and r^2 are equal to rounding, so a
    # solve cannot tell the corner; h rises on [ln r^2, 0] (alpha < 1), so
    # the regime is coherent iff h(ln r^2) <= 0, here at 50 digits
    s, r = 0.5, 1.0 - 2.0**-k
    with mpmath.workdps(50):
        t = 2 * mpmath.log(r)
        h = t / 2 - alpha * mpmath.expm1((s - 1) * t) / (s - 1)
    got = subohmic_regime(SpinBosonPoint(r, BathSpec(s, alpha, 1.0)))
    assert (got is Regime.DELOCALIZED_COHERENT) == (h <= 0)


def test_regime_transition_line_separates_phases():
    s, ratio = 0.5, 1e-3
    line = s * ratio
    assert subohmic_regime(point(s, 0.5 * line, ratio)) is Regime.DELOCALIZED_INCOHERENT
    assert subohmic_regime(point(s, 2.0 * line, ratio)) is Regime.LOCALIZED
