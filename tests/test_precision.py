"""Each public closed form against the same formula at 50 digits.

One Hypothesis property per closed form.  The inputs are drawn
log-uniformly over the function's domain, with extra draws at the points
where a formula has a removable singularity or a cancellation (kappa = 1,
alpha = 1/2, nu = 1/2, |sigma_x| = 1, kt0 = s).  kappa spans the doubles.
Frequencies and other scales are drawn from [1e-100, 1e100] and
dimensionless ratios from that range or a part of it, so that the squares
and products the formulas form stay normal doubles; the spin-boson cutoff
is drawn from [1e-50, 1e50], since E ~ Delta0^2 / cutoff.  The free
particle's kernel width forms no square, so its eta and omega_c span
[1e-300, 1e300], and the oscillator moments are also checked where
omega_c/omega0 is past the largest double.

Every input gives one of two results:

  * a finite value within the bound stated next to its property, or
  * a DomainError, RegimeError or NumericalError.

Any other exception (ZeroDivisionError, OverflowError) and any NaN fails
the property; infinity passes only where the exact value is past the
largest double.  The bounds are in units of EPS = 2^-53, the unit
roundoff, times the condition number of the formula in the inputs it
rounds: where an input is rounded before a log or an exponential, the
bound grows with that function's condition number.  Where a formula
subtracts terms, the bound is relative to the largest term.  `worst`
records the largest error seen, as a multiple of EPS and of the bound,
so the suite reports how tight each bound is (`pytest -s`).
"""

import math
import sys

import mpmath
import pytest
from hypothesis import example, given, target
from hypothesis import strategies as st

from dissipent import (
    BathSpec,
    DomainError,
    FreeParticleParams,
    MomentPair,
    NumericalError,
    OscillatorParams,
    RegimeError,
    SpinBosonPoint,
    adiabatic_exponent,
    free_particle_kernel_width,
    gaussian_entropy,
    kappa_tilde_flow,
    ohmic_ground_energy,
    ohmic_sigma_x_energy,
    oscillator_entropy_expansion,
    oscillator_f,
    oscillator_moments,
    spin_entropy,
)

EPS = 2.0**-53
TINY = sys.float_info.min  # the smallest normal double
PACKAGE_ERRORS = (DomainError, RegimeError, NumericalError)
mp = mpmath.mp.clone()
mp.dps = 50

# property -> (largest error / EPS, largest error / bound) seen in this run
worst: dict = {}


def log_uniform(lo: float, hi: float):
    """Floats whose decimal logarithm is uniform on [log10 lo, log10 hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


def near(point: float, lo: float = 1e-16, hi: float = 1e-1):
    """point +- a log-uniform offset in [lo, hi]."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(lo, hi)).map(
        lambda so: point + so[0] * so[1]
    )


def evaluate(fn, *args):
    """fn(*args), or None for a package error; every other exception
    propagates, and a non-finite value fails."""
    try:
        value = fn(*args)
    except PACKAGE_ERRORS:
        return None
    parts = (value.q2, value.p2) if isinstance(value, MomentPair) else (value,)
    assert all(map(math.isfinite, parts)), f"{fn.__name__}{args!r} = {value!r}"
    return value


def check(name: str, got: float, want, bound: float, scale=None) -> None:
    """|got - want| <= bound * EPS * scale, with scale = |want| by default
    (a relative bound).  A value below the smallest normal double carries
    no relative precision; there the error only has to stay below TINY."""
    if scale is None and abs(want) < TINY:
        assert abs(mp.mpf(got) - want) <= TINY, f"{name}: {got!r} against {want}"
        return
    scale = float(abs(want) if scale is None else scale)
    err = float(abs(mp.mpf(got) - want)) / scale
    in_eps, in_bound = err / EPS, err / (float(bound) * EPS)
    seen = worst.get(name, (0.0, 0.0))
    worst[name] = (max(seen[0], in_eps), max(seen[1], in_bound))
    target(in_bound, label=name)
    assert in_bound <= 1.0, f"{name}: error {in_eps:.3g} EPS above the bound {float(bound):.3g} EPS"


@pytest.fixture(scope="module", autouse=True)
def report_worst():
    yield
    for name, (in_eps, in_bound) in sorted(worst.items()):
        print(f"\nprecision {name}: worst {in_eps:.3g} EPS, {in_bound:.2f} of its bound")


# ------------------------------------------------------------------ oscillator


def f_ref(kappa):
    k = mp.mpf(kappa)
    if k == 1:
        return 2 / mp.pi
    if k > 1:
        return 2 / mp.pi * mp.acosh(k) / mp.sqrt(k * k - 1)
    root = mp.sqrt(1 - k * k)
    return 2 / mp.pi * mp.atan2(root, k) / root


@given(st.one_of(log_uniform(1e-300, 1e308), near(1.0), st.sampled_from([0.0, 1.0, 0.5, 2.0])))
@example(1e8)  # kappa - sqrt(kappa^2 - 1) rounds to 0 here
@example(1.0 + 1e-8)  # next to the removable singularity
def test_oscillator_f(kappa):
    # acosh or atan2, two square roots and a quotient, each rounded once,
    # and f has condition number <= 1 in kappa: 1e-15 relative, the bound
    # the closed form must meet over kappa in [0, 1e12], kept everywhere
    check("oscillator_f", evaluate(oscillator_f, kappa), f_ref(kappa), 1e-15 / EPS)


def check_moments(p):
    w0, eta, wc = map(mp.mpf, (p.omega0, p.eta, p.omega_c))
    k = eta / (2 * w0)
    f = f_ref(k)
    log_term = w0 * (2 * k / mp.pi) * mp.log(wc / w0)
    p2 = w0 * (1 - 2 * k * k) * f / 2 + log_term
    m = evaluate(oscillator_moments, p)
    if m is None:
        # refused only past the regime of the large-cutoff formula: <p^2> <= 0,
        # or nu^2 = <q^2><p^2> below the Heisenberg bound 1/4 (to rounding)
        slack = 1e3 * EPS * (w0 * f * (1 + 2 * k * k) + log_term)
        assert wc <= w0 or p2 <= slack or f / (2 * w0) * (p2 + slack) < mp.mpf(0.25)
        return
    # q2 = f / (2 omega0): the bound of f, plus kappa = eta / (2 omega0)
    # rounded once (f has condition number <= 1)
    check("oscillator_moments.q2", m.q2, f / (2 * w0), 1e-15 / EPS + 2)
    # p2 sums omega0 f / 2, -omega0 kappa^2 f and the log term.  Relative to
    # their magnitudes; the log term counts 1 + 1/ln(omega_c/omega0) times,
    # because omega_c/omega0 is rounded before its log
    log_cond = 1 + 1 / mp.log(wc / w0)
    scale = w0 * f * (1 + 2 * k * k) / 2 + abs(log_term) * log_cond
    check("oscillator_moments.p2", m.p2, p2, 16, scale)


@given(log_uniform(1e-100, 1e100), st.one_of(log_uniform(1e-100, 1e100), near(1.0)),
       log_uniform(1.0, 1e100))
@example(1.0, 1e8, 100.0)
@example(1.0, 1.0, 100.0)
@example(1e200, 0.5, 100.0)  # omega0^2 is past the largest double
@example(1e-200, 0.5, 100.0)  # omega0^2 is below the smallest
def test_oscillator_moments(omega0, kappa, cutoff_ratio):
    check_moments(
        OscillatorParams(omega0=omega0, eta=2.0 * omega0 * kappa, omega_c=omega0 * cutoff_ratio)
    )


@given(st.sampled_from([(1e-200, 1e-200, 1e200), (1e-300, 1e-290, 1e300), (1e-250, 0.0, 1e250),
                        (1e-9, 3.0, 1e300)]))
def test_oscillator_moments_past_the_largest_cutoff_ratio(params):
    # (omega0, eta, omega_c) with omega_c/omega0 past the largest double;
    # its log is not
    check_moments(OscillatorParams(*params))


def gaussian_entropy_ref(nu):
    # the two terms grow like nu ln nu and cancel to ln nu + 1: 50 digits
    # beyond the digits of nu squared
    with mp.workdps(50 + 2 * max(0, int(math.log10(nu)))):
        nu = mp.mpf(nu)
        up, dn = nu + mp.mpf(0.5), nu - mp.mpf(0.5)
        return +(up * mp.log(up) - (dn * mp.log(dn) if dn > 0 else 0))


@given(st.one_of(log_uniform(1e-16, 1e300).map(lambda d: 0.5 + d),
                 st.floats(0.5 - 2e-12, 0.5)))
@example(0.5 + 1e-12)
@example(1e7)
def test_gaussian_entropy(nu):
    got = evaluate(gaussian_entropy, nu)
    if got is None:
        assert nu < 0.5 - 1e-12
        return
    if nu <= 0.5:
        assert got == 0.0  # the pure state, within the 1e-12 allowance
        return
    # log1p(d) + d log1p(1/d): three roundings of d-sized quantities and
    # no subtraction; S has condition number <= 1 in nu - 1/2
    check("gaussian_entropy", got, gaussian_entropy_ref(nu), 4)


def expansion_ref(e):
    et = e * mp.sqrt(1 - e) / mp.sqrt(1 - e * e / 4)
    return -((et / e) * mp.log(et) + (et / (e * e)) * mp.log1p(-e))


@given(log_uniform(1e-100, 1e100), st.one_of(log_uniform(0.5, 1e100), near(1.0)))
@example(1.0, 1.0 + 1e-12)
def test_oscillator_entropy_expansion(q2, nu):
    m = MomentPair(q2=q2, p2=nu * nu / q2)
    got = evaluate(oscillator_entropy_expansion, m)
    e = 1 / mp.sqrt(mp.mpf(m.q2) * mp.mpf(m.p2))
    if got is None:
        assert e >= 1 - 4 * EPS  # eps = 1/nu >= 1 to rounding
        return
    # both terms have the same sign.  nu = sqrt(q2 p2) and eps = 1/nu are
    # rounded, and 1 - eps carries that rounding with weight 1/(1 - eps)
    # into ln(1 - eps) and the square root of eps_tilde
    check("oscillator_entropy_expansion", got, expansion_ref(e), 8 * (1 + 1 / (1 - e)))


# ------------------------------------------------------------------ free particle


@given(log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300))
@example(1.0, 1e200)  # (omega_c/eta)^2 is past the largest double
@example(1e100, 1e-60)  # (omega_c/eta)^2 is below the smallest, a is not
@example(1e-10, 1e300)  # omega_c/eta itself is past the largest double
def test_free_particle_kernel_width(eta, omega_c):
    p = FreeParticleParams(eta=eta, omega_c=omega_c, length=1.0)
    e, wc = mp.mpf(p.eta), mp.mpf(p.omega_c)
    want = e / (4 * mp.pi) * mp.log1p((wc / e) ** 2)
    # x = omega_c/eta rounded and its log taken, or x^2 formed and log1p'd:
    # condition number <= 2
    check("free_particle_kernel_width", evaluate(free_particle_kernel_width, p), want, 8)


# ------------------------------------------------------------------ spin-boson


def spin_point(delta0, alpha, cutoff, s=1.0):
    return SpinBosonPoint(delta0=delta0, bath=BathSpec(s=s, alpha=alpha, cutoff=cutoff))


EXPONENT_S = st.one_of(log_uniform(1e-6, 1e6), near(1.0), st.just(1.0))


@given(EXPONENT_S, st.one_of(st.just(0.0), log_uniform(1e-100, 1e100)),
       log_uniform(1e-100, 1e100), st.one_of(log_uniform(1e-300, 1.0), near(1.0, hi=0.5)))
def test_adiabatic_exponent(s, alpha, cutoff, low_ratio):
    bath = BathSpec(s=s, alpha=alpha, cutoff=cutoff)
    low = min(cutoff * low_ratio, cutoff)
    if low == 0.0:  # cutoff * low_ratio underflowed
        assert evaluate(adiabatic_exponent, bath, low) is None
        return
    u = mp.log(mp.mpf(low) / mp.mpf(cutoff))
    a, sm1 = mp.mpf(alpha), mp.mpf(s) - 1
    # the same switch as BathSpec.is_ohmic: within 1e-12 of s = 1 the Ohmic
    # form is the formula
    want = -a * u if bath.is_ohmic else -a * mp.expm1(sm1 * u) / sm1
    if want > sys.float_info.max:  # infinity is the rounding of an exponent past it
        assert adiabatic_exponent(bath, low) == math.inf
        return
    got = evaluate(adiabatic_exponent, bath, low)
    # u = ln(L/cutoff) is rounded with L/cutoff (relative error 1 + 1/|u|)
    # and enters expm1, whose condition number is |y e^y / expm1(y)|
    y = sm1 * u
    cond = 1 if bath.is_ohmic or y == 0 else abs(y * mp.exp(y) / mp.expm1(y))
    check("adiabatic_exponent", got, want, 4 * (1 + cond) * (1 + 1 / max(abs(u), EPS)))


def spin_entropy_ref(sx):
    lams = [(1 + mp.mpf(sx)) / 2, (1 - mp.mpf(sx)) / 2]
    return -sum(lam * mp.log(lam) for lam in lams if lam > 0)


@given(
    st.one_of(
        st.floats(-1.0, 1.0),
        near(1.0, hi=0.5).filter(lambda x: x <= 1.0),
        near(-1.0, hi=0.5).filter(lambda x: x >= -1.0),
        st.sampled_from([0.0, 1.0, -1.0]),
    )
)
def test_spin_entropy(sx):
    # -m ln m - (1-m) log1p(-m) in m = (1 - |sx|)/2: a few roundings of
    # m-sized terms and no cancellation, and S has condition number <= 1 in m
    check("spin_entropy", evaluate(spin_entropy, sx), spin_entropy_ref(sx), 4)


def test_spin_entropy_near_a_pure_state():
    # m = (1 - |sx|)/2 is exact for |sx| >= 1/2 and S has condition number
    # <= 1 in it, so a few roundings should bound the relative error
    for sx in (0.999, 1 - 2e-6, -(1 - 2e-9)):
        want = spin_entropy_ref(sx)
        assert abs(mp.mpf(spin_entropy(sx)) - want) <= 4 * EPS * want, sx


ALPHA = st.one_of(
    st.floats(1e-6, 1.0, exclude_max=True), near(0.5), near(1.0).filter(lambda a: a < 1.0),
    log_uniform(1.0, 1e3), st.sampled_from([0.5, 1.0]),
)


def ohmic_ref(alpha, delta0, cutoff):
    """(E, |<sigma_x>|, x) at 50 digits from the difference of powers
    r^(a/(1-a)) - r over 1 - 2a, and its limit at a = 1/2."""
    a, d0, lam = map(mp.mpf, (alpha, delta0, cutoff))
    r = d0 / lam
    if a >= 1:
        return d0 * r / (2 * a - 1), 4 * r / (2 * a - 1), mp.mpf(0)
    x = (2 * a - 1) * mp.log(r) / (1 - a)
    if a == mp.mpf(0.5):
        return 2 * d0 * r * mp.log(1 / r), 4 * r * (2 * mp.log(1 / r) - 1), x
    p = a / (1 - a)
    return d0 * (r**p - r) / (1 - 2 * a), 2 / (1 - 2 * a) * (r**p / (1 - a) - 2 * r), x


def ohmic_cond(point, x):
    """The error multiplier of the Ohmic energies: r = Delta0/cutoff is
    rounded before ln r (relative error 1 + 1/|ln r|), and ln r enters
    x = (2a-1) ln(r)/(1-a), a rounded product, and g = expm1(x)/x, whose
    condition number is below 1 + |x|."""
    return (1 + abs(x)) * (1 + 1 / abs(mp.log(mp.mpf(point.ratio))))


@given(ALPHA, log_uniform(1e-100, 0.5), log_uniform(1e-50, 1e50))
@example(0.5 + 1e-9, 0.01, 100.0)  # where the 0/0 cancels to 9 digits
@example(0.5 - 1e-8, 1e-6, 1.0)
@example(0.0, 1e-200, 1.0)  # Delta0 r underflowed: 0.0 for Delta0 (1 - r)
@example(0.3, 1e-200, 1.0)  # Delta0 r underflowed: 0.0 for 4.83e-286
def test_ohmic_ground_energy(alpha, ratio, cutoff):
    point = spin_point(ratio * cutoff, alpha, cutoff)
    want, _, x = ohmic_ref(alpha, point.delta0, cutoff)
    check("ohmic_ground_energy", evaluate(ohmic_ground_energy, point), want,
          8 * ohmic_cond(point, x))


@given(ALPHA, log_uniform(1e-100, 0.5), log_uniform(1e-50, 1e50))
@example(0.5 + 1e-9, 0.01, 100.0)
@example(0.4, 0.579, 1.0)  # near the zero of 2 dE/dDelta0
def test_ohmic_sigma_x_energy(alpha, ratio, cutoff):
    point = spin_point(ratio * cutoff, alpha, cutoff)
    _, want, x = ohmic_ref(alpha, point.delta0, cutoff)
    got = evaluate(ohmic_sigma_x_energy, point)
    r = mp.mpf(point.delta0) / mp.mpf(cutoff)
    if alpha >= 1.0:
        terms = want
    else:
        # 2r/(1-a) (-g ln(r)/(1-a) - 1) subtracts 1: relative to the
        # larger of the two terms in the bracket
        g = mp.expm1(x) / x if x else mp.mpf(1)
        terms = 2 * r / (1 - mp.mpf(alpha)) * max(abs(g * mp.log(r) / (1 - mp.mpf(alpha))), 1)
    clipped = min(mp.mpf(1), max(mp.mpf(0), want))
    check("ohmic_sigma_x_energy", got, clipped, 8 * ohmic_cond(point, x), terms)


@given(
    log_uniform(1e-3, 1e3),
    st.one_of(st.just(0.0), log_uniform(1e-100, 1.0), near(1.0).filter(lambda q: q <= 1.0)),
    st.one_of(st.just(0.0), log_uniform(1e-100, 1e4)),
)
@example(0.5, 0.1, 2000.0)  # exp(s ell) is past the largest double
def test_kappa_tilde_flow(s, fraction, ell):
    # kt0 = fraction * s, on or below the fixed point
    kt0 = s * fraction
    got = evaluate(kappa_tilde_flow, kt0, s, ell)
    s_, kt, l_ = map(mp.mpf, (s, kt0, ell))
    want = s_ if kt == s_ else s_ * kt / (kt + (s_ - kt) * mp.exp(s_ * l_))
    # exp(-s ell) is rounded with its argument: relative error s ell
    check("kappa_tilde_flow", got, want, 8 * (1 + s * ell))


# ------------------------------------------------------------------ quadrature rule


def legendre_rule_ref(x: float):
    """The root of P_16 next to x and its Gauss weight 2 / ((1 - r^2) P_16'(r)^2),
    at 50 digits, with (1 - r^2) P_n' = n (P_(n-1) - r P_n)."""
    r = mp.findroot(lambda t: mp.legendre(16, t), mp.mpf(x))
    slope = 16 * (mp.legendre(15, r) - r * mp.legendre(16, r)) / (1 - r * r)
    return r, 2 / ((1 - r * r) * slope**2)


def test_quadrature_rule_against_50_digit_legendre_roots():
    # the literals are leggauss(16)'s values: its nodes round correctly,
    # its weights are up to 63 ulps off (kept so outputs stay bit-identical)
    from dissipent._quadrature import _HALF_RULE

    assert len(_HALF_RULE) == 8
    for x, w in _HALF_RULE:
        r, wr = legendre_rule_ref(x)
        assert abs(x - r) <= math.ulp(float(r)), f"node {x!r} against {r}"
        assert abs(w - wr) <= 64 * math.ulp(float(wr)), f"weight {w!r} against {wr}"


def test_quadrature_rule_is_symmetric_and_integrates_polynomials():
    from dissipent._quadrature import _NODES, _WEIGHTS

    nodes, weights = _NODES.tolist(), _WEIGHTS.tolist()
    assert len(nodes) == len(weights) == 16
    assert nodes == sorted(nodes) and nodes == [-x for x in reversed(nodes)]
    assert weights == weights[::-1]
    # exact for degree <= 2n - 1 = 31: int x^k over [-1, 1] is 2/(k+1) for even k
    for k in range(32):
        got = sum(w * x**k for x, w in zip(nodes, weights))
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(got - want) <= 1e-15, f"x^{k}: {got!r} against {want!r}"
