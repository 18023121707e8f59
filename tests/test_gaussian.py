import math

import numpy as np
import pytest

from dissipent import (
    DomainError,
    FreeParticleParams,
    GaussianKernel,
    MomentPair,
    OscillatorParams,
    RegimeError,
    alpha_from_kappa,
    free_particle_entropy,
    free_particle_kernel_width,
    gaussian_entropy,
    kappa_from_alpha,
    kernel_from_moments,
    oscillator_entropy,
    oscillator_entropy_expansion,
    oscillator_f,
    oscillator_moments,
)
from dissipent import gaussian

# ------------------------------------------------------------------ free particle


def test_kernel_width_value():
    p = FreeParticleParams(eta=1.0, omega_c=100.0, length=1.0)
    # ln(1 + 100^2) / (4 pi), frozen from direct arithmetic
    assert free_particle_kernel_width(p) == pytest.approx(0.7329435562287216, rel=1e-14)


def test_kernel_width_eta_equals_cutoff():
    p = FreeParticleParams(eta=3.0, omega_c=3.0, length=1.0)
    assert free_particle_kernel_width(p) == pytest.approx(
        3.0 / (4.0 * math.pi) * math.log(2.0), rel=1e-14
    )


def test_kernel_width_vanishes_with_eta_and_is_monotone():
    widths = [
        free_particle_kernel_width(FreeParticleParams(eta=e, omega_c=50.0, length=1.0))
        for e in np.geomspace(1e-8, 10.0, 30)
    ]
    assert widths[0] < 1e-7
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_free_particle_entropy_root():
    # a L^2 = pi / e makes S vanish
    p = FreeParticleParams(eta=1.0, omega_c=100.0, length=1.0)
    a = free_particle_kernel_width(p)
    length = math.sqrt(math.pi / math.e / a)
    res = free_particle_entropy(FreeParticleParams(eta=1.0, omega_c=100.0, length=length))
    assert res.entropy == pytest.approx(0.0, abs=1e-12)


def test_free_particle_entropy_value_and_dim_linearity():
    p1 = FreeParticleParams(eta=1.0, omega_c=100.0, length=100.0, dim=1)
    res = free_particle_entropy(p1)
    assert res.entropy == pytest.approx(4.377461951142809, rel=1e-13)
    assert res.a_l2 == pytest.approx(0.7329435562287216e4, rel=1e-13)
    p3 = FreeParticleParams(eta=1.0, omega_c=100.0, length=100.0, dim=3)
    assert free_particle_entropy(p3).entropy == pytest.approx(3.0 * res.entropy, rel=1e-14)


def test_free_particle_params_validation():
    with pytest.raises(DomainError):
        FreeParticleParams(eta=0.0, omega_c=1.0, length=1.0)
    with pytest.raises(DomainError):
        FreeParticleParams(eta=1.0, omega_c=1.0, length=1.0, dim=0)


@pytest.mark.parametrize("dim", [1.5, 2.0, True, False])
def test_free_particle_dim_is_an_integer_and_not_a_bool(dim):
    # dim = 1.5 gave a fractional-dimension entropy and True was taken as 1,
    # where a sweep document refuses both
    with pytest.raises(DomainError, match=f"dim must be an integer, got {dim!r}"):
        FreeParticleParams(eta=1.0, omega_c=100.0, length=100.0, dim=dim)
    assert FreeParticleParams(eta=1.0, omega_c=100.0, length=100.0, dim=np.int64(2)).dim == 2


# ------------------------------------------------------------------ f(kappa)


def test_integers_whose_square_passes_a_double_are_domain_errors():
    # Python squares and multiplies integers exactly, and converting the
    # result raised OverflowError
    with pytest.raises(DomainError, match="a L"):
        free_particle_entropy(FreeParticleParams(1.0, 100.0, 10**200))
    with pytest.raises(DomainError, match="a/b"):
        MomentPair(10**200, 10**200)


def test_f_undamped_limit():
    assert oscillator_f(0.0) == pytest.approx(1.0, abs=1e-12)


def test_f_at_crossover():
    assert oscillator_f(1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    # removable singularity: both sides approach the same limit
    assert oscillator_f(1.0 - 1e-6) == pytest.approx(2.0 / math.pi, rel=1e-5)
    assert oscillator_f(1.0 + 1e-6) == pytest.approx(2.0 / math.pi, rel=1e-5)


def test_f_overdamped_value():
    # (1/pi) ln[(2+sqrt(3))/(2-sqrt(3))]/sqrt(3), frozen from direct arithmetic
    assert oscillator_f(2.0) == pytest.approx(0.4840512950857103, rel=1e-14)


def test_f_continuity_bound_at_crossover():
    # |f(1-h) - f(1+h)| <= C h with C ~ 2|f'(1)| = (4/3)(2/pi)
    for h in [1e-6, 1e-5, 1e-4, 1e-3]:
        gap = abs(oscillator_f(1.0 - h) - oscillator_f(1.0 + h))
        assert gap <= 1.0 * h


def test_f_domain():
    for kappa in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            oscillator_f(kappa)


def test_alpha_kappa_mapping():
    assert kappa_from_alpha(1.0 / math.pi) == pytest.approx(1.0, rel=1e-15)
    assert alpha_from_kappa(1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)


# ------------------------------------------------------------------ moments


def test_moments_undamped():
    m = oscillator_moments(OscillatorParams(omega0=1.0, eta=0.0, omega_c=100.0))
    assert m.q2 == pytest.approx(0.5, rel=1e-14)
    assert m.p2 == pytest.approx(0.5, rel=1e-14)
    assert m.nu == pytest.approx(0.5, abs=1e-14)


def test_moments_at_kappa_one():
    # omega0=1, omega_c=100, kappa=1; frozen from direct arithmetic
    m = oscillator_moments(OscillatorParams(omega0=1.0, eta=2.0, omega_c=100.0))
    assert m.q2 == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert m.p2 == pytest.approx(2.613432509333921, rel=1e-13)
    assert m.nu == pytest.approx(0.9120753283556676, rel=1e-13)


def test_a_over_b_identity():
    # a/b = f(k) [(1-2k^2) f(k) + (4k/pi) ln(wc/w0)] for random kappa
    rng = np.random.default_rng(7)
    log_wc = math.log(100.0)
    for k in rng.uniform(0.05, 3.0, size=12):
        m = oscillator_moments(OscillatorParams(omega0=1.0, eta=2.0 * k, omega_c=100.0))
        f = oscillator_f(k)
        rhs = f * ((1.0 - 2.0 * k * k) * f + (4.0 * k / math.pi) * log_wc)
        assert 4.0 * m.q2 * m.p2 == pytest.approx(rhs, rel=1e-12)


def test_moments_heisenberg_bound():
    for k in np.linspace(0.0, 4.0, 17):
        m = oscillator_moments(OscillatorParams(omega0=1.0, eta=2.0 * k, omega_c=100.0))
        assert m.nu >= 0.5 - 1e-12


def test_moments_regime_errors():
    with pytest.raises(RegimeError):
        oscillator_moments(OscillatorParams(omega0=1.0, eta=1.0, omega_c=0.5))
    # omega_c / omega0 underflows to 0: still the regime error, not a log of 0
    with pytest.raises(RegimeError, match="need omega_c > omega0"):
        oscillator_moments(OscillatorParams(omega0=1e300, eta=1.0, omega_c=1e-300))
    # far outside the validity range <p^2> turns negative
    with pytest.raises(RegimeError):
        oscillator_moments(OscillatorParams(omega0=1.0, eta=120.0, omega_c=100.0))


def test_moments_below_the_heisenberg_bound_are_a_regime_error():
    # near omega_c = omega0 the large-cutoff formula puts nu below 1/2 while
    # <p^2> is still positive (eta = 2 there gives <p^2> <= 0): the same
    # breakdown, so the same error
    with pytest.raises(RegimeError, match=r"^nu = 0\.35.* < 1/2: the large-cutoff formula"):
        oscillator_moments(OscillatorParams(omega0=1.0, eta=1.0, omega_c=1.5))
    with pytest.raises(RegimeError, match=r"^<p\^2> = .* <= 0: the large-cutoff formula"):
        oscillator_moments(OscillatorParams(omega0=1.0, eta=2.0, omega_c=1.5))
    # a pair built directly is a state that breaks the bound
    with pytest.raises(DomainError, match="Heisenberg bound"):
        MomentPair(q2=0.5, p2=0.25)


# ------------------------------------------------------------------ entropy


def test_expansion_regime_error():
    m = MomentPair(q2=0.5, p2=0.5)  # nu = 1/2, eps = 2
    with pytest.raises(RegimeError):
        oscillator_entropy_expansion(m)
    near = MomentPair(q2=1.0, p2=1.0 / 0.999**2)  # eps = 0.999... boundary
    assert oscillator_entropy_expansion(near) > 0.0


@pytest.mark.parametrize("e", [1.0, 1.5, math.nan])
def test_expansion_core_is_nan_past_its_regime(e):
    # the one test of eps < 1: the core gives NaN, which a sweep prints and
    # oscillator_entropy_expansion refuses
    assert math.isnan(gaussian._expansion(e))


def test_expansion_leading_asymptotics():
    # S -> ln(nu) + 1 as eps -> 0; checked at eps = 1e-4
    nu = 1e4
    m = MomentPair(q2=nu, p2=nu)
    s = oscillator_entropy_expansion(m)
    assert abs(s - (math.log(nu) + 1.0)) < 1e-3


def test_expansion_vs_exact_at_nu_ten():
    m = MomentPair(q2=10.0, p2=10.0)
    s_exp = oscillator_entropy_expansion(m)
    s_exact = gaussian_entropy(10.0)
    assert abs(s_exp - s_exact) / s_exact < 0.02


def test_oscillator_entropy_methods():
    p0 = OscillatorParams(omega0=1.0, eta=0.0, omega_c=100.0)
    assert oscillator_entropy(p0) == pytest.approx(0.0, abs=1e-12)
    p2 = OscillatorParams(omega0=1.0, eta=4.0, omega_c=100.0)  # kappa = 2
    # frozen: both routes computed once and pinned; the expansion is far
    # outside its small-eps regime here (nu barely above 1)
    assert oscillator_entropy(p2) == pytest.approx(0.9597334071121655, rel=1e-10)
    m2 = oscillator_moments(p2)
    assert oscillator_entropy_expansion(m2) == pytest.approx(0.618517647255258, rel=1e-10)


def test_oscillator_entropy_monotone_in_kappa():
    entropies = [
        oscillator_entropy(OscillatorParams(omega0=1.0, eta=2.0 * k, omega_c=100.0))
        for k in np.linspace(0.01, 3.0, 60)
    ]
    assert all(a < b for a, b in zip(entropies, entropies[1:]))


# ------------------------------------------------------------------ kernel


def test_kernel_from_moments():
    m = oscillator_moments(OscillatorParams(omega0=1.0, eta=1.0, omega_c=100.0))
    k = kernel_from_moments(m)
    assert k.a == pytest.approx(m.p2 / 2.0, rel=1e-15)
    assert k.b == pytest.approx(1.0 / (8.0 * m.q2), rel=1e-15)
    assert k.a_over_b == pytest.approx(4.0 * m.q2 * m.p2, rel=1e-13)


def test_kernel_validation():
    with pytest.raises(DomainError):
        GaussianKernel(a=1.0, b=2.0)
    with pytest.raises(DomainError):
        GaussianKernel(a=1.0, b=-0.1)
    with pytest.raises(DomainError, match="b = 0"):
        GaussianKernel(a=1.0, b=0.0).a_over_b
