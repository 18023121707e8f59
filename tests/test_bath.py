import math

import numpy as np
import pytest
from scipy.integrate import quad

from dissipent import BathSpec, DomainError, adiabatic_exponent


def test_bathspec_invariants():
    with pytest.raises(DomainError):
        BathSpec(s=0.0, alpha=0.1, cutoff=1.0)
    with pytest.raises(DomainError):
        BathSpec(s=1.0, alpha=-0.1, cutoff=1.0)
    with pytest.raises(DomainError):
        BathSpec(s=1.0, alpha=0.1, cutoff=0.0)
    with pytest.raises(TypeError):  # the cutoff is sharp; there is no other kind
        BathSpec(s=1.0, alpha=0.1, cutoff=1.0, cutoff_kind="drude")


def test_adiabatic_exponent_ohmic_closed_form():
    bath = BathSpec(s=1.0, alpha=0.5, cutoff=100.0)
    assert adiabatic_exponent(bath, 1.0) == pytest.approx(0.5 * math.log(100.0), rel=1e-14)


def test_adiabatic_exponent_empty_range():
    bath = BathSpec(s=0.7, alpha=2.0, cutoff=3.0)
    assert adiabatic_exponent(bath, 3.0) == 0.0


def test_adiabatic_exponent_superohmic_limit():
    # converges to alpha / (s - 1) as the lower limit goes to zero
    bath = BathSpec(s=2.0, alpha=3.0, cutoff=10.0)
    assert adiabatic_exponent(bath, 1e-12) == pytest.approx(3.0, rel=1e-10)


@pytest.mark.parametrize("s", [0.5, 0.8, 1.0, 1.5, 2.0])
def test_adiabatic_exponent_matches_quadrature(s):
    bath = BathSpec(s=s, alpha=0.37, cutoff=50.0)

    def spectral_density(w):  # J(w) = 2 alpha w^s cutoff^(1-s) below the cutoff
        return 2.0 * bath.alpha * w**s * bath.cutoff ** (1.0 - s)

    for lam in [0.05, 1.0, 17.0]:
        target, _ = quad(
            lambda w: 0.5 * spectral_density(w) / w**2,
            lam,
            bath.cutoff,
            epsabs=0.0,
            epsrel=1e-13,
            limit=400,
        )
        assert adiabatic_exponent(bath, lam) == pytest.approx(target, rel=1e-10)


def test_adiabatic_exponent_monotone_in_lower_limit():
    bath = BathSpec(s=0.8, alpha=0.4, cutoff=20.0)
    lams = np.geomspace(1e-6, 20.0, 40)
    vals = [adiabatic_exponent(bath, lam) for lam in lams]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_adiabatic_exponent_diverges_for_s_leq_one(s):
    bath = BathSpec(s=s, alpha=0.2, cutoff=1.0)
    assert adiabatic_exponent(bath, 1e-200) > 50.0


def test_adiabatic_exponent_domain():
    bath = BathSpec(s=1.0, alpha=0.2, cutoff=1.0)
    with pytest.raises(DomainError):
        adiabatic_exponent(bath, 0.0)
    with pytest.raises(DomainError):
        adiabatic_exponent(bath, 2.0)
