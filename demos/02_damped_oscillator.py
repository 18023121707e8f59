"""Damped harmonic oscillator: moments, entropy, and the damping crossover.

The position variance is f(kappa)/(2 omega0); f continues smoothly through
the underdamped/overdamped point kappa = 1 (the apparent branch change of
the closed form is a removable singularity).  The ground-state entanglement
entropy follows from the symplectic eigenvalue nu = sqrt(<q^2><p^2>); a
discretised system+bath diagonalisation provides the independent check.
"""

import numpy as np

from dissipent import (
    OscillatorParams,
    RegimeError,
    alpha_from_kappa,
    discrete_bath_moments,
    gaussian_entropy,
    oscillator_entropy_expansion,
    oscillator_f,
    oscillator_moments,
)

print("f(kappa) through the crossover (smooth, limit 2/pi at kappa = 1):")
for k in [0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]:
    print(f"  f({k:5g}) = {oscillator_f(k):.8f}")
print(f"  2/pi     = {2/np.pi:.8f}")

print("\nmoments vs the 400-mode discretised bath (omega_c/omega0 = 1e4):")
print(f"{'kappa':>6} {'<q^2>':>10} {'oracle':>10} {'<p^2>':>10} {'oracle':>10}")
for k in [0.2, 1.0, 5.0]:
    p = OscillatorParams(omega0=1.0, eta=2.0 * k, omega_c=1e4)
    m = oscillator_moments(p)
    cov = discrete_bath_moments(p, 400)
    print(f"{k:6g} {m.q2:10.5f} {cov.q2:10.5f} {m.p2:10.4f} {cov.p2:10.4f}")

print("\nentropy along the coupling axis (omega_c/omega0 = 100):")
print(f"{'alpha':>7} {'kappa':>7} {'nu':>8} {'S exact':>9} {'S expansion':>12}")
for k in [0.25, 0.5, 1.0, 1.5, 2.0, 2.5]:
    p = OscillatorParams(omega0=1.0, eta=2.0 * k, omega_c=100.0)
    m = oscillator_moments(p)
    s_exact = gaussian_entropy(m.nu)
    try:
        s_exp = f"{oscillator_entropy_expansion(m):12.5f}"
    except RegimeError:
        s_exp = "   (nu <= 1)"
    print(f"{alpha_from_kappa(k):7.4f} {k:7.3f} {m.nu:8.4f} {s_exact:9.5f} {s_exp}")

print(
    "\nS(alpha) rises monotonically through alpha = 1/pi "
    f"(= {1/np.pi:.5f}) with no derivative jump: the crossover of the pole"
)
print("structure (underdamped -> overdamped) leaves every moment analytic.")
