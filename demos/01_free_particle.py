"""Dissipative free particle: reduced-kernel width and entropy.

The reduced density matrix of a free particle coupled to an Ohmic bath is a
pure Gaussian in the coordinate difference, exp(-a (x-x')^2)/L, with a
width coefficient that grows with friction.  The entropy is defined
relative to the box regulator L and shows no non-analyticity in the
friction.  An explicit eigenvalue sum on a ring of circumference L checks
the closed form.
"""

import math

from dissipent import (
    FreeParticleParams,
    free_particle_entropy,
    free_particle_kernel_width,
    ring_kernel_entropy,
    ring_kernel_eigenvalues,
)

print("kernel width a(eta) at omega_c = 100:")
for eta in [0.01, 0.1, 1.0, 10.0]:
    p = FreeParticleParams(eta=eta, omega_c=100.0, length=100.0)
    print(f"  eta = {eta:5g}:  a = {free_particle_kernel_width(p):.6f}")

print("\nentropy against the ring eigenvalue oracle (L = 100):")
print(f"{'eta':>6} {'a L^2':>12} {'S closed':>10} {'S ring':>10} {'rel dev':>9}")
for eta in [0.5, 1.0, 2.0, 5.0]:
    p = FreeParticleParams(eta=eta, omega_c=100.0, length=100.0)
    res = free_particle_entropy(p)
    a = free_particle_kernel_width(p)
    s_ring = ring_kernel_entropy(a, p.length)
    dev = abs(s_ring - res.entropy) / res.entropy
    print(f"{eta:6g} {res.a_l2:12.2f} {res.entropy:10.5f} {s_ring:10.5f} {dev:9.1e}")

lam = ring_kernel_eigenvalues(1.0, 100.0)
print(f"\nring eigenvalues: trace = {math.fsum(lam):.12f} (should be 1)")
print(f"largest three: {sorted(lam, reverse=True)[:3]}")

print("\ndoubling the box adds ln 2 to the entropy (leading order):")
s1 = ring_kernel_entropy(1.0, 100.0)
s2 = ring_kernel_entropy(1.0, 200.0)
print(f"  S(2L) - S(L) = {s2 - s1:.6f}   ln 2 = {math.log(2):.6f}")

print("\nentropy is smooth in the friction everywhere: d = 1, 2, 3 scale linearly")
for d in (1, 2, 3):
    p = FreeParticleParams(eta=1.0, omega_c=100.0, length=100.0, dim=d)
    print(f"  d = {d}: S = {free_particle_entropy(p).entropy:.6f}")
