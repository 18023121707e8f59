"""Ohmic spin-boson model: renormalised tunneling, energy flow, coherence.

The self-consistent tunneling amplitude follows the power law
Delta_ren = Delta0 (Delta0/cutoff)^(alpha/(1-alpha)) below the localization
transition at alpha = 1.  The ground-state energy from the closed-form
branches coincides with the free-energy flow quadrature; the coherence
observable sigma_x = max(d Delta_ren/d Delta0, 2 Delta0/cutoff) switches
branch at alpha = 1/2, where the entropy's derivative jumps.
"""

import math

from dissipent import (
    BathSpec,
    SpinBosonPoint,
    delta_ren,
    detect_kink,
    flow_free_energy,
    ohmic_ground_energy,
    sigma_x,
    spin_entropy,
)
from dissipent.sweep import preset_config, run_sweep


def point(alpha, ratio=0.01, cutoff=100.0):
    return SpinBosonPoint(delta0=ratio * cutoff, bath=BathSpec(s=1.0, alpha=alpha, cutoff=cutoff))


print("renormalised tunneling (Delta0/cutoff = 0.01):")
print(f"{'alpha':>6} {'Delta_ren/Delta0':>17} {'power law':>12}")
for a in [0.1, 0.3, 0.5, 0.7]:
    dr = delta_ren(point(a))
    print(f"{a:6g} {dr/1.0:17.3e} {0.01**(a/(1-a)):12.3e}")
print("  alpha = 1.2: Delta_ren =", delta_ren(point(1.2)), " (localized)")

print("\nground-state energy: closed-form branches vs flow quadrature:")
print(f"{'alpha':>6} {'E branches':>13} {'F quadrature':>13}")
for a in [0.25, 0.5, 0.75, 2.0]:
    pt = point(a, ratio=1e-3, cutoff=1000.0)
    print(f"{a:6g} {ohmic_ground_energy(pt):13.6e} {flow_free_energy(pt):13.6e}")

print("\ncoherence and entropy across the alpha = 1/2 crossover:")
print(f"{'alpha':>6} {'sigma_x':>9} {'S':>9}")
for a in [0.1, 0.3, 0.45, 0.5, 0.55, 0.8, 1.1]:
    sx = sigma_x(point(a))
    print(f"{a:6g} {sx:9.5f} {spin_entropy(sx):9.5f}")
print(f"  ln 2 = {math.log(2):.5f}: the entropy saturates right after 1/2")

table = run_sweep(preset_config("fig1-spinboson"))
report = detect_kink(table, "sigma_x")
print(
    f"\nkink detector on the coupling sweep: alpha* = {report.location:.4f} "
    f"(strength {report.strength:.0f}x background)"
)
