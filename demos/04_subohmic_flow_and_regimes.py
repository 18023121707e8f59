"""Sub-Ohmic baths: one-loop flow near the coherent state and the phase map.

Close to the continuous transition at alpha = s * Delta0/cutoff the
dimensionless coupling kt = alpha * L / Delta flows to zero as (L/cutoff)^s
on the delocalized side.  The accumulated sigma_x deficit diverges as
L^(s-1) for s < 1, so the delocalized phase is incoherent in the scaling
limit; coherent oscillations only survive where the tunneling amplitude is
of the order of the cutoff.
"""

import numpy as np

from dissipent import BathSpec, SpinBosonPoint, subohmic_regime, subohmic_rg_flow
from dissipent.sweep import regime_map, regime_map_to_csv

pt = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.005, cutoff=2.0))
print(f"one-loop flow, s = 0.5, kt0 = {pt.kappa_tilde0}:")
print(f"{'L/cutoff':>10} {'kt(L)/kt0':>11} {'(L/cutoff)^s':>13} {'sx deficit':>11}")
for frac in [1e-1, 1e-2, 1e-3, 1e-4]:
    st = subohmic_rg_flow(pt, frac * 2.0)
    print(f"{frac:10.0e} {st.kappa_tilde/pt.kappa_tilde0:11.6f} {frac**0.5:13.6f} {st.sx_accum:11.4f}")
print("the deficit grows as L^(s-1): no coherent oscillations survive L -> 0")

print("\nstationary point of the beta function (kt0 = s):")
pt_fix = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.25, cutoff=2.0))
for frac in [1e-1, 1e-3]:
    st = subohmic_rg_flow(pt_fix, frac * 2.0)
    print(f"  L/cutoff = {frac:g}: kt = {st.kappa_tilde}")

print("\nregime classification, s = 0.5:")
for ratio, alpha in [(0.8, 0.05), (1e-3, 1e-4), (1e-3, 0.1), (0.5, 0.3)]:
    reg = subohmic_regime(
        SpinBosonPoint(delta0=ratio, bath=BathSpec(s=0.5, alpha=alpha, cutoff=1.0))
    )
    print(f"  Delta0/cutoff = {ratio:6g}, alpha = {alpha:6g}: {reg.value}")

print("\ncoarse phase map (rows: alpha, columns: Delta0/cutoff):")
rmap = regime_map(0.5, np.geomspace(1e-3, 0.9, 7), np.geomspace(1e-4, 1.0, 7))
short = {"DelocalizedCoherent": "DC", "DelocalizedIncoherent": "DI", "Localized": "L "}
header = "  alpha\\ratio " + " ".join(f"{r:8.1e}" for r in rmap.ratios)
print(header)
for i, a in enumerate(rmap.alphas):
    row = " ".join(f"{short[rmap.labels[i][j]]:>8}" for j in range(len(rmap.ratios)))
    print(f"  {a:11.1e} {row}")
print("\n(the analytic transition line is alpha = s * Delta0/cutoff; CSV via")
print(" regime_map_to_csv or `dissipent preset subohmic-map`)")
assert regime_map_to_csv(rmap).startswith("# dissipent regime-map")
