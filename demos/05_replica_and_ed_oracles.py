"""Brute-force oracles: replica traces, eigenvalue ladders, and few-mode ED.

Tr rho^n of the Gaussian oscillator kernel is computed exactly from cyclic
determinants and compared with the replica closed form; resumming the
geometric eigenvalue ladder reproduces the entropy.  A two-mode
spin-boson exact diagonalisation shows the qualitative trend the scaling
formulas predict: coupling to the bath degrades <sigma_x> and builds
entanglement entropy.
"""

import numpy as np

from dissipent import (
    DiscreteBath,
    MomentPair,
    ed_fock_convergence,
    gaussian_entropy,
    kernel_eigenvalue_entropy,
    kernel_from_moments,
    oscillator_entropy_expansion,
    spin_boson_ed,
    trace_power,
)

m = MomentPair(q2=5.0, p2=5.0)  # nu = 5, a/b = 100
k = kernel_from_moments(m)
print("replica traces of the (a, b) kernel at a/b = 100:")
print(f"{'n':>4} {'direct determinant':>20} {'closed form':>14}")
for n in [1, 2, 4, 8, 16]:
    tp = trace_power(k, n)
    print(f"{n:4d} {tp.direct:20.10e} {tp.closed_form:14.6e}")

s_series, s_closed = kernel_eigenvalue_entropy(k)
print("\nentropy three ways:")
print(f"  geometric series   : {s_series:.8f}")
print(f"  resummed ladder    : {s_closed:.8f}")
print(f"  moment expansion   : {oscillator_entropy_expansion(m):.8f}")
print(f"  exact Gaussian S(5): {gaussian_entropy(5.0):.8f}")

print("\ntwo-mode exact diagonalisation, coupling scale sweep (fock cut 8):")
print(f"{'scale':>6} {'|<sigma_x>|':>12} {'<sigma_z>':>10} {'S':>9}")
for g in [0.0, 0.5, 1.0, 1.5, 2.0]:
    bath = DiscreteBath(omegas=np.array([0.6, 1.4]), couplings=g * np.array([0.3, 0.5]))
    st = spin_boson_ed(1.0, bath, fock_cut=8)
    print(f"{g:6g} {st.sx:12.6f} {st.sz:10.1e} {st.entropy:9.6f}")

bath = DiscreteBath(omegas=np.array([0.6, 1.4]), couplings=np.array([0.3, 0.5]))
print(f"\nfock-truncation check |sx(8) - sx(7)| = {ed_fock_convergence(1.0, bath, 8):.2e}")
