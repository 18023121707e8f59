"""Ground-state entanglement entropy and coherence observables of
dissipative quantum models: the free Brownian particle, the damped harmonic
oscillator, and the spin-boson two-level system with Ohmic, sub-Ohmic and
super-Ohmic baths.  Closed forms throughout are backed by independent
brute-force oracles (bath discretisation, ring eigenvalue sums, replica
determinants, truncated-Fock exact diagonalisation)."""

from .bath import BathSpec, adiabatic_exponent, spectral_density
from .errors import ConfigError, DomainError, NumericalError, RegimeError
from .gaussian import (
    FreeParticleParams,
    FreeParticleResult,
    GaussianKernel,
    MomentPair,
    OscillatorParams,
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
from .oracles import (
    DiscreteBath,
    discrete_bath_moments,
    discretize_oscillator_bath,
    discretize_spin_bath,
    ed_fock_convergence,
    ed_reduced_density,
    kernel_eigenvalue_entropy,
    ring_kernel_entropy,
    ring_kernel_eigenvalues,
    spin_boson_ed,
    trace_power,
)
from .spinboson import (
    FlowState,
    ReducedSpinState,
    Regime,
    SpinBosonPoint,
    coherence_crossover_alpha,
    delocalized_log_derivative,
    delta_of_lambda,
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
from .sweep import (
    KinkReport,
    RegimeMap,
    SweepConfig,
    SweepTable,
    detect_kink,
    oracle_run,
    preset_config,
    preset_names,
    regime_map,
    run_sweep,
)

__version__ = "0.1.0"
