"""Ground-state entanglement entropy and coherence observables of
dissipative quantum models: the free Brownian particle, the damped harmonic
oscillator, and the spin-boson two-level system with Ohmic, sub-Ohmic and
super-Ohmic baths.  Closed forms throughout are backed by independent
brute-force oracles (bath discretisation, ring eigenvalue sums, replica
determinants, truncated-Fock exact diagonalisation)."""

# each submodule's public names are its __all__; errors has none
from .bath import *
from .errors import ConfigError, DomainError, NumericalError, RegimeError
from .gaussian import *
from .oracles import *
from .spinboson import *
from .sweep import *

__version__ = "0.1.0"
