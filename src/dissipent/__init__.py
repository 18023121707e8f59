"""Ground-state entanglement entropy and coherence observables of
dissipative quantum models: the free Brownian particle, the damped harmonic
oscillator, and the spin-boson two-level system with Ohmic, sub-Ohmic and
super-Ohmic baths.  Closed forms throughout are backed by independent
brute-force oracles (bath discretisation, ring eigenvalue sums, replica
determinants, truncated-Fock exact diagonalisation)."""

import importlib as _importlib

__version__ = "0.1.0"
# each module's public names are its __all__, and a module loads on first
# access to one of its names (PEP 562): `import dissipent` loads none.  They
# are in dependency order, so a match loads the fewest modules
_MODULES = ("errors", "bath", "gaussian", "spinboson", "oracles", "sweep")


def __getattr__(name):
    if name in _MODULES or name == "cli":
        return _importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for m in _MODULES for n in __getattr__(m).__all__]
    if not name.startswith("_"):
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __getattr__("__all__")
