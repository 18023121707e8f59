"""Seeded job lists for the three benchmark workloads.

A job is one argv list for the `dissipent` CLI; a pass runs a workload's
jobs once, in order.  The seed moves every sweep grid by a seeded fraction
of one grid spacing and draws the oracle frictions, so different seeds
exercise the same code paths on different numbers.  Seed 0 gives no shift:
its sweep grids are exactly those of the shipped presets and of the
regime-map defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("coherent", "localized", "oracles")

# (alpha_min, alpha_max, n_points) of the grids the workloads are built from.
# The localized sweeps span the fig1-spinboson range at fewer points than the
# preset's 1200, so that a pass takes seconds and a run holds several passes.
FIG1_SPINBOSON = (0.0005, 1.1995, 1200)
LOCALIZED_OHMIC = (0.0005, 1.1995, 400)
LOCALIZED_SUBOHMIC = (0.0005, 1.1995, 240)
FIG1_OSCILLATOR = (0.0005, 0.5995, 600)
OHMIC_WEAK = (0.0005, 0.4995, 1200)
FREE_PARTICLE = (0.01, 50.0, 2000)
# regime-map defaults of the CLI, on a 60 x 60 grid
MAP_RATIO = (1e-3, 0.9, 60)
MAP_ALPHA = (1e-4, 2.0, 60)
ORACLE_ETA = (0.5, 10.0)


@dataclass
class Job:
    argv: list
    kind: str  # "sweep", "regime-map" or "oracle"
    params: dict  # what the checker needs to recompute the output
    points: int = 0  # grid points (sweep rows or map cells)
    modes: int = 0  # bath modes of an oracle job


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list = field(default_factory=list)

    @property
    def points(self) -> int:
        return sum(j.points for j in self.jobs)

    @property
    def spin_boson_points(self) -> int:
        return sum(
            j.points
            for j in self.jobs
            if j.kind == "regime-map" or j.params.get("model") == "spin-boson"
        )

    @property
    def modes(self) -> int:
        return sum(j.modes for j in self.jobs)


def _shifted(lo: float, hi: float, n: int, frac: float) -> tuple[float, float]:
    h = (hi - lo) / (n - 1)
    return lo + frac * h, hi + frac * h


def _geo_shifted(lo: float, hi: float, n: int, frac: float) -> tuple[float, float]:
    # shift down in log space: ratios must stay below 1 (delta0 < cutoff)
    q = (hi / lo) ** (-frac / (n - 1))
    return lo * q, hi * q


def _sweep(model: str, grid: tuple, frac: float, fmt: str, fixed: dict) -> Job:
    lo, hi = _shifted(*grid, frac)
    n = grid[2]
    argv = ["sweep", "--model", model, "--alpha-min", repr(lo), "--alpha-max", repr(hi),
            "--alpha-points", str(n), "--format", fmt]
    for key, val in fixed.items():
        argv += [f"--{key.replace('_', '-')}", repr(val)]
    params = {"model": model, "alpha_min": lo, "alpha_max": hi, "n_points": n,
              "fmt": fmt, "fixed": dict(fixed)}
    return Job(argv=argv, kind="sweep", params=params, points=n)


def _regime_map(s: float, frac: float) -> Job:
    rlo, rhi = _geo_shifted(*MAP_RATIO, frac)
    alo, ahi = _geo_shifted(*MAP_ALPHA, frac)
    nr, na = MAP_RATIO[2], MAP_ALPHA[2]
    argv = ["regime-map", "--s", repr(s), "--ratio-min", repr(rlo), "--ratio-max", repr(rhi),
            "--ratio-points", str(nr), "--alpha-min", repr(alo), "--alpha-max", repr(ahi),
            "--alpha-points", str(na)]
    params = {"s": s, "ratio": (rlo, rhi, nr), "alpha": (alo, ahi, na)}
    return Job(argv=argv, kind="regime-map", params=params, points=nr * na)


def _oracle(model: str, eta: float, n_modes: int = 400, scheme: str = "logarithmic") -> Job:
    argv = ["oracle", "--model", model, "--eta", repr(eta)]
    params = {"model": model, "eta": eta}
    modes = 0
    if model == "oscillator":
        argv += ["--n-modes", str(n_modes), "--scheme", scheme]
        params.update(n_modes=n_modes, scheme=scheme)
        modes = n_modes
    return Job(argv=argv, kind="oracle", params=params, points=1, modes=modes)


def make(name: str, seed: int) -> Workload:
    """The job list of workload `name` for `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    frac = rng.random() if seed else 0.0
    spin = {"delta0": 1.0, "lambda0": 100.0}
    # the closed-form Gaussian sweeps: the gaussian layer and JSON output
    gaussian = [
        _sweep("oscillator", FIG1_OSCILLATOR, frac, "csv", {"omega0": 1.0, "omega_c": 100.0}),
        _sweep("free-particle", FREE_PARTICLE, frac, "json", {"omega_c": 100.0, "length": 100.0}),
    ]
    wl = Workload(name=name, seed=seed)
    if name == "coherent":
        wl.jobs = [
            _sweep("spin-boson", FIG1_SPINBOSON, frac, "json", {**spin, "s": 1.5}),
            _sweep("spin-boson", OHMIC_WEAK, frac, "csv", {**spin, "s": 1.0}),
            *gaussian,
        ]
    elif name == "localized":
        wl.jobs = [
            _sweep("spin-boson", LOCALIZED_OHMIC, frac, "csv", {**spin, "s": 1.0}),
            _sweep("spin-boson", LOCALIZED_SUBOHMIC, frac, "csv",
                   {"delta0": 20.0, "lambda0": 100.0, "s": 0.5}),
            _regime_map(0.5, frac),
        ]
    else:
        etas = [rng.uniform(*ORACLE_ETA) for _ in range(3)]
        wl.jobs = [
            _oracle("oscillator", etas[0], 2000, "linear"),
            _oracle("oscillator", etas[1], 400, "logarithmic"),
            _oracle("free-particle", etas[2]),
            *gaussian,
        ]
    return wl
