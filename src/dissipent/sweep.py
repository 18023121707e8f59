"""Deterministic parameter sweeps, kink detection and figure-data emission.

A sweep evaluates one model over a uniform coupling grid and returns a
table whose header echoes the fully resolved configuration.  All numbers
are printed with 12 significant digits so that repeated runs are
byte-identical; CSV and JSON emissions share the same formatter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bath import BathSpec
from .errors import ConfigError, RegimeError
from .gaussian import (
    FreeParticleParams,
    OscillatorParams,
    kappa_from_alpha,
    oscillator_entropy_expansion,
    oscillator_moments,
    free_particle_entropy,
    free_particle_kernel_width,
    gaussian_entropy,
)
from .oracles import (
    discrete_bath_moments,
    ring_kernel_entropy,
    ring_kernel_eigenvalues,
)
from .spinboson import (
    SpinBosonPoint,
    _classify,
    _max_rule_sigma_x,
    delta_ren,
    spin_entropy,
    subohmic_regime,
)

__all__ = [
    "SweepConfig",
    "SweepTable",
    "KinkReport",
    "RegimeMap",
    "run_sweep",
    "detect_kink",
    "regime_map",
    "oracle_run",
    "preset_config",
    "preset_kind",
    "preset_names",
    "preset_regime_map",
    "format_value",
    "table_to_csv",
    "table_to_json",
    "regime_map_to_csv",
]

MODELS = ("free-particle", "oscillator", "spin-boson")

# couplings at which closed forms have (removable or genuine) singular
# points; grid values landing exactly there are nudged by half a spacing
BRANCH_ALPHAS = {
    "oscillator": (1.0 / math.pi,),
    "spin-boson": (0.5, 1.0),
    "free-particle": (),
}

_DEFAULT_OUTPUTS = {
    "free-particle": ("eta", "a", "a_l2", "S", "dS_dalpha", "d2S_dalpha2"),
    "oscillator": (
        "kappa",
        "q2",
        "p2",
        "nu",
        "S",
        "S_expansion",
        "dS_dalpha",
        "d2S_dalpha2",
    ),
    "spin-boson": (
        "delta_ren",
        "sigma_x",
        "S",
        "dS_dalpha",
        "d2S_dalpha2",
        "regime",
    ),
}


@dataclass(frozen=True)
class SweepConfig:
    """Sweep description; `fixed` holds the model parameters.

    For the free particle the grid variable is the friction eta itself
    (the model has no reference frequency to form a dimensionless alpha).
    """

    model: str
    alpha_min: float
    alpha_max: float
    n_points: int
    fixed: dict = field(default_factory=dict)
    outputs: tuple = ()
    fmt: str = "csv"
    include_branch_points: bool = False

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if not self.alpha_min < self.alpha_max:
            raise ConfigError(
                f"alpha_min must be < alpha_max, got {self.alpha_min} >= {self.alpha_max}"
            )
        if self.n_points < 3:
            raise ConfigError(f"n_points must be >= 3, got {self.n_points}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        defaults = _fixed_defaults(self.model)
        for key in self.fixed:
            if key not in defaults:
                raise ConfigError(f"unknown parameter {key!r} for model {self.model}")

    def resolved_fixed(self) -> dict:
        out = _fixed_defaults(self.model)
        out.update(self.fixed)
        return out

    def grid(self) -> np.ndarray:
        g = np.linspace(self.alpha_min, self.alpha_max, self.n_points)
        if not self.include_branch_points:
            h = (self.alpha_max - self.alpha_min) / (self.n_points - 1)
            for b in BRANCH_ALPHAS[self.model]:
                hit = np.isclose(g, b, rtol=0.0, atol=1e-12)
                g = np.where(hit, g + 0.5 * h, g)
        return g


def _fixed_defaults(model: str) -> dict:
    if model == "free-particle":
        return {"omega_c": 100.0, "length": 100.0, "dim": 1}
    if model == "oscillator":
        return {"omega0": 1.0, "omega_c": 100.0}
    return {"delta0": 1.0, "lambda0": 100.0, "s": 1.0, "temperature": 0.0}


@dataclass
class SweepTable:
    config: dict
    column_names: list
    columns: dict
    grid_spacing: float
    uniform: bool


@dataclass(frozen=True)
class KinkReport:
    location: float
    strength: float
    order: int
    grid_spacing: float


def _central_derivatives(alpha: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = alpha[1] - alpha[0]
    d1 = np.full_like(y, np.nan)
    d2 = np.full_like(y, np.nan)
    d1[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d2[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
    return d1, d2


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the model over the grid; one row per grid point.

    Rows are independent, evaluated in grid order; output ordering is by
    grid index.  Formula-validity failures at single points (RegimeError)
    produce NaN entries rather than aborting the sweep.
    """
    cfg.validate()
    fixed = cfg.resolved_fixed()
    grid = cfg.grid()
    outputs = tuple(cfg.outputs) or _DEFAULT_OUTPUTS[cfg.model]

    cols: dict[str, list] = {"alpha": list(grid)}
    if cfg.model == "oscillator":
        _sweep_oscillator(grid, fixed, cols)
    elif cfg.model == "spin-boson":
        _sweep_spin_boson(grid, fixed, cols)
    else:
        _sweep_free_particle(grid, fixed, cols)

    columns = {k: np.asarray(v) for k, v in cols.items()}
    if "S" in columns and {"dS_dalpha", "d2S_dalpha2"} & set(outputs):
        d1, d2 = _central_derivatives(grid, columns["S"].astype(float))
        columns["dS_dalpha"] = d1
        columns["d2S_dalpha2"] = d2

    names = ["alpha"] + [c for c in outputs if c in columns]
    resolved = {
        "model": cfg.model,
        "alpha_min": cfg.alpha_min,
        "alpha_max": cfg.alpha_max,
        "n_points": cfg.n_points,
        "include_branch_points": cfg.include_branch_points,
        **{k: fixed[k] for k in sorted(fixed)},
    }
    h = grid[1] - grid[0]
    uniform = bool(np.allclose(np.diff(grid), h, rtol=0.0, atol=1e-9 * abs(h)))
    return SweepTable(
        config=resolved,
        column_names=names,
        columns={k: columns[k] for k in names},
        grid_spacing=float(h),
        uniform=uniform,
    )


def _sweep_oscillator(grid, fixed, cols):
    w0, wc = fixed["omega0"], fixed["omega_c"]
    for key in ("kappa", "q2", "p2", "nu", "S", "S_expansion"):
        cols[key] = []
    for a in grid:
        k = kappa_from_alpha(a)
        p = OscillatorParams(omega0=w0, eta=2.0 * k * w0, omega_c=wc)
        m = oscillator_moments(p)
        cols["kappa"].append(k)
        cols["q2"].append(m.q2)
        cols["p2"].append(m.p2)
        cols["nu"].append(m.nu)
        cols["S"].append(gaussian_entropy(m.nu))
        try:
            cols["S_expansion"].append(oscillator_entropy_expansion(m))
        except RegimeError:
            cols["S_expansion"].append(np.nan)


def _sweep_spin_boson(grid, fixed, cols):
    d0, l0, s, temp = fixed["delta0"], fixed["lambda0"], fixed["s"], fixed["temperature"]
    for key in ("delta_ren", "sigma_x", "S", "regime"):
        cols[key] = []
    for a in grid:
        point = SpinBosonPoint(delta0=d0, bath=BathSpec(s=s, alpha=a, cutoff=l0), temperature=temp)
        # one solve per row: sigma_x (at T = 0) and the regime reuse it
        dr = delta_ren(point)
        sx = _max_rule_sigma_x(point, dr)
        cols["delta_ren"].append(np.nan if dr is None else dr)
        cols["sigma_x"].append(sx)
        cols["S"].append(spin_entropy(sx))
        if s < 1:
            cols["regime"].append(_classify(point, lambda: dr).value)
        else:
            cols["regime"].append("")


def _sweep_free_particle(grid, fixed, cols):
    # for this model the grid variable is the friction itself
    for key in ("eta", "a", "a_l2", "S"):
        cols[key] = []
    for eta in grid:
        p = FreeParticleParams(
            eta=eta, omega_c=fixed["omega_c"], length=fixed["length"], dim=int(fixed["dim"])
        )
        res = free_particle_entropy(p)
        cols["eta"].append(eta)
        cols["a"].append(free_particle_kernel_width(p))
        cols["a_l2"].append(res.a_l2)
        cols["S"].append(res.entropy)


def detect_kink(table: SweepTable, column: str, threshold: float = 5.0) -> KinkReport | None:
    """Locate a derivative discontinuity in a sweep column.

    Computes second finite differences D2 on the uniform grid and flags the
    cell where |D2| exceeds threshold times the median |D2| elsewhere
    (cells within 2 of the candidate are excluded from the background).  A
    genuine kink is an isolated spike, so the candidate must also exceed
    threshold times its own neighbourhood at distance 2-3 cells; smooth but
    strongly curved stretches (where D2 varies slowly cell to cell) do not
    qualify.  A floor of 1e-12 times the column scale guards against a zero
    median on exactly-flat stretches and against roundoff on linear data.
    Returns None when no cell qualifies.
    """
    if not table.uniform:
        raise ConfigError("detect_kink requires a uniformly spaced grid")
    if column not in table.columns:
        raise ConfigError(f"unknown column {column!r}")
    y = np.asarray(table.columns[column], dtype=float)
    if len(y) < 50:
        raise ConfigError(f"detect_kink needs >= 50 grid points, got {len(y)}")
    if np.any(~np.isfinite(y)):
        raise ConfigError(f"column {column!r} contains non-finite entries")
    d2 = np.abs(y[2:] - 2.0 * y[1:-1] + y[:-2])
    i = int(np.argmax(d2))
    scale = float(np.max(np.abs(y))) or 1.0
    floor = 1e-12 * scale
    others = np.delete(d2, slice(max(0, i - 2), i + 3))
    background = max(float(np.median(others)), floor)
    ring = [j for j in (i - 3, i - 2, i + 2, i + 3) if 0 <= j < len(d2)]
    local = max(float(np.median(d2[ring])), floor)
    if d2[i] <= threshold * background or d2[i] <= threshold * local:
        return None
    alpha = np.asarray(table.columns["alpha"], dtype=float)
    return KinkReport(
        location=float(alpha[1:-1][i]),
        strength=float(d2[i] / background),
        order=2,
        grid_spacing=table.grid_spacing,
    )


# ---------------------------------------------------------------------------
# sub-Ohmic regime map
# ---------------------------------------------------------------------------


@dataclass
class RegimeMap:
    s: float
    ratios: np.ndarray  # Delta0 / cutoff grid
    alphas: np.ndarray
    labels: np.ndarray  # shape (len(alphas), len(ratios)), regime names
    transition_line: np.ndarray  # alpha = s * ratio per ratio column


def regime_map(s: float, ratios, alphas) -> RegimeMap:
    """Classify every (Delta0/cutoff, alpha) cell of a sub-Ohmic model and
    report the one-loop transition line alpha = s * Delta0/cutoff."""
    if not s < 1:
        raise RegimeError(f"regime map requires s < 1, got s = {s}")
    ratios = np.asarray(ratios, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    labels = np.empty((len(alphas), len(ratios)), dtype=object)
    for j, r in enumerate(ratios):
        for i, a in enumerate(alphas):
            point = SpinBosonPoint(delta0=r, bath=BathSpec(s=s, alpha=a, cutoff=1.0))
            labels[i, j] = subohmic_regime(point).value
    return RegimeMap(
        s=s, ratios=ratios, alphas=alphas, labels=labels, transition_line=s * ratios
    )


# ---------------------------------------------------------------------------
# oracle comparison runs
# ---------------------------------------------------------------------------


def oracle_run(model: str, params: dict, knobs: dict | None = None) -> list[dict]:
    """Analytic value vs brute-force oracle, one row per observable, with
    absolute and relative deviation columns."""
    knobs = dict(knobs or {})
    rows = []

    def row(name, analytic, oracle):
        rows.append(
            {
                "observable": name,
                "analytic": analytic,
                "oracle": oracle,
                "abs_dev": abs(analytic - oracle),
                "rel_dev": abs(analytic - oracle) / abs(analytic) if analytic else 0.0,
            }
        )

    if model == "oscillator":
        p = OscillatorParams(
            omega0=params.get("omega0", 1.0),
            eta=params["eta"],
            omega_c=params.get("omega_c", 100.0),
        )
        m = oscillator_moments(p)
        cov = discrete_bath_moments(
            p,
            n_modes=int(knobs.get("n_modes", 400)),
            scheme=knobs.get("scheme", "logarithmic"),
        )
        row("q2", m.q2, cov.q2)
        row("p2", m.p2, cov.p2)
        row("nu", m.nu, cov.nu)
    elif model == "free-particle":
        p = FreeParticleParams(
            eta=params["eta"],
            omega_c=params.get("omega_c", 100.0),
            length=params.get("length", 100.0),
            dim=1,
        )
        res = free_particle_entropy(p)
        a = free_particle_kernel_width(p)
        row("S", res.entropy, ring_kernel_entropy(a, p.length))
        row("trace", 1.0, float(np.sum(ring_kernel_eigenvalues(a, p.length))))
    elif model == "spin-boson":
        sx = params["sigma_x"]
        lam = np.array([(1.0 + sx) / 2.0, (1.0 - sx) / 2.0])
        lam = lam[lam > 0]
        row("S", spin_entropy(sx), float(-np.sum(lam * np.log(lam))))
    else:
        raise ConfigError(f"unknown oracle model {model!r}")
    return rows


# ---------------------------------------------------------------------------
# presets and serialisation
# ---------------------------------------------------------------------------

# figure-reproduction presets ship as JSON config files next to the code;
# sweep grids start half a spacing off zero so no point lands on a branch value
def _preset_doc(name: str) -> dict:
    from importlib import resources

    path = resources.files("dissipent").joinpath(f"presets/{name}.json")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def preset_names() -> tuple:
    from importlib import resources

    folder = resources.files("dissipent").joinpath("presets")
    return tuple(sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json")))


def preset_kind(name: str) -> str:
    return _preset_doc(name)["kind"]


def preset_config(name: str) -> SweepConfig:
    doc = _preset_doc(name)
    if doc["kind"] != "sweep":
        raise ConfigError(f"preset {name!r} is not a sweep preset")
    cfg = SweepConfig(
        model=doc["model"],
        alpha_min=doc["alpha_min"],
        alpha_max=doc["alpha_max"],
        n_points=doc["n_points"],
        fixed=dict(doc.get("fixed", {})),
        outputs=tuple(doc.get("outputs", ())),
        fmt=doc.get("format", "csv"),
        include_branch_points=bool(doc.get("include_branch_points", False)),
    )
    cfg.validate()
    return cfg


def preset_regime_map(name: str) -> RegimeMap:
    doc = _preset_doc(name)
    if doc["kind"] != "regime-map":
        raise ConfigError(f"preset {name!r} is not a regime-map preset")
    ratios = np.geomspace(doc["ratio_min"], doc["ratio_max"], doc["ratio_points"])
    alphas = np.geomspace(doc["alpha_min"], doc["alpha_max"], doc["alpha_points"])
    return regime_map(doc["s"], ratios, alphas)


def format_value(x) -> str:
    """Canonical 12-significant-digit representation used by both CSV and
    JSON output; strings pass through unchanged."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def table_to_csv(table: SweepTable) -> str:
    lines = ["# dissipent sweep"]
    for key in sorted(table.config):
        lines.append(f"# {key} = {format_value(table.config[key])}")
    lines.append(",".join(table.column_names))
    n = len(table.columns["alpha"])
    for i in range(n):
        lines.append(
            ",".join(format_value(table.columns[c][i]) for c in table.column_names)
        )
    return "\n".join(lines) + "\n"


def table_to_json(table: SweepTable) -> str:
    rows = []
    n = len(table.columns["alpha"])
    for i in range(n):
        rows.append([format_value(table.columns[c][i]) for c in table.column_names])
    doc = {
        "config": {k: format_value(v) for k, v in sorted(table.config.items())},
        "columns": table.column_names,
        "rows": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def regime_map_to_csv(rmap: RegimeMap) -> str:
    lines = ["# dissipent regime-map", f"# s = {format_value(rmap.s)}"]
    lines.append("# transition line: alpha = s * delta0_over_lambda0")
    header = ["alpha\\ratio"] + [format_value(r) for r in rmap.ratios]
    lines.append(",".join(header))
    for i, a in enumerate(rmap.alphas):
        lines.append(
            ",".join([format_value(a)] + [rmap.labels[i, j] for j in range(len(rmap.ratios))])
        )
    return "\n".join(lines) + "\n"
