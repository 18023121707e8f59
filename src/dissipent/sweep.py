"""Deterministic parameter sweeps, kink detection and figure-data emission.

A sweep evaluates one model over a uniform coupling grid and returns a
table whose header echoes the fully resolved configuration.  All numbers
are printed with 12 significant digits so that repeated runs are
byte-identical; CSV and JSON emissions share the same formatter.
"""

from __future__ import annotations

import json
import math
import numbers
import statistics
from dataclasses import dataclass, field

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
    "preset_doc",
    "preset_kind",
    "preset_names",
    "preset_regime_map",
    "format_value",
    "table_to_csv",
    "table_to_json",
    "regime_map_to_csv",
    "oracle_to_csv",
    "read_doc",
    "sweep_config",
    "regime_map_from_doc",
]

# model -> parameter -> default: the one list of each model's parameters.
# The CLI derives its flags from it (--omega-c for omega_c, typed like the
# default), and sweeps and oracle runs take their defaults from it.
MODEL_PARAMS = {
    "free-particle": {"omega_c": 100.0, "length": 100.0, "dim": 1},
    "oscillator": {"omega0": 1.0, "omega_c": 100.0},
    "spin-boson": {"delta0": 1.0, "lambda0": 100.0, "s": 1.0},
}
MODELS = tuple(MODEL_PARAMS)

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
    """Sweep description, validated on construction; `fixed` holds model
    parameters (the others take their MODEL_PARAMS defaults).

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

    def __post_init__(self) -> None:
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
        for key, val in self.fixed.items():
            if key not in MODEL_PARAMS[self.model]:
                raise ConfigError(f"unknown parameter {key!r} for model {self.model}")
            _check_type(key, val, MODEL_PARAMS[self.model][key])
        for name in self.outputs:
            if name not in _DEFAULT_OUTPUTS[self.model]:
                raise ConfigError(f"unknown output {name!r} for model {self.model}")

    def resolved_fixed(self) -> dict:
        return {**MODEL_PARAMS[self.model], **self.fixed}


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi, equal to numpy.linspace(lo, hi, n) bit for
    bit: i * step + lo, with the last point set to hi."""
    if n < 0:
        raise ConfigError(f"number of points must be >= 0, got {n}")
    div = max(n - 1, 1)  # a single point is 0 * (hi - lo) + lo
    step = (hi - lo) / div
    if step == 0.0:  # underflow: numpy scales by the fraction instead
        g = [i / div * (hi - lo) + lo for i in range(n)]
    else:
        g = [i * step + lo for i in range(n)]
    if n > 1:
        g[-1] = float(hi)
    return g


def geomspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi (both > 0) evenly spaced in log: 10 to the
    power of a linspace of the decimal logarithms, as numpy.geomspace does,
    with both endpoints exact."""
    if not (lo > 0 and hi > 0):
        raise ConfigError(f"a geometric grid needs positive bounds, got {lo} and {hi}")
    logs = linspace(math.log10(lo), math.log10(hi), n)
    return [float(lo), *(10.0**x for x in logs[1:-1]), float(hi)][:n]


@dataclass
class SweepTable:
    config: dict
    column_names: list
    columns: dict


@dataclass(frozen=True)
class KinkReport:
    location: float
    strength: float
    order: int
    grid_spacing: float


def _central_derivatives(alpha: list, y: list) -> tuple[list, list]:
    h = alpha[1] - alpha[0]
    inner = range(1, len(y) - 1)
    d1 = [math.nan] + [(y[i + 1] - y[i - 1]) / (2.0 * h) for i in inner] + [math.nan]
    d2 = [math.nan] + [(y[i + 1] - 2.0 * y[i] + y[i - 1]) / (h * h) for i in inner] + [math.nan]
    return d1, d2


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the model over the grid; one row per grid point.

    Rows are independent, evaluated in grid order; output ordering is by
    grid index.  Formula-validity failures at single points (RegimeError)
    produce NaN entries rather than aborting the sweep.
    """
    fixed = cfg.resolved_fixed()
    grid = linspace(cfg.alpha_min, cfg.alpha_max, cfg.n_points)
    outputs = tuple(cfg.outputs) or _DEFAULT_OUTPUTS[cfg.model]

    cols: dict[str, list] = {"alpha": grid}
    if cfg.model == "oscillator":
        _sweep_oscillator(grid, fixed, cols)
    elif cfg.model == "spin-boson":
        _sweep_spin_boson(grid, fixed, cols)
    else:
        _sweep_free_particle(grid, fixed, cols)

    if "S" in cols and {"dS_dalpha", "d2S_dalpha2"} & set(outputs):
        cols["dS_dalpha"], cols["d2S_dalpha2"] = _central_derivatives(grid, cols["S"])

    names = ["alpha"] + [c for c in outputs if c in cols]
    resolved = {
        "model": cfg.model,
        "alpha_min": cfg.alpha_min,
        "alpha_max": cfg.alpha_max,
        "n_points": cfg.n_points,
        **{k: fixed[k] for k in sorted(fixed)},
    }
    return SweepTable(
        config=resolved,
        column_names=names,
        columns={k: cols[k] for k in names},
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
            cols["S_expansion"].append(math.nan)


def _sweep_spin_boson(grid, fixed, cols):
    d0, l0, s = fixed["delta0"], fixed["lambda0"], fixed["s"]
    for key in ("delta_ren", "sigma_x", "S", "regime"):
        cols[key] = []
    for a in grid:
        point = SpinBosonPoint(delta0=d0, bath=BathSpec(s=s, alpha=a, cutoff=l0))
        # one solve per row: sigma_x and the regime reuse it
        dr = delta_ren(point)
        sx = _max_rule_sigma_x(point, dr)
        cols["delta_ren"].append(math.nan if dr is None else dr)
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

    Computes second finite differences D2 on the sweep grid and flags the
    cell where |D2| exceeds threshold times the median |D2| elsewhere
    (cells within 2 of the candidate are excluded from the background).  A
    genuine kink is an isolated spike, so the candidate must also exceed
    threshold times its own neighbourhood at distance 2-3 cells; smooth but
    strongly curved stretches (where D2 varies slowly cell to cell) do not
    qualify.  A floor of 1e-12 times the column scale guards against a zero
    median on exactly-flat stretches and against roundoff on linear data.
    Returns None when no cell qualifies.
    """
    if column not in table.columns:
        raise ConfigError(f"unknown column {column!r}")
    try:
        y = [float(v) for v in table.columns[column]]
    except (TypeError, ValueError):
        raise ConfigError(f"column {column!r} is not numeric") from None
    if len(y) < 50:
        raise ConfigError(f"detect_kink needs >= 50 grid points, got {len(y)}")
    if not all(map(math.isfinite, y)):
        raise ConfigError(f"column {column!r} contains non-finite entries")
    d2 = [abs(y[j + 1] - 2.0 * y[j] + y[j - 1]) for j in range(1, len(y) - 1)]
    i = max(range(len(d2)), key=d2.__getitem__)  # the first largest
    scale = max(map(abs, y)) or 1.0
    floor = 1e-12 * scale
    others = d2[: max(0, i - 2)] + d2[i + 3 :]
    background = max(statistics.median(others), floor)
    ring = [d2[j] for j in (i - 3, i - 2, i + 2, i + 3) if 0 <= j < len(d2)]
    local = max(statistics.median(ring), floor)
    if d2[i] <= threshold * background or d2[i] <= threshold * local:
        return None
    alpha = table.columns["alpha"]
    return KinkReport(
        location=float(alpha[i + 1]),
        strength=d2[i] / background,
        order=2,
        grid_spacing=float(alpha[1] - alpha[0]),
    )


# ---------------------------------------------------------------------------
# sub-Ohmic regime map
# ---------------------------------------------------------------------------


@dataclass
class RegimeMap:
    s: float
    ratios: list  # Delta0 / cutoff grid
    alphas: list
    labels: list  # one row of regime names per alpha: labels[i][j] at (alphas[i], ratios[j])
    transition_line: list  # alpha = s * ratio per ratio column


def regime_map(s: float, ratios, alphas) -> RegimeMap:
    """Classify every (Delta0/cutoff, alpha) cell of a sub-Ohmic model and
    report the one-loop transition line alpha = s * Delta0/cutoff."""
    if not s < 1:
        raise RegimeError(f"regime map requires s < 1, got s = {s}")
    ratios = [float(r) for r in ratios]
    alphas = [float(a) for a in alphas]
    labels = [[""] * len(ratios) for _ in alphas]
    for j, r in enumerate(ratios):
        for i, a in enumerate(alphas):
            point = SpinBosonPoint(delta0=r, bath=BathSpec(s=s, alpha=a, cutoff=1.0))
            labels[i][j] = subohmic_regime(point).value
    return RegimeMap(
        s=s, ratios=ratios, alphas=alphas, labels=labels, transition_line=[s * r for r in ratios]
    )


# ---------------------------------------------------------------------------
# oracle comparison runs
# ---------------------------------------------------------------------------


# oracle model -> the inputs it reads, each with its default; the first
# one has none and is required
_ORACLE_READS = {
    "free-particle": {"eta": None, **MODEL_PARAMS["free-particle"]},
    "oscillator": {
        "eta": None,
        **MODEL_PARAMS["oscillator"],
        "n_modes": 400,
        "scheme": "logarithmic",
    },
    "spin-boson": {"sigma_x": None},
}


def oracle_run(model: str, params: dict) -> list[dict]:
    """Analytic value vs brute-force oracle, one row per observable, with
    absolute and relative deviation columns.  `params` must hold eta
    (sigma_x for the spin-boson model) and nothing the oracle does not
    read.  The model's parameters default from MODEL_PARAMS; the
    oscillator oracle also reads its discretisation, n_modes (default
    400) and scheme (default logarithmic)."""
    import numpy as np

    if model not in MODELS:
        raise ConfigError(f"unknown oracle model {model!r}")
    reads = _ORACLE_READS[model]
    required = next(iter(reads))
    if required not in params:
        raise ConfigError(f"the {model} oracle needs {required}")
    unread = sorted(set(params) - set(reads))
    if unread:
        raise ConfigError(f"the {model} oracle does not read {unread}; it reads {', '.join(reads)}")
    par = {**reads, **params}
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
        p = OscillatorParams(omega0=par["omega0"], eta=par["eta"], omega_c=par["omega_c"])
        m = oscillator_moments(p)
        cov = discrete_bath_moments(p, n_modes=int(par["n_modes"]), scheme=par["scheme"])
        row("q2", m.q2, cov.q2)
        row("p2", m.p2, cov.p2)
        row("nu", m.nu, cov.nu)
    elif model == "free-particle":
        if par["dim"] != 1:
            raise ConfigError(f"the free-particle oracle is one-dimensional, got dim = {par['dim']}")
        p = FreeParticleParams(eta=par["eta"], omega_c=par["omega_c"], length=par["length"], dim=1)
        res = free_particle_entropy(p)
        a = free_particle_kernel_width(p)
        row("S", res.entropy, ring_kernel_entropy(a, p.length))
        row("trace", 1.0, float(np.sum(ring_kernel_eigenvalues(a, p.length))))
    else:
        sx = par["sigma_x"]
        lam = np.array([(1.0 + sx) / 2.0, (1.0 - sx) / 2.0])
        lam = lam[lam > 0]
        row("S", spin_entropy(sx), float(-np.sum(lam * np.log(lam))))
    return rows


# ---------------------------------------------------------------------------
# sweep and regime-map documents, presets and serialisation
# ---------------------------------------------------------------------------

# A sweep document (a sweep preset, or a --config file with the CLI flags
# laid over it) has these keys and no others; "model" has no default.
SWEEP_KEYS = {
    "kind": "sweep",
    "model": None,
    "alpha_min": 0.01,
    "alpha_max": 1.0,
    "n_points": 100,
    "fixed": {},
    "outputs": (),
    "format": "csv",
}


# the type a document value must have, by the type of its default; no
# default is a bool, and a bool (an int in Python) is refused everywhere
_TYPES = {
    int: ((numbers.Integral,), "an integer"),
    float: ((numbers.Real,), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
    tuple: ((list, tuple), "a list"),
}


def _check_type(name: str, value, default) -> None:
    kinds, what = _TYPES[type(default)]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def read_doc(path) -> dict:
    """The JSON object in a preset or config file; a missing or unreadable
    file, invalid JSON and anything but an object are ConfigErrors."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def sweep_config(doc: dict) -> SweepConfig:
    """The (validated) SweepConfig of a sweep document; each value must
    have the type of its default (a number where the default is a float)."""
    if doc.get("kind", "sweep") != "sweep":
        raise ConfigError(f"not a sweep document: kind {doc['kind']!r}")
    unknown = sorted(set(doc) - set(SWEEP_KEYS))
    if unknown:
        raise ConfigError(f"unknown sweep key(s) {unknown}; known: {', '.join(SWEEP_KEYS)}")
    d = {**SWEEP_KEYS, **doc}
    if d["model"] is None:
        raise ConfigError("model is required (flag --model or config file)")
    for key, default in SWEEP_KEYS.items():
        if default is not None:
            _check_type(key, d[key], default)
    return SweepConfig(
        model=d["model"],
        alpha_min=d["alpha_min"],
        alpha_max=d["alpha_max"],
        n_points=int(d["n_points"]),
        fixed=dict(d["fixed"]),
        outputs=tuple(d["outputs"]),
        fmt=d["format"],
    )


def regime_map_from_doc(doc: dict) -> RegimeMap:
    """The regime map of a regime-map document (a preset, or the flags of
    the regime-map command): s and geometric ratio and alpha grids."""
    if doc.get("kind", "regime-map") != "regime-map":
        raise ConfigError(f"not a regime-map document: kind {doc['kind']!r}")
    ratios = geomspace(doc["ratio_min"], doc["ratio_max"], doc["ratio_points"])
    alphas = geomspace(doc["alpha_min"], doc["alpha_max"], doc["alpha_points"])
    return regime_map(doc["s"], ratios, alphas)


# figure-reproduction presets ship as JSON documents next to the code; their
# sweep grids are cell midpoints, 0.0005 + k/1000
def preset_doc(name: str) -> dict:
    from importlib import resources

    if name not in preset_names():
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return read_doc(resources.files("dissipent").joinpath(f"presets/{name}.json"))


def preset_names() -> tuple:
    from importlib import resources

    folder = resources.files("dissipent").joinpath("presets")
    return tuple(sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json")))


def preset_kind(name: str) -> str:
    return preset_doc(name)["kind"]


def preset_config(name: str) -> SweepConfig:
    return sweep_config(preset_doc(name))


def preset_regime_map(name: str) -> RegimeMap:
    return regime_map_from_doc(preset_doc(name))


def format_value(x) -> str:
    """Canonical 12-significant-digit representation used by both CSV and
    JSON output; strings pass through unchanged."""
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def _csv(comments, names, rows) -> str:
    """`# `-prefixed comment lines, a header row, then one line per row of
    values, each cell written by format_value; LF line endings."""
    lines = [f"# {c}" for c in comments] + [",".join(names)]
    lines += [",".join(format_value(x) for x in r) for r in rows]
    return "\n".join(lines) + "\n"


def _rows(table: SweepTable):
    return zip(*(table.columns[c] for c in table.column_names))


def table_to_csv(table: SweepTable) -> str:
    config = [f"{k} = {format_value(table.config[k])}" for k in sorted(table.config)]
    return _csv(["dissipent sweep", *config], table.column_names, _rows(table))


def table_to_json(table: SweepTable) -> str:
    doc = {
        "config": {k: format_value(v) for k, v in sorted(table.config.items())},
        "columns": table.column_names,
        "rows": [[format_value(x) for x in r] for r in _rows(table)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def regime_map_to_csv(rmap: RegimeMap) -> str:
    comments = [
        "dissipent regime-map",
        f"s = {format_value(rmap.s)}",
        "transition line: alpha = s * delta0_over_lambda0",
    ]
    header = ["alpha\\ratio"] + [format_value(r) for r in rmap.ratios]
    return _csv(comments, header, ([a, *labels] for a, labels in zip(rmap.alphas, rmap.labels)))


def oracle_to_csv(rows: list[dict]) -> str:
    return _csv([], list(rows[0]), (r.values() for r in rows))
