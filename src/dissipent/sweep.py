"""Deterministic parameter sweeps, kink detection and figure-data emission.

A sweep evaluates one model over a uniform coupling grid and returns a
table whose header echoes the fully resolved configuration.  Each model
has one row generator, which yields the model's own columns for each grid
point; run_sweep transposes its rows into columns and adds the derivative
columns of S.  SweepConfig is the sweep document: its fields are the
document's keys (after "kind"), with their defaults and type checks.  All
numbers are printed with 12 significant digits so that repeated runs are
byte-identical; CSV and JSON emissions share the same formatter, and each
table is written through one row template.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .bath import BathSpec, _log_ratio
from .errors import ConfigError, RegimeError, _Checked, _in_range, _shown
from .gaussian import (
    FreeParticleParams,
    OscillatorParams,
    kappa_from_alpha,
    oscillator_moments,
    free_particle_entropy,
    gaussian_entropy,
)
from .gaussian import _expansion, _free_particle, _moments, _square
from .oracles import (
    discrete_bath_moments,
    ring_kernel_entropy,
    ring_kernel_eigenvalues,
)
from .spinboson import (
    SpinBosonPoint,
    _cells,
    _labels,
    _max_rule,
    delta_ren,
    spin_entropy,
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
    "preset_doc",
    "preset_names",
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
# most sweep rows and regime-map cells, about 10 s of work at the limit
_MAX_POINTS = 10**6

# model -> its sweep columns after alpha, in order
_COLUMNS = {
    "free-particle": ("eta", "a", "a_l2", "S", "dS_dalpha", "d2S_dalpha2"),
    "oscillator": ("kappa", "q2", "p2", "nu", "S", "S_expansion", "dS_dalpha", "d2S_dalpha2"),
    "spin-boson": ("delta_ren", "sigma_x", "S", "dS_dalpha", "d2S_dalpha2", "regime"),
}
# the columns run_sweep takes by central differences of S
_STENCIL = frozenset(("dS_dalpha", "d2S_dalpha2"))


class SweepConfig(
    _Checked,
    namedtuple("SweepConfig", "model alpha_min alpha_max n_points fixed format",
               defaults=(0.01, 1.0, 100, {}, "csv")),
):
    """The sweep document, validated on construction: every field but
    `model` has the document's default, and a value must have the type of
    its default (a number where the default is a float).  `fixed` holds
    model parameters (the others take their MODEL_PARAMS defaults).

    For the free particle the grid variable is the friction eta itself
    (the model has no reference frequency to form a dimensionless alpha).
    """

    __slots__ = ()

    def __new__(cls, model, alpha_min, alpha_max, n_points, fixed, format):
        values = (model, alpha_min, alpha_max, n_points, fixed, format)
        doc = _read("a sweep document", dict(zip(cls._fields, values)), _SWEEP_READS)
        alpha_min, alpha_max = doc["alpha_min"], doc["alpha_max"]
        if model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
        for name, bound in (("alpha_min", alpha_min), ("alpha_max", alpha_max)):
            if not math.isfinite(bound):
                raise ConfigError(f"{name} must be finite, got {bound}")
        if not alpha_min < alpha_max:
            raise ConfigError(f"alpha_min must be < alpha_max, got {alpha_min} >= {alpha_max}")
        if n_points < 3:
            raise ConfigError(f"n_points must be >= 3, got {_shown(n_points)}")
        if n_points > _MAX_POINTS:
            raise ConfigError(f"n_points must be <= {_MAX_POINTS}, got {_shown(n_points)}")
        if format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {format!r}")
        par = _read(f"the {model} model", fixed, MODEL_PARAMS[model])
        fixed = {key: par[key] for key in fixed}  # not the default's dict, which all would share
        return tuple.__new__(cls, (model, alpha_min, alpha_max, n_points, fixed, format))


# what _read takes from a sweep document, besides its kind
_SWEEP_READS = {"model": str, **SweepConfig._field_defaults}


# the type a document value must have, by its default or by the type that
# stands for a required value; no default is a bool, and a bool (an int in
# Python) is refused everywhere
_TYPES = {
    int: ((numbers.Integral,), "an integer"),
    float: ((numbers.Real,), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
}


def _keys(what: str, doc: dict, reads: dict, kind: str | None = None) -> dict:
    """`doc` without its "kind", once its keys are checked against `reads`,
    which maps each input to its default, or to a type where the input is
    required; `what` names the reader in its messages.  A missing required
    input and an input `reads` does not list are ConfigErrors.  With
    `kind`, the document may carry a "kind", which must be `kind`."""
    if kind is not None:
        if doc.get("kind", kind) != kind:
            raise ConfigError(f"not {what}: kind {_shown(doc['kind'], repr)}")
        doc = {key: val for key, val in doc.items() if key != "kind"}
    missing = [key for key, entry in reads.items() if isinstance(entry, type) and key not in doc]
    if missing:
        raise ConfigError(f"{what} needs {', '.join(missing)}")
    # string keys by value, then any other key by its text, so that mixed types sort
    unread = sorted((key for key in doc if key not in reads),
                    key=lambda key: (0, key) if isinstance(key, str) else (1, _shown(key, repr)))
    if unread:
        listed = ", ".join(_shown(key, repr) for key in unread)
        raise ConfigError(f"{what} does not read [{listed}]; it reads {', '.join(reads)}")
    return doc


def _read(what: str, doc: dict, reads: dict, kind: str | None = None) -> dict:
    """`doc` laid over the defaults of `reads`, the one input check of
    sweep documents, regime-map documents and oracle runs: its keys are
    checked by _keys, and a value not of its entry's type is a
    ConfigError.  A value whose entry is a float is returned as a float,
    so that 1e20 and 10**20 print alike; an integer past the largest
    double is a ConfigError."""
    doc = _keys(what, doc, reads, kind)
    read = {**reads, **doc}
    for key, val in doc.items():
        entry = reads[key]
        typ = entry if isinstance(entry, type) else type(entry)
        kinds, kind_name = _TYPES[typ]
        if not isinstance(val, kinds) or isinstance(val, bool):
            raise ConfigError(f"{key} must be {kind_name}, got {_shown(val, repr)}")
        if typ is float:
            try:
                read[key] = float(val)
            except OverflowError:  # an integer past the largest double
                raise ConfigError(f"{key} must be finite, got {_shown(val)}") from None
    return read


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi, equal to numpy.linspace(lo, hi, n) bit for
    bit: i * step + lo, with the last point set to hi."""
    if n < 0:
        raise ConfigError(f"number of points must be >= 0, got {_shown(n)}")
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
    with both endpoints exact for n >= 2 (n = 1 gives [lo])."""
    if not (lo > 0 and hi > 0):
        raise ConfigError(f"a geometric grid needs positive bounds, got {lo} and {hi}")
    logs = linspace(math.log10(lo), math.log10(hi), n)
    try:
        return [float(lo), *(10.0**x for x in logs[1:-1]), float(hi)][:n]
    except OverflowError:  # a log rounded past that of the largest double
        raise ConfigError(f"a geometric grid from {lo} to {hi} passes the largest double") from None


class SweepTable(namedtuple("SweepTable", "config columns")):
    """A sweep's resolved configuration and its columns by name, in
    column order."""

    __slots__ = ()


class KinkReport(namedtuple("KinkReport", "location strength order grid_spacing")):
    """Where detect_kink found a kink, how far it stands above the
    background, the order of the difference used and the grid spacing."""

    __slots__ = ()


def _central_derivatives(alpha: list, y: list) -> tuple[list, list]:
    h = alpha[1] - alpha[0]
    inner = range(1, len(y) - 1)
    d1 = [math.nan] + [(y[i + 1] - y[i - 1]) / (2.0 * h) for i in inner] + [math.nan]
    d2 = [math.nan] + [(y[i + 1] - 2.0 * y[i] + y[i - 1]) / (h * h) for i in inner] + [math.nan]
    return d1, d2


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the model over the grid; one row per grid point.

    Rows are independent, evaluated in grid order; output ordering is by
    grid index.  Only S_expansion where nu <= 1 and delta_ren without a
    root become NaN; any other error at a point, such as the RegimeError
    of the moment formulas past their regime, aborts the sweep.  A grid
    finer than its printed digits or too fine for doubles is a ConfigError.
    """
    fixed = {**MODEL_PARAMS[cfg.model], **cfg.fixed}
    grid = linspace(cfg.alpha_min, cfg.alpha_max, cfg.n_points)
    h = grid[1] - grid[0]  # the stencils divide by 2h and h^2
    # a spacing above 1e-11 of the largest |alpha| prints adjacent points
    # apart at 12 digits, and leaves no repeated point
    if not (h * h > 0.0 and h > 1e-11 * max(abs(cfg.alpha_min), abs(cfg.alpha_max))):
        raise ConfigError(
            f"alpha_min = {cfg.alpha_min}, alpha_max = {cfg.alpha_max} and n_points = "
            f"{cfg.n_points} give a grid finer than the 12 printed digits or than doubles "
            f"(h = {h!r})"
        )

    rows = _ROWS[cfg.model](grid, *(fixed[k] for k in MODEL_PARAMS[cfg.model]))
    names = ["alpha", *_COLUMNS[cfg.model]]
    own = [c for c in names[1:] if c not in _STENCIL]
    cols = {"alpha": grid, **dict(zip(own, map(list, zip(*rows, strict=True)), strict=True))}
    cols["dS_dalpha"], cols["d2S_dalpha2"] = _central_derivatives(grid, cols["S"])

    resolved = {
        "model": cfg.model,
        "alpha_min": cfg.alpha_min,
        "alpha_max": cfg.alpha_max,
        "n_points": cfg.n_points,
        **{k: fixed[k] for k in sorted(fixed)},
    }
    return SweepTable(config=resolved, columns={k: cols[k] for k in names})


# Each model's row generator takes the grid and the model parameters in
# MODEL_PARAMS order, and yields one tuple per grid point: the row's own
# columns in _COLUMNS order, without the stencil columns.  The
# Gaussian rows check the first point's record, then call the float cores;
# the grid, increasing and finite, keeps each free-particle eta in range,
# but an oscillator eta = 2 kappa omega0 can overflow.  The spin-boson
# rows form r, 2r and the regime cells once; each calls delta_ren on its record.


def _oscillator_rows(grid, omega0, omega_c):
    kappas = [kappa_from_alpha(a) for a in grid]
    OscillatorParams(omega0, 2.0 * kappas[0] * omega0, omega_c)
    log_ratio = _log_ratio(omega_c, omega0)
    for k in kappas:
        eta = _in_range("eta", 2.0 * k * omega0, ">=", 0)
        q2, p2, nu = _moments(omega0, eta, omega_c, log_ratio)
        yield k, q2, p2, nu, gaussian_entropy(nu), _expansion(1.0 / nu)


def _spin_boson_rows(grid, delta0, lambda0, s):
    ratio = SpinBosonPoint(delta0, BathSpec(s, grid[0], lambda0)).ratio
    two_r, cells = 2.0 * ratio, _cells(s, (ratio,)) if s < 1 else None
    for a in grid:
        dr = delta_ren(SpinBosonPoint(delta0, BathSpec(s, a, lambda0)))
        sx = _max_rule(dr, two_r, delta0, s, a, lambda0)
        regime = _labels(a, s, cells)[0] if cells else ""
        yield math.nan if dr is None else dr, sx, spin_entropy(sx), regime


def _free_particle_rows(grid, omega_c, length, dim):
    # for this model the grid variable is the friction itself
    FreeParticleParams(grid[0], omega_c, length, dim)
    dim, length2 = int(dim), _square(length)
    for eta in grid:
        s, a, a_l2 = _free_particle(eta, omega_c, length2, dim)
        yield eta, a, a_l2, s


_ROWS = {
    "free-particle": _free_particle_rows,
    "oscillator": _oscillator_rows,
    "spin-boson": _spin_boson_rows,
}


# how many times its background and its ring a kink's |D2| must exceed
_KINK_THRESHOLD = 5.0


def detect_kink(table: SweepTable, column: str) -> KinkReport | None:
    """Locate a derivative discontinuity in a sweep column.

    Computes second finite differences D2 on the sweep grid and flags the
    cell where |D2| exceeds _KINK_THRESHOLD = 5 times the median |D2|
    elsewhere (cells within 2 of the candidate are excluded from the
    background).  A genuine kink is an isolated spike, so the candidate
    must also exceed 5 times its own neighbourhood at distance 2-3 cells on
    both sides; smooth but strongly curved stretches (where D2 varies
    slowly cell to cell) do not qualify.  The candidate is therefore the
    largest D2 among the cells with that full ring, 3 or more cells from
    either end of D2: at the ends a one-sided ring lets a log-curved column
    pass.  A floor of 1e-12 times the column scale guards against a zero
    median on exactly-flat stretches and against roundoff on linear data.
    Returns None when no cell qualifies.
    """
    if column not in table.columns:
        raise ConfigError(f"unknown column {_shown(column, repr)}")
    try:
        y = [float(v) for v in table.columns[column]]
    except (TypeError, ValueError):
        raise ConfigError(f"column {_shown(column, repr)} is not numeric") from None
    if len(y) < 50:
        raise ConfigError(f"detect_kink needs >= 50 grid points, got {len(y)}")
    if not all(map(math.isfinite, y)):
        raise ConfigError(f"column {_shown(column, repr)} contains non-finite entries")
    import statistics  # only here: it loads fractions and decimal

    d2 = [abs(y[j + 1] - 2.0 * y[j] + y[j - 1]) for j in range(1, len(y) - 1)]
    # the first largest among the cells with a full ring
    i = max(range(3, len(d2) - 3), key=d2.__getitem__)
    scale = max(map(abs, y)) or 1.0
    floor = 1e-12 * scale
    background = max(statistics.median(d2[: i - 2] + d2[i + 3 :]), floor)
    local = max(statistics.median(d2[j] for j in (i - 3, i - 2, i + 2, i + 3)), floor)
    if d2[i] <= _KINK_THRESHOLD * max(background, local):
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


class RegimeMap(namedtuple("RegimeMap", "s ratios alphas labels")):
    """A sub-Ohmic regime map: the bath exponent s, the Delta0 / cutoff
    grid `ratios`, the `alphas` grid and `labels`, one row of regime names
    per alpha: labels[i][j] at (alphas[i], ratios[j])."""

    __slots__ = ()


def regime_map(s: float, ratios, alphas) -> RegimeMap:
    """Classify every (Delta0/cutoff, alpha) cell of a sub-Ohmic model; a
    cell is localised past the one-loop line alpha = s * Delta0/cutoff.
    Both axes must hold at least one value."""
    free = BathSpec(s=s, alpha=0.0, cutoff=1.0)  # first: s = nan is a DomainError
    if not s < 1:
        raise RegimeError(f"regime map requires s < 1, got s = {s}")
    ratios = [float(r) for r in ratios]
    alphas = [float(a) for a in alphas]
    if not (ratios and alphas):
        raise ConfigError("a regime map needs at least one ratio and one alpha")
    # each axis value is validated once: a point per ratio column, whose
    # cells are formed once, then a bath per alpha row, labelled in one call
    cells = _cells(s, [SpinBosonPoint(r, free).delta0 for r in ratios])
    labels = [_labels(BathSpec(s, a, 1.0).alpha, s, cells) for a in alphas]
    return RegimeMap(s=s, ratios=ratios, alphas=alphas, labels=labels)


# ---------------------------------------------------------------------------
# oracle comparison runs
# ---------------------------------------------------------------------------


# oracle model -> the inputs it reads, each with its default; eta has
# none, and its type marks it required.  This is the one list of oracles;
# the spin-boson model has none yet.  The ring oracle is one-dimensional:
# it reads no dim.
_ORACLE_READS = {
    "free-particle": {"eta": float, "omega_c": MODEL_PARAMS["free-particle"]["omega_c"],
                      "length": MODEL_PARAMS["free-particle"]["length"]},
    "oscillator": {
        "eta": float,
        **MODEL_PARAMS["oscillator"],
        "n_modes": 400,
        "scheme": "logarithmic",
    },
}


def oracle_run(model: str, params: dict) -> list[dict]:
    """Analytic value vs brute-force oracle, one row per observable, with
    absolute and relative deviation columns, for a model of
    _ORACLE_READS.  `params` must hold eta and nothing the oracle does not
    read, each value typed as its default.  The model's parameters default
    from MODEL_PARAMS; the oscillator oracle also reads its discretisation,
    n_modes (default 400) and scheme (default logarithmic)."""
    if model not in _ORACLE_READS:
        raise ConfigError(
            f"no oracle for model {_shown(model, repr)}; oracles: {', '.join(_ORACLE_READS)}"
        )
    par = _read(f"the {model} oracle", params, _ORACLE_READS[model])
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
        cov = discrete_bath_moments(p, n_modes=par["n_modes"], scheme=par["scheme"])
        row("q2", m.q2, cov.q2)
        row("p2", m.p2, cov.p2)
        row("nu", m.nu, cov.nu)
    elif model == "free-particle":
        p = FreeParticleParams(eta=par["eta"], omega_c=par["omega_c"], length=par["length"])
        res = free_particle_entropy(p)
        row("S", res.entropy, ring_kernel_entropy(res.a, p.length))
        row("trace", 1.0, math.fsum(ring_kernel_eigenvalues(res.a, p.length)))
    return rows


# ---------------------------------------------------------------------------
# sweep and regime-map documents, presets and serialisation
# ---------------------------------------------------------------------------

def read_doc(path) -> dict:
    """The JSON object in a preset or config file; a missing or unreadable
    file, invalid JSON and anything but an object are ConfigErrors."""
    import json  # here and in table_to_json alone: CSV commands never load it

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
    """The (validated) SweepConfig of a sweep document: "kind" and the
    fields of SweepConfig, of which only "model" is required.  Only the
    keys are checked here; SweepConfig checks the values."""
    return SweepConfig(**_keys("a sweep document", doc, _SWEEP_READS, "sweep"))


# a regime-map document's inputs, each with its default; s has none
MAP_READS = {"s": float, "ratio_min": 1e-3, "ratio_max": 0.9, "ratio_points": 25,
             "alpha_min": 1e-4, "alpha_max": 2.0, "alpha_points": 25}


def regime_map_from_doc(doc: dict) -> RegimeMap:
    """The regime map of a regime-map document (a preset, or the flags of
    the regime-map command): s and geometric ratio and alpha grids, from
    the inputs of MAP_READS.  A map of more than _MAX_POINTS cells is
    refused before either grid is built."""
    par = _read("a regime-map document", doc, MAP_READS, "regime-map")
    n_ratios, n_alphas = par["ratio_points"], par["alpha_points"]
    # an empty axis counts as one: regime_map refuses it, after the other is built
    if max(n_ratios, 1) * max(n_alphas, 1) > _MAX_POINTS:
        raise ConfigError(
            f"a regime map has at most {_MAX_POINTS} cells, "
            f"got {_shown(n_ratios)} ratios x {_shown(n_alphas)} alphas"
        )
    ratios = geomspace(par["ratio_min"], par["ratio_max"], n_ratios)
    alphas = geomspace(par["alpha_min"], par["alpha_max"], n_alphas)
    return regime_map(par["s"], ratios, alphas)


# figure-reproduction presets ship as JSON documents next to the code; their
# sweep grids are cell midpoints, 0.0005 + k/1000
def preset_doc(name: str) -> dict:
    from importlib import resources

    if name not in preset_names():
        raise ConfigError(f"unknown preset {_shown(name, repr)}; available: {', '.join(preset_names())}")
    return read_doc(resources.files("dissipent").joinpath(f"presets/{name}.json"))


def preset_names() -> tuple:
    from importlib import resources

    folder = resources.files("dissipent").joinpath("presets")
    return tuple(sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json")))


def format_value(x) -> str:
    """Canonical 12-significant-digit representation used by both CSV and
    JSON output; strings pass through unchanged.  `.12g` prints every NaN,
    whatever its sign, as nan."""
    if type(x) is float:
        return f"{x:.12g}"
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return f"{float(x):.12g}"


def _row_template(columns, sep: str, quote=None) -> tuple[str, list]:
    """The `%` template of one table row, its fields joined by `sep`, and
    the columns that fill it: `template % row` for each row of
    zip(*cells) writes the row.

    A column whose cells are all Python floats goes in as %.12g, which
    prints every float exactly as format_value does; a column of strings
    goes in verbatim as %s, and any other column goes in as %s once
    written through format_value.  With `quote` (JSON's string encoder)
    the float fields are put in double quotes and the other cells are
    passed through it, so each cell is a JSON string.
    """
    fields, cells = [], []
    for col in columns:
        types = set(map(type, col))
        if types == {float}:
            fields.append('"%.12g"' if quote else "%.12g")
            cells.append(col)
        else:
            text = col if types == {str} else [format_value(x) for x in col]
            fields.append("%s")
            cells.append([quote(t) for t in text] if quote else text)
    return sep.join(fields), cells


def _csv(comments, names, columns) -> str:
    """`# `-prefixed comment lines, a header row, then one line per row of
    the columns, written through one row template; LF line endings."""
    template, cells = _row_template(columns, ",")
    lines = [f"# {c}" for c in comments] + [",".join(names)]
    lines += [template % r for r in zip(*cells)]
    return "\n".join(lines) + "\n"


def table_to_csv(table: SweepTable) -> str:
    config = [f"{k} = {format_value(table.config[k])}" for k in sorted(table.config)]
    return _csv(["dissipent sweep", *config], table.columns, table.columns.values())


def table_to_json(table: SweepTable) -> str:
    """The table as json.dumps(doc, indent=2, sort_keys=True) writes it,
    byte for byte, with every value a format_value string."""
    import json
    from json.encoder import encode_basestring_ascii

    head = json.dumps(
        {
            "config": {k: format_value(v) for k, v in table.config.items()},
            "columns": list(table.columns),
        },
        indent=2,
        sort_keys=True,
    )
    template, cells = _row_template(table.columns.values(), ",\n      ", encode_basestring_ascii)
    row = "    [\n      " + template + "\n    ]"
    rows = [row % r for r in zip(*cells)]
    array = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    # sort_keys puts "rows" last, after "columns" and "config": its array
    # goes in before the head's closing "\n}"
    return head[:-2] + ',\n  "rows": ' + array + "\n}\n"


def regime_map_to_csv(rmap: RegimeMap) -> str:
    comments = [
        "dissipent regime-map",
        f"s = {format_value(rmap.s)}",
        "transition line: alpha = s * delta0_over_lambda0",
    ]
    header = ["alpha\\ratio"] + [format_value(r) for r in rmap.ratios]
    rows = [",".join(("%.12g" % a, *labels)) for a, labels in zip(rmap.alphas, rmap.labels)]
    return _csv(comments, header, ()) + "".join(row + "\n" for row in rows)


def oracle_to_csv(rows: list[dict]) -> str:
    return _csv([], list(rows[0]), [[r[k] for r in rows] for k in rows[0]])
