"""Correctness checks for the output of each benchmark job.

Every expected value is recomputed here from the formulas of the models,
written out independently of the package (nothing from `dissipent` is
imported), and compared with the text the CLI printed.  Outputs carry 12
significant digits, so tolerances allow for that rounding wherever a
printed value is fed back into a formula.

`check_job(job, text)` returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ROUND = 1e-11  # relative rounding of a value printed with 12 significant digits
FLOOR = 1e-15  # Delta_ren / cutoff below which the solver reports no root
TRUST_RATIO = 0.1  # Delta0/cutoff from which the regime rule uses Delta_ren
BRANCHES = {"oscillator": (1.0 / math.pi,), "spin-boson": (0.5, 1.0), "free-particle": ()}
SWEEP_DEFAULTS = {
    "free-particle": {"omega_c": 100.0, "length": 100.0, "dim": 1},
    "oscillator": {"omega0": 1.0, "omega_c": 100.0},
    "spin-boson": {"delta0": 1.0, "lambda0": 100.0, "s": 1.0, "temperature": 0.0},
}


class Mismatch(Exception):
    pass


def fmt12(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.12g}"


def _close(got, want, rel, abs_=0.0):
    got, want = np.asarray(got, float), np.asarray(want, float)
    both_nan = np.isnan(got) & np.isnan(want)
    ok = np.abs(got - want) <= rel * np.abs(want) + abs_
    return both_nan | ok


def _from_printed(got, f, x, rel=1e-9, abs_=1e-13):
    """got must be f(x') for some x' that prints as x.  f is evaluated at x
    and at the ends of x's rounding interval; being smooth, it stays within
    their range (plus slack) across that tiny interval.  NaN is accepted
    where f gives NaN at any of the three points."""
    x = np.asarray(x, float)
    vals = np.array([f(x * (1.0 - ROUND)), f(x), f(x * (1.0 + ROUND))])
    lo, hi = np.fmin.reduce(vals), np.fmax.reduce(vals)  # NaN only where all are
    slack = rel * np.abs(lo) + abs_
    got = np.asarray(got, float)
    inside = (got >= lo - slack) & (got <= hi + slack)
    return np.where(np.isnan(got), np.isnan(vals).any(axis=0), inside)


def _expect(name, ok, got, want):
    ok = np.asarray(ok, bool)
    if not ok.all():
        i = int(np.argmin(ok))
        raise Mismatch(f"{name}: row {i} has {got[i]!r}, expected {want[i]!r}")


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def sweep_grid(model: str, lo: float, hi: float, n: int) -> np.ndarray:
    """The sweep grid: uniform, with points that land on a branch coupling
    moved up by half a spacing."""
    g = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    for b in BRANCHES[model]:
        g = np.where(np.abs(g - b) <= 1e-12, g + 0.5 * h, g)
    return g


def exponent(alpha, s, lam_over_cutoff):
    """X(L) = alpha (1 - (L/cutoff)^(s-1)) / (s-1) of a sharp-cutoff bath."""
    return alpha * -np.expm1((s - 1.0) * np.log(lam_over_cutoff)) / (s - 1.0)


def residual(t, alpha, s, r):
    """h(t) = t - ln r + X(e^t cutoff); a root is a self-consistent Delta_ren."""
    return t - np.log(r) + exponent(alpha, s, np.exp(t))


def largest_root(alpha, s, r, n_scan=4096):
    """t = ln(Delta_ren/cutoff) of the largest root of h above the floor, or
    nan; vectorised over equal-shape arrays alpha and r."""
    alpha, r = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(r, float))
    ts = np.linspace(0.0, math.log(FLOOR), n_scan)
    h = residual(ts[None, :], alpha.ravel()[:, None], s, r.ravel()[:, None])
    neg = h <= 0.0
    has = neg.any(axis=1)
    first = np.argmax(neg, axis=1)  # first scan point (from the cutoff down) at or below 0
    out = np.full(alpha.size, np.nan)
    rows = np.nonzero(has & (first > 0))[0]
    hi, lo = ts[first[rows] - 1], ts[first[rows]]
    a, rr = alpha.ravel()[rows], r.ravel()[rows]
    for _ in range(60):
        mid = 0.5 * (hi + lo)
        pos = residual(mid, a, s, rr) > 0.0
        hi, lo = np.where(pos, mid, hi), np.where(pos, lo, mid)
    out[rows] = 0.5 * (hi + lo)
    return out.reshape(alpha.shape)


def spin_entropy(sx):
    sx = np.asarray(sx, float)
    out = np.zeros_like(sx)
    for lam in ((1.0 + sx) / 2.0, (1.0 - sx) / 2.0):
        safe = np.where(lam > 0, lam, 1.0)
        out -= np.where(lam > 0, lam * np.log(safe), 0.0)
    return out


def gaussian_entropy(nu):
    nu = np.asarray(nu, float)
    up, dn = nu + 0.5, np.maximum(nu - 0.5, 0.0)
    return up * np.log(up) - np.where(dn > 0, dn * np.log(np.where(dn > 0, dn, 1.0)), 0.0)


def position_variance_f(kappa):
    """f(kappa) with <q^2> = f / (2 omega0), both damping branches."""
    kappa = np.asarray(kappa, float)
    t = kappa - 1.0
    under = np.sqrt(np.clip((1.0 - kappa) * (1.0 + kappa), 1e-300, None))
    over = np.sqrt(np.clip((kappa - 1.0) * (kappa + 1.0), 1e-300, None))
    f_under = (2.0 / math.pi) * np.arctan2(under, kappa) / under
    f_over = np.log((kappa + over) / np.abs(kappa - over)) / (math.pi * over)
    series = (2.0 / math.pi) * (1.0 - t / 3.0 + 2.0 * t * t / 15.0)
    return np.where(np.abs(t) < 1e-8, series, np.where(kappa < 1.0, f_under, f_over))


def oscillator_moments(kappa, omega0, omega_c):
    q2 = position_variance_f(kappa) / (2.0 * omega0)
    p2 = omega0**2 * (1.0 - 2.0 * kappa**2) * q2 + (2.0 * omega0 * kappa / math.pi) * math.log(
        omega_c / omega0
    )
    return q2, p2


def entropy_expansion(nu):
    nu = np.asarray(nu, float)
    e = 1.0 / nu
    ok = e < 1.0
    e_ = np.where(ok, e, 0.5)
    et = e_ * np.sqrt(1.0 - e_) / np.sqrt(1.0 - 0.25 * e_ * e_)
    val = -((et / e_) * np.log(et) + (et / (e_ * e_)) * np.log1p(-e_))
    return np.where(ok, val, np.nan)


def free_particle(eta, omega_c, length):
    a = 0.25 * (eta / math.pi) * np.log1p((omega_c / eta) ** 2)
    a_l2 = a * length**2
    return a, a_l2, 0.5 * (np.log(a_l2) + 1.0 - math.log(math.pi))


def dense_bath_moments(omega0, eta, omega_c, n_modes, scheme):
    """<q^2>, <p^2> of the oscillator coupled to the discretised Ohmic bath,
    from a dense symmetric eigendecomposition of the (N+1)x(N+1) potential
    matrix (system row first, counterterm on its diagonal)."""
    w_min = 1e-3 * omega0
    if scheme == "linear":
        edges = np.linspace(w_min, omega_c, n_modes + 1)
    else:
        edges = np.geomspace(w_min, omega_c, n_modes + 1)
    lo, hi = edges[:-1], edges[1:]
    w = (2.0 / 3.0) * (hi**3 - lo**3) / (hi**2 - lo**2)
    lam = np.sqrt((2.0 / math.pi) * w * eta * (hi**2 - lo**2) / 2.0)
    k = np.diag(np.concatenate([[omega0**2 + np.sum(lam**2 / w**2)], w**2]))
    k[0, 1:] = k[1:, 0] = -lam
    evals, vecs = np.linalg.eigh(k)
    u0 = vecs[0] ** 2
    return 0.5 * float(np.sum(u0 / np.sqrt(evals))), 0.5 * float(np.sum(u0 * np.sqrt(evals)))


def ring_entropy(a: float, length: float):
    """(entropy, trace) of the ring eigenvalues (1/L) sqrt(pi/a) e^{-k^2/4a}."""
    n_max = int(math.ceil(math.sqrt(60.0 * a) * length / math.pi)) + 4
    k = 2.0 * math.pi * np.arange(-n_max, n_max + 1) / length
    lam = math.sqrt(math.pi / a) / length * np.exp(-(k**2) / (4.0 * a))
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log(lam))), float(np.sum(lam))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_sweep(text: str, fmt: str):
    if fmt == "json":
        doc = json.loads(text)
        return doc["config"], doc["columns"], doc["rows"]
    config, body = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, val = line[2:].split(" = ", 1)
            config[key] = val
        elif not line.startswith("#"):
            body.append(line.split(","))
    return config, body[0], body[1:]


def _columns(names, rows):
    cols = {}
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        if name == "regime":
            cols[name] = cells
        else:
            cols[name] = np.array([float(c) for c in cells])
    return cols


# ---------------------------------------------------------------------------
# per-model checks
# ---------------------------------------------------------------------------


def _check_derivatives(cols, grid):
    s = cols["S"]
    h = grid[1] - grid[0]
    err = ROUND * (np.abs(s[2:]) + np.abs(s[1:-1]) + np.abs(s[:-2]))
    d1 = np.full_like(s, np.nan)
    d2 = np.full_like(s, np.nan)
    d1[1:-1] = (s[2:] - s[:-2]) / (2.0 * h)
    d2[1:-1] = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / (h * h)
    tol1 = np.full_like(s, 0.0)
    tol2 = np.full_like(s, 0.0)
    tol1[1:-1] = err / (2.0 * h)
    tol2[1:-1] = 2.0 * err / (h * h)
    if "dS_dalpha" in cols:
        got = cols["dS_dalpha"]
        _expect("dS_dalpha", _close(got, d1, 1e-9, tol1), got, d1)
    if "d2S_dalpha2" in cols:
        got = cols["d2S_dalpha2"]
        _expect("d2S_dalpha2", _close(got, d2, 1e-9, tol2), got, d2)


def _check_spin_boson(cols, grid, fixed):
    d0, cutoff, s = fixed["delta0"], fixed["lambda0"], fixed["s"]
    r = d0 / cutoff
    dr, sx = cols["delta_ren"], cols["sigma_x"]
    nan = np.isnan(dr)
    pert = 2.0 * r
    if abs(s - 1.0) < 1e-12:
        below = grid < 1.0
        a = np.where(below, grid, 0.5)
        t_exact = (a / (1.0 - a) + 1.0) * math.log(r)  # ln(Delta_ren / cutoff)
        t_floor = math.log(FLOOR)
        want = np.where(below & (t_exact > t_floor), d0 * r ** (a / (1.0 - a)), np.nan)
        edge = below & (np.abs(t_exact - t_floor) < 1e-9)
        _expect("delta_ren", edge | _close(dr, want, 1e-9), dr, want)
        deloc = np.where(below, r ** (a / (1.0 - a)) / (1.0 - a), 0.0)
        sx_want = np.minimum(1.0, np.maximum(np.where(nan, 0.0, deloc), pert))
        _expect("sigma_x", _close(sx, sx_want, 1e-9), sx, sx_want)
    else:
        t = np.log(np.where(nan, 1.0, dr) / cutoff)
        res = residual(t, grid, s, r)
        slope = 1.0 - grid * np.exp((s - 1.0) * t)  # dh/dt
        tol = 1e-9 + np.abs(slope) * ROUND
        _expect("delta_ren residual", nan | (np.abs(res) <= tol), res, tol)
        best = largest_root(grid, s, np.full_like(grid, r))
        found = ~np.isnan(best)
        _expect("delta_ren has a root", ~nan | ~found, dr, np.exp(best) * cutoff)
        # a root picked by the solver that is not the largest one
        higher = found & ~nan & (best > t + 1e-6)
        _expect("delta_ren largest root", ~higher, dr, np.exp(best) * cutoff)

        def max_rule(d):  # sigma_x from the implicit derivative of Delta_ren
            deloc = (d / d0) / (1.0 - grid * (d / cutoff) ** (s - 1.0))
            return np.minimum(1.0, np.maximum(np.where(nan, 0.0, deloc), pert))

        dr_or_cutoff = np.where(nan, cutoff, dr)  # NaN rows take the 2r branch
        _expect("sigma_x", _from_printed(sx, max_rule, dr_or_cutoff), sx,
                max_rule(dr_or_cutoff))
    entropy = lambda x: spin_entropy(np.clip(x, -1.0, 1.0))  # noqa: E731
    _expect("S", _from_printed(cols["S"], entropy, sx), cols["S"], entropy(sx))
    if "regime" in cols:
        got = cols["regime"]
        if s < 1:
            want = regime_labels(grid, s, r, dr / cutoff)
            ok = [g in w for g, w in zip(got, want)]
        else:
            want = [("",)] * len(got)
            ok = [g == "" for g in got]
        _expect("regime", ok, got, want)


def regime_labels(alpha, s, r, dr_over_cutoff):
    """Accepted label(s) per point under the rule of the sub-Ohmic regime
    classifier: alpha = 0 is coherent; for Delta0/cutoff >= 0.1 a root with
    Delta_ren >= Delta0^2/cutoff is coherent; otherwise alpha > s*Delta0/cutoff
    is localized and the rest is incoherent.  Points within rounding of a
    boundary accept either side."""
    alpha = np.asarray(alpha, float)
    r = np.broadcast_to(np.asarray(r, float), alpha.shape)
    dr = np.broadcast_to(np.asarray(dr_over_cutoff, float), alpha.shape)
    out = []
    for a, rr, d in zip(alpha.ravel(), r.ravel(), dr.ravel()):
        if a == 0.0:
            out.append(("DelocalizedCoherent",))
            continue
        labels = set()
        coherent = set()
        if rr >= TRUST_RATIO and not math.isnan(d):
            gap = d - rr * rr
            if gap >= -1e-9 * rr * rr:
                coherent.add(True)
            if gap < 1e-9 * rr * rr:
                coherent.add(False)
        else:
            coherent.add(False)
        if True in coherent:
            labels.add("DelocalizedCoherent")
        if False in coherent:
            if a > s * rr * (1 - 1e-12):
                labels.add("Localized")
            if a <= s * rr * (1 + 1e-12):
                labels.add("DelocalizedIncoherent")
        out.append(tuple(sorted(labels)))
    return out


def _check_oscillator(cols, grid, fixed):
    w0, wc = fixed["omega0"], fixed["omega_c"]
    kappa = math.pi * grid
    q2, p2 = oscillator_moments(kappa, w0, wc)
    for name, want in (("kappa", kappa), ("q2", q2), ("p2", p2), ("nu", np.sqrt(q2 * p2))):
        _expect(name, _close(cols[name], want, 1e-9), cols[name], want)
    nu = cols["nu"]
    _expect("S", _from_printed(cols["S"], gaussian_entropy, nu), cols["S"],
            gaussian_entropy(nu))
    _expect("S_expansion", _from_printed(cols["S_expansion"], entropy_expansion, nu),
            cols["S_expansion"], entropy_expansion(nu))


def _check_free_particle(cols, grid, fixed):
    a, a_l2, s = free_particle(grid, fixed["omega_c"], fixed["length"])
    for name, want in (("eta", grid), ("a", a), ("a_l2", a_l2)):
        _expect(name, _close(cols[name], want, 1e-9), cols[name], want)
    entropy = lambda x: 0.5 * (np.log(x) + 1.0 - math.log(math.pi))  # noqa: E731
    _expect("S", _from_printed(cols["S"], entropy, cols["a_l2"]), cols["S"],
            entropy(cols["a_l2"]))
    _expect("S formula", _close(cols["S"], s, 1e-9, 1e-11), cols["S"], s)


def check_sweep(params: dict, text: str) -> None:
    model = params["model"]
    fixed = {**SWEEP_DEFAULTS[model], **params["fixed"]}
    config, names, rows = _parse_sweep(text, params["fmt"])
    if config.get("model") != model or int(config.get("n_points", -1)) != params["n_points"]:
        raise Mismatch(f"config echo {config!r} does not describe the job")
    grid = sweep_grid(model, params["alpha_min"], params["alpha_max"], params["n_points"])
    if len(rows) != len(grid):
        raise Mismatch(f"{len(rows)} rows for {len(grid)} grid points")
    cols = _columns(names, rows)
    got = [fmt12(a) for a in cols["alpha"]]
    want = [fmt12(a) for a in grid]
    _expect("alpha", [g == w for g, w in zip(got, want)], got, want)
    if model == "spin-boson":
        _check_spin_boson(cols, grid, fixed)
    elif model == "oscillator":
        _check_oscillator(cols, grid, fixed)
    else:
        _check_free_particle(cols, grid, fixed)
    _check_derivatives(cols, grid)


def check_regime_map(params: dict, text: str) -> None:
    lines = text.splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    ratios = np.geomspace(*params["ratio"])
    alphas = np.geomspace(*params["alpha"])
    if [fmt12(r) for r in ratios] != body[0][1:]:
        raise Mismatch("ratio header does not match the grid")
    if len(body) - 1 != len(alphas):
        raise Mismatch(f"{len(body) - 1} rows for {len(alphas)} alphas")
    s = params["s"]
    a2, r2 = np.meshgrid(alphas, ratios, indexing="ij")
    dr = np.full(a2.shape, np.nan)
    trusted = r2 >= TRUST_RATIO
    dr[trusted] = np.exp(largest_root(a2[trusted], s, r2[trusted]))
    want = regime_labels(a2, s, r2, dr)
    got = []
    for i, row in enumerate(body[1:]):
        if row[0] != fmt12(alphas[i]):
            raise Mismatch(f"row {i} alpha {row[0]} != {fmt12(alphas[i])}")
        got.extend(row[1:])
    _expect("regime", [g in w for g, w in zip(got, want)], got, want)


_REFERENCE_CACHE: dict = {}


def oracle_reference(params: dict) -> dict:
    """Expected analytic and oracle values of an oracle job, computed once
    per distinct input and kept for the life of the process."""
    key = tuple(sorted(params.items()))
    if key not in _REFERENCE_CACHE:
        eta = params["eta"]
        if params["model"] == "oscillator":
            w0, wc = 1.0, 100.0
            q2, p2 = oscillator_moments(np.array(eta / (2.0 * w0)), w0, wc)
            q2, p2 = float(q2), float(p2)
            oq2, op2 = dense_bath_moments(w0, eta, wc, params["n_modes"], params["scheme"])
            ref = {"q2": (q2, oq2), "p2": (p2, op2),
                   "nu": (math.sqrt(q2 * p2), math.sqrt(oq2 * op2))}
        else:
            length = 100.0
            a, _, s = free_particle(np.array(eta), 100.0, length)
            ent, tr = ring_entropy(float(a), length)
            ref = {"S": (float(s), ent), "trace": (1.0, tr)}
        _REFERENCE_CACHE[key] = ref
    return _REFERENCE_CACHE[key]


def check_oracle(params: dict, text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["observable", "analytic", "oracle", "abs_dev", "rel_dev"]:
        raise Mismatch(f"unexpected oracle header {rows[0]!r}")
    ref = oracle_reference(params)
    if [r[0] for r in rows[1:]] != list(ref):
        raise Mismatch(f"observables {[r[0] for r in rows[1:]]} != {list(ref)}")
    for name, an, orc, ad, rd in rows[1:]:
        an, orc, ad, rd = float(an), float(orc), float(ad), float(rd)
        want_an, want_orc = ref[name]
        if not _close(an, want_an, 1e-9):
            raise Mismatch(f"{name} analytic {an!r} != {want_an!r}")
        if not _close(orc, want_orc, 1e-8):
            raise Mismatch(f"{name} oracle {orc!r} != dense reference {want_orc!r}")
        dev = abs(an - orc)
        if not _close(ad, dev, 1e-9, 2 * ROUND * abs(an)):
            raise Mismatch(f"{name} abs_dev {ad!r} != {dev!r}")
        if not _close(rd, ad / abs(an), 1e-9, 2 * ROUND):
            raise Mismatch(f"{name} rel_dev {rd!r} != {ad / abs(an)!r}")


def check_job(job, text: str) -> list:
    """Problems found in one job's output; empty when it is correct."""
    check = {"sweep": check_sweep, "regime-map": check_regime_map, "oracle": check_oracle}
    try:
        check[job.kind](job.params, text)
    except Mismatch as exc:
        return [str(exc)]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
    return []
