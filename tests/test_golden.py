"""Golden outputs of the sweeps, the sub-Ohmic regime map and the oracles.

The files under tests/golden/ hold every sweep cell and every oracle_run
cell at full precision (Python repr) and the regime map as its CSV text.
Comparison rules for sweeps:

* string cells, NaN positions and the alpha grid match exactly;
* delta_ren, sigma_x and S match at relative 1e-11; the oscillator
  columns kappa, q2, p2 and nu at relative 1e-10;
* the finite-difference columns dS_dalpha and d2S_dalpha2 match within
  1e-12 * max|S| / h**k (k = 1, 2; h the grid spacing), because the
  stencils amplify last-digit noise in S by 1/h**k.

For oracle_run outputs the observable names match exactly and the
analytic and oracle values at relative 1e-10.  abs_dev and rel_dev are
differences of those two, so they are held to the error the two values
may carry: abs_dev within 1e-10 * (|analytic| + |oracle|), rel_dev within
twice that over |analytic|.

Regenerate, only when a change to these numbers is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from dissipent.sweep import (
    SweepTable,
    oracle_run,
    preset_doc,
    regime_map_from_doc,
    regime_map_to_csv,
    run_sweep,
    sweep_config,
)

GOLDEN = Path(__file__).parent / "golden"

REL_COLUMNS = {
    "delta_ren": 1e-11,
    "sigma_x": 1e-11,
    "S": 1e-11,
    **dict.fromkeys(("kappa", "q2", "p2", "nu"), 1e-10),
}
STENCIL_ORDER = {"dS_dalpha": 1, "d2S_dalpha2": 2}
STENCIL_TOL = 1e-12
ORACLE_REL = 1e-10


def _fig1(**fixed):
    cfg = sweep_config(preset_doc("fig1-spinboson"))
    return cfg._replace(fixed={**cfg.fixed, **fixed})


# name -> sweep config; the s != 1 sweeps share the preset's alpha range
SWEEPS = {
    "fig1-spinboson": _fig1(),
    "spinboson-s0.5-ratio0.2": _fig1(delta0=20.0, lambda0=100.0, s=0.5),
    "spinboson-s1.5": _fig1(s=1.5),
    "fig1-oscillator": sweep_config(preset_doc("fig1-oscillator")),
}
MAPS = ("subohmic-map",)  # regime-map presets

# name -> oracle_run arguments; an under- and an overdamped friction
# (kappa = 0.4 and 1.5 at omega0 = 1), each on both discretisation schemes
ORACLES = {
    f"oracle-oscillator-eta{eta:g}-{tag}": (
        "oscillator", {"eta": eta, "n_modes": n, "scheme": scheme}
    )
    for eta in (0.8, 3.0)
    for tag, n, scheme in (("log400", 400, "logarithmic"), ("lin2000", 2000, "linear"))
}
ORACLES["oracle-free-particle-eta1"] = ("free-particle", {"eta": 1.0})


def _cell(x) -> str:
    return x if isinstance(x, str) else repr(float(x))


def sweep_text(table: SweepTable) -> str:
    names = list(table.columns)
    lines = [",".join(names)]
    for i in range(len(table.columns["alpha"])):
        lines.append(",".join(_cell(table.columns[c][i]) for c in names))
    return "\n".join(lines) + "\n"


def oracle_text(rows: list[dict]) -> str:
    names = list(rows[0])
    return "\n".join([",".join(names)] + [",".join(_cell(r[c]) for c in names) for r in rows]) + "\n"


def _parse(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def read_sweep(text: str) -> dict:
    header, *rows = text.splitlines()
    names = header.split(",")
    cells = [row.split(",") for row in rows]
    return {n: [_parse(r[j]) for r in cells] for j, n in enumerate(names)}


def compare_sweeps(want: dict, got: dict) -> list[str]:
    """Every rule breach as a message; empty when the tables agree."""
    if list(want) != list(got):
        return [f"columns {list(got)} != {list(want)}"]
    problems = []
    alpha = np.asarray(want["alpha"], dtype=float)
    h = alpha[1] - alpha[0]
    s_scale = float(np.nanmax(np.abs(np.asarray(want["S"], dtype=float))))
    for name, cells in want.items():
        if any(isinstance(c, str) for c in cells):
            bad = [i for i, (a, b) in enumerate(zip(cells, got[name])) if a != b]
            if bad:
                problems.append(f"{name}: string cells differ at rows {bad[:5]}")
            continue
        w = np.asarray(cells, dtype=float)
        g = np.asarray(got[name], dtype=float)
        if not np.array_equal(np.isnan(w), np.isnan(g)):
            problems.append(f"{name}: NaN positions differ")
            continue
        ok = ~np.isnan(w)
        if name in REL_COLUMNS:
            bound = REL_COLUMNS[name] * np.abs(w[ok])
        elif name in STENCIL_ORDER:
            bound = STENCIL_TOL * s_scale / h ** STENCIL_ORDER[name]
        else:
            bound = 0.0
        bad = np.flatnonzero(np.abs(g[ok] - w[ok]) > bound)
        if bad.size:
            rows = np.flatnonzero(ok)[bad]
            problems.append(f"{name}: {rows.size} cells off tolerance, first at row {rows[0]}")
    return problems


def compare_oracles(want: dict, got: dict) -> list[str]:
    """Every rule breach as a message; empty when the outputs agree."""
    if list(want) != list(got) or want["observable"] != got["observable"]:
        return [f"observables {got.get('observable')} != {want['observable']}"]
    problems = []
    for i, name in enumerate(want["observable"]):
        an, orc = want["analytic"][i], want["oracle"][i]
        tol = ORACLE_REL * (abs(an) + abs(orc))
        bounds = {
            "analytic": ORACLE_REL * abs(an),
            "oracle": ORACLE_REL * abs(orc),
            "abs_dev": tol,
            "rel_dev": 2.0 * tol / abs(an),
        }
        for col, bound in bounds.items():
            if not abs(got[col][i] - want[col][i]) <= bound:
                problems.append(f"{name} {col}: {got[col][i]!r} != {want[col][i]!r}")
    return problems


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    want = read_sweep((GOLDEN / f"{name}.csv").read_text())
    got = read_sweep(sweep_text(run_sweep(SWEEPS[name])))
    assert compare_sweeps(want, got) == []


@pytest.mark.parametrize("name", MAPS)
def test_regime_map_matches_golden(name):
    want = (GOLDEN / f"{name}.csv").read_text()
    assert regime_map_to_csv(regime_map_from_doc(preset_doc(name))) == want


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_matches_golden(name):
    want = read_sweep((GOLDEN / f"{name}.csv").read_text())
    got = read_sweep(oracle_text(oracle_run(*ORACLES[name])))
    assert compare_oracles(want, got) == []


def test_compare_oracles_flags_each_rule():
    want = read_sweep((GOLDEN / "oracle-oscillator-eta0.8-log400.csv").read_text())
    assert compare_oracles(want, want) == []
    for col in ("analytic", "oracle", "abs_dev", "rel_dev"):
        got = {k: list(v) for k, v in want.items()}
        got[col][1] = got[col][1] * (1.0 + 1e-9) + 1e-9
        assert compare_oracles(want, got) == [f"p2 {col}: {got[col][1]!r} != {want[col][1]!r}"]
    got = {k: list(v) for k, v in want.items()}
    got["observable"][0] = "x2"
    assert len(compare_oracles(want, got)) == 1


def test_compare_sweeps_flags_each_rule():
    want = read_sweep((GOLDEN / "fig1-spinboson.csv").read_text())
    assert compare_sweeps(want, want) == []
    i = next(k for k, v in enumerate(want["delta_ren"]) if not math.isnan(v))
    # h = 1e-3 and max|S| = ln 2 put the d2S_dalpha2 tolerance at 6.9e-7
    for name, scale, shift in (("delta_ren", 1.0 + 1e-10, 0.0), ("d2S_dalpha2", 1.0, 1e-6)):
        got = {k: list(v) for k, v in want.items()}
        got[name][i + 1] = got[name][i + 1] * scale + shift
        assert compare_sweeps(want, got)[0].startswith(name)
    got = {k: list(v) for k, v in want.items()}
    got["delta_ren"][i] = math.nan
    assert compare_sweeps(want, got) == ["delta_ren: NaN positions differ"]


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, cfg in SWEEPS.items():
        (GOLDEN / f"{name}.csv").write_text(sweep_text(run_sweep(cfg)))
    for name in MAPS:
        (GOLDEN / f"{name}.csv").write_text(regime_map_to_csv(regime_map_from_doc(preset_doc(name))))
    for name, args in ORACLES.items():
        (GOLDEN / f"{name}.csv").write_text(oracle_text(oracle_run(*args)))


if __name__ == "__main__":
    main()
