"""Import hygiene: the package and every CLI command load numpy alone, and
no module under src/dissipent imports scipy, which is a test-only
dependency.  Each runtime case runs in a fresh interpreter, since the test
process has scipy loaded already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dissipent

SRC = Path(__file__).resolve().parents[1] / "src"

# runs `body` with its stdout swallowed, then prints its `result` and the
# scipy modules loaded by then
PROBE = """\
import contextlib, io, json, sys
result = None
with contextlib.redirect_stdout(io.StringIO()):
{body}
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({{"result": result, "scipy": loaded}}))
"""

# every function that once imported scipy on first use; sigma_x_deficit
# runs through subohmic_rg_flow and the resolvent quadrature through the
# oscillator oracle
FORMER_SCIPY_USERS = """\
from dissipent import (
    BathSpec, SpinBosonPoint, coherence_crossover_alpha, flow_free_energy,
    oracle_run, subohmic_rg_flow,
)
def point(s, alpha, ratio):
    return SpinBosonPoint(delta0=ratio * 100.0, bath=BathSpec(s=s, alpha=alpha, cutoff=100.0))
result = [
    [row["oracle"] for row in oracle_run("oscillator", {"eta": 1.0})],
    flow_free_energy(point(1.0, 0.2, 0.01)),
    subohmic_rg_flow(point(0.5, 1e-4, 0.02), 1.0).sx_accum,
    coherence_crossover_alpha(point(0.5, 0.1, 0.2)),
]
"""


def fresh(body: str) -> dict:
    """`{"result", "scipy"}` of `body` run in a fresh interpreter with the
    package on PYTHONPATH."""
    code = PROBE.format(body="\n".join("    " + line for line in body.splitlines()))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["preset", "--list"],
        ["preset", "fig1-spinboson"],
        ["preset", "fig1-oscillator"],
        ["regime-map", "--s", "0.5"],
        ["kink", "--model", "oscillator", "--alpha-points", "60"],
        ["oracle", "--model", "oscillator", "--eta", "1.0"],
        ["oracle", "--model", "oscillator", "--eta", "1.0", "--n-modes", "2000",
         "--scheme", "linear"],
        ["oracle", "--model", "free-particle", "--eta", "1.0"],
        ["oracle", "--model", "spin-boson", "--sigma-x", "0.3"],
    ],
    ids=[
        "import",
        "preset-list",
        "fig1-spinboson",
        "fig1-oscillator",
        "regime-map",
        "kink",
        "oracle-oscillator",
        "oracle-oscillator-linear",
        "oracle-free-particle",
        "oracle-spin-boson",
    ],
)
def test_no_scipy_is_loaded(argv):
    if argv is None:
        body = "import dissipent"
    else:
        body = f"from dissipent.cli import main\nresult = main({argv!r})"
    out = fresh(body)
    assert out["result"] in (None, 0)
    assert out["scipy"] == []


def test_former_scipy_users_load_no_scipy():
    want = {}
    exec(FORMER_SCIPY_USERS, want)
    out = fresh(FORMER_SCIPY_USERS)
    assert out["result"] == want["result"]
    assert out["scipy"] == []


def test_no_module_imports_scipy():
    for path in sorted((SRC / "dissipent").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "scipy", f"{path.name}:{node.lineno} imports {name}"


def test_scipy_is_a_test_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_eigh_is_bound_in_oracles():
    # the benchmark's tracer wraps dissipent.oracles.eigh, found by name
    assert callable(vars(dissipent.oracles)["eigh"])
