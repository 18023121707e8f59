"""Import hygiene: `import dissipent` and the CLI's presets and regime map
load numpy alone; scipy is imported by the functions that use it, on their
first call.  Each case runs in a fresh interpreter, since the test process
has scipy loaded already."""

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

# every function that imports scipy on first use; sigma_x_deficit runs
# through subohmic_rg_flow and the resolvent quadrature through the
# oscillator oracle
SCIPY_USERS = """\
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
    ],
    ids=["import", "preset-list", "fig1-spinboson", "fig1-oscillator", "regime-map"],
)
def test_no_scipy_is_loaded(argv):
    if argv is None:
        body = "import dissipent"
    else:
        body = f"from dissipent.cli import main\nresult = main({argv!r})"
    out = fresh(body)
    assert out["result"] in (None, 0)
    assert out["scipy"] == []


def test_scipy_users_work_in_a_fresh_process():
    want = {}
    exec(SCIPY_USERS, want)
    out = fresh(SCIPY_USERS)
    assert out["result"] == want["result"]
    assert {"scipy.integrate", "scipy.optimize"} <= set(out["scipy"])


def test_eigh_is_bound_in_oracles():
    # the benchmark's tracer wraps dissipent.oracles.eigh, found by name
    assert callable(vars(dissipent.oracles)["eigh"])
