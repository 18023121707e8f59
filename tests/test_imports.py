"""Import hygiene: `import dissipent` loads none of its modules, and a
public name, an error class too, loads its own module on first access;
the package, every closed-form CLI command and the free-particle oracle
run on the standard library alone, only the oscillator oracle loads numpy
(on first call) and none of it past numpy's core, only kink detection loads statistics, only
the commands that read or write JSON load json, nothing loads
dataclasses, and inspect loads only where numpy loads it; no module under src/dissipent
imports scipy, which is a test-only dependency, and bath.py and
gaussian.py do not import numpy either.  Each runtime case runs in a
fresh interpreter, since the test process has numpy and scipy loaded
already."""

import ast
import contextlib
import functools
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dissipent

SRC = Path(__file__).resolve().parents[1] / "src"

# runs `body` with its stdout swallowed, then prints its `result` and the
# modules of each package of LIBS loaded by then; the probe loads json only
# after it has looked
LIBS = ("scipy", "numpy", "numpy.polynomial", "statistics", "dataclasses", "inspect", "json")
PROBE = """\
import contextlib, io, sys
result = None
with contextlib.redirect_stdout(io.StringIO()):
{body}
loaded = {{lib: sorted(m for m in sys.modules if m == lib or m.startswith(lib + "."))
          for lib in {libs!r}}}
import json
print(json.dumps({{"result": result, **loaded}}))
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


@functools.cache
def fresh(body: str) -> dict:
    """`result` and the loaded modules of each library PROBE reports, of
    `body` run in a fresh interpreter with the package on PYTHONPATH; each
    body runs once per session."""
    code = PROBE.format(body="\n".join("    " + line for line in body.splitlines()), libs=LIBS)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def cli_body(argv) -> str:
    """A probe body that runs the CLI on `argv` (None: imports the package)."""
    if argv is None:
        return "import dissipent"
    return f"from dissipent.cli import main\nresult = main({argv!r})"


def cli_stdout(argv) -> str:
    """What `dissipent argv` writes to stdout, run in this process."""
    from dissipent.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


# the package and the commands that load no numpy: each sweep preset in
# both formats, the map preset (CSV only), a regime map, a kink run, a
# sweep and the free-particle oracle, whose ring sums are standard library
NO_NUMPY = {
    "import": None,
    "preset-list": ["preset", "--list"],
    **{
        f"{name}-{fmt}": ["preset", name, "--format", fmt]
        for name in ("fig1-spinboson", "fig1-oscillator")
        for fmt in ("csv", "json")
    },
    "subohmic-map-csv": ["preset", "subohmic-map", "--format", "csv"],
    "regime-map": ["regime-map", "--s", "0.5"],
    "kink": ["kink", "--model", "spin-boson", "--alpha-min", "0.0005", "--alpha-max", "1.1995",
             "--alpha-points", "400", "--column", "sigma_x"],
    "sweep-free-particle": ["sweep", "--model", "free-particle", "--alpha-points", "50"],
    "oracle-free-particle": ["oracle", "--model", "free-particle", "--eta", "1.0"],
}
# the oracles that integrate over a discretised bath
NUMPY_ORACLES = {
    "oracle-oscillator": ["oracle", "--model", "oscillator", "--eta", "1.0"],
    "oracle-oscillator-linear": ["oracle", "--model", "oscillator", "--eta", "1.0",
                                 "--n-modes", "2000", "--scheme", "linear"],
}


@pytest.mark.parametrize("argv", NO_NUMPY.values(), ids=NO_NUMPY.keys())
def test_closed_form_paths_load_no_numpy(argv):
    out = fresh(cli_body(argv))
    assert out["result"] in (None, 0)
    assert out["numpy"] == []


@pytest.mark.parametrize("name", ["import", "sweep-free-particle", "kink"])
def test_statistics_is_loaded_only_to_detect_a_kink(name):
    # statistics loads fractions and decimal, a share of every cold start
    out = fresh(cli_body(NO_NUMPY[name]))
    assert out["statistics"] == (["statistics"] if name == "kink" else [])


@pytest.mark.parametrize(
    "argv", [*NO_NUMPY.values(), *NUMPY_ORACLES.values()], ids=[*NO_NUMPY, *NUMPY_ORACLES]
)
def test_no_dataclasses_and_no_inspect_of_our_own(argv):
    # the records are named tuples: dataclasses, with the inspect, ast and
    # dis it imports, took a third of `import dissipent` (bytecode cached)
    out = fresh(cli_body(argv))
    assert out["result"] in (None, 0)
    assert out["dataclasses"] == []
    # numpy imports inspect itself, so the oscillator oracle loads it with numpy
    assert out["inspect"] == (fresh("import numpy")["inspect"] if out["numpy"] else [])


def test_oracles_module_is_loaded_with_the_cli():
    # the benchmark's tracer wraps these names only in modules already
    # loaded, and its warm pass imports dissipent.cli before it installs
    names = ("eigh", "discrete_bath_moments", "ring_kernel_entropy")
    body = (
        "import dissipent.cli\n"
        "mod = sys.modules.get('dissipent.oracles')\n"
        f"result = mod is not None and [callable(getattr(mod, n, None)) for n in {names!r}]"
    )
    out = fresh(body)
    assert out["result"] == [True] * len(names)
    assert out["numpy"] == []


@pytest.mark.parametrize("argv", NUMPY_ORACLES.values(), ids=NUMPY_ORACLES.keys())
def test_oracle_commands_load_numpy_core_alone(argv):
    # the 16-node rule is constants: numpy.polynomial cost about 1.3 MB a job
    out = fresh(cli_body(argv))
    assert out["result"] == 0
    assert out["numpy"] and out["numpy.polynomial"] == []


def test_every_integral_loads_numpy_core_alone():
    # the oscillator oracle, the free-energy flow and the sub-Ohmic flow
    out = fresh(FORMER_SCIPY_USERS)
    assert out["numpy"] and out["numpy.polynomial"] == []


# the commands that neither read nor write JSON: CSV sweeps given by flags,
# regime maps, the preset list and both oracles
NO_JSON = {
    "sweep-oscillator-csv": ["sweep", "--model", "oscillator", "--alpha-points", "5"],
    "regime-map": NO_NUMPY["regime-map"],
    "preset-list": NO_NUMPY["preset-list"],
    "oracle-free-particle": NO_NUMPY["oracle-free-particle"],
    **NUMPY_ORACLES,
}
PRESETS = SRC / "dissipent" / "presets"
# and those that do: a JSON table, a config file, a preset document, a kink report
JSON_USERS = {
    "sweep-json": ["sweep", "--model", "oscillator", "--alpha-points", "5", "--format", "json"],
    "sweep-config": ["sweep", "--config", str(PRESETS / "fig1-oscillator.json"),
                     "--alpha-points", "5"],
    "preset-csv": ["preset", "fig1-oscillator", "--format", "csv"],
    "kink": NO_NUMPY["kink"],
}


@pytest.mark.parametrize("argv", NO_JSON.values(), ids=NO_JSON.keys())
def test_commands_without_json_do_not_load_it(argv):
    out = fresh(cli_body(argv))
    assert out["result"] == 0
    assert out["json"] == []


@pytest.mark.parametrize("argv", JSON_USERS.values(), ids=JSON_USERS.keys())
def test_commands_that_read_or_write_json_load_it(argv):
    out = fresh(cli_body(argv))
    assert out["result"] == 0
    assert "json" in out["json"]


@pytest.mark.parametrize("argv", NUMPY_ORACLES.values(), ids=NUMPY_ORACLES.keys())
def test_oracle_commands_load_numpy_on_first_call(argv):
    body = (
        "from dissipent.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert main({argv!r}) == 0\n"
        "result = out.getvalue()"
    )
    out = fresh(body)
    assert out["result"] == cli_stdout(argv)
    assert out["numpy"] and out["scipy"] == []


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
    ],
)
def test_no_scipy_is_loaded(argv):
    out = fresh(cli_body(argv))
    assert out["result"] in (None, 0)
    assert out["scipy"] == []


def test_former_scipy_users_load_no_scipy():
    want = {}
    exec(FORMER_SCIPY_USERS, want)
    out = fresh(FORMER_SCIPY_USERS)
    assert out["result"] == want["result"]
    assert out["scipy"] == []


# modules that run on the standard library alone, with no numpy import even
# on first use
STDLIB_ONLY = ("bath.py", "gaussian.py")


def test_no_module_imports_scipy():
    # nor numpy, for the modules of STDLIB_ONLY
    for path in sorted((SRC / "dissipent").rglob("*.py")):
        banned = {"scipy", "numpy"} if path.name in STDLIB_ONLY else {"scipy"}
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, f"{path.name}:{node.lineno} imports {name}"


def test_scipy_is_a_test_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_eigh_is_bound_in_oracles():
    # the benchmark's tracer wraps dissipent.oracles.eigh, found by name
    assert callable(vars(dissipent.oracles)["eigh"])


# the submodules that list their public names in __all__, in the order the
# package walks them
PUBLIC = ("errors", "bath", "gaussian", "spinboson", "oracles", "sweep")
# the dissipent.* modules a probe body has loaded by its end
LOADED = "result = sorted(m for m in sys.modules if m.startswith('dissipent.'))"


@pytest.mark.parametrize("name", PUBLIC)
def test_every_listed_public_name_exists(name):
    module = importlib.import_module(f"dissipent.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_errors_lists_every_exception_class_it_defines():
    errors = dissipent.errors
    classes = {n for n, v in vars(errors).items() if isinstance(v, type)
               and issubclass(v, Exception) and v.__module__ == errors.__name__}
    assert sorted(errors.__all__) == sorted(classes)


def test_the_package_binds_exactly_the_listed_public_names():
    # each public name is listed once, in its module's __all__, and the
    # package resolves it to that module's object
    homes = {}
    for name in PUBLIC:
        module = importlib.import_module(f"dissipent.{name}")
        homes.update((n, module) for n in module.__all__ if n not in homes)
    assert sorted(dissipent.__all__) == sorted(homes)  # each name once
    assert dir(dissipent) == sorted(homes)
    assert [n for n, m in homes.items() if getattr(dissipent, n) is not getattr(m, n)] == []
    # and __init__ lists none of them by hand
    tree = ast.parse((SRC / "dissipent" / "__init__.py").read_text(encoding="utf-8"))
    froms = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert [a.name for n in froms for a in n.names if a.name != "*"] == []
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert strings & set(homes) == set()
    assert dissipent.__version__ == "0.1.0"


def test_import_loads_no_module():
    assert fresh(f"import dissipent\n{LOADED}")["result"] == []


# a name of each module, whose first access loads that module and those
# before it in the walk, and binds the name in the package
FIRST_ACCESS = {
    "DomainError": "errors",
    "BathSpec": "bath",
    "oscillator_moments": "gaussian",
    "delta_ren": "spinboson",
    "discrete_bath_moments": "oracles",
    "run_sweep": "sweep",
}


@pytest.mark.parametrize("name", FIRST_ACCESS)
def test_a_name_loads_its_module_on_first_access(name):
    home = FIRST_ACCESS[name]
    body = (
        "import dissipent\n"
        f"bound = dissipent.{name} is vars(dissipent)['{name}']\n"
        f"{LOADED} + [bound]"
    )
    walked = [f"dissipent.{m}" for m in PUBLIC[: PUBLIC.index(home) + 1]]
    assert fresh(body)["result"] == sorted(walked) + [True]


def test_the_error_classes_load_on_first_access():
    # a class is bound in the package only once it is read; each is its
    # dissipent.errors counterpart, and an except clause naming it through
    # the package catches the package's refusal
    body = (
        "import dissipent\n"
        "bound = 'ConfigError' in vars(dissipent)\n"
        "from dissipent import ConfigError\n"
        f"{LOADED} + [bound]\n"
        "try:\n"
        "    dissipent.BathSpec(-1.0, 0.0, 1.0)\n"
        "except dissipent.DomainError:\n"
        "    result.append('caught')\n"
        "errors = sys.modules['dissipent.errors']\n"
        "result.append([getattr(dissipent, n) is getattr(errors, n) for n in errors.__all__])"
    )
    same = [True] * len(dissipent.errors.__all__)
    assert fresh(body)["result"] == ["dissipent.errors", False, "caught", same]


def test_a_dunder_probe_loads_no_module():
    # pytest, inspect and doctest look for __wrapped__ on what they unwrap
    body = f"import dissipent\nwrapped = getattr(dissipent, '__wrapped__', None)\n{LOADED} + [wrapped]"
    assert fresh(body)["result"] == [None]


def test_star_import_binds_exactly_the_listed_names():
    body = (
        "names = set(dir())\n"
        "from dissipent import *\n"
        "result = sorted(set(dir()) - names - {'names'})"
    )
    assert fresh(body)["result"] == sorted(dissipent.__all__)


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'dissipent' has no attribute 'nope'$"):
        dissipent.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from dissipent import nope  # noqa: F401
