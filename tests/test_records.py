"""The package's record types are named tuples: immutable, without an
instance __dict__, with a `Name(field=value, ...)` repr, and built by
keyword with their defaults.  A checked record is built only through its
constructor's checks."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import dissipent

from dissipent import (
    BathSpec,
    DiscreteBath,
    FlowState,
    FreeParticleParams,
    FreeParticleResult,
    GaussianKernel,
    KinkReport,
    MomentPair,
    OscillatorParams,
    ReducedSpinState,
    RegimeMap,
    SpinBosonPoint,
    SweepConfig,
    SweepTable,
)
from dissipent.errors import _Checked
from dissipent.oracles import TracePowerResult

BATH = BathSpec(s=1.0, alpha=0.1, cutoff=100.0)

# record -> (the fields it needs, by keyword; the defaults of the others)
RECORDS = {
    BathSpec: ({"s": 1.0, "alpha": 0.1, "cutoff": 100.0}, {}),
    FreeParticleParams: ({"eta": 1.0, "omega_c": 100.0, "length": 10.0}, {"dim": 1}),
    FreeParticleResult: ({"entropy": 1.5, "a": 0.2, "a_l2": 20.0}, {}),
    OscillatorParams: ({"omega0": 1.0, "eta": 0.5, "omega_c": 100.0}, {}),
    MomentPair: ({"q2": 0.5, "p2": 2.0}, {}),
    GaussianKernel: ({"a": 1.0, "b": 0.25}, {}),
    SpinBosonPoint: ({"delta0": 1.0, "bath": BATH}, {}),
    ReducedSpinState: ({"sx": 0.9, "sz": 0.0, "entropy": 0.2}, {}),
    FlowState: ({"lambda_": 1.0, "kappa_tilde": 0.1, "sx_accum": 0.01}, {}),
    DiscreteBath: ({"omegas": np.array([1.0, 2.0]), "couplings": np.array([0.1, 0.2])}, {}),
    TracePowerResult: ({"direct": 0.5, "closed_form": 0.5}, {}),
    SweepConfig: (
        {"model": "oscillator"},
        {"alpha_min": 0.01, "alpha_max": 1.0, "n_points": 100, "fixed": {}, "format": "csv"},
    ),
    SweepTable: ({"config": {"model": "oscillator"}, "columns": {"alpha": [0.1]}}, {}),
    KinkReport: ({"location": 0.5, "strength": 12.0, "order": 2, "grid_spacing": 0.01}, {}),
    RegimeMap: ({"s": 0.5, "ratios": [0.1], "alphas": [0.2], "labels": [["Coherent"]]}, {}),
}


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def record(request):
    cls = request.param
    needed, defaults = RECORDS[cls]
    return cls(**needed), needed, defaults


def test_fields_cannot_be_assigned(record):
    rec, needed, _ = record
    name = next(iter(needed))
    with pytest.raises(AttributeError):
        setattr(rec, name, 1.0)
    with pytest.raises(AttributeError):
        rec.extra = 1.0


def test_no_instance_dict(record):
    rec, _, _ = record
    assert not hasattr(rec, "__dict__")


def test_repr_names_each_field(record):
    rec, _, _ = record
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec._fields)
    assert repr(rec) == f"{type(rec).__name__}({fields})"


def test_built_by_keyword_with_its_defaults(record):
    rec, needed, defaults = record
    assert rec._fields == (*needed, *defaults)
    assert rec._field_defaults == defaults
    for name, value in {**needed, **defaults}.items():
        assert getattr(rec, name) is value or getattr(rec, name) == value


def test_sweep_configs_do_not_share_fixed():
    a, b = SweepConfig(model="oscillator"), SweepConfig(model="oscillator")
    assert a.fixed is not b.fixed
    assert a.fixed is not SweepConfig._field_defaults["fixed"]
    given = {"omega0": 2.0}
    assert SweepConfig(model="oscillator", fixed=given).fixed is not given


# checked record -> a field value its constructor refuses
OUT_OF_DOMAIN = {
    BathSpec: {"alpha": -1.0},
    FreeParticleParams: {"dim": 0},
    OscillatorParams: {"omega0": 0.0},
    MomentPair: {"q2": -1.0},
    GaussianKernel: {"b": 2.0},
    SpinBosonPoint: {"delta0": 0.0},
    SweepConfig: {"n_points": 1},
}


@pytest.mark.parametrize("cls", OUT_OF_DOMAIN, ids=lambda cls: cls.__name__)
def test_copies_are_checked_as_the_constructor_checks(cls):
    # _replace and _make built through tuple.__new__, skipping every check
    needed, defaults = RECORDS[cls]
    bad = {**needed, **defaults, **OUT_OF_DOMAIN[cls]}
    with pytest.raises(ValueError) as refused:
        cls(**bad)
    match = re.escape(str(refused.value))
    with pytest.raises(type(refused.value), match=match):
        cls(**needed)._replace(**OUT_OF_DOMAIN[cls])
    with pytest.raises(type(refused.value), match=match):
        cls._make(bad.values())


def test_every_record_with_its_own_constructor_is_checked():
    # a namedtuple subclass that checks in __new__ but not through _Checked
    # would leave _make and _replace unchecked
    modules = [importlib.import_module(f"dissipent.{m.name}")
               for m in pkgutil.iter_modules(dissipent.__path__)]
    checking = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and "__new__" in vars(obj)
    }
    assert checking == set(OUT_OF_DOMAIN)
    assert all(issubclass(cls, _Checked) for cls in checking)
