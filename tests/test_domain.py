"""Every accepted input ends in a finite value or a package error.

Each property draws a public function's arguments from the ranges its
records accept, extremes included (about 1e-320 to 1e300, and the
smallest subnormal), with exact integers up to the largest double mixed
in wherever a number is accepted, and requires a finite result or one of
the four package errors; on the command line that is exit code 0, 2, 3 or
4 with a one-line message, never a traceback (exit 1).  A result may be a
number, a record or list of numbers, or a numpy array.  The functions of
bath, gaussian, spinboson and oracles are covered, and every command.
The oracles' sizes (modes, Fock levels, the replica index) are drawn
small where valid, so that an exact diagonalisation stays at two modes
and four levels, and also as a non-integer, a bool, 0, -1 and 10**400.
Every defect these properties found is pinned as an @example.

Under the derandomized `dissipent` profile the file takes about 2 s; the
`dissipent-domain` profile in conftest.py runs the same properties with a
larger fixed-seed budget.
"""

import contextlib
import io
import json
import math
import pathlib
import sys
import tempfile
from enum import Enum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dissipent import (
    BathSpec,
    ConfigError,
    DomainError,
    FreeParticleParams,
    GaussianKernel,
    MomentPair,
    NumericalError,
    OscillatorParams,
    RegimeError,
    SpinBosonPoint,
    adiabatic_exponent,
    alpha_from_kappa,
    coherence_crossover_alpha,
    delocalized_log_derivative,
    delta_ren,
    delta_ren_derivative,
    flow_free_energy,
    free_particle_entropy,
    free_particle_kernel_width,
    free_tls_sigma_x,
    gaussian_entropy,
    kappa_from_alpha,
    kappa_tilde_flow,
    kernel_from_moments,
    ohmic_ground_energy,
    ohmic_sigma_x_energy,
    oscillator_entropy,
    oscillator_entropy_expansion,
    oscillator_f,
    oscillator_moments,
    sigma_x,
    sigma_x_deficit,
    spin_entropy,
    subohmic_regime,
    subohmic_rg_flow,
)
from dissipent.cli import main
from dissipent.oracles import (
    discrete_bath_moments,
    discretize_oscillator_bath,
    discretize_spin_bath,
    ed_fock_convergence,
    ed_reduced_density,
    kernel_eigenvalue_entropy,
    ring_kernel_eigenvalues,
    ring_kernel_entropy,
    spin_boson_ed,
    trace_power,
)
from dissipent.sweep import (
    SweepConfig,
    detect_kink,
    linspace,
    oracle_run,
    preset_doc,
    preset_names,
    regime_map_from_doc,
    run_sweep,
    sweep_config,
)

PACKAGE_ERRORS = (ConfigError, DomainError, NumericalError, RegimeError)
# a budget per property: a fifth of the loaded profile's examples
BUDGET = settings(max_examples=max(1, settings.default.max_examples // 5))


def log_uniform(lo: float, hi: float):
    """Floats whose decimal logarithm is uniform on [log10 lo, log10 hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


# a positive integer up to the largest double, which the records accept
# where they accept a number: Python integers grow past any double
INTEGER = st.one_of(
    st.integers(1, 1000),
    log_uniform(1.0, 1e308).map(int),
    st.just(int(sys.float_info.max)),
)
# a positive double from the smallest subnormal to 1e300, the extremes and
# the smallest normal double drawn on their own as well, or an integer
POSITIVE = st.one_of(
    log_uniform(1e-320, 1e300),
    st.sampled_from([5e-324, 1e-320, sys.float_info.min, 1e-3, 1.0, 1e300]),
    INTEGER,
)
NON_NEGATIVE = st.one_of(st.sampled_from([0.0, 0]), POSITIVE)
# bath exponents: the special s = 1 and the sub- and super-Ohmic sides
EXPONENT = st.one_of(st.sampled_from([1.0, 0.5, 1.5, 1.0 - 1e-13]), POSITIVE)
# couplings: the Ohmic landmarks 1/2 and 1 besides the whole range
COUPLING = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 / math.pi]), NON_NEGATIVE)
# fractions of a reference scale, in (0, 1]
FRACTION = st.one_of(st.sampled_from([1.0, 1]), log_uniform(1e-320, 1.0))


def finite(value) -> bool:
    """Whether every number in value (a number, None, a label, a record
    of them, a list of numbers or a numpy array) is finite."""
    if value is None or isinstance(value, (str, Enum)):
        return True
    if isinstance(value, tuple):
        return all(map(finite, value))
    if isinstance(value, (list, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    return math.isfinite(value)


def outcome(fn, *args):
    """fn(*args), or None for a package error; any other exception
    propagates, and a non-finite result fails the property."""
    try:
        value = fn(*args)
    except PACKAGE_ERRORS:
        return None
    assert finite(value), f"{fn.__name__}{args!r} = {value!r}"
    return value


# ----------------------------------------------------------------------- bath


@BUDGET
@given(EXPONENT, COUPLING, POSITIVE, st.one_of(FRACTION, st.sampled_from([0.0, 2.0, math.nan])))
@example(0.5, 1e300, 1.0, 1e-16)  # X past the largest double: inf
@example(5e-324, 0.0, 1.0, 1e-309)  # math.expm1 raised OverflowError
def test_bath(s, alpha, cutoff, fraction):
    bath = outcome(BathSpec, s, alpha, cutoff)
    lambda_low = fraction * cutoff
    if bath is not None and not 0 < lambda_low <= cutoff:
        with pytest.raises(DomainError, match="lambda_low must lie in"):
            adiabatic_exponent(bath, lambda_low)
    elif bath is not None:
        outcome(adiabatic_exponent, bath, lambda_low)


# ------------------------------------------------------------- free particle


@BUDGET
@given(POSITIVE, POSITIVE, POSITIVE, st.integers(1, 3))
@example(1.0, 100.0, 1e200, 1)  # length**2 raised OverflowError
@example(1.0, 100.0, 1e-200, 1)  # a L**2 underflowed to 0: math domain error
@example(1e-300, 1e-300, 1e160, 1)  # a L**2 overflowed: S = inf
@example(1.0, 100.0, 100.0, 10**308)  # S = inf
@example(1.0, 100.0, 100.0, 10**400)  # 0.5 * dim raised OverflowError
@example(1.0, 100.0, 10**200, 1)  # the integer length**2 did not convert to a float
def test_free_particle(eta, omega_c, length, dim):
    p = outcome(FreeParticleParams, eta, omega_c, length, dim)
    if p is not None:
        outcome(free_particle_kernel_width, p)
        outcome(free_particle_entropy, p)


# ---------------------------------------------------------------- oscillator


@BUDGET
@given(POSITIVE, NON_NEGATIVE, POSITIVE)
@example(1e-320, 0.0, 100.0)  # <q^2> overflowed: oscillator_entropy was NaN
def test_oscillator(omega0, eta, omega_c):
    p = outcome(OscillatorParams, omega0, eta, omega_c)
    if p is None:
        return
    outcome(oscillator_f, eta / (2.0 * omega0))
    outcome(oscillator_entropy, p)
    m = outcome(oscillator_moments, p)
    if m is not None:
        outcome(oscillator_entropy_expansion, m)
        outcome(kernel_from_moments, m)


@BUDGET
@given(COUPLING)
@example(int(sys.float_info.max))  # kappa = pi alpha overflowed: inf
def test_coupling_axis(alpha):
    kappa = outcome(kappa_from_alpha, alpha)
    if kappa is not None:
        outcome(alpha_from_kappa, kappa)
        outcome(oscillator_f, kappa)


@BUDGET
@given(st.one_of(POSITIVE, st.just(math.inf)), st.one_of(POSITIVE, st.just(math.inf)))
@example(math.inf, 1.0)  # a non-finite moment was accepted
@example(1e8, 1e300)  # a/b = 4 <q^2><p^2> overflowed: inf
@example(10**200, 10**200)  # the integer <q^2><p^2> did not convert to a float
def test_moment_pair(q2, p2):
    m = outcome(MomentPair, q2, p2)
    if m is None:
        return
    for name in ("nu", "eps"):
        outcome(getattr, m, name)
    assert finite(4.0 * m.q2 * m.p2)  # a/b
    outcome(gaussian_entropy, m.nu)
    outcome(oscillator_entropy_expansion, m)
    k = outcome(kernel_from_moments, m)
    if k is not None:
        outcome(GaussianKernel, k.a, k.b)
        outcome(getattr, k, "a_over_b")


@BUDGET
@given(st.one_of(POSITIVE.map(lambda d: 0.5 + d), st.sampled_from([0.5, 0.5 - 1e-13])))
def test_gaussian_entropy(nu):
    outcome(gaussian_entropy, nu)


# ---------------------------------------------------------------- spin-boson


@st.composite
def spin_points(draw):
    """(delta0, s, alpha, cutoff) with delta0 below the cutoff."""
    cutoff = draw(POSITIVE)
    ratio = draw(st.one_of(log_uniform(sys.float_info.min, 0.999), st.just(0.01)))
    delta0 = ratio * cutoff
    return draw(st.sampled_from([delta0, int(delta0)])), draw(EXPONENT), draw(COUPLING), cutoff


def point_of(args):
    delta0, s, alpha, cutoff = args
    bath = outcome(BathSpec, s, alpha, cutoff)
    return None if bath is None else outcome(SpinBosonPoint, delta0, bath)


@BUDGET
@given(spin_points(), NON_NEGATIVE)
@example((1.0, 1.0, 1.5, 100.0), 5e-324)  # ln of an underflowed ratio: ValueError
@example((2.6e-105, 1.0, 4.27e-5, 3.67e34), 8e-284)  # the flow integrand overflowed: inf
@example((1e-302, 1.0, 1.5, 1e-300), 0.0)  # the flow floor 1e-30 cutoff underflowed: ValueError
@example((1e-322, 1.0 - 1e-13, 0.5, 1e-320), 0.0)  # Delta_ren rounded to 0: ZeroDivisionError
@example((0.01, 1e300, 1e300, 1.0), 0.0)  # alpha (s-1) overflowed: a NaN log-derivative
def test_spin_boson_point(args, temperature):
    point = point_of(args)
    if point is None:
        return
    for fn in (delta_ren, delta_ren_derivative, delocalized_log_derivative,
               ohmic_ground_energy, ohmic_sigma_x_energy, coherence_crossover_alpha,
               subohmic_regime):
        outcome(fn, point)
    outcome(flow_free_energy, point, temperature)
    sx = outcome(sigma_x, point)
    if sx is not None:
        outcome(spin_entropy, sx)


@BUDGET
@given(spin_points(), st.one_of(FRACTION, st.sampled_from([0.0, 2.0])))
@example((1.0, 0.5, 0.1, 100.0), 0.0)  # math domain error
@example((1.0, 0.5, 0.1, 100.0), 2.0)  # above the cutoff: a wrong-signed value
@example((1e-16, 5e-324, 5e-324, 1.0), 1.0)  # kt0 just above s: ZeroDivisionError
@example((0.1, 0.5, 0.05 * (1.0 + 1e-13), 1.0), 1e-100)  # kt0 just above s: deficit -1e62
@example((0.1, 0.5, 0.06, 1.0), 1e-20)  # kt0 = 0.6 > s: through the pole, deficit -6e9
@example((1, 0.5, 10**200, 10**200), 1.0)  # the integer alpha cutoff did not convert to a float
def test_subohmic_flow(args, fraction):
    point = point_of(args)
    if point is None:
        return
    lambda_stop = fraction * point.bath.cutoff
    for fn in (sigma_x_deficit, subohmic_rg_flow):
        if 0 < lambda_stop <= point.bath.cutoff:
            value = outcome(fn, point, lambda_stop)
            deficit = value.sx_accum if isinstance(value, tuple) else value
            assert deficit is None or deficit >= 0
        else:
            with pytest.raises(PACKAGE_ERRORS):
                fn(point, lambda_stop)


@BUDGET
@given(POSITIVE, st.one_of(FRACTION, st.just(0.0)), NON_NEGATIVE)
@example(1e300, 0.1, 0.0)  # s kt0 overflowed: inf
@example(10**200, 0.0, 10**200)  # the integer s ell did not convert to a float
def test_kappa_tilde_flow(s, fraction, ell):
    # its range: 0 <= kt0 <= s and ell >= 0
    outcome(kappa_tilde_flow, fraction * s, s, ell)


@BUDGET
@given(POSITIVE, POSITIVE)
def test_free_tls_sigma_x(delta0, temperature):
    outcome(free_tls_sigma_x, delta0, temperature)


@BUDGET
@given(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1.0 + 1e-16, math.nan, -math.inf])))
def test_spin_entropy(sx):
    outcome(spin_entropy, sx)


# -------------------------------------------------------------------- oracles


def sizes(low: int, high: int):
    """A size from low to high, or one that no size rule accepts."""
    return st.one_of(st.integers(low, high), st.sampled_from([2.5, 3.0, True, 0, -1, 10**400]))


@BUDGET
@given(POSITIVE, NON_NEGATIVE, POSITIVE, sizes(8, 40),
       st.sampled_from(["logarithmic", "linear", "cubic"]))
@example(1.0, 1.0, 100.0, 8.0, "logarithmic")  # a float mode count: numpy's TypeError
@example(1.0, 1.0, 1e200, 8, "logarithmic")  # hi**3 overflowed: NaN frequencies
@example(1e100, 1e203, 1.0, 8, "logarithmic")  # u_lo underflowed to 0: math domain error
@example(2000.0, 1.0, 1.0, 8, "logarithmic")  # the edge 1e-3 omega0 lay above omega_c: DomainError
@example(1.0, 1.0, 5e-324, 8, "logarithmic")  # the lowest edge underflowed: numpy's ValueError
def test_oscillator_oracle(omega0, eta, omega_c, n_modes, scheme):
    p = outcome(OscillatorParams, omega0, eta, omega_c)
    if p is not None:
        outcome(discretize_oscillator_bath, p, n_modes, scheme)
        outcome(discrete_bath_moments, p, n_modes, scheme)


@BUDGET
@given(st.one_of(POSITIVE, st.sampled_from([0.0, -1.0, math.nan, math.inf])), EXPONENT, COUPLING,
       POSITIVE, sizes(1, 2), sizes(2, 4))
@example(math.nan, 1.0, 0.1, 1.0, 2, 3)  # a NaN delta0 reached the eigensolver
@example(math.inf, 1.0, 0.1, 1.0, 2, 3)  # an infinite delta0 reached the eigensolver
@example(1.0, 0.5, 0.1, 5e-324, 2, 3)  # the lowest edge 1e-3 cutoff underflowed: numpy's ValueError
@example(1.0, 1e13, 1.0, 1e-3, 2, 3)  # cutoff ** (1 - s) raised OverflowError
@example(1.0, 1e-320, 1e300, 1e300, 2, 3)  # infinite couplings
@example(1.0, 1.0, 0.1, 1.0, 2.5, 3)  # a float mode count: numpy's TypeError
@example(1.0, 1.0, 0.1, 1.0, 2, 2.5)  # a float fock_cut: numpy's TypeError
def test_spin_bath_and_exact_diagonalisation(delta0, s, alpha, cutoff, n_modes, fock_cut):
    bath = outcome(BathSpec, s, alpha, cutoff)
    discrete = None if bath is None else outcome(discretize_spin_bath, bath, n_modes)
    if discrete is not None:
        for fn in (ed_reduced_density, spin_boson_ed, ed_fock_convergence):
            outcome(fn, delta0, discrete, fock_cut)


@BUDGET
@given(st.one_of(POSITIVE, st.sampled_from([0.0, -1.0, math.nan, math.inf])),
       st.one_of(POSITIVE, st.sampled_from([0.0, -1.0, math.nan, math.inf])))
def test_ring_kernel(a, length):
    outcome(ring_kernel_eigenvalues, a, length)
    outcome(ring_kernel_entropy, a, length)


@BUDGET
@given(POSITIVE, NON_NEGATIVE, sizes(1, 64))
@example(10.0, 1.0, 2.5)  # a float replica index: TypeError
@example(10.0, 1.0, 10**400)  # OverflowError
def test_replica_traces(a, b, n):
    kernel = outcome(GaussianKernel, a, b)
    if kernel is not None:
        outcome(trace_power, kernel, n)
        outcome(kernel_eigenvalue_entropy, kernel)


# ------------------------------------------------------------- command line


def run(argv) -> tuple:
    """main(argv) in this process: its exit code, with a one-line message
    on standard error for a failure, and its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    assert code in (0, 2, 3, 4), f"{argv}: exit {code}\n{err.getvalue()}"
    if code and not err.getvalue().startswith("usage:"):
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return code, out.getvalue()


def flags(**values) -> list:
    return [a for key, val in values.items() for a in (f"--{key.replace('_', '-')}", repr(val))]


def run_with_config(argv, doc) -> tuple:
    """run(argv) with `doc` written to a JSON file given as --config: a
    document keeps an integer exact, where a flag parses it as a float."""
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder, "config.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        return run([*argv, "--config", path])


# the sweep models, each with the parameters it reads and their draws
MODEL_DRAWS = {
    "free-particle": {"omega_c": POSITIVE, "length": POSITIVE, "dim": st.integers(1, 3)},
    "oscillator": {"omega0": POSITIVE, "omega_c": POSITIVE},
    "spin-boson": {"delta0": POSITIVE, "lambda0": POSITIVE, "s": EXPONENT},
}


@st.composite
def sweep_docs(draw):
    """A sweep document: a model, its grid bounds and some of its parameters."""
    model = draw(st.sampled_from(sorted(MODEL_DRAWS)))
    fixed = {key: draw(s) for key, s in MODEL_DRAWS[model].items() if draw(st.booleans())}
    lo = draw(st.one_of(POSITIVE, st.floats(-2.0, 2.0)))
    return {"model": model, "alpha_min": lo, "alpha_max": lo + draw(POSITIVE), "fixed": fixed}


def sweep_flags(doc, points) -> list:
    """The flags that state sweep document `doc`, with `points` grid points."""
    grid = {key: doc[key] for key in ("alpha_min", "alpha_max") if key in doc}
    return ["--model", doc["model"], *flags(**grid, alpha_points=points, **doc["fixed"])]


@BUDGET
@given(sweep_docs())
@example({"model": "free-particle", "fixed": {"length": 1e200}})
@example({"model": "free-particle", "fixed": {"length": 1e-200}})
@example({"model": "oscillator", "fixed": {"omega0": 1e-320}})
@example({"model": "free-particle", "fixed": {"length": 10**200}})  # length**2 raised OverflowError
# math.isfinite raised OverflowError on an integer past the largest double
@example({"model": "oscillator", "alpha_min": 0, "alpha_max": 10**400, "fixed": {}})
def test_sweep_command(doc):
    # the document as flags, and as a --config file
    run(["sweep", *sweep_flags(doc, 3)])
    run_with_config(["sweep", "--alpha-points", "3"], doc)


@BUDGET
@given(sweep_docs())
def test_kink_command(doc):
    run(["kink", *sweep_flags(doc, 50)])


@BUDGET
@given(EXPONENT, POSITIVE, POSITIVE, POSITIVE, POSITIVE)
# 10 to the power of log10 of the largest double raised OverflowError
@example(0.5, 0.1, 0.5, sys.float_info.max, sys.float_info.max)
def test_regime_map_command(s, ratio_min, ratio_max, alpha_min, alpha_max):
    doc = {"s": s, "ratio_min": ratio_min, "ratio_max": ratio_max,
           "alpha_min": alpha_min, "alpha_max": alpha_max, "ratio_points": 4, "alpha_points": 4}
    run(["regime-map", *flags(**doc)])
    with contextlib.suppress(*PACKAGE_ERRORS):
        regime_map_from_doc(doc)  # the same document, its integers kept


ORACLE_DRAWS = {
    "free-particle": {"omega_c": POSITIVE, "length": POSITIVE},
    "oscillator": {"omega0": POSITIVE, "omega_c": POSITIVE, "n_modes": st.integers(8, 40),
                   "scheme": st.sampled_from(["logarithmic", "linear"])},
}


@st.composite
def oracle_inputs(draw):
    """An oracle model and its inputs: eta and some of the others."""
    model = draw(st.sampled_from(sorted(ORACLE_DRAWS)))
    given_ = {key: draw(s) for key, s in ORACLE_DRAWS[model].items() if draw(st.booleans())}
    return model, {"eta": draw(NON_NEGATIVE), **given_}


@BUDGET
@given(oracle_inputs())
@example(("free-particle", {"eta": 1.0, "length": 1e200}))
@example(("free-particle", {"eta": 1.0, "length": 1e-200}))
@example(("oscillator", {"eta": 1.0, "omega0": 1e-100}))
@example(("oscillator", {"eta": 1.0, "omega_c": 1e72}))
@example(("oscillator", {"eta": 0.0, "omega0": 2.2250738585072014e-308}))
@example(("oscillator", {"eta": 1.0, "omega0": 2.4754494749775103e-43}))
@example(("free-particle", {"eta": 1.0, "length": 1e-160}))  # q overflowed: NaN rows
@example(("oscillator", {"eta": 1.0, "omega_c": 10**20}))  # numpy took the integer as an object
def test_oracle_command(inputs):
    # every oracle row is a number: a NaN or inf cell is a defect
    model, params = inputs
    argv = ["--model", model, *flags(**params)]
    code, out = run(["oracle", *[a.strip("'") for a in argv]])  # the scheme's repr is quoted
    assert not (code == 0 and ("nan" in out or "inf" in out)), out
    with contextlib.suppress(*PACKAGE_ERRORS):
        rows = oracle_run(model, params)  # the same inputs, their integers kept
        assert all(finite(v) for row in rows for v in row.values()), rows


@pytest.mark.parametrize("eta, omega_c", [(3e17, 7.6e17), (4.8e93, 1e96)])
def test_ring_ladder_is_refused_before_it_is_built(eta, omega_c, capsys):
    # n_max would be about 4.7e10 and 1.4e49 distinct eigenvalues
    argv = ["oracle", "--model", "free-particle", "--eta", str(eta), "--omega-c", str(omega_c)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical error: the ring ladder needs")


@BUDGET
@given(st.sampled_from(preset_names()), st.sampled_from([[], ["--format", "json"]]))
def test_preset_command(name, fmt):
    run(["preset", name, *fmt])


# ------------------------------------------- integers past the digit limit

# an integer past Python's limit on the digits it converts to text (4,300
# by default, since 3.11 and 3.10.7): a message that echoed it with str or
# repr raised ValueError in place of the package's error
HUGE = 10**5000
OSCILLATOR = OscillatorParams(1.0, 1.0, 100.0)
# each site that echoes a value it refuses, with a call that reaches it
ECHOING = {
    "BathSpec s": lambda: BathSpec(HUGE, 0.1, 1.0),
    "SpinBosonPoint delta0": lambda: SpinBosonPoint(HUGE, BathSpec(1.0, 0.1, 1.0)),
    "SpinBosonPoint delta0 <= 0": lambda: SpinBosonPoint(-HUGE, BathSpec(1.0, 0.1, 1.0)),
    "free-particle sweep dim": lambda: run_sweep(SweepConfig("free-particle", fixed={"dim": HUGE})),
    "FreeParticleParams dim": lambda: FreeParticleParams(1.0, 1.0, 1.0, [HUGE]),
    "SweepConfig alpha_max": lambda: SweepConfig("oscillator", alpha_max=HUGE),
    "SweepConfig n_points": lambda: SweepConfig("oscillator", n_points=HUGE),
    "SweepConfig n_points < 3": lambda: SweepConfig("oscillator", n_points=-HUGE),
    "SweepConfig model": lambda: SweepConfig(HUGE),
    "sweep document kind": lambda: sweep_config({"kind": HUGE, "model": "oscillator"}),
    "regime_map_from_doc ratio_points": lambda: regime_map_from_doc({"s": 0.5, "ratio_points": HUGE}),
    "oracle_run oscillator n_modes": lambda: oracle_run("oscillator", {"eta": 1.0, "n_modes": HUGE}),
    "oracle_run model": lambda: oracle_run(HUGE, {}),
    "preset_doc name": lambda: preset_doc(HUGE),
    "detect_kink column": lambda: detect_kink(run_sweep(SweepConfig("oscillator")), HUGE),
    "linspace": lambda: linspace(0.0, 1.0, -HUGE),
    "spin_entropy": lambda: spin_entropy(-HUGE),
    "gaussian_entropy": lambda: gaussian_entropy(-HUGE),
    "GaussianKernel b": lambda: GaussianKernel(1.0, -HUGE),
    "GaussianKernel a": lambda: GaussianKernel(-HUGE, 0.0),
    "adiabatic_exponent lambda_low": lambda: adiabatic_exponent(BathSpec(1.0, 0.1, 1.0), HUGE),
    "discretize_oscillator_bath n_modes": lambda: discretize_oscillator_bath(OSCILLATOR, HUGE),
    "discretize_oscillator_bath scheme": lambda: discretize_oscillator_bath(OSCILLATOR, 8, HUGE),
    "discretize_spin_bath n_modes": lambda: discretize_spin_bath(BathSpec(1.0, 0.1, 1.0), HUGE),
    "trace_power n": lambda: trace_power(GaussianKernel(1.0, 0.1), -HUGE),
}


@pytest.mark.parametrize("call", ECHOING.values(), ids=ECHOING)
def test_an_integer_past_the_digit_limit_gets_the_package_error(call):
    with pytest.raises(PACKAGE_ERRORS) as refusal:
        call()
    if hasattr(sys, "get_int_max_str_digits"):  # the limit exists: the integer is named by size
        message = str(refusal.value)
        assert "an integer of 16610 bits" in message or "a list too long to print" in message
