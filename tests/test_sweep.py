import functools
import json
import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dissipent import (
    BathSpec,
    ConfigError,
    DomainError,
    FreeParticleParams,
    OscillatorParams,
    RegimeError,
    SpinBosonPoint,
    SweepConfig,
    delta_ren,
    detect_kink,
    free_particle_entropy,
    gaussian_entropy,
    kappa_from_alpha,
    oracle_run,
    oscillator_entropy_expansion,
    oscillator_moments,
    run_sweep,
    sigma_x,
    spin_entropy,
    subohmic_regime,
)
from dissipent import sweep
from dissipent.sweep import (
    SweepTable,
    _central_derivatives,
    format_value,
    geomspace,
    linspace,
    preset_doc,
    preset_names,
    oracle_to_csv,
    regime_map,
    regime_map_from_doc,
    regime_map_to_csv,
    sweep_config,
    table_to_csv,
    table_to_json,
)


def spin_cfg(**kw):
    base = dict(
        model="spin-boson",
        alpha_min=0.0005,
        alpha_max=1.1995,
        n_points=1200,
        fixed={"delta0": 1.0, "lambda0": 100.0, "s": 1.0},
    )
    base.update(kw)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def spin_table():
    return run_sweep(spin_cfg())


# ------------------------------------------------------------------ config


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SweepConfig(model="bogus", alpha_min=0.0, alpha_max=1.0, n_points=10)
    with pytest.raises(ConfigError):
        SweepConfig(model="oscillator", alpha_min=1.0, alpha_max=0.5, n_points=10)
    with pytest.raises(ConfigError):
        SweepConfig(model="oscillator", alpha_min=0.0, alpha_max=1.0, n_points=2)
    with pytest.raises(ConfigError):
        SweepConfig(
            model="oscillator", alpha_min=0.1, alpha_max=1.0, n_points=10,
            fixed={"delta0": 1.0},
        )


@pytest.mark.parametrize(
    "kw, word",
    [
        ({"n_points": 10.0}, "n_points"),  # was a TypeError inside run_sweep
        ({"fixed": [1]}, "fixed"),  # was an AttributeError
        ({"alpha_min": "0.1"}, "alpha_min"),
        ({"alpha_max": True}, "alpha_max"),  # a bool is no number
        ({"format": None}, "format"),
        ({"format": "xml"}, "format must be csv or json"),
    ],
)
def test_sweep_config_refuses_mistyped_values(kw, word):
    grid = {"alpha_min": 0.1, "alpha_max": 1.0, "n_points": 10}
    with pytest.raises(ConfigError, match=word):
        SweepConfig(model="oscillator", **{**grid, **kw})


@pytest.mark.parametrize("key", ["alpha_min", "alpha_max"])
@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
def test_sweep_config_refuses_a_non_finite_grid_bound(key, bound):
    # the grid put NaN in a cell, and the refusal named the cell's parameter
    grid = {"alpha_min": 0.1, "alpha_max": 1.0, "n_points": 3, key: bound}
    with pytest.raises(ConfigError, match=f"{key} must be finite, got {bound}"):
        SweepConfig(model="free-particle", **grid)


def test_sweep_config_is_the_sweep_document():
    # the document defaults live on the record, and the keys are its fields
    cfg = SweepConfig(model="oscillator")
    assert (cfg.alpha_min, cfg.alpha_max, cfg.n_points, cfg.format) == (0.01, 1.0, 100, "csv")
    assert sweep_config({"kind": "sweep", "model": "oscillator"}) == cfg
    assert SweepConfig._fields == (
        "model", "alpha_min", "alpha_max", "n_points", "fixed", "format",
    )


def test_sweep_config_stores_a_float_input_as_a_float():
    # the integer fields stay integers
    cfg = SweepConfig(model="free-particle", alpha_min=0, alpha_max=2, n_points=3,
                      fixed={"length": 10**20, "dim": 2})
    assert cfg == ("free-particle", 0.0, 2.0, 3, {"length": 1e20, "dim": 2}, "csv")
    stored = (cfg.alpha_min, cfg.alpha_max, cfg.n_points, cfg.fixed["length"], cfg.fixed["dim"])
    assert list(map(type, stored)) == [float, float, int, float, int]


# grids through the couplings the paper singles out: 1/pi (kappa = 1) for
# the oscillator, 1/2 and 1 for the Ohmic spin-boson model
BRANCH_GRIDS = {
    "oscillator": ((0.0, 2.0 / math.pi), (1.0 / math.pi,)),
    "spin-boson": ((0.0, 1.0), (0.5, 1.0)),
}


@functools.cache
def branch_sweep(model):
    (lo, hi), _ = BRANCH_GRIDS[model]
    return run_sweep(SweepConfig(model=model, alpha_min=lo, alpha_max=hi, n_points=101))


@pytest.mark.parametrize("model", sorted(BRANCH_GRIDS))
def test_sweep_grid_is_plain_linspace_through_branch_couplings(model):
    (lo, hi), branches = BRANCH_GRIDS[model]
    alpha = branch_sweep(model).columns["alpha"]
    assert bits(alpha) == bits(linspace(lo, hi, 101))
    assert alpha[-1] == hi
    for b in branches:
        assert min(abs(a - b) for a in alpha) <= 1e-12


@pytest.mark.parametrize("model", sorted(BRANCH_GRIDS))
def test_derivatives_at_branch_couplings_are_stencils_of_the_true_spacing(model):
    tab = branch_sweep(model)
    a, S = tab.columns["alpha"], tab.columns["S"]
    h = a[1] - a[0]
    scale = max(map(abs, S))
    for i in range(1, len(a) - 1):
        hm, hp = a[i] - a[i - 1], a[i + 1] - a[i]
        d1 = (S[i + 1] - S[i - 1]) / (hm + hp)
        d2 = 2.0 * ((S[i + 1] - S[i]) / hp - (S[i] - S[i - 1]) / hm) / (hm + hp)
        assert abs(tab.columns["dS_dalpha"][i] - d1) <= 1e-12 * scale / h
        assert abs(tab.columns["d2S_dalpha2"][i] - d2) <= 1e-12 * scale / h**2


def test_oscillator_entropy_slope_falls_smoothly_through_one_over_pi():
    tab = branch_sweep("oscillator")
    d1 = tab.columns["dS_dalpha"]
    assert all(x > y for x, y in zip(d1[1:-2], d1[2:-1]))
    assert [round(x, 3) for x in d1[48:53]] == [0.641, 0.622, 0.603, 0.586, 0.569]
    # README discrepancy 1: no kink in S at kappa = 1, on a grid that holds 1/pi
    assert detect_kink(tab, "S") is None


def test_detect_kink_on_a_grid_through_one_half():
    rep = detect_kink(branch_sweep("spin-boson"), "sigma_x")
    assert rep is not None
    assert rep.location == 0.5 and rep.grid_spacing == 0.01


# ------------------------------------------------------------------ grids and stencils

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-12, 1e6)


def bits(values) -> list:
    return [float(v).hex() for v in values]


@given(lo=finite, hi=finite, n=st.integers(0, 300))
@example(lo=0.0, hi=5e-324, n=3)  # the step underflows to 0
@example(lo=-1e308, hi=1e308, n=5)  # the span overflows
@example(lo=-0.0, hi=1.0, n=1)  # a single point is 0 * span + lo
def test_linspace_is_numpy_linspace_bit_for_bit(lo, hi, n):
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, n)
    assert bits(linspace(lo, hi, n)) == bits(want)


def test_grids_refuse_a_negative_count_and_nonpositive_bounds():
    with pytest.raises(ConfigError):
        linspace(0.0, 1.0, -1)
    with pytest.raises(ConfigError):
        geomspace(1.0, 0.0, 5)


@given(lo=positive, hi=positive, n=st.integers(0, 300))
@example(lo=1.0, hi=2.0, n=1)
def test_geomspace_has_exact_ends_and_tracks_numpy(lo, hi, n):
    got, want = geomspace(lo, hi, n), np.geomspace(lo, hi, n)
    assert len(got) == n
    if n == 1:
        assert got == [lo]  # as numpy.geomspace: the lower end alone
    elif n:
        assert got[0] == lo and got[-1] == hi
    # math.log10 and numpy's log10 can differ by an ulp; the points then
    # move by up to ln(10) x a few ulps of the larger |log10| (one of the
    # log, two of each side's linspace rounding) plus one of the power
    ulp_log = math.ulp(max(abs(math.log10(lo)), abs(math.log10(hi))))
    for g, w in zip(got, want.tolist()):
        assert abs(g - w) <= math.ulp(w) + 4.0 * math.log(10.0) * w * ulp_log


@given(lo=positive, hi=positive, n=st.integers(3, 300))
def test_geomspace_is_within_one_ulp_of_numpy_on_the_same_logs(lo, hi, n):
    assume(math.log10(lo) == np.log10(lo) and math.log10(hi) == np.log10(hi))
    for g, w in zip(geomspace(lo, hi, n), np.geomspace(lo, hi, n).tolist()):
        assert abs(g - w) <= math.ulp(w)


@given(
    y=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60),
    lo=st.floats(-10.0, 10.0),
    h=st.floats(1e-6, 1.0),
)
def test_list_stencils_are_the_numpy_stencils_bit_for_bit(y, lo, h):
    alpha = [lo, lo + h]
    d1, d2 = _central_derivatives(alpha, y)
    a, step = np.asarray(y), alpha[1] - alpha[0]
    want1, want2 = np.full_like(a, np.nan), np.full_like(a, np.nan)
    want1[1:-1] = (a[2:] - a[:-2]) / (2.0 * step)
    want2[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / (step * step)
    assert bits(d1) == bits(want1) and bits(d2) == bits(want2)


# ------------------------------------------------------------------ sweeps


def test_oscillator_sweep_columns_and_monotone():
    cfg = SweepConfig(
        model="oscillator", alpha_min=0.01, alpha_max=0.6, n_points=60,
        fixed={"omega0": 1.0, "omega_c": 100.0},
    )
    tab = run_sweep(cfg)
    assert list(tab.columns)[0] == "alpha"
    s = tab.columns["S"]
    assert np.all(np.diff(s) > 0)
    # expansion column is NaN where nu <= 1
    assert np.isnan(tab.columns["S_expansion"][0])


def test_spin_sweep_saturation_and_delta_ren(spin_table):
    alpha = np.asarray(spin_table.columns["alpha"])
    s_col = np.asarray(spin_table.columns["S"])
    i = int(np.argmin(np.abs(alpha - 0.8)))
    assert s_col[i] >= 0.95 * math.log(2.0)
    # delta_ren column becomes NaN once the root sinks below the bracket
    # floor (alpha ~ 0.87 at delta0/lambda0 = 0.01) and stays NaN in the
    # localized phase
    dr = np.asarray(spin_table.columns["delta_ren"])
    assert np.isnan(dr[alpha > 1.01]).all()
    assert np.isfinite(dr[alpha < 0.85]).all()


def test_free_particle_sweep_has_no_kink():
    cfg = SweepConfig(
        model="free-particle", alpha_min=0.1, alpha_max=2.0, n_points=120,
        fixed={"omega_c": 100.0, "length": 100.0, "dim": 1},
    )
    tab = run_sweep(cfg)
    assert detect_kink(tab, "S") is None


def test_derivative_columns_are_grid_differences(spin_table):
    alpha = spin_table.columns["alpha"]
    s = spin_table.columns["S"]
    d1 = spin_table.columns["dS_dalpha"]
    h = alpha[1] - alpha[0]
    k = 100
    assert d1[k] == pytest.approx((s[k + 1] - s[k - 1]) / (2 * h), rel=1e-12)
    assert np.isnan(d1[0]) and np.isnan(d1[-1])


# ------------------------------------------------------------------ kink detection


def test_detect_kink_linear_column_returns_none():
    n = 101
    alpha = np.linspace(0.0, 1.0, n)
    y = 3.0 * alpha + 1.0
    tab = SweepTable(config={}, columns={"alpha": alpha, "y": y})
    assert detect_kink(tab, "y") is None


def test_detect_kink_finds_spin_boson_crossover(spin_table):
    rep = detect_kink(spin_table, "sigma_x")
    assert rep is not None
    assert abs(rep.location - 0.5) <= 2.0 * rep.grid_spacing
    assert rep.strength > 5.0
    assert rep.order == 2


def test_detect_kink_preconditions():
    alpha = np.linspace(0, 1, 60)
    short = SweepTable(config={}, columns={"alpha": alpha[:30], "y": alpha[:30]})
    with pytest.raises(ConfigError):
        detect_kink(short, "y")
    with pytest.raises(ConfigError):
        detect_kink(short, "missing")
    labels = SweepTable(config={}, columns={"alpha": alpha, "regime": ["Delocalized"] * 60})
    with pytest.raises(ConfigError, match="regime"):
        detect_kink(labels, "regime")


@pytest.mark.parametrize(
    "lo, hi, n",
    [(0.01, 1.0, 60), (0.01, 50.0, 2000)],  # a kink at eta = 0.027 and 0.035 before
    ids=["default-range", "oracles-range"],
)
def test_free_particle_has_no_kink_at_the_grid_start(lo, hi, n):
    # the paper's no-kink case: the log-curved first cells are no spike
    tab = run_sweep(SweepConfig(model="free-particle", alpha_min=lo, alpha_max=hi, n_points=n))
    assert detect_kink(tab, "S") is None


def test_detect_kink_spike_at_a_full_ring_from_the_end():
    # the nearest cell to the end whose ring of cells 2-3 away is two-sided
    alpha = linspace(0.0, 1.0, 60)
    y = [0.0] * 60
    y[4] = 1.0  # D2 index 3
    tab = SweepTable(config={}, columns={"alpha": alpha, "y": y})
    assert detect_kink(tab, "y").location == alpha[4]


# ------------------------------------------------------------------ oracle runs


def test_oracle_run_free_particle():
    rows = {r["observable"]: r for r in oracle_run("free-particle", {"eta": 1.0})}
    assert rows["S"]["rel_dev"] < 0.01
    assert rows["trace"]["abs_dev"] < 1e-10


# eta -> (S analytic, S oracle, trace oracle), as float.hex, as each value
# was when every row built its own ring ladder
FREE_PARTICLE_ORACLE = {
    0.5: ("0x1.06769a5647a94p+2", "0x1.06769a5647a94p+2", "0x1.fffffffffffffp-1"),
    8.57: ("0x1.48d8312e0dfe6p+2", "0x1.48d8312e0dfe6p+2", "0x1.0000000000000p+0"),
    100.0: ("0x1.58be69297e496p+2", "0x1.58be69297e496p+2", "0x1.0000000000000p+0"),
}


@pytest.mark.parametrize("eta", FREE_PARTICLE_ORACLE)
def test_free_particle_oracle_rows_keep_their_values(eta):
    rows = {r["observable"]: r for r in oracle_run("free-particle", {"eta": eta})}
    got = (rows["S"]["analytic"], rows["S"]["oracle"], rows["trace"]["oracle"])
    assert tuple(map(float.hex, got)) == FREE_PARTICLE_ORACLE[eta]
    assert rows["trace"]["analytic"] == 1.0


@pytest.mark.parametrize(
    "model, params, word",
    [
        ("free-particle", {"eta": 1.0, "dim": 3}, "dim"),
        ("free-particle", {"eta": 1.0, "omega0": 2.0}, "omega0"),
        ("oscillator", {"eta": 1.0, "length": 10.0}, "length"),
        ("oscillator", {"eta": 1.0, "delta0": 1.0}, "delta0"),
        ("spin-boson", {"eta": 1.0}, "no oracle"),
        ("free-particle", {"eta": 1.0, "n_modes": 5}, "n_modes"),
        ("oscillator", {"eta": 1.0, "sigma_x": 0.5}, "sigma_x"),
        ("oscillator", {"eta": 1.0, "n_mode": 100}, "n_mode"),
        ("free-particle", {"eta": 1.0, "dim": 1}, "dim"),  # the ring oracle reads no dim
        # each value is typed as its default; eta's entry is its type
        ("oscillator", {"eta": 1.0, "n_modes": math.nan}, "n_modes"),  # was a ValueError
        ("oscillator", {"eta": 1.0, "n_modes": 400.7}, "n_modes"),  # was truncated to 400
        ("oscillator", {"eta": "1"}, "eta must be a number"),  # was a TypeError
        ("free-particle", {"eta": True}, "eta must be a number"),  # was read as 1.0
    ],
)
def test_oracle_run_refuses_what_it_does_not_read(model, params, word):
    with pytest.raises(ConfigError, match=word):
        oracle_run(model, params)


def test_oracle_run_oscillator():
    rows = {r["observable"]: r for r in oracle_run("oscillator", {"eta": 1.0})}
    assert rows["q2"]["rel_dev"] < 0.01
    # <p^2> carries the cutoff-regularisation offset at omega_c = 100
    assert rows["p2"]["rel_dev"] < 0.02
    assert rows["nu"]["rel_dev"] < 0.01


# ------------------------------------------------------------------ regime map


def test_regime_map_structure_and_line():
    ratios = np.array([1e-3, 0.8])
    alphas = np.array([1e-4, 2.5e-4, 1e-1])
    rmap = regime_map(0.5, ratios, alphas)
    assert [len(row) for row in rmap.labels] == [2, 2, 2]
    # the small-ratio column is localized exactly past the line alpha = s r
    assert [row[0] == "Localized" for row in rmap.labels] == [a > 0.5 * ratios[0] for a in alphas]
    # small-ratio column: line separates incoherent (below) from localized
    assert rmap.labels[0][0] == "DelocalizedIncoherent"  # alpha < s r
    assert rmap.labels[2][0] == "Localized"  # alpha > s r
    # ratio -> 1 column is coherent-dominated at these couplings
    assert rmap.labels[0][1] == "DelocalizedCoherent"
    csv = regime_map_to_csv(rmap)
    assert "transition line" in csv


@pytest.mark.parametrize(
    "ratios, alphas",
    [
        ([1e-3, 1.0], [0.1]),  # Delta0 = cutoff
        ([1e-3, 1.5], [0.0]),  # the free spin never solves
        ([1e-310, 1e-3], [0.1]),  # a subnormal ratio
        ([1e-3, 1e-2], [0.1, -0.1]),  # a negative coupling
        ([0.5, 1.5], [1e-4]),
    ],
)
def test_regime_map_refuses_bad_axis_values(ratios, alphas):
    # also where no cell of the bad row or column needs Delta_ren (r < 0.1
    # or alpha = 0)
    with pytest.raises(DomainError):
        regime_map(0.5, ratios, alphas)


@pytest.mark.parametrize("ratios, alphas", [([], [0.1]), ([0.1], []), ([], [])])
def test_regime_map_refuses_an_empty_axis(ratios, alphas):
    with pytest.raises(ConfigError, match="one ratio and one alpha"):
        regime_map(0.5, ratios, alphas)


AXIS_RATIO = st.one_of(st.floats(1e-4, 0.95), st.sampled_from([0.1, 1e-3]))
AXIS_ALPHA = st.one_of(st.floats(0.0, 3.0), st.just(0.0))


@given(
    st.floats(0.05, 0.95),
    st.lists(AXIS_RATIO, min_size=1, max_size=4),
    st.lists(AXIS_ALPHA, min_size=1, max_size=4),
)
@example(0.5, [1e-3, 0.1, 0.8], [0.0, 1e-4, 0.1])  # an alpha = 0 row in and past the trust band
# edges of the precomputed cells: a ratio of exactly SCALING_TRUST_MIN_RATIO,
# and alpha exactly s r, on the line, where the cell is not yet localized
@example(0.5, [0.1, 0.4], [0.5 * 0.1, 0.5 * 0.4])
@example(0.3, [0.1, 0.7, 1e-3], [0.3 * 0.1, 0.3 * 0.7, 0.3 * 1e-3])
def test_regime_map_labels_are_subohmic_regime(s, ratios, alphas):
    rmap = regime_map(s, ratios, alphas)
    want = [
        [subohmic_regime(SpinBosonPoint(r, BathSpec(s, a, 1.0))).value for r in ratios]
        for a in alphas
    ]
    assert rmap.labels == want


@given(st.floats(0.05, 0.95), st.floats(1.0, 90.0), st.floats(1e-4, 1.0))
@example(0.5, 20.0, 0.04)
# the last grid point is alpha_max: exactly s r, at r = 0.1 =
# SCALING_TRUST_MIN_RATIO and, below it, on the line alpha = s r
@example(0.5, 10.0, 0.5 * (10.0 / 100.0))
@example(0.3, 5.0, 0.3 * (5.0 / 100.0))
def test_subohmic_sweep_regime_is_subohmic_regime(s, delta0, alpha_max):
    # cutoff 100, not 1: Delta_ren >= Delta0^2/cutoff must keep its units
    fixed = {"delta0": delta0, "lambda0": 100.0, "s": s}
    table = run_sweep(spin_cfg(alpha_min=0.0, alpha_max=alpha_max, n_points=9, fixed=fixed))
    want = [
        subohmic_regime(SpinBosonPoint(delta0, BathSpec(s, a, 100.0))).value
        for a in table.columns["alpha"]
    ]
    assert table.columns["regime"] == want


# ------------------------------------------------------------------ rows and the public functions


@pytest.mark.parametrize(
    "fixed",
    [
        {"delta0": 20.0, "lambda0": 100.0, "s": 0.5},  # Delta0/cutoff = 0.2: in the trust band
        {"delta0": 1.0, "lambda0": 100.0, "s": 1.0},
        {"delta0": 1.0, "lambda0": 100.0, "s": 1.5},
    ],
    ids=["s0.5", "s1", "s1.5"],
)
def test_spin_boson_rows_are_the_public_functions_bit_for_bit(fixed):
    # the rows reuse one delta_ren per point for sigma_x and S; each cell
    # must be what the per-point functions return, to the last bit
    table = run_sweep(spin_cfg(alpha_min=0.0, alpha_max=1.5, n_points=61, fixed=fixed))
    cols = table.columns
    assert cols["alpha"][-20] > 1.0  # 20 rows at alpha > 1
    for i, a in enumerate(cols["alpha"]):
        pt = SpinBosonPoint(fixed["delta0"], BathSpec(fixed["s"], a, fixed["lambda0"]))
        dr, sx = delta_ren(pt), sigma_x(pt)
        if dr is None:
            assert math.isnan(cols["delta_ren"][i])
        else:
            assert cols["delta_ren"][i] == dr
        assert cols["sigma_x"][i] == sx
        assert cols["S"][i] == spin_entropy(sx)
    if fixed["s"] < 1:
        assert {"DelocalizedCoherent", "Localized"} <= set(cols["regime"])
    if fixed["s"] <= 1:
        assert any(map(math.isnan, cols["delta_ren"]))


@pytest.mark.parametrize(
    "fixed, grid",
    [
        ({"omega0": 1.0, "omega_c": 100.0}, (0.0, 3.0, 301)),
        ({"omega0": 0.5, "omega_c": 1e4}, (0.0, 3.0, 301)),
        # `sweep --model oscillator --omega-c 1e6 --alpha-max 3 --alpha-points 400`
        ({"omega0": 1.0, "omega_c": 1e6}, (0.01, 3.0, 400)),
    ],
    ids=["fig1", "wide-cutoff", "cli-wide-cutoff"],
)
def test_oscillator_rows_are_the_public_functions_bit_for_bit(fixed, grid):
    # the rows validate the fixed parameters once and call the float-level
    # cores; each cell must be what the public functions return, to the
    # last bit, and S_expansion NaN exactly where the expansion raises, as
    # printed too
    w0, wc = fixed["omega0"], fixed["omega_c"]
    table = run_sweep(SweepConfig("oscillator", *grid, fixed=fixed))
    cols = table.columns
    printed = table_to_csv(table).splitlines()
    at = printed[printed.index(",".join(cols)) + 1:]  # the rows after the header
    s_expansion = [row.split(",")[list(cols).index("S_expansion")] for row in at]
    expansion_nan = 0
    for i, a in enumerate(cols["alpha"]):
        k = kappa_from_alpha(a)
        m = oscillator_moments(OscillatorParams(omega0=w0, eta=2.0 * k * w0, omega_c=wc))
        assert (cols["kappa"][i], cols["q2"][i], cols["p2"][i]) == (k, m.q2, m.p2)
        assert cols["nu"][i] == m.nu and cols["S"][i] == gaussian_entropy(m.nu)
        try:
            want = oscillator_entropy_expansion(m)
        except RegimeError:
            assert math.isnan(cols["S_expansion"][i]) and s_expansion[i] == "nan"
            expansion_nan += 1
        else:
            assert cols["S_expansion"][i] == want and s_expansion[i] == format_value(want)
    # the grid crosses nu = 1 and kappa = 1 (alpha = 1/pi)
    assert 0 < expansion_nan < len(cols["alpha"])
    assert min(cols["kappa"]) < 1.0 < max(cols["kappa"])


@pytest.mark.parametrize(
    "fixed",
    [{"omega_c": 100.0, "length": 100.0, "dim": 1}, {"omega_c": 100.0, "length": 3.0, "dim": 3}],
    ids=["d1", "d3"],
)
def test_free_particle_rows_are_the_public_function_bit_for_bit(fixed):
    cols = run_sweep(
        SweepConfig(model="free-particle", alpha_min=50.0, alpha_max=150.0, n_points=101,
                    fixed=fixed)
    ).columns
    # omega_c / eta = 1 is on the grid, between the kernel width's two branches
    assert fixed["omega_c"] in cols["alpha"]
    for i, eta in enumerate(cols["alpha"]):
        res = free_particle_entropy(FreeParticleParams(eta=eta, **fixed))
        got = (cols["eta"][i], cols["a"][i], cols["a_l2"][i], cols["S"][i])
        assert got == (eta, res.a, res.a_l2, res.entropy)


# ------------------------------------------------------------------ serialisation


def test_a_column_of_strings_is_written_verbatim(monkeypatch):
    # the label columns of a regime map go into the row template as they
    # are; format_value sees only the s comment and the header ratios
    seen = []
    monkeypatch.setattr(sweep, "format_value", lambda x: seen.append(x) or format_value(x))
    rmap = regime_map(0.5, [1e-3, 0.8], [1e-4, 2.5e-4, 1e-1])
    assert regime_map_to_csv(rmap) == old_regime_map_to_csv(rmap)
    assert seen == [0.5, 1e-3, 0.8]


def test_csv_and_json_contain_identical_values(spin_table):
    csv = table_to_csv(spin_table)
    js = table_to_json(spin_table)
    import json as _json

    doc = _json.loads(js)
    body = [l for l in csv.splitlines() if not l.startswith("#")]
    header, first = body[0].split(","), body[1].split(",")
    assert header == doc["columns"]
    assert first == doc["rows"][0]


# The per-cell writers the row templates replaced, kept as the reference
# the writers must match byte for byte.


def old_format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def old_csv(comments, names, rows) -> str:
    lines = [f"# {c}" for c in comments] + [",".join(names)]
    lines += [",".join(old_format_value(x) for x in r) for r in rows]
    return "\n".join(lines) + "\n"


def old_rows(table):
    return zip(*table.columns.values())


def old_table_to_csv(table) -> str:
    config = [f"{k} = {old_format_value(table.config[k])}" for k in sorted(table.config)]
    return old_csv(["dissipent sweep", *config], list(table.columns), old_rows(table))


def old_table_to_json(table) -> str:
    doc = {
        "config": {k: old_format_value(v) for k, v in sorted(table.config.items())},
        "columns": list(table.columns),
        "rows": [[old_format_value(x) for x in r] for r in old_rows(table)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def old_regime_map_to_csv(rmap) -> str:
    comments = [
        "dissipent regime-map",
        f"s = {old_format_value(rmap.s)}",
        "transition line: alpha = s * delta0_over_lambda0",
    ]
    header = ["alpha\\ratio"] + [old_format_value(r) for r in rmap.ratios]
    return old_csv(comments, header, ([a, *labels] for a, labels in zip(rmap.alphas, rmap.labels)))


def old_oracle_to_csv(rows) -> str:
    return old_csv([], list(rows[0]), (r.values() for r in rows))


SUBOHMIC = {"delta0": 20.0, "lambda0": 100.0, "s": 0.5}
WRITER_SWEEPS = {
    # past alpha = 1 delta_ren has no root (NaN cells); s = 1 has no regime
    "ohmic-to-1.2": spin_cfg(alpha_min=0.01, alpha_max=1.2, n_points=120),
    "subohmic": spin_cfg(alpha_min=0.01, alpha_max=1.2, n_points=120, fixed=SUBOHMIC),
    "free-particle": SweepConfig(model="free-particle", alpha_min=0.01, alpha_max=50.0,
                                 n_points=100),
    "oscillator": SweepConfig(model="oscillator", alpha_min=0.0, alpha_max=2.5, n_points=100),
}
# every kind of cell: ints, numpy floats, infinities, a negative zero, NaN,
# strings that JSON escapes, and a column of mixed types
HAND_BUILT = SweepTable(
    config={"model": 'a"b\\é', "n": 3, "w": np.float64(0.1), "x": -0.0},
    columns={
        "alpha": [0.1, 0.2, 0.3],
        "i": [1, -2, 2**70],
        "f64": [np.float64(0.1), np.float64(np.inf), np.float64(np.nan)],
        "edge": [math.inf, -math.inf, -0.0],
        "text": ['a"b\\é', "", "tab\there"],
        "mixed": [1, 2.5e-300, "nan"],
    },
)
EMPTY = SweepTable(config={"model": "x"}, columns={"alpha": [], "S": []})


@functools.cache
def writer_table(name):
    if name in preset_names():
        return run_sweep(sweep_config(preset_doc(name)))
    return run_sweep(WRITER_SWEEPS[name])


@pytest.mark.parametrize(
    "name",
    ["fig1-oscillator", "fig1-spinboson", *WRITER_SWEEPS, "hand-built", "empty"],
)
def test_table_writers_match_the_per_cell_writers(name):
    table = {"hand-built": HAND_BUILT, "empty": EMPTY}.get(name) or writer_table(name)
    assert table_to_csv(table) == old_table_to_csv(table)
    assert table_to_json(table) == old_table_to_json(table)


def test_writer_sweeps_hold_the_cells_they_stand_for():
    ohmic = writer_table("ohmic-to-1.2").columns
    assert any(map(math.isnan, ohmic["delta_ren"])) and set(ohmic["regime"]) == {""}
    subohmic = writer_table("subohmic").columns
    assert {"DelocalizedCoherent", "Localized"} <= set(subohmic["regime"])


def test_regime_map_and_oracle_writers_match_the_per_cell_writers():
    docs = [preset_doc(name) for name in preset_names()]
    rmaps = [regime_map_from_doc(doc) for doc in docs if doc["kind"] != "sweep"]
    rmaps.append(regime_map(0.5, [1e-3, 0.8], [1e-4, 2.5e-4, 1e-1]))
    assert rmaps and all(regime_map_to_csv(m) == old_regime_map_to_csv(m) for m in rmaps)
    runs = [
        oracle_run("oscillator", {"eta": 0.8, "n_modes": 200}),
        oracle_run("free-particle", {"eta": 1.0}),
        [{"observable": 'a"b', "analytic": 1, "oracle": np.float64(-0.0), "abs_dev": math.nan}],
    ]
    for rows in runs:
        assert oracle_to_csv(rows) == old_oracle_to_csv(rows)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(-0.0)
@example(-math.nan)
@example(5e-324)
def test_float_template_field_prints_what_format_value_prints(x):
    # the row templates write a column of floats with %.12g
    assert "%.12g" % x == format_value(x) == old_format_value(x)


def test_format_value_of_other_types_is_unchanged():
    for x in ("", 'a"b', 7, -3, True, np.int64(5), np.float64(0.25), np.float32(0.1), 2**70):
        assert format_value(x) == old_format_value(x)


def test_sweep_determinism_in_process():
    cfg = spin_cfg(n_points=120, alpha_max=0.12)
    a = table_to_csv(run_sweep(cfg))
    b = table_to_csv(run_sweep(cfg))
    assert a == b


def test_header_echoes_resolved_config(spin_table):
    csv = table_to_csv(spin_table)
    assert "# delta0 = 1" in csv
    assert "# lambda0 = 100" in csv
    assert "# model = spin-boson" in csv
    assert "temperature" not in csv  # the sweep is at T = 0; it has no such setting


# ------------------------------------------------------------------ presets


def test_presets_exist_and_load():
    names = preset_names()
    assert set(names) == {"fig1-oscillator", "fig1-spinboson", "subohmic-map"}
    assert preset_doc("fig1-oscillator")["kind"] == "sweep"
    assert preset_doc("subohmic-map")["kind"] == "regime-map"
    cfg = sweep_config(preset_doc("fig1-oscillator"))
    assert cfg.model == "oscillator"
    assert cfg.fixed["omega_c"] == 100.0
    with pytest.raises(ConfigError):
        preset_doc("nope")


@pytest.mark.parametrize(
    "read, doc, word",
    [(sweep_config, {"kind": "regime-map"}, "not a sweep document"),
     (regime_map_from_doc, {"kind": "sweep"}, "not a regime-map document")],
    ids=["sweep", "regime-map"],
)
def test_a_document_of_the_other_kind_is_refused(read, doc, word):
    with pytest.raises(ConfigError, match=word):
        read(doc)


@pytest.mark.parametrize(
    "read, doc, word",
    [
        (sweep_config, {"alpha_min": 0.1}, "a sweep document needs model"),
        (sweep_config, {"model": "oscillator", "n_point": 30}, "does not read ['n_point']"),
        (sweep_config, {"model": 5}, "model must be a string"),
        # each of these ended in a traceback, or was read in silence
        (regime_map_from_doc, {}, "a regime-map document needs s"),  # was a KeyError
        (regime_map_from_doc, {"s": "0.5"}, "s must be a number"),  # was a TypeError
        (regime_map_from_doc, {"s": 0.5, "ratio_points": 5.5}, "ratio_points"),  # a TypeError
        (regime_map_from_doc, {"s": 0.5, "ratio_points": True}, "ratio_points"),  # one ratio
        (regime_map_from_doc, {"s": 0.5, "alpha_point": 40}, "alpha_point"),  # was ignored
    ],
    ids=["sweep-no-model", "sweep-unknown-key", "sweep-model-int", "map-no-s", "map-s-str",
         "map-points-float", "map-points-bool", "map-unknown-key"],
)
def test_a_document_is_read_by_its_table(read, doc, word):
    with pytest.raises(ConfigError, match=re.escape(word)):
        read(doc)


# each reader of a document or of oracle parameters; a key that is not a
# string, sorted against the strings, raised TypeError
@pytest.mark.parametrize(
    "read",
    [lambda extra: sweep_config({"model": "oscillator", **extra}),
     lambda extra: regime_map_from_doc({"s": 0.5, **extra}),
     lambda extra: oracle_run("oscillator", {"eta": 1.0, **extra})],
    ids=["sweep", "regime-map", "oracle"],
)
def test_unread_keys_of_mixed_types_are_listed(read):
    # the string keys in their order, then the others
    with pytest.raises(ConfigError, match=re.escape("does not read ['x', 'y', 1]; it reads")):
        read({1: 2, "y": 3, "x": 4})


@pytest.mark.parametrize("n", [10**6 + 1, 10**30])
def test_grids_past_a_million_points_are_refused_before_any_list(monkeypatch, n):
    # the grid was built first, and filled memory
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(sweep, "linspace", no_grid)
    with pytest.raises(ConfigError, match=f"n_points must be <= 1000000, got {n}"):
        SweepConfig(model="oscillator", n_points=n)
    assert SweepConfig(model="oscillator", n_points=10**6).n_points == 10**6
    for shape in ((n, 1), (1, n), (1001, 1000), (0, n)):
        doc = {"s": 0.5, "ratio_points": shape[0], "alpha_points": shape[1]}
        with pytest.raises(ConfigError, match="at most 1000000 cells"):
            regime_map_from_doc(doc)


def test_subohmic_map_preset_runs():
    rmap = regime_map_from_doc(preset_doc("subohmic-map"))
    labels = {label for row in rmap.labels for label in row}
    assert {"DelocalizedCoherent", "DelocalizedIncoherent", "Localized"} <= labels
