import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh

import dissipent
from dissipent import (
    BathSpec,
    ConfigError,
    DiscreteBath,
    DomainError,
    GaussianKernel,
    MomentPair,
    NumericalError,
    OscillatorParams,
    SpinBosonPoint,
    SweepConfig,
    SweepTable,
    delocalized_log_derivative,
    detect_kink,
    discrete_bath_moments,
    discretize_oscillator_bath,
    discretize_spin_bath,
    ed_fock_convergence,
    gaussian_entropy,
    kernel_eigenvalue_entropy,
    kernel_from_moments,
    oscillator_entropy,
    oscillator_entropy_expansion,
    oscillator_f,
    oscillator_moments,
    oracle_run,
    regime_map,
    ring_kernel_entropy,
    ring_kernel_eigenvalues,
    run_sweep,
    spin_boson_ed,
    trace_power,
)

# ------------------------------------------------------------------ Gaussian entropy


def test_gaussian_entropy_pure_state():
    assert gaussian_entropy(0.5) == 0.0


def test_gaussian_entropy_value():
    # 1.5 ln 1.5 - 0.5 ln 0.5, frozen from direct arithmetic
    assert gaussian_entropy(1.0) == pytest.approx(0.9547712524422192, rel=1e-14)


@pytest.mark.parametrize("nu", [0.6, 1.0, 5.0, 100.0])
def test_gaussian_entropy_is_the_thermal_ladder_entropy(nu):
    # -sum p_k ln p_k over p_k = (1-q) q^k, q = (nu-1/2)/(nu+1/2), with
    # 1 - q = 1/(nu+1/2) taken without the cancellation; the tail after
    # p_k < 1e-20 is below 1e-16 of the sum
    q, terms = (nu - 0.5) / (nu + 0.5), []
    while (p := q ** len(terms) / (nu + 0.5)) >= 1e-20:
        terms.append(-p * math.log(p))
    assert gaussian_entropy(nu) == pytest.approx(math.fsum(terms), rel=1e-14)


def test_gaussian_entropy_asymptote():
    nu = 1e4
    assert abs(gaussian_entropy(nu) - (math.log(nu) + 1.0)) < 1e-6


def test_gaussian_entropy_monotone():
    nus = np.linspace(0.5, 20.0, 200)
    vals = [gaussian_entropy(n) for n in nus]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gaussian_entropy_domain():
    with pytest.raises(DomainError):
        gaussian_entropy(0.49)


# ------------------------------------------------------------------ discretised bath


def test_discretize_oscillator_bath_reproduces_spectral_weight():
    # sum of (pi/2) lambda^2/omega over all modes equals integral of J = eta w
    eta, wc = 1.0, 100.0
    db = discretize_oscillator_bath(OscillatorParams(1.0, eta, wc), 200)
    total = np.sum(0.5 * math.pi * db.couplings**2 / db.omegas)
    target = eta * (wc**2 - (1e-3) ** 2) / 2.0
    assert total == pytest.approx(target, rel=1e-12)


def test_discretize_spin_bath_reproduces_spectral_weight():
    bath = BathSpec(s=0.5, alpha=0.3, cutoff=10.0)
    db = discretize_spin_bath(bath, 100)
    # sum lambda^2 = integral of J over the discretised window
    lo = 1e-3 * 10.0
    s = bath.s
    target = 2 * bath.alpha * bath.cutoff ** (1 - s) * (10.0 ** (s + 1) - lo ** (s + 1)) / (s + 1)
    assert np.sum(db.couplings**2) == pytest.approx(target, rel=1e-12)


def test_discrete_bath_decoupled():
    p = OscillatorParams(omega0=1.0, eta=0.0, omega_c=100.0)
    cov = discrete_bath_moments(p, 16)
    assert cov.q2 == pytest.approx(0.5, rel=1e-12)
    assert cov.p2 == pytest.approx(0.5, rel=1e-12)


def test_discrete_bath_matches_q2_closed_form():
    # kappa = 0.5, logarithmic scheme, 400 modes: <q^2> within 1%
    p = OscillatorParams(omega0=1.0, eta=1.0, omega_c=100.0)
    cov = discrete_bath_moments(p, 400)
    assert cov.q2 == pytest.approx(oscillator_f(0.5) / 2.0, rel=0.01)


@pytest.mark.parametrize("kappa", [0.2, 0.5, 1.0, 2.0, 5.0])
def test_discrete_bath_matches_moments_deep_cutoff(kappa):
    # in the true large-cutoff regime both moments land on the closed forms
    p = OscillatorParams(omega0=1.0, eta=2.0 * kappa, omega_c=1e4)
    m = oscillator_moments(p)
    cov = discrete_bath_moments(p, 400)
    assert cov.q2 == pytest.approx(m.q2, rel=0.01)
    assert cov.p2 == pytest.approx(m.p2, rel=0.01)
    assert cov.nu >= 0.5


@pytest.mark.parametrize("kappa", [0.2, 0.5, 1.0, 2.0])
def test_discrete_bath_convergence_halves(kappa):
    # successive-refinement differences drop at least 2x per doubling
    # (measured against the next refinement; the scheme is ~2nd order)
    p = OscillatorParams(omega0=1.0, eta=2.0 * kappa, omega_c=100.0)
    cov = {n: discrete_bath_moments(p, n) for n in (100, 200, 400, 800)}
    for field in ("q2", "p2"):
        diffs = [
            abs(getattr(cov[n], field) - getattr(cov[2 * n], field))
            for n in (100, 200, 400)
        ]
        assert diffs[0] / diffs[1] > 2.0
        assert diffs[1] / diffs[2] > 2.0


def test_discrete_bath_linear_scheme_agrees():
    p = OscillatorParams(omega0=1.0, eta=1.0, omega_c=100.0)
    log_cov = discrete_bath_moments(p, 400, scheme="logarithmic")
    lin_cov = discrete_bath_moments(p, 4000, scheme="linear")
    assert lin_cov.q2 == pytest.approx(log_cov.q2, rel=5e-3)


def _arrowhead(p, n_modes, scheme):
    """The explicit (N+1)x(N+1) potential matrix K of the discretised
    oscillator: counterterm on the system diagonal, bath frequencies on
    the rest of the diagonal, couplings -lambda in the first row/column."""
    db = discretize_oscillator_bath(p, n_modes, scheme)
    k = np.diag(np.concatenate([[p.omega0**2 + np.sum(db.couplings**2 / db.omegas**2)], db.omegas**2]))
    k[0, 1:] = k[1:, 0] = -db.couplings
    return k


@pytest.mark.parametrize("scheme", ["logarithmic", "linear"])
@pytest.mark.parametrize("eta", [0.0, 0.4, 2.0, 10.0])
@pytest.mark.parametrize("n_modes", [16, 100, 400])
def test_discrete_bath_resolvent_matches_dense_eigh(n_modes, eta, scheme):
    # <x x^T> = K^(-1/2)/2, <p p^T> = K^(1/2)/2 from the eigendecomposition
    p = OscillatorParams(omega0=1.0, eta=eta, omega_c=100.0)
    evals, vecs = eigh(_arrowhead(p, n_modes, scheme))
    u0 = vecs[0] ** 2
    cov = discrete_bath_moments(p, n_modes, scheme)
    assert cov.q2 == pytest.approx(0.5 * np.sum(u0 / np.sqrt(evals)), rel=1e-10)
    assert cov.p2 == pytest.approx(0.5 * np.sum(u0 * np.sqrt(evals)), rel=1e-10)


def test_discrete_bath_resolvent_matches_40_digit_eigendecomposition():
    # at omega_c = 1e4 the counterterm makes K ill-conditioned for a double
    # eigh (off by ~5e-9 in <q^2>); 40 digits give the exact moments
    mp = pytest.importorskip("mpmath")
    p = OscillatorParams(omega0=1.0, eta=2.0, omega_c=1e4)
    with mp.workdps(40):
        k = mp.matrix(17, 17)
        db = discretize_oscillator_bath(p, 16)
        w = [mp.mpf(x) for x in db.omegas]
        lam = [mp.mpf(x) for x in db.couplings]
        k[0, 0] = mp.mpf(p.omega0) ** 2 + mp.fsum(lk**2 / wk**2 for lk, wk in zip(lam, w))
        for j, (wk, lk) in enumerate(zip(w, lam), start=1):
            k[j, j] = wk**2
            k[0, j] = k[j, 0] = -lk
        evals, vecs = mp.eigsy(k)
        q2 = float(mp.fsum(vecs[0, j] ** 2 / mp.sqrt(evals[j]) for j in range(17)) / 2)
        p2 = float(mp.fsum(vecs[0, j] ** 2 * mp.sqrt(evals[j]) for j in range(17)) / 2)
    cov = discrete_bath_moments(p, 16)
    assert cov.q2 == pytest.approx(q2, rel=1e-11)
    assert cov.p2 == pytest.approx(p2, rel=1e-11)


def test_discrete_bath_grid_raises_no_integration_warning():
    # every quadrature on the grid meets its tolerance; a warning would be
    # a moment that is silently less accurate than asked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega_c in (100.0, 1e4):
            for eta in (0.0, 0.4, 1.0, 2.0, 4.0, 10.0):
                for scheme in ("logarithmic", "linear"):
                    for n_modes in (16, 400, 4000):
                        p = OscillatorParams(omega0=1.0, eta=eta, omega_c=omega_c)
                        cov = discrete_bath_moments(p, n_modes, scheme)
                        assert isinstance(cov, MomentPair)
                        assert cov.nu >= 0.5


def test_discrete_bath_rejects_form_that_is_not_positive_definite():
    # omega0^2 underflows to 0, so the Schur complement D(0) is not positive;
    # linear bins stay normal doubles, where logarithmic ones from
    # 1e-3 omega0 would be refused first
    p = OscillatorParams(omega0=1e-170, eta=1.0, omega_c=100.0)
    with pytest.raises(NumericalError, match="not positive definite"):
        discrete_bath_moments(p, 16, "linear")


def test_discrete_bath_lowest_edge_follows_the_model():
    # the bins start at 1e-3 min(omega0, omega_c), so below the cutoff also
    # where omega0 >= 1000 omega_c; an edge that underflows to 0 is refused
    p = OscillatorParams(omega0=2000.0, eta=1.0, omega_c=1.0)
    assert 0.0 < discretize_oscillator_bath(p, 8).omegas.min() < 1e-2
    assert all(math.isfinite(m) and m > 0 for m in discrete_bath_moments(p, 8))
    for fn in (discretize_oscillator_bath, discrete_bath_moments):
        with pytest.raises(NumericalError, match="lowest bin edge .* underflows to 0"):
            fn(OscillatorParams(1.0, 1.0, 5e-324), 8)


def test_discrete_bath_reports_inaccurate_quadrature():
    # deep overdamped (eta/omega0 = 1e9): <q^2> is 5e-6 of the bare
    # 1/(2 omega0), so integrating its deviation from the bare oscillator
    # leaves fewer digits than 1e-10 (the estimate reads about 1e-9), which
    # must raise rather than return a value
    p = OscillatorParams(omega0=1.0, eta=1e9, omega_c=1e4)
    with pytest.raises(NumericalError, match="quadrature error estimate"):
        discrete_bath_moments(p, 400)


def _mpmath_moments(p, n_modes, scheme):
    """(<q^2>, <p^2>) by mpmath's tanh-sinh quadrature at 30 digits of
    (1/pi) int dt/D(t^2) and (1/pi) int (D - t^2)/D dt, taken whole (not as
    a deviation) over ln t in steps of 8 from 1e-12 omega0 to 1e12 times the
    top mode, plus the leading tails t_lo/omega0^2, t_lo and 1/t_hi,
    A/t_hi.  The mode sum is summed in double precision: its ~1e-16
    rounding is far below the 1e-12 checked, and summing 4000 modes at 30
    digits on every node would take minutes."""
    mp = pytest.importorskip("mpmath")
    db = discretize_oscillator_bath(p, n_modes, scheme)
    c = db.couplings**2 / db.omegas**2
    w2 = db.omegas**2
    memo = {}
    with mp.workdps(30):
        w0 = mp.mpf(p.omega0)

        def pair(x):
            if x not in memo:
                t = w0 * mp.exp(x)
                k = w0 * w0 + t * t * float(np.sum(c / (w2 + float(t * t))))
                memo[x] = (t / (k + t * t), t * k / (k + t * t))  # dt = t d(ln t)
            return memo[x]

        lo, hi = math.log(1e-12), math.log(1e12 * db.omegas[-1] / p.omega0)
        pts = [*np.arange(lo, hi, 8.0), hi]
        t_lo, t_hi = w0 * mp.exp(lo), w0 * mp.exp(hi)
        big_a = w0 * w0 + mp.fsum(mp.mpf(x) for x in c)
        q2 = mp.quad(lambda x: pair(x)[0], pts) + t_lo / w0**2 + 1 / t_hi
        p2 = mp.quad(lambda x: pair(x)[1], pts) + t_lo + big_a / t_hi
        return float(q2 / mp.pi), float(p2 / mp.pi)


@pytest.mark.parametrize(
    "omega_c, eta, n_modes, scheme",
    [
        # at omega_c = 1e4 an adaptive quadrature missed <q^2> by up to
        # 9.7e-9 while its own error estimate claimed about 1e-12
        *[(1e4, eta, n, "logarithmic") for eta in (2.0, 0.05) for n in (100, 400, 4000)],
        # 8 linear modes up to 1e6 * omega0: it hit roundoff, and the oracle raised
        (1e6, 1.0, 8, "linear"),
    ],
)
def test_discrete_bath_matches_30_digit_quadrature(omega_c, eta, n_modes, scheme):
    p = OscillatorParams(omega0=1.0, eta=eta, omega_c=omega_c)
    q2, p2 = _mpmath_moments(p, n_modes, scheme)
    cov = discrete_bath_moments(p, n_modes, scheme)
    assert cov.q2 == pytest.approx(q2, rel=1e-12)
    assert cov.p2 == pytest.approx(p2, rel=1e-12)


def test_discretize_validation():
    with pytest.raises(ConfigError):
        discretize_oscillator_bath(OscillatorParams(1.0, 1.0, 100.0), 4)
    with pytest.raises(ConfigError):
        discrete_bath_moments(OscillatorParams(1.0, 1.0, 100.0), 100, scheme="cubic")
    with pytest.raises(ConfigError, match="need 1 to"):
        discretize_spin_bath(BathSpec(s=1.0, alpha=0.1, cutoff=10.0), 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: discretize_oscillator_bath(OscillatorParams(1.0, 1.0, 100.0), n),
        lambda n: discretize_spin_bath(BathSpec(s=1.0, alpha=0.1, cutoff=10.0), n),
    ],
    ids=["oscillator-bath", "spin-bath"],
)
@pytest.mark.parametrize("n_modes", [10**6 + 1, 10**30])
def test_too_many_modes_are_refused_before_any_array(call, n_modes):
    # 10^30 modes ended in numpy's "Maximum allowed size exceeded"
    with pytest.raises(ConfigError, match=f"to 1000000 modes, got {n_modes}"):
        call(n_modes)


# ------------------------------------------------------------------ ring kernel


def test_ring_refuses_a_zero_width():
    with pytest.raises(DomainError, match="a must be finite and > 0, got 0.0"):
        ring_kernel_entropy(0.0, 1.0)


def test_ring_trace_is_one():
    lam = ring_kernel_eigenvalues(1.0, 100.0)
    assert abs(float(np.sum(lam)) - 1.0) < 1e-10


def test_ring_entropy_matches_closed_form():
    a, length = 1.0, 100.0  # a L^2 = 1e4
    s_ring = ring_kernel_entropy(a, length)
    s_closed = 0.5 * (math.log(a * length**2) + 1.0 - math.log(math.pi))
    assert abs(s_ring - s_closed) / s_closed < 0.01


def test_ring_doubling_length_adds_ln2():
    a = 1.0
    gap = ring_kernel_entropy(a, 200.0) - ring_kernel_entropy(a, 100.0)
    assert gap == pytest.approx(math.log(2.0), rel=0.02)


def test_ring_ladder_drops_a_tail_far_below_its_last_eigenvalue():
    # the last kept lambda_n depends on a L^2 alone and is largest at the
    # top of a step of n_max = ceil(sqrt(45 a L^2) / pi) + 2, just below
    # a L^2 = (pi m)^2 / 45, where it is sqrt(45/pi)/m exp(-45 (1 + 2/m)^2):
    # largest at m = 182, and falling for larger m
    tops = [(math.pi * m) ** 2 / 45.0 * (1.0 - 1e-15) for m in range(1, 1001)]
    grid = [10.0 ** (k / 10.0) for k in range(-300, 81)]  # a L^2 from 1e-30 to 1e8
    last = [ring_kernel_eigenvalues(a_l2, 1.0)[-1] for a_l2 in tops + grid]
    assert 2.2e-22 < max(last) < 2.21e-22
    assert max(last) == last[181]


# ------------------------------------------------------------------ replica traces


def kernel_ab(ratio):
    # unit-trace kernel with a/b = ratio via nu = sqrt(ratio)/2
    nu = math.sqrt(ratio) / 2.0
    return kernel_from_moments(MomentPair(q2=nu, p2=nu))


def test_trace_power_normalisation():
    k = kernel_ab(100.0)
    res = trace_power(k, 1)
    assert res.direct == pytest.approx(1.0, abs=1e-12)
    assert res.closed_form == pytest.approx(1.0, abs=1e-12)


def test_trace_power_purity():
    # Tr rho^2 = 1/(2 nu) for a Gaussian state
    k = kernel_ab(100.0)
    res = trace_power(k, 2)
    assert res.direct == pytest.approx(0.1, rel=1e-12)
    assert abs(res.closed_form - res.direct) / res.direct < 0.04


def test_trace_power_identity_order_eps_squared():
    # log-deviation bounded by n * eps^2 per replica factor
    k = kernel_ab(100.0)
    eps = math.sqrt(4.0 * k.b / k.a)
    for n in (1, 2, 4, 8, 16, 32, 64):
        res = trace_power(k, n)
        assert abs(math.log(res.closed_form / res.direct)) <= n * eps**2


def test_trace_power_domain():
    with pytest.raises(DomainError):
        trace_power(kernel_ab(100.0), 0)
    # the replica closed form needs eps = sqrt(4b/a) < 1
    for ratio in (2.0, 4.0):
        with pytest.raises(DomainError, match="a/b > 4"):
            trace_power(kernel_ab(ratio), 2)
        with pytest.raises(DomainError, match="a/b > 4"):
            kernel_eigenvalue_entropy(kernel_ab(ratio))
    # and 4b/a > 0: ln eps_tilde raised ValueError where it underflows
    for kernel in (GaussianKernel(1.0, 0.0), GaussianKernel(1e308, 5e-324)):
        with pytest.raises(DomainError, match="4b/a > 0"):
            trace_power(kernel, 2)
        with pytest.raises(DomainError, match="4b/a > 0"):
            kernel_eigenvalue_entropy(kernel)


def test_series_entropy_refuses_its_term_count_before_summing():
    # it summed 10^7 terms (3.9 s) before it raised; (1 - 2e-6)^k reaches
    # 1e-14 at k = 1.61e7
    with pytest.raises(NumericalError, match="1.61e\\+07 terms, above 10000000"):
        kernel_eigenvalue_entropy(GaussianKernel(1e12, 1.0))


# ------------------------------------------------------------------ the stdlib sums at 30 digits

MP30 = mpmath.mp.clone()
MP30.dps = 30


@pytest.mark.parametrize("a, length", [(1e-2, 100.0), (1.0, 100.0), (4.0, 500.0)],
                         ids=["aL2=1e2", "aL2=1e4", "aL2=1e6"])
def test_ring_sums_match_30_digits(a, length):
    # the same truncated sums, lambda_n for n = -n_max..n_max, at 30 digits
    lam = ring_kernel_eigenvalues(a, length)
    n_max = math.ceil(math.sqrt(45.0 * a) * length / math.pi) + 2  # the documented default
    assert isinstance(lam, list) and len(lam) == 2 * n_max + 1
    assert lam == lam[::-1]
    a_mp, l_mp = MP30.mpf(a), MP30.mpf(length)
    ref = [
        MP30.sqrt(MP30.pi / a_mp) / l_mp * MP30.exp(-((2 * MP30.pi * n / l_mp) ** 2) / (4 * a_mp))
        for n in range(-n_max, n_max + 1)
    ]
    assert abs(math.fsum(lam) - MP30.fsum(ref)) <= 1e-15
    s_ref = -MP30.fsum(x * MP30.log(x) for x in ref)
    assert abs(ring_kernel_entropy(a, length) / s_ref - 1) <= 1e-14


@pytest.mark.parametrize("ratio", [4.5, 100.0, 1e4, 1e6])
def test_trace_power_matches_30_digits(ratio):
    # the cyclic determinant at 30 digits, with the eigenvalues in the
    # cosine form; in doubles that form loses the smallest eigenvalue, 4b,
    # to cancellation (3e-13 of Tr rho^n at a/b = 1e4), which the
    # function's sum of positive terms does not
    k = kernel_ab(ratio)
    a_mp, b_mp = MP30.mpf(k.a), MP30.mpf(k.b)
    for n in range(1, 65):
        log_det = MP30.fsum(
            MP30.log(2 * (a_mp + b_mp) - 2 * (a_mp - b_mp) * MP30.cos(2 * MP30.pi * m / n))
            for m in range(1, n + 1)
        )
        ref = MP30.exp(n * MP30.log(4 * b_mp) / 2 - log_det / 2)
        assert abs(trace_power(k, n).direct / ref - 1) <= 1e-13, n


def test_series_entropy_reconstruction():
    # term-by-term geometric series equals the resummed closed form
    k = kernel_ab(100.0)
    s_series, s_closed = kernel_eigenvalue_entropy(k)
    assert abs(s_series - s_closed) < 1e-8
    # and both sit within O(eps) of the moment-expansion entropy
    m = MomentPair(q2=5.0, p2=5.0)  # eps = 0.2
    assert abs(s_closed - oscillator_entropy_expansion(m)) < 0.5 * m.eps


# ------------------------------------------------------------------ exact diagonalisation


def two_mode_bath(scale=1.0):
    return DiscreteBath(omegas=np.array([0.6, 1.4]), couplings=scale * np.array([0.3, 0.5]))


def test_ed_decoupled_spin():
    st = spin_boson_ed(1.0, two_mode_bath(0.0), fock_cut=6)
    assert st.sx == pytest.approx(1.0, abs=1e-12)
    assert st.entropy == pytest.approx(0.0, abs=1e-12)


def test_ed_symmetry_and_state_validity():
    st = spin_boson_ed(1.0, two_mode_bath(1.0), fock_cut=8)
    assert abs(st.sz) < 1e-10
    assert 0.0 < st.sx < 1.0
    assert 0.0 < st.entropy < math.log(2.0)


def test_ed_monotone_under_coupling_scale():
    scales = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]
    states = [spin_boson_ed(1.0, two_mode_bath(g), fock_cut=8) for g in scales]
    sxs = [s.sx for s in states]
    ents = [s.entropy for s in states]
    assert all(a > b for a, b in zip(sxs, sxs[1:]))
    assert all(a < b for a, b in zip(ents, ents[1:]))


def test_ed_fock_truncation_converged():
    assert ed_fock_convergence(1.0, two_mode_bath(1.0), 8) < 1e-3
    # the cut compared with itself less one level: the refusal names the cut given
    with pytest.raises(ConfigError, match="need 3 to 1024 Fock levels, got 2"):
        ed_fock_convergence(1.0, two_mode_bath(1.0), 2)


def test_ed_dimension_guard():
    big = DiscreteBath(omegas=np.ones(4), couplings=np.ones(4))
    with pytest.raises(ConfigError, match="need 4 to 2048 states, got 20000"):
        spin_boson_ed(1.0, big, fock_cut=10)
    with pytest.raises(ConfigError, match="need 4 to 2048 states, got 3200"):
        spin_boson_ed(1.0, two_mode_bath(1.0), fock_cut=40)
    with pytest.raises(ConfigError, match="need 1 to 4 modes, got 5"):
        spin_boson_ed(1.0, DiscreteBath(omegas=np.ones(5), couplings=np.ones(5)), fock_cut=2)
    with pytest.raises(ConfigError, match="need 2 to 1024 Fock levels, got 1"):
        spin_boson_ed(1.0, big, fock_cut=1)
    with pytest.raises(ConfigError, match="need 2 to 1024 Fock levels, got 1025"):
        spin_boson_ed(1.0, DiscreteBath(omegas=np.ones(1), couplings=np.ones(1)), fock_cut=1025)


def test_ed_reduced_state_from_discretized_bath():
    bath = discretize_spin_bath(BathSpec(s=1.0, alpha=0.05, cutoff=5.0), n_modes=3)
    st = spin_boson_ed(1.0, bath, fock_cut=5)
    assert abs(st.sz) < 1e-10
    assert 0.0 < st.sx <= 1.0


# ------------------------------------------------------------------ removed settings

BATH = BathSpec(s=0.5, alpha=0.1, cutoff=100.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SpinBosonPoint(delta0=1.0, bath=BATH, scaling_constant=1.0),
        lambda: SpinBosonPoint(delta0=1.0, bath=BATH, temperature=0.0),
        lambda: delocalized_log_derivative(SpinBosonPoint(1.0, BATH), step=1e-5),
        lambda: oscillator_entropy(OscillatorParams(1.0, 4.0, 100.0), "expansion"),
        lambda: DiscreteBath(omegas=np.ones(2), couplings=np.ones(2), scheme="manual"),
        lambda: DiscreteBath(omegas=np.ones(2), couplings=np.ones(2), convention="spin"),
        lambda: discretize_spin_bath(BATH, 3, omega_min_frac=1e-3),
        lambda: discretize_oscillator_bath(OscillatorParams(1.0, 1.0, 100.0), 8, omega_min=1e-3),
        lambda: discrete_bath_moments(OscillatorParams(1.0, 1.0, 100.0), 8, omega_min=1e-3),
        lambda: kernel_eigenvalue_entropy(kernel_ab(100.0), tail_tol=1e-14),
        lambda: oracle_run("oscillator", {"eta": 1.0}, {"n_modes": 400}),
        lambda: discretize_spin_bath(BATH, 3, scheme="logarithmic"),
        lambda: ring_kernel_eigenvalues(1.0, 100.0, n_max=40),
        lambda: ring_kernel_entropy(1.0, 100.0, n_max=40),
        lambda: SweepConfig(model="oscillator", outputs=("S",)),
        lambda: detect_kink(run_sweep(SweepConfig(model="free-particle")), "S", threshold=5.0),
    ],
    ids=[
        "scaling_constant", "temperature", "step", "method", "scheme", "convention",
        "omega_min_frac", "omega_min-bath", "omega_min-moments", "tail_tol", "knobs",
        "spin-bath-scheme", "n_max-eigenvalues", "n_max-entropy", "outputs", "threshold",
    ],
)
def test_removed_settings_are_refused(call):
    # settings with one value in use are constants; oracle_run reads n_modes
    # and scheme from params
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "owner, name",
    [
        (dissipent.sweep, "preset_kind"),  # preset_doc(name)["kind"]
        (dissipent.sweep, "preset_config"),  # sweep_config(preset_doc(name))
        (dissipent, "preset_config"),
        (dissipent.sweep, "preset_regime_map"),  # regime_map_from_doc(preset_doc(name))
        (regime_map(0.5, [0.1], [0.2]), "transition_line"),  # alpha = s * ratio, in _labels
        (SweepTable(config={}, columns={"alpha": []}), "column_names"),  # list(table.columns)
        (MomentPair(q2=1.0, p2=1.0), "eps_tilde"),  # inside oscillator_entropy_expansion
        (MomentPair(q2=1.0, p2=1.0), "a_over_b"),  # 4 * m.q2 * m.p2
        (dissipent.oracles, "gaussian_entropy"),  # gaussian.gaussian_entropy
        (SweepConfig(model="oscillator"), "resolved_fixed"),  # inlined into run_sweep
    ],
    ids=[
        "sweep.preset_kind", "sweep.preset_config", "dissipent.preset_config",
        "sweep.preset_regime_map", "RegimeMap.transition_line", "SweepTable.column_names",
        "MomentPair.eps_tilde", "MomentPair.a_over_b", "oracles.gaussian_entropy",
        "SweepConfig.resolved_fixed",
    ],
)
def test_removed_names_stay_removed(owner, name):
    # each restated another public name, given in its comment
    with pytest.raises(AttributeError):
        getattr(owner, name)
