"""Independent brute-force verifiers for the closed forms.

Nothing in here reuses the analytic entropy/moment expressions it is meant
to check: the oscillator moments come from the resolvent of a discretised
system+bath quadratic form, the free-particle entropy from an explicit
eigenvalue sum on a ring, the replica traces from cyclic determinants, and
the spin observables from exact diagonalisation in a truncated Fock space.

The discretised oscillator's quadratic form K is an arrowhead matrix (a
diagonal bath block plus one coupling row and column), so the system
entry of its resolvent is the scalar 1/D(z) of the Schur complement
D(z) = K00 + z - sum lambda^2/(omega^2 + z).  The two moments are
integrals of it over [0, inf), O(N) per evaluation, with no N x N matrix.
D(0) is the Schur complement of the bath block, so K is positive definite
exactly when D(0) > 0, and D rises with z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh

from .bath import BathSpec
from .errors import ConfigError, DomainError, NumericalError
from .gaussian import GaussianKernel, OscillatorParams, gaussian_entropy
from .spinboson import ReducedSpinState

__all__ = [
    "CovarianceResult",
    "DiscreteBath",
    "gaussian_entropy",  # re-exported from gaussian, where the closed form lives
    "discretize_oscillator_bath",
    "discretize_spin_bath",
    "discrete_bath_moments",
    "ring_kernel_eigenvalues",
    "ring_kernel_entropy",
    "TracePowerResult",
    "trace_power",
    "kernel_eigenvalue_entropy",
    "ed_reduced_density",
    "spin_boson_ed",
    "ed_fock_convergence",
]


# ---------------------------------------------------------------------------
# discretised bath
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteBath:
    """A finite set of bath modes (omega_k, lambda_k).

    convention = "oscillator": couplings reproduce J(w) = (pi/2) sum_k
    (lambda_k^2/omega_k) delta(w - omega_k) (coordinate-coupled bath with
    counterterm); convention = "spin": J(w) = sum_k lambda_k^2 delta(w - omega_k).
    """

    omegas: np.ndarray
    couplings: np.ndarray
    scheme: str
    convention: str

    @property
    def n_modes(self) -> int:
        return len(self.omegas)

    @property
    def modes(self) -> list[tuple[float, float]]:
        return list(zip(self.omegas.tolist(), self.couplings.tolist()))


def _bin_edges(omega_min: float, omega_max: float, n_modes: int, scheme: str) -> np.ndarray:
    if scheme == "logarithmic":
        return np.geomspace(omega_min, omega_max, n_modes + 1)
    if scheme == "linear":
        return np.linspace(omega_min, omega_max, n_modes + 1)
    raise ConfigError(f"unknown discretization scheme {scheme!r}")


def discretize_oscillator_bath(
    eta: float,
    omega_c: float,
    n_modes: int,
    scheme: str = "logarithmic",
    omega_min: float | None = None,
    omega0: float = 1.0,
) -> DiscreteBath:
    """Discretise the Ohmic bath J(w) = eta*w (w <= omega_c) for the
    coordinate-coupled model.  Each bin carries one mode at the J-weighted
    mean frequency with lambda_k^2 = (2/pi) * omega_k * integral_bin J;
    the logarithmic scheme places modes with density ~ 1/omega between
    omega_min (default 1e-3 * omega0) and the cutoff.
    """
    if n_modes < 8:
        raise ConfigError(f"need at least 8 modes, got {n_modes}")
    if omega_min is None:
        omega_min = 1e-3 * omega0
    edges = _bin_edges(omega_min, omega_c, n_modes, scheme)
    lo, hi = edges[:-1], edges[1:]
    bin_j = eta * (hi**2 - lo**2) / 2.0
    # J-weighted mean frequency of the bin (J ~ w): (2/3)(hi^3-lo^3)/(hi^2-lo^2)
    omegas = (2.0 / 3.0) * (hi**3 - lo**3) / (hi**2 - lo**2)
    couplings = np.sqrt((2.0 / math.pi) * omegas * bin_j)
    return DiscreteBath(omegas=omegas, couplings=couplings, scheme=scheme, convention="oscillator")


def discretize_spin_bath(
    bath: BathSpec,
    n_modes: int,
    scheme: str = "logarithmic",
    omega_min_frac: float = 1e-3,
) -> DiscreteBath:
    """Discretise a power-law bath for the spin-coupled model:
    lambda_k^2 = integral_bin J = 2*alpha*cutoff^(1-s)*(hi^(s+1)-lo^(s+1))/(s+1)."""
    if n_modes < 1:
        raise ConfigError("need at least one mode")
    edges = _bin_edges(omega_min_frac * bath.cutoff, bath.cutoff, n_modes, scheme)
    lo, hi = edges[:-1], edges[1:]
    s = bath.s
    bin_j = 2.0 * bath.alpha * bath.cutoff ** (1.0 - s) * (hi ** (s + 1) - lo ** (s + 1)) / (s + 1)
    omegas = 0.5 * (lo + hi)
    return DiscreteBath(
        omegas=omegas, couplings=np.sqrt(bin_j), scheme=scheme, convention="spin"
    )


@dataclass(frozen=True)
class CovarianceResult:
    q2: float
    p2: float

    @property
    def nu(self) -> float:
        return math.sqrt(self.q2 * self.p2)


# quad is asked for what it reaches on the whole (omega_c, eta, N) test grid
# (1e-12 raises IntegrationWarning at omega_c = 1e4); its own error estimate
# must then stay below _MOMENT_REL_ERR of the value
_MOMENT_EPSREL = 1e-11
_MOMENT_REL_ERR = 1e-10


def discrete_bath_moments(
    p: OscillatorParams,
    n_modes: int,
    scheme: str = "logarithmic",
    omega_min: float | None = None,
) -> CovarianceResult:
    """Ground-state <q^2>, <p^2> of the oscillator coupled to a discretised
    Ohmic bath, exact for the discrete modes.

    The potential is (1/2) x^T K x with the counterterm sum(lambda^2/omega^2)
    on the system diagonal (complete-the-square coupling), so the ground
    state covariances are <x x^T> = K^(-1/2)/2 and <p p^T> = K^(1/2)/2.
    With K^(-1/2) = (2/pi) int_0^inf (K + t^2)^(-1) dt, K^(1/2) the same
    integral of K (K + t^2)^(-1), and the system entry of (K + z)^(-1)
    equal to 1/D(z),

        D(z) = K00 + z - sum lambda^2/(omega^2 + z)
             = omega0^2 + z + z sum lambda^2/(omega^2 (omega^2 + z)),

        <q^2> = (1/pi) int_0^inf dt / D(t^2),
        <p^2> = (1/pi) int_0^inf (D(t^2) - t^2) / D(t^2) dt.

    The second form of D has the counterterm cancelled exactly, so neither
    integrand loses digits at small or large t.  K is positive definite
    exactly when D(0) > 0; NumericalError if not, or if the quadrature's
    error estimate exceeds 1e-10 of a moment.  No dynamics is involved.
    """
    db = discretize_oscillator_bath(p.eta, p.omega_c, n_modes, scheme, omega_min, p.omega0)
    w2 = db.omegas**2
    c = db.couplings**2 / w2
    w0 = p.omega0

    def d_pair(u: float) -> tuple[float, float]:
        """(D(t^2) - t^2, D(t^2)) at t = omega0 * u."""
        t2 = (w0 * u) ** 2
        k = w0 * w0 + t2 * float(np.sum(c / (w2 + t2)))
        return k, k + t2

    if not d_pair(0.0)[1] > 0:
        raise NumericalError("discretised quadratic form is not positive definite")

    def q_integrand(u: float) -> float:
        return w0 / d_pair(u)[1]

    def p_integrand(u: float) -> float:
        k, d = d_pair(u)
        return w0 * k / d

    def moment(f) -> float:
        # t = omega0 * u, split at u = 1: quad maps [1, inf) onto (0, 1] at
        # unit scale, which then matches the oscillator's; one piece over
        # [0, inf) in t hits roundoff at omega_c = 1e4
        val = err = 0.0
        for lo, hi in ((0.0, 1.0), (1.0, math.inf)):
            v, e = quad(f, lo, hi, epsabs=0.0, epsrel=_MOMENT_EPSREL)
            val += v
            err += e
        if not err <= _MOMENT_REL_ERR * abs(val):
            raise NumericalError(
                f"resolvent quadrature error {err:.2e} exceeds {_MOMENT_REL_ERR:g} of {val:.6e}"
            )
        return val / math.pi

    return CovarianceResult(q2=moment(q_integrand), p2=moment(p_integrand))


# ---------------------------------------------------------------------------
# ring-regulated free-particle kernel
# ---------------------------------------------------------------------------


def ring_kernel_eigenvalues(a: float, length: float, n_max: int | None = None) -> np.ndarray:
    """Eigenvalues of the translation-invariant kernel exp(-a(x-x')^2)/L on
    a ring of circumference L:

        lambda_n = (1/L) sqrt(pi/a) exp(-k_n^2 / (4a)),   k_n = 2 pi n / L,

    for n = 0, +-1, ..., +-n_max.  n_max defaults to a value at which the
    dropped tail is below 1e-14.
    """
    if not (a > 0 and length > 0):
        raise DomainError("need a > 0 and length > 0")
    if n_max is None:
        # lambda_n falls like exp(-pi^2 n^2 / (a L^2)); 45 e-folds is plenty
        n_max = int(math.ceil(math.sqrt(45.0 * a) * length / math.pi)) + 2
    n = np.arange(-n_max, n_max + 1)
    k = 2.0 * math.pi * n / length
    lam = (1.0 / length) * math.sqrt(math.pi / a) * np.exp(-(k**2) / (4.0 * a))
    tail = lam[0]  # largest dropped-neighbourhood magnitude sits at the edge
    if tail > 1e-12:
        raise NumericalError(f"eigenvalue tail {tail:.2e} above 1e-12; raise n_max")
    return lam


def ring_kernel_entropy(a: float, length: float, n_max: int | None = None) -> float:
    """-sum lambda ln lambda over the ring eigenvalues; the independent
    check of the closed-form free-particle entropy (d = 1)."""
    lam = ring_kernel_eigenvalues(a, length, n_max)
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log(lam)))


# ---------------------------------------------------------------------------
# cyclic replica traces of the (a, b) kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TracePowerResult:
    direct: float
    closed_form: float


def _eps_tilde(kernel: GaussianKernel) -> float:
    """Small-eps parameterisation of the kernel: eps^2 = 4b/a and
    eps_tilde = eps * sqrt(1-eps) / sqrt(1 - eps^2/4).  Needs a/b > 4."""
    e = math.sqrt(4.0 * kernel.b / kernel.a)
    if e >= 1.0:
        raise DomainError(f"replica closed form needs a/b > 4, got {kernel.a_over_b}")
    return e * math.sqrt(1.0 - e) / math.sqrt(1.0 - 0.25 * e * e)


def trace_power(kernel: GaussianKernel, n: int) -> TracePowerResult:
    """Tr rho^n two ways.

    direct: the n-fold Gaussian convolution integral via the cyclic
    tridiagonal determinant with eigenvalues 2(a+b) - 2(a-b) cos(2 pi m/n),

        Tr rho^n = (4b)^(n/2) / sqrt(det A_n),

    exact for every n.  closed_form: et^n / (1 - (1-et)^n) with
    et = eps_tilde(a, b); the replica product formula, normalised so that
    Tr rho^1 = 1 exactly.  The two agree to O(eps^2) per replica factor.
    """
    if n < 1:
        raise DomainError(f"replica index must be >= 1, got {n}")
    if not kernel.b > 0:
        raise DomainError("trace_power needs b > 0")
    m = np.arange(1, n + 1)
    eig = 2.0 * (kernel.a + kernel.b) - 2.0 * (kernel.a - kernel.b) * np.cos(
        2.0 * math.pi * m / n
    )
    # work in logs: det A grows like (2a)^n
    log_det = float(np.sum(np.log(eig)))
    direct = math.exp(0.5 * n * math.log(4.0 * kernel.b) - 0.5 * log_det)
    et = _eps_tilde(kernel)
    closed = math.exp(n * math.log(et)) / -math.expm1(n * math.log1p(-et))
    return TracePowerResult(direct=direct, closed_form=closed)


def kernel_eigenvalue_entropy(kernel: GaussianKernel, tail_tol: float = 1e-14) -> tuple[float, float]:
    """(series, closed) entropy of the geometric eigenvalue ladder implied
    by the replica traces: Tr rho^n = e^n / (1-(1-e)^n) resums to
    eigenvalues lambda_k = e (1-e)^k, whose entropy is

        S = -ln e - (1-e) ln(1-e) / e.

    The series is summed term by term until the dropped tail (bounded by
    the remaining geometric weight) is below tail_tol.
    """
    e = _eps_tilde(kernel)
    s_closed = -math.log(e) - (1.0 - e) * math.log1p(-e) / e
    s_series = 0.0
    weight = 1.0  # remaining total weight sum_{j>=k} lambda_j = (1-e)^k
    k = 0
    while weight > tail_tol:
        lam = e * weight
        s_series -= lam * math.log(lam)
        weight *= 1.0 - e
        k += 1
        if k > 10_000_000:
            raise NumericalError("entropy series failed to converge")
    return s_series, s_closed


# ---------------------------------------------------------------------------
# truncated-Fock exact diagonalisation of a few-mode spin-boson system
# ---------------------------------------------------------------------------


def ed_reduced_density(delta0: float, bath: DiscreteBath, fock_cut: int = 8) -> np.ndarray:
    """Reduced 2x2 spin density matrix of the ground state of

        H = (delta0/2) sigma_x + sum_k w_k b_k^dag b_k
            + sigma_z sum_k (lambda_k/2)(b_k + b_k^dag)

    by dense diagonalisation in a Fock space truncated at fock_cut levels
    per mode.  Intended for qualitative trend checks with <= 4 modes.
    """
    n_modes = bath.n_modes
    if n_modes > 4:
        raise ConfigError("exact diagonalisation supports at most 4 modes")
    if fock_cut < 2:
        raise ConfigError("fock_cut must be >= 2")
    dim_b = fock_cut**n_modes
    if 2 * dim_b > 2**14:
        raise ConfigError(f"Hilbert space dimension {2*dim_b} exceeds 2^14")

    ident = np.eye(fock_cut)
    lower = np.diag(np.sqrt(np.arange(1, fock_cut)), 1)  # annihilation
    num = np.diag(np.arange(fock_cut, dtype=float))

    def embed(op: np.ndarray, k: int) -> np.ndarray:
        mats = [op if j == k else ident for j in range(n_modes)]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    h_bath = np.zeros((dim_b, dim_b))
    disp = np.zeros((dim_b, dim_b))
    for k in range(n_modes):
        h_bath += bath.omegas[k] * embed(num, k)
        disp += 0.5 * bath.couplings[k] * embed(lower + lower.T, k)

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    ham = (
        0.5 * delta0 * np.kron(sx, np.eye(dim_b))
        + np.kron(eye2, h_bath)
        + np.kron(sz, disp)
    )
    evals, vecs = eigh(ham)
    psi = vecs[:, 0].reshape(2, dim_b)
    return psi @ psi.T  # reduced 2x2 density matrix (real wavefunction)


def spin_boson_ed(delta0: float, bath: DiscreteBath, fock_cut: int = 8) -> ReducedSpinState:
    """Reduced spin state of the few-mode ground state, with sx reported
    as |<sigma_x>| (the global sign is a convention)."""
    rho = ed_reduced_density(delta0, bath, fock_cut)
    sx_val = float(rho[0, 1] + rho[1, 0])
    sz_val = float(rho[0, 0] - rho[1, 1])
    lam = np.linalg.eigvalsh(rho)
    entropy = float(-np.sum(lam[lam > 0] * np.log(lam[lam > 0])))
    return ReducedSpinState(sx=abs(sx_val), sz=sz_val, entropy=entropy)


def ed_fock_convergence(delta0: float, bath: DiscreteBath, fock_cut: int) -> float:
    """|<sigma_x>(fock_cut) - <sigma_x>(fock_cut - 1)|: the truncation
    check; below 1e-3 the cut is considered converged."""
    a = spin_boson_ed(delta0, bath, fock_cut)
    b = spin_boson_ed(delta0, bath, fock_cut - 1)
    return abs(a.sx - b.sx)
