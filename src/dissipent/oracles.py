"""Independent brute-force verifiers for the closed forms.

Nothing in here reuses the analytic entropy/moment expressions it is meant
to check: the oscillator moments come from the resolvent of a discretised
system+bath quadratic form, the free-particle entropy from an explicit
eigenvalue sum on a ring, the replica traces from cyclic determinants, and
the spin observables from exact diagonalisation in a truncated Fock space.
The replica closed form and the eigenvalue-ladder entropy take eps_tilde
from gaussian, so they check the expansion's resummation, not eps_tilde.

The discretised oscillator's quadratic form K is an arrowhead matrix (a
diagonal bath block plus one coupling row and column), so the system
entry of its resolvent is the scalar 1/D(z) of the Schur complement
D(z) = K00 + z - sum lambda^2/(omega^2 + z).  The two moments are
integrals of it over [0, inf), O(N) per evaluation, with no N x N matrix.
D(0) is the Schur complement of the bath block, so K is positive definite
exactly when D(0) > 0, and D rises with z.  The integrals are taken with
numpy alone, by the package's fixed Gauss-Legendre rule, as deviations
from the bare oscillator with closed-form tails; the rule's two-width
error estimate must stay below 1e-10 of each moment, else NumericalError.

numpy is imported inside each function that builds an array, integrates
or diagonalises: the discretised baths, the resolvent moments and the
exact diagonalisation.  The ring eigenvalue sums and the replica traces
are standard library only, so importing this module (and the package),
and the free-particle oracle, load no numpy.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .bath import BathSpec
from .errors import ConfigError, DomainError, NumericalError, _finite, _in_range, _is_integer, _shown
from .errors import _LARGEST
from .gaussian import GaussianKernel, MomentPair, OscillatorParams
from .gaussian import _eps_tilde, _square
from .spinboson import ReducedSpinState

__all__ = [
    "DiscreteBath",
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


# most terms an oracle builds: bath modes or distinct ring eigenvalues,
# about 1.6 s and 0.3 s of work at the limit
_MAX_TERMS = 10**6
# most terms of the eigenvalue-ladder entropy series, about 4 s of work
_MAX_SERIES_TERMS = 10**7


def _size(value, low: int, high: int, things: str):
    """value, if it is an integer from low to high; else a ConfigError."""
    if _is_integer(value) and low <= value <= high:
        return value
    raise ConfigError(f"need {low} to {high} {things}, got {_shown(value)}")


# ---------------------------------------------------------------------------
# discretised bath
# ---------------------------------------------------------------------------


class DiscreteBath(namedtuple("DiscreteBath", "omegas couplings")):
    """A finite set of bath modes (omega_k, lambda_k), two numpy arrays.

    The coupling convention is that of the function that built the bath:
    discretize_oscillator_bath's couplings reproduce J(w) = (pi/2) sum_k
    (lambda_k^2/omega_k) delta(w - omega_k) (coordinate-coupled bath with
    counterterm), discretize_spin_bath's J(w) = sum_k lambda_k^2 delta(w - omega_k).
    """

    __slots__ = ()

    @property
    def n_modes(self) -> int:
        return len(self.omegas)


def eigh(a):
    """numpy.linalg.eigh(a), bound here by name for the benchmark's tracer
    to wrap."""
    import numpy as np

    return np.linalg.eigh(a)


def _bath(omegas, couplings) -> DiscreteBath:
    """The DiscreteBath of a discretiser, if every frequency is a normal
    double and every coupling finite; else a NumericalError."""
    import numpy as np

    if np.all((omegas >= sys.float_info.min) & (omegas <= _LARGEST)) and np.all(couplings <= _LARGEST):
        return DiscreteBath(omegas=omegas, couplings=couplings)
    raise NumericalError("a frequency or coupling of the discretised bath is not a normal double")


def discretize_oscillator_bath(
    p: OscillatorParams,
    n_modes: int,
    scheme: str = "logarithmic",
    omega_min: float | None = None,
) -> DiscreteBath:
    """Discretise the Ohmic bath J(w) = eta*w (w <= omega_c) of p for the
    coordinate-coupled model.  Each bin carries one mode at the J-weighted
    mean frequency with lambda_k^2 = (2/pi) * omega_k * integral_bin J;
    the logarithmic scheme places modes with density ~ 1/omega between
    omega_min (default 1e-3 * omega0), which must lie in (0, omega_c), and
    the cutoff.  n_modes runs from 8 to 10^6.  A frequency or coupling
    that leaves the doubles is a NumericalError.
    """
    import numpy as np

    _size(n_modes, 8, _MAX_TERMS, "modes")
    omega_min = 1e-3 * p.omega0 if omega_min is None else omega_min
    if not 0 < omega_min < p.omega_c:
        raise DomainError(f"omega_min must lie in (0, omega_c), got {_shown(omega_min)} "
                          f"with omega_c {p.omega_c}")
    if scheme not in ("logarithmic", "linear"):
        raise ConfigError(f"unknown discretization scheme {_shown(scheme, repr)}")
    # float ends: numpy takes an integer past 2**63 as a Python object
    ends = float(omega_min), float(p.omega_c), n_modes + 1
    with np.errstate(all="ignore"):  # a value past the doubles is refused by _bath
        edges = np.geomspace(*ends) if scheme == "logarithmic" else np.linspace(*ends)
        lo, hi = edges[:-1], edges[1:]
        bin_j = p.eta * (hi**2 - lo**2) / 2.0
        # J-weighted mean frequency of the bin (J ~ w): (2/3)(hi^3-lo^3)/(hi^2-lo^2)
        omegas = (2.0 / 3.0) * (hi**3 - lo**3) / (hi**2 - lo**2)
        return _bath(omegas, np.sqrt((2.0 / math.pi) * omegas * bin_j))


def discretize_spin_bath(bath: BathSpec, n_modes: int) -> DiscreteBath:
    """Discretise a power-law bath for the spin-coupled model on
    logarithmic bins between 1e-3 * cutoff and the cutoff.  In
    x = omega / cutoff, each mode sits at the bin's midpoint with
    lambda_k^2 = integral_bin J = 2*alpha*cutoff^2*(x_hi^(s+1)-x_lo^(s+1))/(s+1),
    with 1 to 10^6 modes.  A frequency or coupling that leaves the doubles
    is a NumericalError."""
    import numpy as np

    x = np.geomspace(1e-3, 1.0, _size(n_modes, 1, _MAX_TERMS, "modes") + 1)
    lo, hi = x[:-1], x[1:]
    s, cutoff = float(bath.s), float(bath.cutoff)
    with np.errstate(all="ignore"):  # a value past the doubles is refused by _bath
        weight = 2.0 * bath.alpha * (hi ** (s + 1) - lo ** (s + 1)) / (s + 1)
        return _bath(cutoff * 0.5 * (lo + hi), cutoff * np.sqrt(weight))


# a moment is returned only when its error estimate is below this fraction
_MOMENT_REL_ERR = 1e-10
# the deviation dropped below u_lo, and the error of the closed-form tail
# above u_hi, are each at most this fraction of a moment
_TAIL_REL = 1e-17
# node x mode elements per block of the mode sum
_BLOCK = 1 << 16


def discrete_bath_moments(
    p: OscillatorParams,
    n_modes: int,
    scheme: str = "logarithmic",
    omega_min: float | None = None,
) -> MomentPair:
    """Ground-state <q^2>, <p^2> of the oscillator coupled to a discretised
    Ohmic bath, exact for the discrete modes.

    The potential is (1/2) x^T K x with the counterterm sum(lambda^2/omega^2)
    on the system diagonal (complete-the-square coupling), so the ground
    state covariances are <x x^T> = K^(-1/2)/2 and <p p^T> = K^(1/2)/2.
    With K^(-1/2) = (2/pi) int_0^inf (K + t^2)^(-1) dt, K^(1/2) the same
    integral of K (K + t^2)^(-1), and the system entry of (K + z)^(-1)
    equal to 1/D(z),

        D(z) = K00 + z - sum lambda^2/(omega^2 + z)
             = omega0^2 + z + z Sigma(z),  Sigma(z) = sum c/(omega^2 + z),

    with c = lambda^2/omega^2 (the counterterm cancels exactly), and

        <q^2> = (1/pi) int_0^inf dt / D(t^2),
        <p^2> = (1/pi) int_0^inf (D(t^2) - t^2) / D(t^2) dt.

    Each is integrated as its deviation from the bare oscillator,
    -t^2 Sigma / (D (omega0^2 + t^2)) and t^4 Sigma / (D (omega0^2 + t^2)),
    to which the bare 1/(2 omega0) and omega0/2 are added exactly; at
    eta = 0 the moments are exactly the bare ones.  In u = t/omega0 the
    deviations are taken over ln u by the package's Gauss-Legendre rule
    from u_lo to u_hi.  Below u_lo they are dropped: they are at most
    Sigma(0) u^3/3, under 1e-17 of a moment.  Above u_hi, u^2 Sigma is
    replaced by its limit sum c / omega0^2, which makes both tails arctans
    in closed form; the error is bounded by sum c omega^2 / omega0^4 over
    a power of u_hi, and u_hi keeps it under 1e-17 of a moment.  The
    node x mode array of the mode sum is built in blocks of 2^16 elements.

    NumericalError if K is not positive definite (D(0) = omega0^2 is 0
    only when it underflows), or if the rule's error estimate, rounding
    included, exceeds 1e-10 of a moment.  The subtraction costs digits
    when <q^2> is far below 1/(2 omega0), so at eta/omega0 above about
    1e7 the oracle refuses.  No dynamics is involved.
    """
    import numpy as np

    from ._quadrature import gauss_legendre

    w0 = p.omega0
    # the bath in units of omega0; a sum that overflows or is undefined is refused below
    with np.errstate(all="ignore"):
        db = discretize_oscillator_bath(p, n_modes, scheme, omega_min)
        w2 = (db.omegas / w0) ** 2
        c = (db.couplings / (db.omegas * w0)) ** 2
        a = float(np.sum(c))  # the limit of u^2 Sigma(u)
        sigma0 = float(np.sum(c / w2))  # Sigma(0) >= Sigma(u)
        a2 = float(np.sum(c * w2))  # a - u^2 Sigma(u) <= a2 / u^2
    if not w0 * w0 > 0:
        raise NumericalError("discretised quadratic form is not positive definite")
    # pi omega0 <q^2> and pi <p^2> / omega0 are at least these (a <= sqrt(sigma0 a2)
    # is finite where sigma0 and u_hi, which bounds a2, are)
    q_floor, p_floor = 0.5 * math.pi / math.sqrt(1.0 + _finite("Sigma(0)", sigma0)), 0.5 * math.pi
    # the tail errors are at most a2 / (5 u_hi^5) for q and a2 / (3 u_hi^3) for p
    u_hi = _finite("the upper limit u_hi", max(
        1.0,
        (a2 / (5.0 * _TAIL_REL * q_floor)) ** 0.2,
        (a2 / (3.0 * _TAIL_REL * p_floor)) ** (1.0 / 3.0),
    ))
    # the dropped q deviation is at most Sigma(0) u_lo^3 / 3, the p one less
    u_lo = 1.0
    if sigma0 > 0:
        u_lo = min(1.0, (3.0 * _TAIL_REL * q_floor / sigma0) ** (1.0 / 3.0))
        if u_lo == 0.0:  # its cube underflowed, at Sigma(0) above about 1e205
            raise NumericalError(f"the lower limit u_lo underflows to 0 at Sigma(0) = {sigma0:.3g}")

    rows = max(1, _BLOCK // len(c))
    block = np.empty((rows, len(c)))

    def deviations(x: np.ndarray) -> np.ndarray:
        u2 = np.exp(2.0 * x)
        sigma = np.empty_like(u2)
        for i in range(0, len(u2), rows):
            u2_rows = u2[i : i + rows, None]
            part = block[: len(u2_rows)]
            np.add(w2, u2_rows, out=part)
            np.reciprocal(part, out=part)
            np.matmul(part, c, out=sigma[i : i + rows])
        us = u2 * sigma
        g = np.sqrt(u2) * us / ((1.0 + u2 + us) * (1.0 + u2))  # du = u d(ln u)
        return np.stack([-g, u2 * g])

    # where D (1 + u^2) passes the largest double, g is 0; a moment of 0 is refused
    with np.errstate(over="ignore", divide="ignore"):
        (dq, dp), errors = gauss_legendre(deviations, math.log(u_lo), math.log(u_hi))
        rb = math.sqrt(1.0 + a)
        dq = float(dq) + math.atan(rb / u_hi) / rb - math.atan(1.0 / u_hi)
        dp = float(dp) + rb * math.atan(rb / u_hi) - math.atan(1.0 / u_hi)
        # <q^2> omega0 and <p^2> / omega0
        scaled = (0.5 + dq / math.pi, 0.5 + dp / math.pi)
        for moment, err in zip(scaled, errors / math.pi):
            if not err <= _MOMENT_REL_ERR * moment:
                raise NumericalError(f"resolvent quadrature error estimate {err / moment:.1e} "
                                     f"of a moment exceeds {_MOMENT_REL_ERR:g}")
    return MomentPair(q2=scaled[0] / w0, p2=scaled[1] * w0)


# ---------------------------------------------------------------------------
# ring-regulated free-particle kernel
# ---------------------------------------------------------------------------


def _ring_ladder(a: float, length: float) -> tuple[float, list]:
    """q = k_1^2 / (4a) and the distinct ring eigenvalues lambda_n =
    lambda_0 exp(-q n^2), n = 0..n_max.  lambda_n falls like
    exp(-pi^2 n^2 / (a L^2)), so n_max = ceil(sqrt(45 a) L / pi) + 2 puts
    the last one more than 45 e-folds below lambda_0: below 2.21e-22 for
    every a L^2 (largest at a L^2 = (182 pi)^2 / 45).  A count past
    _MAX_TERMS is refused before the ladder is built."""
    _in_range("a", a, ">", 0)
    _in_range("length", length, ">", 0)
    reach = math.sqrt(45.0 * a) * length / math.pi
    if not reach < _MAX_TERMS:
        raise NumericalError(f"the ring ladder needs {reach:.3g} terms, above {_MAX_TERMS}")
    n_max = int(math.ceil(reach)) + 2
    lam0 = _finite("lambda_0", (1.0 / length) * math.sqrt(math.pi / a))
    q = _finite("q", _square(2.0 * math.pi / length) / (4.0 * a))
    return q, [lam0 * math.exp(-q * (n * n)) for n in range(n_max + 1)]


def ring_kernel_eigenvalues(a: float, length: float) -> list[float]:
    """Eigenvalues of the translation-invariant kernel exp(-a(x-x')^2)/L on
    a ring of circumference L, as a list:

        lambda_n = (1/L) sqrt(pi/a) exp(-k_n^2 / (4a)),   k_n = 2 pi n / L,

    for n = -n_max, ..., n_max, with n_max that of _ring_ladder, at which
    the dropped tail is below 1e-14.  lambda_-n = lambda_n is evaluated
    once.
    """
    half = _ring_ladder(a, length)[1]
    return [*half[:0:-1], *half]


def ring_kernel_entropy(a: float, length: float) -> float:
    """-sum lambda ln lambda over the ring eigenvalues, with ln lambda_n =
    ln lambda_0 - q n^2; the independent check of the closed-form
    free-particle entropy (d = 1)."""
    q, half = _ring_ladder(a, length)
    log0 = math.log(half[0])
    terms = [lam * (log0 - q * (n * n)) for n, lam in enumerate(half)]
    return -math.fsum(terms + terms[1:])  # n and -n


# ---------------------------------------------------------------------------
# cyclic replica traces of the (a, b) kernel
# ---------------------------------------------------------------------------


class TracePowerResult(namedtuple("TracePowerResult", "direct closed_form")):
    """Tr rho^n by the direct determinant and by the replica closed form."""

    __slots__ = ()


def _kernel_eps_tilde(kernel: GaussianKernel) -> float:
    """Small-eps parameterisation of the kernel: eps^2 = 4b/a and gaussian's
    eps_tilde = eps * sqrt(1-eps) / sqrt(1 - eps^2/4).  Needs a/b > 4, and
    4b/a above 0 (b > 0, and no underflow), where ln eps_tilde is finite."""
    e = math.sqrt(4.0 * kernel.b / kernel.a)
    if e >= 1.0:
        raise DomainError(f"replica closed form needs a/b > 4, got {kernel.a_over_b}")
    if e == 0.0:
        raise DomainError(f"replica closed form needs 4b/a > 0, got a={kernel.a}, b={kernel.b}")
    return _eps_tilde(e)


def trace_power(kernel: GaussianKernel, n: int) -> TracePowerResult:
    """Tr rho^n two ways.

    direct: the n-fold Gaussian convolution integral via the cyclic
    tridiagonal determinant with eigenvalues 2(a+b) - 2(a-b) cos(2 pi m/n),

        Tr rho^n = (4b)^(n/2) / sqrt(det A_n),

    exact for every n.  Each eigenvalue is taken as the sum of positive
    terms 4(b cos^2(pi m/n) + a sin^2(pi m/n)), so that the smallest, 4b,
    is not the difference of two numbers near 4a.  closed_form:
    et^n / (1 - (1-et)^n) with et = eps_tilde(a, b); the replica product
    formula, normalised so that Tr rho^1 = 1 exactly.  The two agree to
    O(eps^2) per replica factor.
    """
    if not _is_integer(n):
        raise DomainError(f"replica index n must be an integer, got {_shown(n, repr)}")
    if n > _MAX_TERMS:
        raise NumericalError(f"the replica trace needs {_shown(n)} factors, above {_MAX_TERMS}")
    _in_range("replica index n", n, ">=", 1)
    et = _kernel_eps_tilde(kernel)  # before log(4b): it refuses b = 0
    # work in logs: det A grows like (2a)^n
    log_det = math.fsum(
        math.log(4.0 * (kernel.b * math.cos(t) ** 2 + kernel.a * math.sin(t) ** 2))
        for t in (math.pi * m / n for m in range(1, n + 1))
    )
    direct = math.exp(0.5 * n * math.log(4.0 * kernel.b) - 0.5 * log_det)
    closed = math.exp(n * math.log(et)) / -math.expm1(n * math.log1p(-et))
    return TracePowerResult(direct=direct, closed_form=closed)


def kernel_eigenvalue_entropy(kernel: GaussianKernel) -> tuple[float, float]:
    """(series, closed) entropy of the geometric eigenvalue ladder implied
    by the replica traces: Tr rho^n = e^n / (1-(1-e)^n) resums to
    eigenvalues lambda_k = e (1-e)^k, whose entropy is

        S = -ln e - (1-e) ln(1-e) / e.

    The series is summed term by term until the dropped tail (bounded by
    the remaining geometric weight) is below 1e-14: over the smallest k
    with (1-e)^k <= 1e-14 terms, which past 10^7 is a NumericalError,
    raised before the sum.
    """
    e = _kernel_eps_tilde(kernel)
    terms = math.log(1e-14) / math.log1p(-e)
    if terms > _MAX_SERIES_TERMS:
        raise NumericalError(f"the entropy series needs {terms:.3g} terms, above {_MAX_SERIES_TERMS}")
    s_closed = -math.log(e) - (1.0 - e) * math.log1p(-e) / e
    s_series = 0.0
    weight = 1.0  # remaining total weight sum_{j>=k} lambda_j = (1-e)^k
    while weight > 1e-14:
        lam = e * weight
        s_series -= lam * math.log(lam)
        weight *= 1.0 - e
    return s_series, s_closed


# ---------------------------------------------------------------------------
# truncated-Fock exact diagonalisation of a few-mode spin-boson system
# ---------------------------------------------------------------------------


def ed_reduced_density(delta0: float, bath: DiscreteBath, fock_cut: int = 8) -> np.ndarray:
    """Reduced 2x2 spin density matrix of the ground state of

        H = (delta0/2) sigma_x + sum_k w_k b_k^dag b_k
            + sigma_z sum_k (lambda_k/2)(b_k + b_k^dag)

    by dense diagonalisation in a Fock space truncated at fock_cut levels
    per mode.  Intended for qualitative trend checks: 1 to 4 modes, and a
    Hilbert dimension 2 fock_cut^modes of at most 2^11, refused before any
    array is built.  A Hamiltonian entry past the doubles is a
    NumericalError.
    """
    import numpy as np

    _in_range("delta0", delta0, ">", 0)
    n_modes = _size(bath.n_modes, 1, 4, "modes")
    dim_b = _size(fock_cut, 2, 2**10, "Fock levels") ** n_modes
    _size(2 * dim_b, 4, 2**11, "states")

    ident = np.eye(fock_cut)
    lower = np.diag(np.sqrt(np.arange(1, fock_cut)), 1)  # annihilation
    num = np.diag(np.arange(fock_cut, dtype=float))

    def embed(op: np.ndarray, k: int) -> np.ndarray:
        mats = [op if j == k else ident for j in range(n_modes)]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    with np.errstate(all="ignore"):  # a Hamiltonian past the doubles is refused below
        h_bath = np.zeros((dim_b, dim_b))
        disp = np.zeros((dim_b, dim_b))
        for k in range(n_modes):
            h_bath += bath.omegas[k] * embed(num, k)
            disp += 0.5 * bath.couplings[k] * embed(lower + lower.T, k)
        ham = 0.5 * delta0 * np.kron(sx, np.eye(dim_b)) + np.kron(eye2, h_bath) + np.kron(sz, disp)
    if not np.all(np.isfinite(ham)):
        raise NumericalError("the truncated Hamiltonian is not finite")
    evals, vecs = eigh(ham)
    psi = vecs[:, 0].reshape(2, dim_b)
    return psi @ psi.T  # reduced 2x2 density matrix (real wavefunction)


def spin_boson_ed(delta0: float, bath: DiscreteBath, fock_cut: int = 8) -> ReducedSpinState:
    """Reduced spin state of the few-mode ground state, with sx reported
    as |<sigma_x>| (the global sign is a convention)."""
    import numpy as np

    rho = ed_reduced_density(delta0, bath, fock_cut)
    sx_val = float(rho[0, 1] + rho[1, 0])
    sz_val = float(rho[0, 0] - rho[1, 1])
    lam = np.linalg.eigvalsh(rho)
    entropy = float(-np.sum(lam[lam > 0] * np.log(lam[lam > 0])))
    return ReducedSpinState(sx=abs(sx_val), sz=sz_val, entropy=entropy)


def ed_fock_convergence(delta0: float, bath: DiscreteBath, fock_cut: int) -> float:
    """|<sigma_x>(fock_cut) - <sigma_x>(fock_cut - 1)|: the truncation
    check, for 3 to 1024 levels; below 1e-3 the cut is considered converged."""
    a = spin_boson_ed(delta0, bath, _size(fock_cut, 3, 2**10, "Fock levels"))
    b = spin_boson_ed(delta0, bath, fock_cut - 1)
    return abs(a.sx - b.sx)
