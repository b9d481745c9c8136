"""Truncated single-mode Fock-space linear algebra.

States are complex amplitude vectors over photon numbers 0..cutoff,
operators are dense complex matrices.  Everything is immutable after
construction, so values can be shared freely between threads.

Truncation discipline: ladder operators and diagonal operators are exact on
the retained levels; displacement-like operators are only faithful away from
the cutoff edge.  Identities are therefore asserted on the "safe block" (the
lowest ceil(cutoff/2) levels), which :class:`TruncationPolicy` exposes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffExceededError,
    CutoffMismatchError,
    DegenerateTransmittanceError,
    TruncationError,
)
from .polynomials import assoc_laguerre, log_factorial

__all__ = [
    "TruncationPolicy",
    "FockVector",
    "FockOperator",
    "fock_state",
    "coherent_state",
    "displacement_op",
    "attenuation_op",
    "quadrature_state",
    "annihilation_op",
    "creation_op",
    "number_op",
    "identity_op",
    "apply",
    "inner",
    "norm",
    "normalize",
    "hermite_functions",
    "coherent_tail_mass",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff and tail-mass budget for a truncated Fock space.

    Parameters
    ----------
    cutoff : int
        Highest retained photon number (dimension is cutoff + 1), >= 8.
    tail_tol : float
        Maximum acceptable probability mass in the top 10% of Fock levels
        (or, for analytic checks, above the cutoff).
    """

    cutoff: int
    tail_tol: float = 1e-9

    def __post_init__(self):
        if self.cutoff < 8:
            raise ValueError(f"cutoff must be >= 8, got {self.cutoff}")
        if not self.tail_tol > 0:
            raise ValueError(f"tail_tol must be > 0, got {self.tail_tol}")

    @property
    def dim(self):
        return self.cutoff + 1

    @property
    def safe_levels(self):
        """Number of low Fock levels on which truncated identities are asserted."""
        return (self.cutoff + 1) // 2

    @property
    def tail_start(self):
        """First level of the top-10% block used for tail-mass checks."""
        return self.dim - max(1, self.dim // 10)

    def tail_mass(self, amps):
        """Fraction of |amps|^2 in the top-10% block."""
        prob = np.abs(np.asarray(amps)) ** 2
        total = prob.sum()
        if total == 0.0:
            return 0.0
        return float(prob[self.tail_start:].sum() / total)

    def check_tail(self, amps, what):
        mass = self.tail_mass(amps)
        if mass > self.tail_tol:
            raise TruncationError(
                f"{what}: tail mass {mass:.3e} in top Fock levels exceeds "
                f"tail_tol {self.tail_tol:.1e} at cutoff {self.cutoff}",
                tail_mass=mass,
            )


def _freeze(arr, dtype=complex):
    """Contiguous read-only copy (or view) of ``arr`` with the given dtype."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockVector:
    """Amplitudes of a single-mode state over photon numbers 0..cutoff."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        amps = _freeze(self.amps)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError(
                f"amps has shape {amps.shape}, expected ({self.cutoff + 1},)")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self):
        return self.cutoff + 1

    def mean_photon_number(self):
        prob = np.abs(self.amps) ** 2
        total = prob.sum()
        return float(np.arange(self.dim) @ prob / total) if total else 0.0


@dataclass(frozen=True)
class FockOperator:
    """Dense complex matrix over the truncated Fock basis."""

    mat: np.ndarray
    cutoff: int

    def __post_init__(self):
        mat = _freeze(self.mat)
        d = self.cutoff + 1
        if mat.shape != (d, d):
            raise ValueError(f"mat has shape {mat.shape}, expected ({d}, {d})")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self):
        return self.cutoff + 1

    def dag(self):
        return FockOperator(self.mat.conj().T, self.cutoff)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            _check_cutoffs(self, other)
            return FockOperator(self.mat @ other.mat, self.cutoff)
        return NotImplemented

    def __mul__(self, scalar):
        return FockOperator(self.mat * scalar, self.cutoff)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, FockOperator):
            _check_cutoffs(self, other)
            return FockOperator(self.mat + other.mat, self.cutoff)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, FockOperator):
            _check_cutoffs(self, other)
            return FockOperator(self.mat - other.mat, self.cutoff)
        return NotImplemented


def _check_cutoffs(a, b):
    if a.cutoff != b.cutoff:
        raise CutoffMismatchError(
            f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")


# --- elementary constructors --------------------------------------------

def fock_state(n, policy):
    """|n> as a basis vector; raises CutoffExceededError for n > cutoff."""
    if not 0 <= n <= policy.cutoff:
        raise CutoffExceededError(
            f"photon number {n} outside 0..{policy.cutoff}")
    amps = np.zeros(policy.dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps, policy.cutoff)


def coherent_tail_mass(alpha, cutoff):
    """Probability mass of the coherent state |alpha> above the cutoff.

    The Poisson tail P(K > cutoff) for K ~ Poisson(lam), lam = |alpha|^2,
    summed upward from cutoff + 1 in log space with a max shift.  Summing
    the tail itself, not 1 - P(K <= cutoff), keeps tails far below 1e-16
    exact.  Each log term is written as

        k ln(lam/k) + (k - lam) - ln sqrt(2 pi k) - stirling_error(k),

    so nothing of the size of ln k! enters (its rounding alone would cost
    ~1e-12 relative at k ~ 1000); the result is good to ~2e-13 relative
    down to 1e-300.  With w = 12 sqrt(lam) + 40 the sum runs over
    max(cutoff + 1, lam - w) <= k <= max(cutoff + 1, lam) + w; terms
    outside that window are below e^-70 of the largest one.
    """
    lam = abs(alpha) ** 2
    if lam == 0:
        return 0.0
    if not math.isfinite(lam):
        return 1.0 if lam > 0 else math.nan
    width = 12.0 * math.sqrt(lam) + 40.0
    k = np.arange(max(cutoff + 1, int(lam - width)),
                  max(cutoff + 1, int(lam)) + int(width) + 1)
    log_terms = (k * np.log(lam / k) + (k - lam)
                 - 0.5 * np.log(2.0 * np.pi * k) - _stirling_error(k))
    top = log_terms.max()
    return float(math.exp(top) * np.exp(log_terms - top).sum())


def _stirling_error(k):
    """ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) for an integer array k >= 1.

    Computed directly below 16; above, the Stirling series to k^-9, whose
    truncation error there is below 1e-16.
    """
    kf = k.astype(float)
    inv2 = 1.0 / (kf * kf)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188)
                                   * inv2) * inv2) * inv2) / kf
    small = np.minimum(k, 15)
    direct = (log_factorial(small) - (small + 0.5) * np.log(small) + small
              - 0.5 * math.log(2.0 * math.pi))
    return np.where(k < 16, direct, series)


def _check_coherent_tail(alpha, policy, message):
    """Raise TruncationError if |alpha> leaks more than tail_tol above the cutoff.

    ``message`` is a format string over ``a`` (|alpha|), ``tail``,
    ``cutoff`` and ``tail_tol``.  A NaN tail (NaN alpha) raises as well.
    """
    tail = coherent_tail_mass(alpha, policy.cutoff)
    if not tail <= policy.tail_tol:
        raise TruncationError(
            message.format(a=abs(alpha), tail=tail, cutoff=policy.cutoff,
                           tail_tol=policy.tail_tol),
            tail_mass=tail,
        )


def coherent_state(alpha, policy):
    """Coherent state |alpha>, truncated and renormalized.

    Amplitudes follow the Poisson law exp(-|a|^2/2) a^k / sqrt(k!); they are
    assembled in log space so large |alpha| and large cutoffs do not
    overflow.  Raises TruncationError when the analytic mass above the
    cutoff exceeds the policy's tail_tol.
    """
    _check_coherent_tail(
        alpha, policy, "coherent_state(|alpha|={a:.3g}): mass {tail:.3e} above "
        "cutoff {cutoff} exceeds tail_tol {tail_tol:.1e}")
    amps = _coherent_amps(alpha, policy.dim)
    amps /= np.linalg.norm(amps)
    return FockVector(amps, policy.cutoff)


def _coherent_amps(alpha, dim):
    """Unnormalized-by-truncation coherent amplitudes (exact analytic values)."""
    k = np.arange(dim)
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    logmag = k * np.log(abs(alpha)) - 0.5 * log_factorial(k) - abs(alpha) ** 2 / 2
    phase = np.exp(1j * k * np.angle(alpha))
    return np.exp(logmag) * phase


def displacement_op(alpha, policy):
    """Displacement operator D(alpha) from its analytic matrix elements.

    With x = |alpha|^2 and j <= k,

        <k|D|j> = e^(-x/2) e^(i(k-j) arg alpha) u_j^(k-j)(x),
        <j|D|k> = e^(-x/2) (-e^(-i arg alpha))^(k-j) u_j^(k-j)(x),

    where u_j^a(x) = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x) are the normalized
    Laguerre values of :func:`polynomials.assoc_laguerre`, one table for all
    diagonals.  Every factor is bounded, so no element overflows at any
    cutoff, and truncation error stays local to high indices.
    """
    _check_coherent_tail(
        alpha, policy, "displacement_op(|alpha|={a:.3g}): displaced vacuum has "
        "mass {tail:.3e} above cutoff {cutoff}")
    x = abs(alpha) ** 2
    k = np.arange(policy.dim)
    lo = np.minimum.outer(k, k)
    d = np.abs(np.subtract.outer(k, k))
    sign = np.where(k[:, None] < k, (-1.0) ** d, 1.0)
    lag = assoc_laguerre(policy.cutoff, k, x)[lo, d]
    phase = np.exp(1j * k * np.angle(alpha))
    mat = math.exp(-x / 2) * sign * lag * phase[:, None] * phase.conj()
    return FockOperator(mat, policy.cutoff)


def attenuation_op(t, policy):
    """Diagonal operator T^n with entries T^k, |T| <= 1, T != 0."""
    if t == 0:
        raise DegenerateTransmittanceError("attenuation_op with T = 0")
    if abs(t) > 1 + 1e-12:
        raise ValueError(f"attenuation_op needs |T| <= 1, got |T| = {abs(t)}")
    k = np.arange(policy.dim)
    return FockOperator(np.diag(np.asarray(t, dtype=complex) ** k), policy.cutoff)


def hermite_functions(x, nmax):
    """Harmonic-oscillator eigenfunctions phi_k(x) for k = 0..nmax.

    phi_k(x) = pi^(-1/4) exp(-x^2/2) H_k(x) / sqrt(2^k k!), evaluated by the
    normalized recurrence phi_{k+1} = x sqrt(2/(k+1)) phi_k
    - sqrt(k/(k+1)) phi_{k-1}, which neither overflows nor loses the
    exponential envelope.  Returns shape (nmax+1,) + shape(x).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, nmax):
        out[k + 1] = (x * np.sqrt(2.0 / (k + 1)) * out[k]
                      - np.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def quadrature_state(x, phi, policy):
    """Truncated quadrature-component state |x, phi>.

    Amplitudes are exp(i k phi) phi_k(x) with phi_k the oscillator
    eigenfunctions (vacuum variance 1/2 in x).  The vector is not
    normalizable; it is meant for overlaps with finite-energy states.

    The truncated basis can only resolve |x| up to the top level's classical
    turning point sqrt(2*cutoff + 1); beyond it every retained phi_k has
    decayed and overlaps are silently wrong, so that is rejected.  (A mass
    fraction test is meaningless here: at fixed interior x the series
    |phi_k(x)|^2 decays only algebraically in k.)
    """
    x_lim = np.sqrt(2.0 * policy.cutoff + 1.0)
    if abs(x) > x_lim:
        raise TruncationError(
            f"quadrature_state: |x| = {abs(x):.3g} beyond representable "
            f"range {x_lim:.3g} at cutoff {policy.cutoff}")
    k = np.arange(policy.dim)
    amps = np.exp(1j * k * phi) * hermite_functions(float(x), policy.cutoff)
    return FockVector(amps, policy.cutoff)


def annihilation_op(policy):
    """Lowering operator with a[k-1, k] = sqrt(k)."""
    dim = policy.dim
    mat = np.zeros((dim, dim), dtype=complex)
    k = np.arange(1, dim)
    mat[k - 1, k] = np.sqrt(k)
    return FockOperator(mat, policy.cutoff)


def creation_op(policy):
    return annihilation_op(policy).dag()


def number_op(policy):
    return FockOperator(np.diag(np.arange(policy.dim, dtype=complex)), policy.cutoff)


def identity_op(policy):
    return FockOperator(np.eye(policy.dim, dtype=complex), policy.cutoff)


# --- linear-algebra plumbing ---------------------------------------------

def apply(op, v):
    """op |v>."""
    if op.cutoff != v.cutoff:
        raise CutoffMismatchError(f"cutoff mismatch: {op.cutoff} vs {v.cutoff}")
    return FockVector(op.mat @ v.amps, v.cutoff)


def inner(u, v):
    """<u|v> (conjugate-linear in the first argument)."""
    if u.cutoff != v.cutoff:
        raise CutoffMismatchError(f"cutoff mismatch: {u.cutoff} vs {v.cutoff}")
    return complex(np.vdot(u.amps, v.amps))


def norm(v):
    return float(np.linalg.norm(v.amps))


def normalize(v):
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return FockVector(v.amps / n, v.cutoff)
