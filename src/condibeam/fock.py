"""Truncated single-mode Fock-space linear algebra.

States are complex amplitude vectors over photon numbers 0..cutoff, or
density matrices over them (:class:`DensityOperator`).
:class:`FockOperator` is a dense complex matrix, built where a whole
operator is wanted (norms, SVDs, oracle comparisons).  A displacement of a
state needs no such matrix: :func:`displace` applies D(alpha) to a vector
whose numerical top is t (the levels above it hold at most 1e-17 of its
norm) from the Laguerre values of degrees 0..t alone, O(N t) for N levels.
Everything is immutable after construction, so values can be shared freely
between threads.

Truncation discipline: ladder and diagonal operators are exact on the
retained levels; a truncated displacement matrix is faithful only away from
the cutoff edge (tests and benchmark assert its identities on the lowest
ceil(cutoff/2) levels).  :class:`TruncationPolicy` makes every truncation
decision, and picks the working levels on which displacement products stay
exact.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (CutoffExceededError, CutoffMismatchError, TruncationError,
                     ZeroProbabilityError)
from .polynomials import laguerre_rows, log_factorial

__all__ = [
    "TruncationPolicy",
    "FockVector",
    "FockOperator",
    "DensityOperator",
    "fock_state",
    "coherent_state",
    "displace",
    "annihilation_op",
    "creation_op",
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
        """Low levels on which tests and the bench assert displacement identities."""
        return (self.cutoff + 1) // 2

    @property
    def tail_start(self):
        """First level of the top-10% block used for tail-mass checks."""
        return self.dim - max(1, self.dim // 10)

    def check_levels(self, level, what):
        """Raise CutoffExceededError unless ``level`` exists: 0 <= level <= cutoff."""
        if not 0 <= level <= self.cutoff:
            raise CutoffExceededError(f"{what} = {level} outside 0..{self.cutoff}")

    def check_displacement(self, alpha, what):
        """Refuse |alpha> with more than tail_tol above the cutoff
        (:func:`coherent_tail_mass`), and a NaN alpha."""
        self._refuse_above_tol(coherent_tail_mass(alpha, self.cutoff),
                               f"{what}: displacement |{abs(alpha):.3g}| leaks mass")

    def check_tail(self, amps, what):
        """Refuse a vector with more than tail_tol of |amps|^2 in the top-10% block."""
        prob = np.abs(np.asarray(amps)) ** 2
        total = prob.sum()
        self._refuse_above_tol(float(prob[self.tail_start:].sum() / total) if total else 0.0,
                               f"{what}: tail mass in top Fock levels")

    def check_overlap(self, amps, radius, what):
        """Refuse <alpha|amps>, |alpha| <= radius, when its part from the top-10%
        block, bounded by sqrt(state tail x coherent tail at the radius), may
        exceed tail_tol.  A state with no mass in the block passes any radius."""
        tail_state = float(np.sum(np.abs(np.asarray(amps)[self.tail_start:]) ** 2))
        if tail_state:
            coherent = coherent_tail_mass(radius, self.tail_start - 1)
            self._refuse_above_tol(math.sqrt(tail_state * coherent),
                                   f"{what}: overlap truncation bound")

    def working_levels(self, alpha, top, reach):
        """A bound L >= cutoff on the W of :meth:`working_factors`: column top
        of D(alpha) turns at level r^2, r = sqrt(top) + |alpha|, and the
        numerical top of columns 0..top lies within 14 |alpha| + 8 r^(2/3) + 24
        above it (14 levels to spare for top <= 3000, |alpha| <= 22; the tests
        check a grid).  TruncationError past the bound at top = cutoff,
        |alpha|^2 = cutoff + 1 (beyond any displacement check_displacement
        admits at tail_tol 1/2): 4 cutoff + O(sqrt(cutoff)) levels."""
        def bound(a, t):
            r = math.sqrt(t) + a
            return r * r + 14.0 * a + 8.0 * r ** (2.0 / 3.0) + 24.0

        a = abs(alpha)
        levels, cap = bound(a, top) if a else top, bound(math.sqrt(self.dim), self.cutoff)
        if not levels <= cap:  # a NaN or infinite displacement fails too
            raise TruncationError(f"displacement |{a:.3g}| of levels 0..{top} needs more "
                                  f"than {cap:.0f} working levels at cutoff {self.cutoff}")
        return max(self.cutoff, math.ceil(levels) + reach)

    def working_factors(self, alpha, top, reach):
        """W and the factors (:func:`_displacement_factors`) of columns 0..top
        of D(alpha) on levels 0..W, for an operation that displaces levels
        0..top, then runs a band ``reach`` levels up.  W >= cutoff is the
        numerical top of the columns' per-level mass, summed from the same
        table on the levels of :meth:`working_levels`, plus ``reach``."""
        levels = self.working_levels(alpha, top, reach)
        if alpha == 0:
            return levels, (np.eye(levels + 1, top + 1), np.ones(levels + 1), 1.0)
        lower, phase, scale = _displacement_factors(alpha, levels, top)
        columns = scale * lower
        mass = np.einsum("ij,ij->i", columns, columns)
        head = columns[:top + 1]  # rows 0..top also hold the upper triangle
        mass[:top + 1] += np.einsum("ij,ij->j", head, head) - head.diagonal() ** 2
        w = max(self.cutoff, _numerical_top(np.sqrt(mass)) + reach)
        return w, (lower[:w + 1], phase[:w + 1], scale)

    def _refuse_above_tol(self, mass, label):
        """TruncationError unless mass <= tail_tol (a NaN mass fails)."""
        if not mass <= self.tail_tol:
            raise TruncationError(f"{label} {mass:.3e} > tail_tol {self.tail_tol:.1e} "
                                  f"at cutoff {self.cutoff}", tail_mass=mass)


def _freeze(arr, dtype=complex):
    """Contiguous read-only copy (or view) of ``arr`` with the given dtype."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _freeze_field(obj, name, ndim):
    """Replace the array field ``name`` of the frozen dataclass ``obj`` by its
    :func:`_freeze` copy, after checking that each of its ``ndim`` axes holds
    the levels 0..obj.cutoff."""
    arr = _freeze(getattr(obj, name))
    shape = (obj.cutoff + 1,) * ndim
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class FockVector:
    """Amplitudes of a single-mode state over photon numbers 0..cutoff."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        _freeze_field(self, "amps", 1)

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
        _freeze_field(self, "mat", 2)

    @property
    def dim(self):
        return self.cutoff + 1

    def dag(self):
        return FockOperator(self.mat.conj().T, self.cutoff)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            if other.cutoff != self.cutoff:
                raise CutoffMismatchError(
                    f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")
            return FockOperator(self.mat @ other.mat, self.cutoff)
        return NotImplemented


@dataclass(frozen=True)
class DensityOperator:
    """Single-mode density matrix with physicality checks."""

    mat: np.ndarray
    cutoff: int

    def __post_init__(self):
        _freeze_field(self, "mat", 2)

    @classmethod
    def from_pure(cls, v):
        return cls(np.outer(v.amps, v.amps.conj()), v.cutoff)

    def validate(self):
        """Finite entries, Hermiticity within 1e-12, unit trace within 1e-10,
        eigenvalues >= -1e-10; ValueError otherwise."""
        if not np.isfinite(self.mat).all():
            raise ValueError("density matrix has non-finite entries")
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > 1e-12:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lam_min = float(np.linalg.eigvalsh(self.mat).min())
        if lam_min < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {lam_min:.3e} < 0")
        return self


def _conditioned(rho, cutoff):
    """(rho / p, p) for the outcome probability p = Tr rho, symmetrized
    against rounding and validated; ZeroProbabilityError for p < 1e-14.
    Both reduce routes, two-mode and closed-form, end here."""
    p = float(np.real(np.trace(rho)))
    if p < 1e-14:
        raise ZeroProbabilityError(f"measurement outcome has probability {p:.3e}")
    return DensityOperator((rho + rho.conj().T) / (2.0 * p), cutoff).validate(), p


# --- elementary constructors --------------------------------------------

def fock_state(n, policy):
    """|n> as a basis vector; raises CutoffExceededError for n > cutoff."""
    policy.check_levels(n, "fock_state: photon number")
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
    outside that window are below e^-70 of the largest one.  When the
    window starts above cutoff + 1, everything at or below the cutoff lies
    under e^-70 of the total and the tail is 1.0, with no window built (it
    would hold ~24 |alpha| entries).  Below the smallest normal float the
    tail, at most 1 - e^-lam <= lam, is returned as 0.0 (lam / k would
    underflow to 0 in the log).
    """
    lam = float(abs(alpha))
    lam *= lam  # inf, not OverflowError or a warning, past the float range
    if lam < sys.float_info.min:
        return 0.0
    if not math.isfinite(lam):
        return 1.0 if lam > 0 else math.nan
    width = 12.0 * math.sqrt(lam) + 40.0
    if lam - width > cutoff + 1:
        return 1.0  # the head below the window is under e^-70 of the total
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


def coherent_state(alpha, policy):
    """Coherent state |alpha>, truncated and renormalized.

    Amplitudes follow the Poisson law exp(-|a|^2/2) a^k / sqrt(k!); they are
    assembled in log space so large |alpha| and large cutoffs do not
    overflow.  Raises TruncationError when the analytic mass above the
    cutoff exceeds the policy's tail_tol.
    """
    policy.check_displacement(alpha, "coherent_state")
    if alpha == 0:
        return fock_state(0, policy)
    k = np.arange(policy.dim)
    logmag = k * np.log(abs(alpha)) - 0.5 * log_factorial(k) - abs(alpha) ** 2 / 2
    amps = np.exp(logmag) * np.exp(1j * k * np.angle(alpha))
    amps /= np.linalg.norm(amps)
    return FockVector(amps, policy.cutoff)


def _displacement_factors(alpha, cutoff, top):
    """Columns 0..top of D(alpha) = e^(-x/2) P M P* over the levels 0..cutoff,
    x = |alpha|^2.

    P = diag(e^(ik arg alpha)), and M is real: with j <= k its lower triangle
    is M[k, j] = u_j^(k-j)(x), the normalized Laguerre values of
    :func:`polynomials.laguerre_rows`, and its upper triangle is the
    transpose times (-1)^(k-j).  Returns (lower, phase, e^(-x/2)), ``lower``
    being columns 0..top of M's lower triangle, zeros above the diagonal: a
    strided view of the Laguerre rows of degrees 0..top, each padded with
    zeros to one more than the dimension, so that stepping one row length
    walks down the diagonal and lands in the zeros above it.
    """
    dim = cutoff + 1
    x = abs(alpha) ** 2
    lag = np.empty((top + 1, dim + 1))
    for j, row in zip(range(top + 1), laguerre_rows(cutoff, x)):
        lag[j, :dim - j] = row
        lag[j, dim - j:] = 0.0  # read above the diagonal
    # lag[j, k - j] sits at offset j (dim + 1) + k - j = k + j dim
    lower = np.lib.stride_tricks.as_strided(lag, (dim, top + 1),
                                            (lag.itemsize, dim * lag.itemsize),
                                            writeable=False)
    return lower, np.exp(1j * np.arange(dim) * np.angle(alpha)), math.exp(-x / 2)


def _alternating(dim):
    """(-1)^k for k = 0..dim-1."""
    return np.where(np.arange(dim) % 2, -1.0, 1.0)


def _head_block(lower):
    """The top square block of M's columns 0..top (:func:`_displacement_factors`)
    from their lower triangle L0: L0 + S L0^T S - diag(L0), S = diag((-1)^k)."""
    cols = lower.shape[1]
    head = lower[:cols]
    sign = _alternating(cols)
    block = head + head.T * sign * sign[:, None]  # the upper triangle
    np.fill_diagonal(block, head.diagonal())  # the sum counted it twice
    return block


def _dense_columns(factors):
    """Columns 0..top of D(alpha) as a dense matrix over the levels of its
    factors (:func:`_displacement_factors`): with x = |alpha|^2 and j <= k,
    <k|D|j> = e^(-x/2) e^(i(k-j) arg alpha) u_j^(k-j)(x) and <j|D|k> =
    e^(-x/2) (-e^(-i arg alpha))^(k-j) u_j^(k-j)(x).  The normalized
    Laguerre values u are bounded, so no element overflows at any cutoff."""
    lower, phase, scale = factors
    cols = lower.shape[1]
    real = np.array(lower)
    real[:cols] = _head_block(lower)
    mat = np.multiply.outer(scale * phase, phase[:cols].conj())
    mat *= real
    return mat


# The levels of a vector above its numerical top hold at most this fraction
# of its norm.
_NUMERICAL_TAIL = 1e-17


def _numerical_top(amps):
    """Smallest level t with ||amps[t+1:]|| <= _NUMERICAL_TAIL ||amps||
    (0 for the zero vector): the one rule for where a state lives.  A caller
    with levels spread over a matrix passes the root of its per-level mass."""
    mass = np.abs(amps) ** 2
    above = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # ||amps[l+1:]||^2
    return int(np.argmax(above <= _NUMERICAL_TAIL ** 2 * mass.sum()))


def displace(alpha, vector):
    """D(alpha)|vector> over the vector's levels, without forming the matrix.

    The vector is taken on levels 0..t, t its numerical top
    (:func:`_numerical_top`); the truncated D(alpha) is a compression of a
    unitary, so this drops at most 1e-17 ||v|| of the output.  O(N t) for N
    levels, from the (t+1)(2N - t)/2 Laguerre values of degree <= t; a Fock
    state |n> costs O(N n).  No truncation check: the caller owns it.
    """
    top = _numerical_top(vector.amps)
    factors = _displacement_factors(alpha, vector.cutoff, top)
    return FockVector(_displaced(factors, vector.amps[:top + 1]), vector.cutoff)


def _displaced(factors, amps):
    """e^(-x/2) P M P* amps over the levels of the factors of columns 0..t of
    D(alpha) (:func:`_displacement_factors`), for amps on levels 0..t (a
    vector, or a matrix of columns): two real products, M w = [M0 w; L1 w]
    for M0 the top square block of the columns (:func:`_head_block`) and L1
    the lower triangle below it, on the real and imaginary parts of w."""
    lower, phase, scale = factors
    size = len(amps)
    w = _real_columns(phase[:size].conj(), amps)
    out = np.empty((len(lower), w.shape[1]))
    out[:size] = _head_block(lower) @ w
    out[size:] = lower[size:] @ w
    return _complex_columns(scale * phase, out, amps.shape)


def _displaced_adjoint(factors, amps):
    """Rows 0..r of D(alpha) times amps, from the factors of columns 0..r of
    D(-alpha) on the levels of amps (a vector, or a matrix of columns): the
    adjoint of those columns, e^(-x/2) P0 M^T P* amps with P0 the first r + 1
    phases.  The mirror of :func:`_displaced`, two real products with no
    dense operator: M^T w = M0^T w0 + L1^T w1 for w0 and w1 the rows 0..r
    of w and those below."""
    lower, phase, scale = factors
    size = lower.shape[1]
    w = _real_columns(phase.conj(), amps)
    out = _head_block(lower).T @ w[:size]
    out += lower[size:].T @ w[size:]
    return _complex_columns(scale * phase[:size], out, amps.shape)


def _real_columns(phase, amps):
    """phase * amps (a vector is one column) as a real matrix, each complex
    column read as two real ones, its real and its imaginary part."""
    return (phase[:, None] * amps.reshape(len(amps), -1)).astype(complex, copy=False).view(float)


def _complex_columns(phase, out, shape):
    """phase * the complex columns that ``out`` holds as :func:`_real_columns`
    lays them out, in the trailing ``shape`` of the input."""
    z = out.view(complex)
    z *= phase[:, None]
    return z.reshape((len(out),) + shape[1:])


# ln 2 = _LN2_HI + _LN2_LO, with _LN2_HI short enough that its product with
# an integer below 2^20 is exact
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def hermite_functions(x, nmax):
    """Harmonic-oscillator eigenfunctions phi_k(x) for k = 0..nmax.

    phi_k(x) = pi^(-1/4) exp(-x^2/2) H_k(x) / sqrt(2^k k!), evaluated by the
    normalized recurrence phi_{k+1} = x sqrt(2/(k+1)) phi_k
    - sqrt(k/(k+1)) phi_{k-1}, which neither overflows nor loses the
    exponential envelope.  Returns shape (nmax+1,) + shape(x).

    The envelope e^(-x^2/2) leaves the normal range above |x| ~ 37.6,
    although the higher levels it multiplies are of order 1 there.  At such
    points the recurrence runs on psi_k = phi_k 2^-scale, with the power of
    two of the envelope carried per point in ``scale`` and folded in by
    ``np.ldexp`` as each level is stored; psi_0 starts at ~2^-1000, and
    the pair (psi_k, psi_{k-1}) is scaled down by 2^500 whenever |psi_k|
    passes 2^500.  Elsewhere scale is 0 and psi_k is phi_k, bit for bit.

    Past the radius 40 + 2 sqrt(nmax) every phi_k is 0 in floating point:
    it exceeds every zero of H_k, so |H_k(x)| <= (2|x|)^k there, and by
    Stirling ln |phi_k| < -800 - 0.46 nmax.  x is clipped to the radius, so
    those points give signed zeros; the power-of-two split of the envelope
    would fail from |x| ~ 3e9.
    """
    radius = 40.0 + 2.0 * math.sqrt(nmax)
    x = np.clip(np.asarray(x, dtype=float), -radius, radius)
    out = np.empty((nmax + 1,) + x.shape)
    half_sq = 0.5 * x * x
    far = (half_sq > 700.0) & np.isfinite(half_sq)
    carry = bool(far.any())
    # e^(-x^2/2) = e^r 2^m with |r| <= ln(2)/2; m = 0 where the envelope is normal
    m = np.where(far, np.rint(-half_sq / math.log(2.0)), 0.0)
    psi = np.pi ** -0.25 * np.exp((-half_sq - m * _LN2_HI) - m * _LN2_LO)
    scale = 0
    if carry:
        psi = np.ldexp(psi, np.where(far, -1000, 0))
        scale = np.where(far, m + 1000, 0).astype(int)
    prev = np.zeros_like(psi)
    for k in range(nmax + 1):
        out[k] = np.ldexp(psi, scale) if carry else psi
        if k == nmax:
            break
        psi, prev = (x * np.sqrt(2.0 / (k + 1)) * psi
                     - np.sqrt(k / (k + 1.0)) * prev), psi
        if carry:
            big = np.abs(psi) > 2.0 ** 500
            if big.any():
                shift = np.where(big, -500, 0)
                psi, prev = np.ldexp(psi, shift), np.ldexp(prev, shift)
                scale = scale + 500 * big
    return out


def annihilation_op(policy):
    """Lowering operator with a[k-1, k] = sqrt(k)."""
    dim = policy.dim
    mat = np.zeros((dim, dim), dtype=complex)
    k = np.arange(1, dim)
    mat[k - 1, k] = np.sqrt(k)
    return FockOperator(mat, policy.cutoff)


def creation_op(policy):
    return annihilation_op(policy).dag()


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
