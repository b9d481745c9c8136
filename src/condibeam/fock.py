"""Truncated single-mode Fock-space linear algebra.

States are complex amplitude vectors over photon numbers 0..cutoff, or
density matrices over them (:class:`DensityOperator`).
:class:`FockOperator` is a dense complex matrix; an operator that moves
photon number by a bounded amount is a :class:`BandedOperator`, kept on its
diagonals, whose norms and largest singular value need O(N L) storage.
:func:`displace` applies D(alpha) to a vector whose numerical top is t (the
levels above it hold at most 1e-17 of its norm) from the Laguerre values of
degrees 0..t alone, O(N t) for N levels: columns 0..t of D(alpha) are
stored as e^(-|alpha|^2/2) P M P*, P the phases e^(ik arg alpha) and M a
dense real N x (t + 1) block, so a displacement is one real product with M
and the adjoint rows one with M^T.  D(alpha) is also numerically banded:
:func:`_displacement_bands` keeps M as its K offsets either side of the
diagonal for degrees 0..cutoff, O(N K), each column dropping at most 1e-17
of its norm, and :func:`_band_columns` reads dense blocks of it.
Everything is immutable after construction, so values can be shared freely
between threads.  The package's value types are records (:class:`_Record`):
fields declared as class annotations, with the constructor, repr, equality
and immutability of a frozen dataclass, and no code generated per class.

Truncation discipline: ladder and diagonal operators are exact on the
retained levels; a truncated displacement matrix is faithful only away from
the cutoff edge.  :class:`TruncationPolicy` makes every truncation
decision, and picks the working levels on which displacement products stay
exact.
"""

import functools
import math
import sys

import numpy as np

from .errors import (CutoffExceededError, CutoffMismatchError, TruncationError,
                     ZeroProbabilityError)
from .polynomials import (_folded, _laguerre_shift, _ldexp, _renormalized, _scaled,
                          laguerre_rows, log_factorial)

__all__ = [
    "TruncationPolicy",
    "FockVector",
    "FockOperator",
    "BandedOperator",
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


class _Record:
    """Base of the package's immutable value types.

    A subclass declares its fields as class annotations, in constructor
    order; a class attribute of the same name is that field's default, and
    the fields with defaults come last.  A record takes its fields
    positionally or by keyword (TypeError for a missing, unknown or repeated
    one), then runs ``__post_init__``, which may validate them or replace
    one through ``object.__setattr__``.  A field left at its default is not
    stored on the instance: reading it falls back to the class attribute.
    Assigning or deleting an attribute raises AttributeError, the repr lists
    the fields, and records of one class compare and hash as the tuple of
    their fields; ``class X(_Record, eq=False)`` keeps identity equality and
    hashing.  ``functools.cached_property`` works, since it writes the
    instance ``__dict__`` directly.

    This does what ``@dataclass(frozen=True)`` did, with the methods written
    once here: a dataclass compiles six generated methods per class at every
    process start.  The fields are read from
    ``cls.__annotations__``, which holds the class's own annotations on every
    supported Python (3.10 on), for a class that declares any.
    """

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._required = frozenset(name for name in cls._fields if name not in cls.__dict__)
        if not cls._required.issuperset(cls._fields[:len(cls._required)]):
            raise TypeError(f"{cls.__name__}: the fields with defaults must come last")
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        if len(args) > len(fields):
            raise self._call_error(args, kwargs)
        i = 0
        for value in args:  # an index loop: creating a zip costs more here
            values[fields[i]] = value
            i += 1
        if kwargs:
            repeated = args and not values.keys().isdisjoint(kwargs)
            if repeated or not self._names.issuperset(kwargs):
                raise self._call_error(args, kwargs)
            values.update(kwargs)
            if len(values) < len(fields) and not self._required.issubset(values):
                raise self._call_error(args, kwargs)
        elif i < len(self._required):  # the fields with defaults come last
            raise self._call_error(args, kwargs)
        self.__post_init__()

    @classmethod
    def _call_error(cls, args, kwargs):
        """The TypeError of a call whose arguments do not match the fields."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            return TypeError(f"{name}() takes at most {len(fields)} arguments, "
                             f"got {len(args)}")
        for key in kwargs:
            if key not in fields:
                return TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[:len(args)]:
                return TypeError(f"{name}() got multiple values for argument {key!r}")
        missing = next(key for key in fields[len(args):]
                       if key in cls._required and key not in kwargs)
        return TypeError(f"{name}() missing required argument {missing!r}")

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TruncationPolicy(_Record):
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
        m, phase, scale = _displacement_factors(alpha, levels, top)
        columns = scale * m
        mass = np.einsum("ij,ij->i", columns, columns)
        w = max(self.cutoff, _numerical_top(np.sqrt(mass)) + reach)
        return w, (m[:w + 1], phase[:w + 1], scale)

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
    """Replace the array field ``name`` of the record ``obj`` by its
    :func:`_freeze` copy, after checking that each of its ``ndim`` axes holds
    the levels 0..obj.cutoff."""
    arr = _freeze(getattr(obj, name))
    shape = (obj.cutoff + 1,) * ndim
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    object.__setattr__(obj, name, arr)


class FockVector(_Record):
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


class FockOperator(_Record):
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


# Lanczos stops once the top Ritz pair's residual is at most this fraction of
# its Ritz value.  The residual needs an eigensolve of the tridiagonal matrix,
# O(k^3) at step k: it is checked at every step below the second constant,
# then at every eighth and wherever the Krylov space stops growing
_RITZ_RESIDUAL = 1e-15
_RITZ_EVERY_STEP = 32


class BandedOperator(_Record, eq=False):
    """An operator on the levels 0..cutoff kept on its diagonals.

    ``diagonals[j, above + j - k]`` holds <j|Y|k> for the offsets -above <=
    j - k <= below: one row per output level j, the diagonal k = j + above
    in column 0, and zeros where k leaves 0..cutoff.  ``tail`` bounds the
    norm of each column's part outside the band, so the whole of it holds
    at most sqrt(cutoff + 1) tail in Frobenius norm.  :attr:`mat` scatters
    the band into the dense matrix, on demand; the norms and the largest
    singular value need no dense matrix.
    """

    diagonals: np.ndarray
    above: int
    cutoff: int
    tail: float = 0.0

    def __post_init__(self):
        arr = _freeze(self.diagonals)
        if arr.ndim != 2 or len(arr) != self.cutoff + 1 or not 0 <= self.above < arr.shape[1]:
            raise ValueError(f"diagonals of shape {arr.shape} do not fit cutoff "
                             f"{self.cutoff} with {self.above} diagonals above")
        object.__setattr__(self, "diagonals", arr)

    @property
    def below(self):
        return self.diagonals.shape[1] - 1 - self.above

    @functools.cached_property
    def norm(self):
        """The band's Frobenius norm (:func:`_frobenius`)."""
        return _frobenius(self.diagonals)

    @functools.cached_property
    def mat(self):
        """The dense matrix, one strided write per diagonal k - j = d."""
        dim = self.cutoff + 1
        mat = np.zeros((dim, dim), dtype=complex)
        flat = mat.reshape(-1)
        for c in range(self.diagonals.shape[1]):
            d = self.above - c
            rows = slice(max(0, -d), dim - max(0, d))
            flat[max(d, -d * dim)::dim + 1][:rows.stop - rows.start] = self.diagonals[rows, c]
        mat.setflags(write=False)
        return mat

    def rel_deviation(self, other):
        """A bound on ||Y - X||_F / ||X||_F for X = ``other``: the two bands'
        difference on the union of their offsets, plus each operator's
        out-of-band part at its bound, over X's band norm (at most ||X||_F)."""
        above, below = max(self.above, other.above), max(self.below, other.below)
        diff = np.zeros((self.cutoff + 1, above + below + 1), dtype=complex)
        for sign, op in ((1.0, self), (-1.0, other)):
            start = above - op.above
            diff[:, start:start + op.diagonals.shape[1]] += sign * op.diagonals
        spill = math.sqrt(self.cutoff + 1) * (self.tail + other.tail)
        return (_frobenius(diff) + spill) / other.norm

    def largest_singular_value(self):
        """sigma_max(Y) by Lanczos on Y^dag Y (Golub & Kahan, SIAM J. Numer.
        Anal. B 2, 205 (1965)), each step two band products, O(N L).

        Y is scaled by its band's Frobenius norm, after a power of two
        (:func:`_unit_scaled`), so the Ritz values lie in [0, 1].  Each new
        vector is orthogonalized against all earlier ones, twice, from a
        fixed start vector, so the result is reproducible.
        The steps stop once the top Ritz pair's residual is at most 1e-15 of
        its Ritz value, which then lies within that fraction of an
        eigenvalue of Y^dag Y (checked at every step up to 32, then at every
        eighth), at the latest at cutoff + 1, the whole space, which a nearly
        degenerate top singular value may take.  Y's part outside the band
        moves sigma_max by at most its Frobenius bound.
        """
        if self.norm == 0.0:
            return 0.0
        diagonals, exponent = _unit_scaled(self.diagonals)
        scale = np.linalg.norm(diagonals)
        diagonals = diagonals / scale
        forward = _band_product(diagonals, self.above)
        adjoint = _band_product(_adjoint_diagonals(diagonals, self.above), self.below)
        dim = self.cutoff + 1
        basis = np.empty((min(dim, 32), dim), dtype=complex)
        tridiagonal = np.zeros((len(basis) + 1,) * 2)
        # the start: a Weyl sequence, fixed, with no zero and no pattern in
        # common with Y's structure; numpy.random would add ~17 ms to the
        # first call in a fresh process
        w = np.arange(1, dim + 1) * 0.6180339887498949 % 1.0 - 0.5
        beta = np.linalg.norm(w)
        for k in range(dim):
            if k == len(basis):
                basis = np.concatenate([basis, np.empty((min(dim, 2 * k) - k, dim), complex)])
                tridiagonal = np.pad(tridiagonal, (0, len(basis) + 1 - len(tridiagonal)))
            basis[k] = w / beta
            w = adjoint(forward(basis[k]))
            tridiagonal[k, k] = np.vdot(basis[k], w).real
            done = basis[:k + 1]
            for _ in range(2):
                w -= (done @ w.conj()).conj() @ done
            beta = math.sqrt(np.vdot(w, w).real)
            if k < _RITZ_EVERY_STEP or k % 8 == 7 or k == dim - 1 or beta == 0.0:
                ritz, vectors = np.linalg.eigh(tridiagonal[:k + 1, :k + 1])
                if beta * abs(vectors[-1, -1]) <= _RITZ_RESIDUAL * ritz[-1]:
                    break
            tridiagonal[k, k + 1] = tridiagonal[k + 1, k] = beta
        return math.ldexp(scale * math.sqrt(max(ritz[-1], 0.0)), exponent)


def _unit_scaled(arr):
    """(arr 2^-e, e), e the binary exponent of arr's largest magnitude (0 for a
    zero array): an exact scaling whose largest magnitude lies in [1/2, 1), so
    squares that underflow in arr do not in the result."""
    e = math.frexp(float(np.abs(arr).max(initial=0.0)))[1]
    return _ldexp(arr, -e), e


def _frobenius(arr):
    """||arr||_F on the :func:`_unit_scaled` arr, so elements whose squares
    underflow still count; 0.0 for a zero array."""
    scaled, e = _unit_scaled(arr)
    return math.ldexp(float(np.linalg.norm(scaled)), e)


def _diagonal_view(block, width):
    """view[i, c] = block[i, i + width - 1 - c]: the band layout of
    :class:`BandedOperator` read out of a block of rows whose column x holds
    the level j0 - below + x, j0 the block's first row."""
    rows, cols = block.strides
    return np.lib.stride_tricks.as_strided(block[:, width - 1:], (len(block), width),
                                           (rows + cols, -cols), writeable=False)


def _band_product(diagonals, above):
    """x -> Y x for Y on its diagonals (the :class:`BandedOperator`
    layout): row j is sum_c diagonals[j, c] x[j + above - c], read through
    one zero-padded buffer that every call reuses."""
    dim, width = diagonals.shape
    padded = np.zeros(dim + width - 1, dtype=complex)
    inner = padded[width - 1 - above:width - 1 - above + dim]
    window = _diagonal_view(np.broadcast_to(padded, (dim, len(padded))), width)

    def times(x):
        inner[:] = x
        return np.einsum("jc,jc->j", diagonals, window)
    return times


def _adjoint_diagonals(diagonals, above):
    """The diagonals of Y^dag in the same layout, ``below`` of them above
    the main one: Y^dag's column width - 1 - c is Y's column c, conjugated
    and moved c - above rows up."""
    dim, width = diagonals.shape
    padded = np.zeros((dim + width - 1, width), dtype=complex)
    padded[above:above + dim] = diagonals
    rows, cols = padded.strides
    shifted = np.lib.stride_tricks.as_strided(padded, (dim, width), (rows, rows + cols),
                                              writeable=False)
    return shifted[:, ::-1].conj()


class DensityOperator(_Record):
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
        eigenvalues >= -1e-10; ValueError otherwise.

        The eigenvalues are first bounded on the levels 0..t the state
        occupies (t the numerical top of the diagonal): by Weyl's
        inequality the entries outside that block, the rest, move each
        eigenvalue by at most their Frobenius norm, so
        min(lambda_min(block), 0) - ||rest||_F >= -1e-10 accepts.  Only a
        matrix that bound cannot accept pays for the full spectrum.
        """
        if not np.isfinite(self.mat).all():
            raise ValueError("density matrix has non-finite entries")
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > 1e-12:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        mat = self.mat
        occupied = _numerical_top(np.sqrt(np.abs(mat.diagonal()))) + 1
        rest = math.hypot(np.linalg.norm(mat[occupied:]),
                          np.linalg.norm(mat[:occupied, occupied:]))
        if min(np.linalg.eigvalsh(mat[:occupied, :occupied]).min(), 0.0) - rest >= -1e-10:
            return self
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
    """Columns 0..top of D(alpha) = s P M P* over the levels 0..cutoff,
    x = |alpha|^2, as (M, P, s).

    P = diag(e^(ik arg alpha)); M is real, its lower triangle M[k, j] =
    u_j^(k-j)(x) 2^-E from :func:`polynomials.laguerre_rows` and its upper
    one the transpose times (-1)^(k-j); s = e^(-x/2) 2^E (E = 0 up to x =
    1386).  M is the dense (cutoff + 1) x (top + 1) block in Fortran order:
    row j of the Laguerre values goes down column j from the diagonal and,
    times (-1)^(k-j), along row j to its right.
    """
    dim = cutoff + 1
    x = abs(alpha) ** 2
    m = np.empty((dim, top + 1), order="F")
    sign = np.resize((1.0, -1.0), top + 1)  # (-1)^(k-j) at k - j
    for j, row in zip(range(top + 1), laguerre_rows(cutoff, x)):
        m[j:, j] = row
        np.multiply(row[1:top + 1 - j], sign[1:top + 1 - j], out=m[j, j + 1:])
    return m, np.exp(1j * np.arange(dim) * np.angle(alpha)), _displacement_scale(x)


def _displacement_scale(x):
    """e^(-x/2) 2^E, E = :func:`polynomials._laguerre_shift` (x), a normal float."""
    scale, shift = math.exp(-x / 2), int(_laguerre_shift(x))
    if shift:
        mantissa, exponent = _scaled(-x / 2)
        scale = float(_folded(mantissa, exponent + shift))
    return scale


def _displacement_bands(alphas, policy):
    """D(alpha) for each of ``alphas`` as its band (u, s): u[K + j, a] =
    u_j^a(|alpha|^2) 2^-E for degrees j = 0..cutoff and offsets a = 0..K,
    after K rows of zeros, and the scale s of :func:`_displacement_factors`.
    One :func:`polynomials.laguerre_rows` call runs all arguments over the
    offsets up to the bound of :meth:`TruncationPolicy.working_levels` less
    the cutoff, which holds both sides of every column (the bound less t
    grows with t, and |<j|D|k>| = |<k|D|j>|).  K is then the first offset
    past which every column, one element per offset either side, holds at
    most sqrt(2 sum_(a>K) p_a^2) <= 1e-17 of its norm, p_a the largest
    element at offset a.  O(N K) work and storage for N = cutoff."""
    n = policy.cutoff
    x = np.array([[abs(alpha) ** 2] for alpha in alphas])
    width = max(policy.working_levels(alpha, n, 0) for alpha in alphas) - n
    table = np.empty((n + 1, len(x), width + 1))
    for j, row in enumerate(laguerre_rows(n, x, np.arange(width + 1))):
        table[j] = row
    bands = []
    for i, (value,) in enumerate(x):
        u, scale = table[:, i], _displacement_scale(value)
        peak = scale * np.abs(u).max(axis=0)
        beyond = np.append(np.cumsum(peak[:0:-1] ** 2)[::-1], 0.0)  # sum_(b>a) p_b^2
        k = int(np.argmax(2.0 * beyond <= _NUMERICAL_TAIL ** 2))
        bands.append((np.concatenate((np.zeros((k, k + 1)), u[:, :k + 1])), scale))
    return bands


def _band_columns(band, cols, rows):
    """M[r0:r1, c0:c1] of D(alpha) = s P M P* (:func:`_displacement_factors`),
    ``cols`` = (c0, c1) with c1 <= cutoff + 1 and ``rows`` = (r0, r1), from
    its ``band`` (:func:`_displacement_bands`): column k holds u_k^a at level
    k + a and (-1)^a u_(k-a)^a at level k - a for a <= K, zeros beyond, each
    half one strided copy."""
    (c0, c1), (r0, r1) = cols, rows
    k = band.shape[1] - 1
    lo = min(r0, c0 - k)
    out = np.zeros((max(r1, c1 + k) - lo, c1 - c0), order="F")
    rs, cs = out.strides
    # layout[i, t] = out[level c0 + i - k + t, column c0 + i]
    layout = np.lib.stride_tricks.as_strided(out[c0 - k - lo:], (c1 - c0, 2 * k + 1),
                                             (rs + cs, rs))
    ts, ta = band.strides  # upper[i, a] = u of degree c0 + i - a, offset a
    upper = np.lib.stride_tricks.as_strided(band[c0 + k:], (c1 - c0, k + 1), (ts, ta - ts))
    layout[:, k::-1] = upper * np.resize((1.0, -1.0), k + 1)
    layout[:, k:] = band[c0 + k:c1 + k]
    return out[r0 - lo:r1 - lo]


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
    vector, or a matrix of columns): one real product M w, on the real and
    imaginary parts of w = P* amps."""
    m, phase, scale = factors
    w = _real_columns(phase[:len(amps)].conj(), amps)
    return _complex_columns(scale * phase, m @ w, amps.shape)


def _displaced_adjoint(factors, amps):
    """Rows 0..r of D(alpha) times amps, from the factors of columns 0..r of
    D(-alpha) on the levels of amps (a vector, or a matrix of columns): the
    adjoint of those columns, e^(-x/2) P0 M^T P* amps with P0 the first r + 1
    phases.  The mirror of :func:`_displaced`, one real product M^T w with
    no dense operator."""
    m, phase, scale = factors
    w = _real_columns(phase.conj(), amps)
    return _complex_columns(scale * phase[:m.shape[1]], m.T @ w, amps.shape)


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


def _polar_powers(modulus, phase, k):
    """(modulus e^(i phase))^k for integers |k| < 2^26, to a few
    ulps: the real power np.power(modulus, k) times e^(i phase k), with phase
    split into a head of 26 significant bits, whose products with k are
    exact, and a tail below 2^-26 |phase|.  A complex ``**`` rounds the
    argument phase k itself, an error of |phase k| 1e-16 that grows with k."""
    mantissa, exponent = math.frexp(phase)
    head = math.ldexp(round(math.ldexp(mantissa, 26)), exponent - 26)
    return (np.power(modulus, k) * np.exp(1j * (head * k))) * np.exp(1j * ((phase - head) * k))


def hermite_functions(x, nmax):
    """Oscillator eigenfunctions phi_k(x), k = 0..nmax, shape (nmax+1,) + shape(x).

    phi_k(x) = pi^(-1/4) exp(-x^2/2) H_k(x) / sqrt(2^k k!), by the normalized
    recurrence phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1}.
    The envelope e^(-x^2/2) underflows above |x| ~ 37.6, where the higher
    levels are of order 1: there the recurrence runs on scaled values
    (:mod:`polynomials`), folded as each level is stored; elsewhere their
    exponent is 0 and the levels are the plain recurrence's, bit for bit.
    Past the radius 40 + 2 sqrt(nmax) every phi_k is 0 in floating point
    (|H_k(x)| <= (2|x|)^k past every zero, so ln |phi_k| < -800 - 0.46 nmax
    by Stirling); x is clipped to it, giving signed zeros.
    """
    radius = 40.0 + 2.0 * math.sqrt(nmax)
    x = np.clip(np.asarray(x, dtype=float), -radius, radius)
    out = np.empty((nmax + 1,) + x.shape)
    psi, scale = _scaled(-0.5 * x * x)
    psi = np.pi ** -0.25 * psi
    carry = bool(np.any(scale))
    prev = np.zeros_like(psi)
    for k in range(nmax + 1):
        out[k] = _folded(psi, scale) if carry else psi
        if k == nmax:
            break
        psi, prev = (x * np.sqrt(2.0 / (k + 1)) * psi
                     - np.sqrt(k / (k + 1.0)) * prev), psi
        if carry:
            psi, prev, scale = _renormalized(psi, prev, scale)
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
