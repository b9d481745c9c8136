"""Closed-form construction of the conditional beam-splitter operator.

Conditioning a beam splitter on finding the output reference mode in a
chosen state maps the input signal through a non-unitary single-mode
operator Y.  For a reference mode prepared in D(alpha) F(a^dag)|0> and
detected in D(beta) G(a^dag)|0>,

    Y = D((alpha - T beta)/R*)
        . [sum_{m,n} f_m conj(g_n) R^m (-R*/T)^n {(a^dag)^m a^n}_s] T^n
        . D((beta - T* alpha)/R*),

with s = 2/|R|^2 - 1.  :func:`y_displaced_general` is the one builder of
Y.  Displaced Fock references D(alpha)|m>, D(beta)|n> are the special case
f = e_m/sqrt(m!), g = e_n/sqrt(n!) (:func:`y_displaced_fock`); undisplaced
polynomial references are alpha = beta = 0 (:func:`y_general`).  Each
s-ordered monomial is one shifted diagonal and T^n scales the columns, so
the bracket is a banded matrix of width deg F + deg G + 1.

Y is kept in that factored form, a :class:`ConditionalOperator`: the two
displacement arguments and the bracket's diagonals (offset -> values, the
T^n column factor folded in).  Applying it to a state displaces, runs the
band and displaces again with no dense operator (:func:`fock.displace`):
O(N t) for a state whose numerical top is t (the levels above it hold at
most 1e-17 of its norm), such as a Fock or coherent signal, and O(N^2) at
most.  Its ``mat`` builds the dense matrix from the same factors, for SVDs,
norms and the oracle comparisons only.

Both forms stop the inner index of D(left) . band . D(right) at the
cutoff, as the dense product of the three truncated matrices does.  The
displacements carry levels near the cutoff past it, and the mass they
carry there is dropped, so Y is exact on its safe block only while that
mass is negligible.  Making Y an exact compression means summing the
inner index up to a working dimension W above the cutoff; that choice is
open (ROADMAP item 4a), and a strict xfail in the tests records the defect.

The adjoint of G lands on the signal mode with conjugated coefficients,
conjugated argument and annihilation operators; this is the unique reading
consistent with the Fock-monomial special case, and the oracle-equivalence
tests enforce it (amplitudes, not just moduli, so the global phase is
pinned as well).

Success-probability bookkeeping: ||Y psi||^2 is the probability of the
conditioned outcome when psi and both reference states are normalized.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import fock
from .beamsplitter import OperatorPolynomial, ReferencePrep
from .errors import CutoffMismatchError, DomainError, TruncationError, ZeroProbabilityError
from .fock import TruncationPolicy, displacement_op
from .ordering import OrderedMonomialSpec, s_ordered_band

__all__ = [
    "ConditionalOperator",
    "y_displaced_fock",
    "y_general",
    "y_displaced_general",
    "apply_conditional",
    "swap_roles",
]

def _check_displacement_budget(arg, policy):
    fock._check_coherent_tail(
        arg, policy, "y_displaced_general: displacement |{a:.3g}| leaks mass "
        "{tail:.3e} above cutoff {cutoff}")


def _ordered_core(terms, bs, policy):
    """Diagonals of sum of coeff * {(a^dag)^m a^n}_s, then T^n on the right.

    Returns offset n - m -> values.  DomainError when a term's coefficient
    underflows to 0 or its band overflows (Fock references m = n from ~130
    at |R|^2 = 1/2).
    """
    s = bs.s
    core = {}
    for m, n, coeff in terms:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values = coeff * s_ordered_band(OrderedMonomialSpec(m, n, s), policy)
            if coeff == 0 or not np.isfinite(values).all():
                raise OverflowError
        except OverflowError:  # also m! [-(s+1)/2]^m overflowing as a Python float
            raise DomainError(f"conditional operator: the s-ordered term (m, n) = "
                              f"({m}, {n}) leaves the float range") from None
        core[n - m] = core[n - m] + values if n - m in core else values
    t_powers = np.asarray(bs.transmittance, dtype=complex) ** np.arange(policy.dim)
    # T^k scales column k: element i of the diagonal at offset d sits in
    # column i + d above the main diagonal and in column i below it
    return {d: fock._freeze(values * t_powers[max(d, 0):max(d, 0) + len(values)])
            for d, values in core.items()}


def _band_times(core, x):
    """B x for the banded core B (offset -> values) and a vector or matrix x;
    each diagonal scales and shifts the rows of x."""
    dim = len(x)
    out = np.zeros(x.shape, dtype=complex)
    for d, values in core.items():
        values = values.reshape((-1,) + (1,) * (x.ndim - 1))
        if d >= 0:
            out[:dim - d] += values * x[d:]
        else:
            out[-d:] += values * x[:dim + d]
    return out


@dataclass(frozen=True, eq=False)
class ConditionalOperator:
    """Y = D(left) B D(right) in factored form.

    ``left`` and ``right`` are the displacement arguments, ``core`` maps
    each diagonal offset d of the banded core B to its values (B[i, i + d]
    for d >= 0, B[i - d, i] below the diagonal), with the T^n column factor
    folded in.
    """

    left: complex
    core: dict
    right: complex
    policy: TruncationPolicy

    @property
    def cutoff(self):
        return self.policy.cutoff

    def apply(self, vector):
        """Y|vector>: displace, run the band, displace.

        Each displacement costs O(N t) for its input's numerical top t
        (:func:`fock.displace`), so O(N^2) at most; each drops at most
        1e-17 of its input's norm.
        """
        if vector.cutoff != self.cutoff:
            raise CutoffMismatchError(f"cutoff mismatch: {self.cutoff} vs {vector.cutoff}")
        if self.right != 0:
            vector = fock.displace(self.right, vector)
        out = fock.FockVector(_band_times(self.core, vector.amps), self.cutoff)
        return fock.displace(self.left, out) if self.left != 0 else out

    @functools.cached_property
    def mat(self):
        """The dense matrix: B D(right) by shifted rows, then one product with D(left)."""
        right = (displacement_op(self.right, self.policy).mat if self.right != 0
                 else np.eye(self.policy.dim))
        mat = _band_times(self.core, right)
        if self.left != 0:
            mat = displacement_op(self.left, self.policy).mat @ mat
        mat.setflags(write=False)
        return mat


def y_displaced_fock(m, n, alpha, beta, bs, policy):
    """Conditional operator for reference modes in displaced Fock states.

    The special case ``y_displaced_general(ReferencePrep.fock(m, alpha),
    ReferencePrep.fock(n, beta), bs, policy)``: the bracket reduces to
    R^m (-R*)^n / (T^n sqrt(m! n!)) {(a^dag)^m a^n}_s.

    Parameters
    ----------
    m, n : int
        Photon number of the prepared (m) and detected (n) reference state;
        both >= 0 and at most cutoff/4.
    alpha, beta : complex
        Displacements of the prepared and detected reference states.
    bs : BeamSplitterParams
        Requires T != 0 and R != 0.
    policy : TruncationPolicy
    """
    if m < 0 or n < 0:
        raise ValueError(f"Fock indices must be >= 0, got m={m}, n={n}")
    if max(m, n) > policy.cutoff // 4:
        raise TruncationError(
            f"Fock indices m={m}, n={n} exceed cutoff/4 = {policy.cutoff // 4}")
    return y_displaced_general(ReferencePrep.fock(m, alpha),
                               ReferencePrep.fock(n, beta), bs, policy)


def y_general(f_poly, g_poly, bs, policy):
    """Conditional operator for undisplaced pure reference preparations.

    ``f_poly`` prepares the input reference mode, ``g_poly`` the detected
    state; both are OperatorPolynomial instances (coefficients of powers of
    the creation operator).  The special case of
    :func:`y_displaced_general` with both displacements zero.
    """
    return y_displaced_general(ReferencePrep(f_poly), ReferencePrep(g_poly), bs, policy)


def y_displaced_general(prep_in, prep_meas, bs, policy):
    """Conditional operator for displaced general preparations.

    The one builder of Y (module docstring): alpha, beta are the
    displacements of ``prep_in`` and ``prep_meas``, F, G their polynomials.
    Returns a :class:`ConditionalOperator`.
    """
    bs.require_nondegenerate()
    f_poly, g_poly = prep_in.poly, prep_meas.poly
    if f_poly.degree + g_poly.degree > policy.safe_levels:
        raise TruncationError(
            f"deg F + deg G = {f_poly.degree + g_poly.degree} exceeds the "
            f"safe block ({policy.safe_levels} levels)")
    t = bs.transmittance
    r = bs.reflectance
    alpha = prep_in.displacement
    beta = prep_meas.displacement
    left = (alpha - t * beta) / np.conj(r)
    right = (beta - np.conj(t) * alpha) / np.conj(r)
    _check_displacement_budget(left, policy)
    _check_displacement_budget(right, policy)

    terms = [(m, n, fm * np.conj(gn) * r ** m * (-np.conj(r) / t) ** n)
             for m, fm in enumerate(f_poly.coeffs) if fm != 0
             for n, gn in enumerate(g_poly.coeffs) if gn != 0]
    return ConditionalOperator(left, _ordered_core(terms, bs, policy), right, policy)


def apply_conditional(y, psi_in):
    """Apply a conditional operator; returns (normalized output, probability).

    ``y`` is a :class:`ConditionalOperator`, applied in factored form, or a
    dense ``FockOperator`` (the two-mode oracle's).  p = ||Y psi||^2;
    raises ZeroProbabilityError when the outcome is numerically impossible
    (norm below 1e-7, i.e. p < 1e-14).
    """
    out = y.apply(psi_in) if isinstance(y, ConditionalOperator) else fock.apply(y, psi_in)
    p = fock.norm(out) ** 2
    if p < 1e-14:
        raise ZeroProbabilityError(
            f"conditioning on an outcome of probability {p:.3e}")
    return fock.normalize(out), p


def _rotate_prep(prep, chi):
    """exp(i chi n) D(b) G(a^dag)|0>  =  D(e^(i chi) b) G'(a^dag)|0>
    with the polynomial coefficients picking up e^(i chi k)."""
    coeffs = tuple(c * np.exp(1j * chi * k) for k, c in enumerate(prep.poly.coeffs))
    return ReferencePrep(OperatorPolynomial(coeffs),
                         prep.displacement * np.exp(1j * chi))


def swap_roles(psi_in, prep_ref, prep_meas, bs, policy):
    """Run the experiment with signal and input-reference roles exchanged.

    The beam-splitter symmetry lets the signal state and the input
    reference state trade places when (T, R) is replaced by (iR, iT); the
    exchanged experiment then produces the same conditional output with the
    same success probability.  Under this package's phase convention for
    the unitary, the replacement carries a fixed number-phase frame change:
    exactly,

        Y(iR, iT; ref=psi_in, meas=e^(i pi n/2) prep_meas) |ref>
            = e^(i pi n/2) . Y(T, R; ref, meas) |psi_in>.

    This helper applies the exchanged pipeline and counter-rotates the
    output, so the returned state matches the direct pipeline's output up
    to a global phase.  Returns (state, probability).
    """
    amps = psi_in.amps
    deg = max(int(i) for i in np.nonzero(np.abs(amps) > 1e-14)[0]) if np.any(amps) else 0
    new_ref = ReferencePrep(OperatorPolynomial.from_state_amplitudes(amps[: deg + 1]))
    new_signal = prep_ref.state(policy)
    y = y_displaced_general(new_ref, _rotate_prep(prep_meas, np.pi / 2),
                            bs.swapped(), policy)
    out, p = apply_conditional(y, new_signal)
    k = np.arange(policy.dim)
    return fock.FockVector(np.exp(-1j * np.pi / 2 * k) * out.amps, policy.cutoff), p
