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
displacement arguments and the bracket's diagonals (T^n folded in).
``apply`` displaces, runs the band and displaces again with no dense
operator, O(W t) for a state whose numerical top is t; ``mat`` builds the
dense matrix from the same factors, for SVDs, norms and oracle comparisons.
Both give Y's exact compression onto the levels 0..cutoff, as the oracle
does: the inner index runs over working levels 0..W, the numerical top of
the D(right) columns they read plus the band's lift
(``TruncationPolicy.working_factors``), and drops below 1e-17 of them.

The adjoint of G lands on the signal mode with conjugated coefficients,
conjugated argument and annihilation operators; this is the unique reading
consistent with the Fock-monomial special case, and the oracle-equivalence
tests enforce it (amplitudes, not just moduli, so the global phase is
pinned as well).

Success-probability bookkeeping: ||Y psi||^2 is the probability of the
conditioned outcome when psi and both reference states are normalized.
A mixed reference or a non-projective measurement splits into pure
ensembles, and :func:`apply_conditional_mixed` runs their Kraus map from
the same builder.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import fock
from .beamsplitter import OperatorPolynomial, ReferencePrep
from .errors import CutoffMismatchError, DomainError, ZeroProbabilityError
from .fock import TruncationPolicy
from .ordering import OrderedMonomialSpec, s_ordered_band

__all__ = [
    "ConditionalOperator",
    "y_displaced_fock",
    "y_general",
    "y_displaced_general",
    "apply_conditional",
    "apply_conditional_mixed",
    "swap_roles",
]

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
    """B x for the banded core B (offset -> values, on at least the levels of
    x) and a vector or matrix x; each diagonal scales and shifts the rows of x."""
    dim = len(x)
    out = np.zeros(x.shape, dtype=complex)
    for d, values in core.items():
        size = max(dim - abs(d), 0)
        values = values[:size].reshape((-1,) + (1,) * (x.ndim - 1))
        if d >= 0:
            out[:size] += values * x[d:]
        else:
            out[-d:] += values * x[:size]
    return out


@dataclass(frozen=True, eq=False)
class ConditionalOperator:
    """Y = D(left) B D(right) in factored form.

    ``left`` and ``right`` are the displacement arguments, ``core`` maps
    each diagonal offset d of the banded core B to its values (B[i, i + d]
    for d >= 0, B[i - d, i] below the diagonal) on every working level the
    operator may need, with the T^n column factor folded in.
    """

    left: complex
    core: dict
    right: complex
    policy: TruncationPolicy

    @property
    def cutoff(self):
        return self.policy.cutoff

    @property
    def reach(self):
        """Levels the core lifts a state by: its largest creation excess."""
        return max(0, -min(self.core))

    def apply(self, vector):
        """Y|vector>: displace onto the working levels, run the band, displace.

        Each displacement costs O(W t) for its input's numerical top t
        (:func:`fock.displace`) and drops at most 1e-17 of its input's norm;
        with right = 0 the whole input enters the band.
        """
        if vector.cutoff != self.cutoff:
            raise CutoffMismatchError(f"cutoff mismatch: {self.cutoff} vs {vector.cutoff}")
        top = fock._numerical_top(vector.amps) if self.right != 0 else self.cutoff
        w, factors = self.policy.working_factors(self.right, top, self.reach)
        amps = _band_times(self.core, fock._displaced(factors, vector.amps[:top + 1]))
        if self.left != 0:
            amps = fock.displace(self.left, fock.FockVector(amps, w)).amps
        return fock.FockVector(amps[:self.cutoff + 1], self.cutoff)

    @functools.cached_property
    def mat(self):
        """The dense matrix: B times columns 0..cutoff of D(right) on the
        working levels 0..W, then rows 0..cutoff of D(left), the adjoint of
        D(-left)'s columns; one (N+1) x (W+1) x (N+1) product."""
        n = self.cutoff
        w, factors = self.policy.working_factors(self.right, n, self.reach)
        mat = _band_times(self.core, fock._dense_columns(factors))
        if self.left != 0:
            mat = fock._dense_columns(fock._displacement_factors(-self.left, w, n)).conj().T @ mat
        mat = mat[:n + 1]
        mat.setflags(write=False)
        return mat


def y_displaced_fock(m, n, alpha, beta, bs, policy):
    """Conditional operator for reference modes in displaced Fock states.

    The special case ``y_displaced_general(ReferencePrep.fock(m, alpha),
    ReferencePrep.fock(n, beta), bs, policy)``: the bracket reduces to
    R^m (-R*)^n / (T^n sqrt(m! n!)) {(a^dag)^m a^n}_s.  m, n >= 0 are the
    photon numbers of the prepared and detected reference states, alpha,
    beta their displacements; ``bs`` needs T != 0 and R != 0.
    """
    if m < 0 or n < 0:
        raise ValueError(f"Fock indices must be >= 0, got m={m}, n={n}")
    return y_displaced_general(ReferencePrep.fock(m, alpha),
                               ReferencePrep.fock(n, beta), bs, policy)


def y_general(f_poly, g_poly, bs, policy):
    """Conditional operator for undisplaced pure reference preparations:
    :func:`y_displaced_general` for F(a^dag)|0> in and G(a^dag)|0> detected,
    ``f_poly`` and ``g_poly`` the OperatorPolynomials F and G."""
    return y_displaced_general(ReferencePrep(f_poly), ReferencePrep(g_poly), bs, policy)


def y_displaced_general(prep_in, prep_meas, bs, policy):
    """Conditional operator for displaced general preparations.

    The one builder of Y (module docstring): alpha, beta are the
    displacements of ``prep_in`` and ``prep_meas``, F, G their polynomials.
    Returns a :class:`ConditionalOperator`, its core on the working levels of
    ``mat``; ``policy`` admits both displacement arguments.
    """
    bs.require_nondegenerate()
    f_poly, g_poly = prep_in.poly, prep_meas.poly
    t = bs.transmittance
    r = bs.reflectance
    alpha = prep_in.displacement
    beta = prep_meas.displacement
    left = (alpha - t * beta) / np.conj(r)
    right = (beta - np.conj(t) * alpha) / np.conj(r)
    policy.check_displacement(left, "y_displaced_general")
    policy.check_displacement(right, "y_displaced_general")

    terms = [(m, n, fm * np.conj(gn) * r ** m * (-np.conj(r) / t) ** n)
             for m, fm in enumerate(f_poly.coeffs) if fm != 0
             for n, gn in enumerate(g_poly.coeffs) if gn != 0]
    levels = policy.working_levels(right, policy.cutoff, max(0, *(m - n for m, n, _ in terms)))
    return ConditionalOperator(left, _ordered_core(terms, bs, TruncationPolicy(levels)),
                               right, policy)


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


def apply_conditional_mixed(rho, ref_ensemble, meas_ensemble, bs, policy):
    """Mixed reference state and non-projective measurement, in closed form.

    ``ref_ensemble`` is a list of (weight, ReferencePrep) describing the
    input reference mode; ``meas_ensemble`` a list of (p(l | state),
    ReferencePrep) decomposing the POVM element of the observed outcome l.
    ``rho`` (a :class:`fock.DensityOperator`) goes through the Kraus map
    sum_il w_i p_l Y_il rho Y_il^dag, Y_il from :func:`y_displaced_general`;
    returns the normalized output and its trace, the outcome probability
    (ZeroProbabilityError for p < 1e-14).  rho is positive, so it is taken
    on the levels 0..t, t the numerical top of sqrt(diag rho), and the Kraus
    columns are Y|0>..Y|t>, each applied in factored form.
    """
    if rho.cutoff != policy.cutoff:
        raise CutoffMismatchError(f"cutoff mismatch: {policy.cutoff} vs {rho.cutoff}")
    w_in = [w for w, _ in ref_ensemble]
    if not all(0 <= w < np.inf for w in w_in) or not abs(sum(w_in) - 1.0) <= 1e-10:
        raise ValueError("input ensemble weights must be finite, >= 0 and sum to 1")
    if not all(0 <= pl < np.inf for pl, _ in meas_ensemble):
        raise ValueError("measurement ensemble weights must be finite and >= 0")
    top = fock._numerical_top(np.sqrt(np.abs(rho.mat.diagonal())))
    block = rho.mat[:top + 1, :top + 1]
    columns = [fock.FockVector(e, policy.cutoff) for e in np.eye(top + 1, policy.dim)]
    accum = np.zeros((policy.dim, policy.dim), dtype=complex)
    for w, prep_in in ref_ensemble:
        for pl, prep_meas in meas_ensemble:
            if w * pl == 0:
                continue
            y = y_displaced_general(prep_in, prep_meas, bs, policy)
            kraus = np.stack([y.apply(e).amps for e in columns], axis=1)
            accum += w * pl * (kraus @ block @ kraus.conj().T)
    return fock._conditioned(accum, policy.cutoff)


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
    to a global phase.  The signal enters as a polynomial of degree
    :func:`fock._numerical_top` (psi_in).  Returns (state, probability).
    """
    deg = fock._numerical_top(psi_in.amps)
    new_ref = ReferencePrep(OperatorPolynomial.from_state_amplitudes(psi_in.amps[:deg + 1]))
    new_signal = prep_ref.state(policy)
    y = y_displaced_general(new_ref, _rotate_prep(prep_meas, np.pi / 2),
                            bs.swapped(), policy)
    out, p = apply_conditional(y, new_signal)
    k = np.arange(policy.dim)
    return fock.FockVector(np.exp(-1j * np.pi / 2 * k) * out.amps, policy.cutoff), p
