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
displacement arguments, the bracket's diagonals (T^n folded in) and the
photon-number mass of the prepared reference on its levels 0..L, L its
numerical top.  The splitter conserves photon number, so Y takes a state
whose numerical top is t to the levels 0..t + L.  ``apply`` runs columns
0..t of D(right), the band and rows 0..r <= t + L of D(left), as real
products with no dense operator: O(W (t + L)).  ``mat`` builds the dense
matrix from the same factors, for SVDs, norms and oracle comparisons.
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
from .errors import CutoffMismatchError, DomainError, TruncationError, ZeroProbabilityError
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
    operator may need, with the T^n column factor folded in.  ``reference``
    is the input reference's preparation phi = D(alpha) F(a^dag)|0>, and
    :attr:`ref_mass` its |phi_j|^2 on the levels 0..L, L its numerical top.
    The splitter conserves photon number, so the part of Y psi above level
    n is at most ||meas|| times the norm of the part of psi (x) phi with
    more than n photons in all, the tail of the two masses' convolution: a
    state whose numerical top is t goes to the levels 0..t + L.
    """

    left: complex
    core: dict
    right: complex
    policy: TruncationPolicy
    reference: ReferencePrep

    @property
    def cutoff(self):
        return self.policy.cutoff

    @property
    def reach(self):
        """Levels the core lifts a state by: its largest creation excess."""
        return max(0, -min(self.core))

    @functools.cached_property
    def ref_mass(self):
        """|phi_j|^2 for the reference phi = D(alpha) F(a^dag)|0> on the
        levels 0..L, L its numerical top on its working levels (deg F when
        alpha = 0); None where those levels pass the cap of
        ``TruncationPolicy.working_levels``, as then no bound is known.  No
        tail check, since phi itself is not kept."""
        degree = self.reference.poly.degree
        amps = self.reference.poly.state_amplitudes(degree + 1)
        alpha = self.reference.displacement
        if alpha != 0:
            try:
                levels = self.policy.working_levels(alpha, degree, 0)
            except TruncationError:
                return None
            amps = fock._displaced(fock._displacement_factors(alpha, levels, degree), amps)
            amps = amps[:fock._numerical_top(amps) + 1]
        return fock._freeze(np.abs(amps) ** 2, float)

    def apply(self, vector):
        """Y|vector>: displace onto the working levels, run the band, displace.

        The input is taken on levels 0..t, t its numerical top, and D(right)
        costs O(W t); with right = 0 the whole input enters the band, with
        no displacement.  D(left) is evaluated as its rows 0..r only,
        r <= t + L the levels Y can reach, O(W r), and the output is zero
        above them.  Each displacement drops at most 1e-17 of its input's
        norm.
        """
        if vector.cutoff != self.cutoff:
            raise CutoffMismatchError(f"cutoff mismatch: {self.cutoff} vs {vector.cutoff}")
        amps = vector.amps
        if self.right != 0:
            amps = amps[:fock._numerical_top(amps) + 1]
        return fock.FockVector(self._image(amps), self.cutoff)

    def _image(self, amps):
        """Y on ``amps`` (a vector or a matrix of columns over levels
        0..len(amps) - 1) on the levels 0..cutoff: columns of D(right) on
        the working levels 0..W, the band, and rows 0..r of D(left), the
        adjoint of D(-left)'s columns (:func:`fock._displaced_adjoint`).  r
        is the numerical top of the convolution of the columns' summed
        per-level mass with ``ref_mass``, at most t + L (the cutoff without
        a bound); above it the output, left at zero, holds at most 1e-17
        ||psi|| ||phi|| ||meas||.  With left = 0 the band's output is the
        result."""
        if self.right != 0:
            w, factors = self.policy.working_factors(self.right, len(amps) - 1, self.reach)
            inner = fock._displaced(factors, amps)
        else:  # D(0) is the identity: the input enters the band as it is
            w = self.policy.working_levels(0, len(amps) - 1, self.reach)
            inner = np.zeros((w + 1,) + amps.shape[1:], dtype=complex)
            inner[:len(amps)] = amps
        out = _band_times(self.core, inner)
        if self.left == 0:
            return out[:self.cutoff + 1]
        rows = self.cutoff
        if self.ref_mass is not None:
            mass = (np.abs(amps.reshape(len(amps), -1)) ** 2).sum(axis=1)
            rows = min(rows, fock._numerical_top(np.sqrt(np.convolve(mass, self.ref_mass))))
        image = np.zeros((self.policy.dim,) + amps.shape[1:], dtype=complex)
        image[:rows + 1] = fock._displaced_adjoint(
            fock._displacement_factors(-self.left, w, rows), out)
        return image

    @functools.cached_property
    def mat(self):
        """The dense matrix: B times columns 0..cutoff of D(right) on the
        working levels 0..W, then rows 0..cutoff of D(left) by the same real
        products as :meth:`apply` (:func:`fock._displaced_adjoint`), O(W N^2).
        Column j, Y|j>, lives on the levels 0..j + L; the matrix keeps the
        rows above, which only the reference's 1e-17 tail reaches."""
        n = self.cutoff
        w, factors = self.policy.working_factors(self.right, n, self.reach)
        mat = _band_times(self.core, fock._dense_columns(factors))
        if self.left != 0:
            # rebound, so the D(right) table is freed before the product
            factors = fock._displacement_factors(-self.left, w, n)
            mat = fock._displaced_adjoint(factors, mat)
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
    core = _ordered_core(terms, bs, TruncationPolicy(levels))
    return ConditionalOperator(left, core, right, policy, prep_in)


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
    columns Y|0>..Y|t> come from one factored product on that block.
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
    basis = np.eye(top + 1)
    accum = np.zeros((policy.dim, policy.dim), dtype=complex)
    for w, prep_in in ref_ensemble:
        for pl, prep_meas in meas_ensemble:
            if w * pl == 0:
                continue
            kraus = y_displaced_general(prep_in, prep_meas, bs, policy)._image(basis)
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
