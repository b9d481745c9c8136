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
displacement arguments, the bracket's diagonals (T^n folded in) and the two
references.  The splitter conserves photon number, so Y takes a state whose
numerical top is t to the levels 0..t + L, L the prepared reference's top,
and Y itself lies on the diagonals -L_out <= j - k <= L_in.  ``apply`` and
``band`` run D(right), the band and D(left) as real products on those
levels, with no dense operator, and give Y's exact compression onto the
levels 0..cutoff, as the oracle does: ``apply`` on the working levels of
``TruncationPolicy.working_factors``, O(W t) for an input of top t, and
``band`` on D(alpha)'s own band of K levels either side of the diagonal,
O(N K) storage, with no table over all W levels.
Each term of the bracket is one scaled product (:mod:`polynomials`), so a
term whose factors leave the float range on their own still gives Y.

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
import math

import numpy as np

from . import fock
from .beamsplitter import OperatorPolynomial, ReferencePrep
from .errors import CutoffMismatchError, DomainError, TruncationError, ZeroProbabilityError
from .fock import TruncationPolicy, _Record
from .ordering import OrderedMonomialSpec, _s_ordered_scaled
from .polynomials import _folded, _scaled

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
    """Diagonals of sum of coeff * {(a^dag)^m a^n}_s, then T^n on the right,
    as offset n - m -> values; ``terms`` holds (m, n, f_m, g_n), both nonzero.

    Each term f_m conj(g_n) R^m (-R*/T)^n {..}_s T^q is one scaled product:
    the logs of |f_m g_n| |R|^(m+n), of the band (:func:`ordering._s_ordered_scaled`)
    and of |T|^(q-n), q the element's column, are summed and folded once.
    DomainError where Y's elements themselves leave the float range.
    """
    s, t, r = bs.s, bs.transmittance, bs.reflectance
    log_t, log_r, t_unit, r_unit = math.log(abs(t)), math.log(abs(r)), t / abs(t), r / abs(r)
    u = (abs(t) / abs(r)) ** 2  # (s - 1)/2, to a few ulps as |T| -> 0
    levels = np.arange(policy.dim)
    core = {}
    for m, n, f, g in terms:
        log_band, band = _s_ordered_scaled(OrderedMonomialSpec(m, n, s), policy.dim, u)
        d = n - m
        col = levels[max(d, 0):][:len(band)]  # the column q of each element
        log_coeff = math.log(abs(f)) + math.log(abs(g)) + (m + n) * log_r
        mantissa, exponent = _scaled(log_coeff + log_band + (col - n) * log_t)
        # R^m (-R*/T)^n T^q = |R|^(m+n) |T|^(q-n) (-1)^n r^(m-n) t^(-n) t^q with
        # r, t of modulus 1; t^q is the column's, applied to the summed diagonals
        phase = f / abs(f) * g.conjugate() / abs(g) * (-1) ** n * r_unit ** (m - n) * t_unit ** -n
        with np.errstate(over="ignore", invalid="ignore"):
            values = phase * _folded(mantissa * band, exponent)
        if not np.isfinite(values).all():
            raise DomainError(f"conditional operator: the s-ordered term (m, n) = "
                              f"({m}, {n}) leaves the float range")
        core[d] = core[d] + values if d in core else values
    t_phases = fock._polar_powers(math.copysign(1.0, math.cos(bs.theta)), bs.phi_t, levels)
    return {d: fock._freeze(values * t_phases[max(d, 0):max(d, 0) + len(values)])
            for d, values in core.items()}


def _band_times(core, x, start=0):
    """B x for the banded core B (offset -> values) and a vector or matrix x
    on the levels start..start + len(x) - 1; each diagonal scales and shifts
    the rows of x.  Where B's values end, x must vanish."""
    dim = len(x)
    out = np.zeros(x.shape, dtype=complex)
    for d, values in core.items():
        values = values[start:start + max(dim - abs(d), 0)]
        size = len(values)
        values = values.reshape((-1,) + (1,) * (x.ndim - 1))
        if d >= 0:
            out[:size] += values * x[d:d + size]
        else:
            out[-d:size - d] += values * x[:size]
    return out


def _reference_amplitudes(prep, policy):
    """Amplitudes of phi = D(alpha) F(a^dag)|0> on its working levels for
    columns 0..deg F (those of F(a^dag)|0> when alpha = 0); None where
    those levels pass the cap of ``TruncationPolicy.working_levels``, as
    then no bound is known.  No tail check, since phi itself is not kept."""
    degree = prep.poly.degree
    amps = prep.poly.state_amplitudes(degree + 1)
    if prep.displacement == 0:
        return amps
    try:
        levels = policy.working_levels(prep.displacement, degree, 0)
    except TruncationError:
        return None
    return fock._displaced(fock._displacement_factors(prep.displacement, levels, degree), amps)


# rows of Y that one product of the band build forms
_ROW_BLOCK = 64


class ConditionalOperator(_Record, eq=False):
    """Y = D(left) B D(right) in factored form.

    ``left`` and ``right`` are the displacement arguments, ``core`` maps
    each diagonal offset d of the banded core B to its values (B[i, i + d]
    for d >= 0, B[i - d, i] below) on every working level the operator may
    need, T^n folded in.  ``reference`` and ``measured`` are the prepared
    and the detected reference.  Photon number is conserved, so the part of
    Y psi above level n is at most ||meas|| times the tail of the
    convolution of psi's mass with :attr:`ref_mass`, and Y[j, k] vanishes
    but for the references' tails off the diagonals :attr:`band` holds.
    """

    left: complex
    core: dict
    right: complex
    policy: TruncationPolicy
    reference: ReferencePrep
    measured: ReferencePrep

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
        ``TruncationPolicy.working_levels``, as then no bound is known."""
        amps = _reference_amplitudes(self.reference, self.policy)
        if amps is None:
            return None
        if self.reference.displacement != 0:
            amps = amps[:fock._numerical_top(amps) + 1]
        return fock._freeze(np.abs(amps) ** 2, float)

    @functools.cached_property
    def band(self):
        """Y on its diagonals -L_out <= j - k <= L_in (a
        :class:`fock.BandedOperator`), L_in and L_out the numerical tops of
        the prepared and the measured reference, capped at the cutoff (the
        cutoff where no bound is known).

        D(right) and D(-left) are kept as their bands, K_r and K_l levels
        on either side of the diagonal (:func:`fock._displacement_bands`, one
        Laguerre recurrence for both; each column drops at most 1e-17 of its
        norm outside).  Each block of b = 64 rows j0..j1 of Y takes B D(right)
        on the levels j0 - K_l..j1 + K_l, from the columns of D(right) it
        reaches, times the block's rows of D(left) (the adjoint of D(-left)'s
        columns) in one real product: O(N (b + K)(b + L)) work and O(N K)
        storage for N = cutoff, no (W + 1) x (N + 1) table.  Each column's
        part outside the band is at most ||tail_in|| ||phi_out|| + ||phi_in||
        ||tail_out||, which the splitter, a unitary, carries there."""
        n = self.cutoff
        tops, tails, norms = [], [], []
        for prep in (self.reference, self.measured):
            amps = _reference_amplitudes(prep, self.policy)
            top = n if amps is None else min(n, fock._numerical_top(amps))
            tops.append(top)
            tails.append(0.0 if top == n else float(np.linalg.norm(amps[top + 1:])))
            norms.append(float(np.linalg.norm(prep.poly.state_amplitudes(prep.poly.degree + 1))))
        below, above = tops
        width = below + above + 1
        lower = max(0, max(self.core))  # the levels B moves a state down by
        (u_r, s_r), (u_l, s_l) = fock._displacement_bands((self.right, -self.left), self.policy)
        k_r, k_l = u_r.shape[1] - 1, u_l.shape[1] - 1
        levels = np.arange(n + max(k_r, k_l) + self.reach + lower + 1)
        p_r, p_l = (np.exp(1j * levels * (np.angle(a) if a else 0.0))
                    for a in (self.right, -self.left))
        diagonals = np.empty((n + 1, width), dtype=complex)
        for j0 in range(0, n + 1, _ROW_BLOCK):
            j1 = min(j0 + _ROW_BLOCK, n + 1)
            c0, c1 = max(j0 - below, 0), min(j1 + above, n + 1)  # the columns of Y
            # the levels the product runs over, and the levels of D(right) feeding them
            g0, g1 = max(j0 - k_l, c0 - k_r - lower, 0), min(j1 + k_l, c1 + k_r + self.reach)
            h0, h1 = max(g0 - self.reach, 0), g1 + lower
            cols = np.multiply.outer(s_r * p_r[h0:h1], p_r[c0:c1].conj())
            cols *= fock._band_columns(u_r, (c0, c1), (h0, h1))
            cols = _band_times(self.core, cols, h0)[g0 - h0:g1 - h0] * p_l[g0:g1, None].conj()
            m = fock._band_columns(u_l, (j0, j1), (g0, g1))
            rows = np.zeros((j1 - j0, j1 - j0 + width - 1), dtype=complex)
            rows[:, c0 - j0 + below:c1 - j0 + below] = (m.T @ cols.view(float)).view(complex)
            rows *= s_l * p_l[j0:j1, None]
            diagonals[j0:j1] = fock._diagonal_view(rows, width)
        tail = tails[0] * norms[1] + norms[0] * tails[1]
        return fock.BandedOperator(diagonals, above, n, tail)

    def apply(self, vector):
        """Y|vector>: displace onto the working levels, run the band, displace.

        The input is taken on levels 0..t, t its numerical top (all of it
        with right = 0), D(right) costs O(W t), and D(left) is evaluated as
        its rows 0..r <= t + L only, O(W r), the output zero above them.
        Each displacement drops at most 1e-17 of its input's norm.
        """
        if vector.cutoff != self.cutoff:
            raise CutoffMismatchError(f"cutoff mismatch: {self.cutoff} vs {vector.cutoff}")
        amps = vector.amps
        if self.right != 0:
            amps = amps[:fock._numerical_top(amps) + 1]
        return fock.FockVector(self._image(amps), self.cutoff)

    def _image(self, amps):
        """Y on ``amps`` (a vector or a matrix of columns over levels
        0..len(amps) - 1) on the levels 0..cutoff, as :meth:`apply` runs it.
        The rows 0..r of D(left) are the adjoint of D(-left)'s columns, r
        the numerical top of the convolution of the columns' per-level mass
        with ``ref_mass`` (the cutoff without a bound); the output above it,
        left at zero, holds at most 1e-17 ||psi|| ||phi|| ||meas||."""
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

    @property
    def mat(self):
        """The dense matrix, scattered from :attr:`band`."""
        return self.band.mat


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
    its ``band``; ``policy`` admits both displacement arguments.
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

    terms = [(m, n, fm, gn)
             for m, fm in enumerate(f_poly.coeffs) if fm != 0
             for n, gn in enumerate(g_poly.coeffs) if gn != 0]
    levels = policy.working_levels(right, policy.cutoff, max(0, *(m - n for m, n, _, _ in terms)))
    core = _ordered_core(terms, bs, TruncationPolicy(levels))
    return ConditionalOperator(left, core, right, policy, prep_in, prep_meas)


def apply_conditional(y, psi_in):
    """Apply a conditional operator; returns (normalized output, probability).

    ``y`` is a :class:`ConditionalOperator`, applied in factored form, or a
    :class:`fock.BandedOperator` (the two-mode oracle's, from
    ``twomode.oracle_y``), which :func:`fock.apply` runs through its
    scattered ``.mat``.  p = ||Y psi||^2; raises ZeroProbabilityError when
    the outcome is numerically impossible (norm below 1e-7, i.e. p < 1e-14).
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
