"""Closed-form construction of the conditional beam-splitter operator.

Conditioning a beam splitter on finding the output reference mode in a
chosen state maps the input signal through a non-unitary single-mode
operator Y.  For reference modes prepared/detected in displaced Fock states
D(alpha)|m> and D(beta)|n>,

    Y = D((alpha - T beta)/R*)
        . [R^m (-R*)^n / (T^n sqrt(m! n!))] {(a^dag)^m a^n}_s T^n
        . D((beta - T* alpha)/R*),

with s = 2/|R|^2 - 1.  For arbitrary pure preparations F(a^dag)|0> and
measured states G(a^dag)|0> the middle factor generalizes bilinearly:

    Y = sum_{m,n} f_m conj(g_n) R^m (-R*/T)^n {(a^dag)^m a^n}_s T^n.

The adjoint of G lands on the signal mode with conjugated coefficients,
conjugated argument and annihilation operators; this is the unique reading
consistent with the Fock-monomial special case, and the oracle-equivalence
tests enforce it (amplitudes, not just moduli, so the global phase is
pinned as well).

Success-probability bookkeeping: ||Y psi||^2 is the probability of the
conditioned outcome when psi and both reference states are normalized.
"""

import math
import warnings

import numpy as np

from . import fock
from .errors import ConditioningWarning, TruncationError, ZeroProbabilityError
from .fock import FockOperator, attenuation_op, displacement_op
from .ordering import OrderedMonomialSpec, s_ordered_monomial

__all__ = [
    "y_displaced_fock",
    "y_general",
    "y_displaced_general",
    "apply_conditional",
    "swap_roles",
]

# Below this reflectance the [-(s+1)/2]^m coefficients of the ordering are
# badly conditioned; the construction still runs but warns and verifies
# itself against the two-mode oracle.
_CONDITIONING_R2 = 0.05


def _fock_matrix_prefactor(m, n, t, r):
    """Scalar R^m (-R*)^n / (T^n sqrt(m! n!)) in front of the ordered product."""
    return (r ** m * (-np.conj(r)) ** n / t ** n
            * math.exp(-0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1))))


def _check_displacement_budget(arg, policy, what):
    fock._check_coherent_tail(
        arg, policy, what + ": displacement |{a:.3g}| leaks mass {tail:.3e} "
        "above cutoff {cutoff}")


def _ordered_core(terms, bs, policy):
    """sum of coeff * {(a^dag)^m a^n}_s, then T^n on the right."""
    s = bs.s
    total = np.zeros((policy.dim, policy.dim), dtype=complex)
    for m, n, coeff in terms:
        if coeff == 0:
            continue
        mono = s_ordered_monomial(OrderedMonomialSpec(m, n, s), policy)
        total += coeff * mono.mat
    core = FockOperator(total, policy.cutoff) @ attenuation_op(bs.transmittance, policy)
    return core


def _guard_conditioning(y, prep_in, prep_out, bs, policy):
    """Warn and oracle-verify when |R|^2 is small (ill-conditioned ordering)."""
    if abs(bs.reflectance) ** 2 >= _CONDITIONING_R2:
        return y
    warnings.warn(
        f"|R|^2 = {abs(bs.reflectance)**2:.3g} < {_CONDITIONING_R2}: s-ordered "
        "coefficients are ill-conditioned; verifying against the two-mode oracle",
        ConditioningWarning,
        stacklevel=3,
    )
    from . import twomode  # deferred: keep the oracle out of the hot path

    reference = twomode.oracle_y(prep_in, prep_out, bs, policy).mat
    half = policy.safe_levels
    scale = np.linalg.norm(reference[:half, :half])
    err = np.linalg.norm(y.mat[:half, :half] - reference[:half, :half])
    if scale > 0 and err / scale > 1e-6:
        raise ValueError(
            f"ill-conditioned closed form deviates from oracle by {err / scale:.3e}; "
            "use the two-mode oracle for this reflectance")
    return y


def y_displaced_fock(m, n, alpha, beta, bs, policy):
    """Conditional operator for reference modes in displaced Fock states.

    Parameters
    ----------
    m, n : int
        Photon number of the prepared (m) and detected (n) reference state.
    alpha, beta : complex
        Displacements of the prepared and detected reference states.
    bs : BeamSplitterParams
        Requires T != 0 and R != 0.
    policy : TruncationPolicy
    """
    bs.require_nondegenerate()
    if m < 0 or n < 0:
        raise ValueError(f"Fock indices must be >= 0, got m={m}, n={n}")
    if max(m, n) > policy.cutoff // 4:
        raise TruncationError(
            f"Fock indices m={m}, n={n} exceed cutoff/4 = {policy.cutoff // 4}")
    t = bs.transmittance
    r = bs.reflectance
    left = (alpha - t * beta) / np.conj(r)
    right = (beta - np.conj(t) * alpha) / np.conj(r)
    _check_displacement_budget(left, policy, "y_displaced_fock")
    _check_displacement_budget(right, policy, "y_displaced_fock")

    core = _ordered_core([(m, n, _fock_matrix_prefactor(m, n, t, r))], bs, policy)
    y = core
    if left != 0:
        y = displacement_op(left, policy) @ y
    if right != 0:
        y = y @ displacement_op(right, policy)

    from .beamsplitter import ReferencePrep
    return _guard_conditioning(
        y, ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta), bs, policy)


def y_general(f_poly, g_poly, bs, policy):
    """Conditional operator for arbitrary pure reference preparations.

    ``f_poly`` prepares the input reference mode, ``g_poly`` the detected
    state; both are OperatorPolynomial instances (coefficients of powers of
    the creation operator).
    """
    bs.require_nondegenerate()
    if f_poly.degree + g_poly.degree > policy.safe_levels:
        raise TruncationError(
            f"deg F + deg G = {f_poly.degree + g_poly.degree} exceeds the "
            f"safe block ({policy.safe_levels} levels)")
    t = bs.transmittance
    r = bs.reflectance
    terms = []
    for m, fm in enumerate(f_poly.coeffs):
        for n, gn in enumerate(g_poly.coeffs):
            coeff = fm * np.conj(gn) * r ** m * (-np.conj(r) / t) ** n
            terms.append((m, n, coeff))
    y = _ordered_core(terms, bs, policy)

    from .beamsplitter import ReferencePrep
    return _guard_conditioning(
        y, ReferencePrep(f_poly), ReferencePrep(g_poly), bs, policy)


def y_displaced_general(prep_in, prep_meas, bs, policy):
    """Conditional operator for displaced general preparations.

    D((alpha - T beta)/R*) . y_general(F, G) . D((beta - T* alpha)/R*) with
    alpha, beta the displacements of ``prep_in`` and ``prep_meas``.
    """
    bs.require_nondegenerate()
    t = bs.transmittance
    r = bs.reflectance
    alpha = prep_in.displacement
    beta = prep_meas.displacement
    left = (alpha - t * beta) / np.conj(r)
    right = (beta - np.conj(t) * alpha) / np.conj(r)
    _check_displacement_budget(left, policy, "y_displaced_general")
    _check_displacement_budget(right, policy, "y_displaced_general")
    y = y_general(prep_in.poly, prep_meas.poly, bs, policy)
    if left != 0:
        y = displacement_op(left, policy) @ y
    if right != 0:
        y = y @ displacement_op(right, policy)
    return y


def apply_conditional(y, psi_in):
    """Apply a conditional operator; returns (normalized output, probability).

    p = ||Y psi||^2; raises ZeroProbabilityError when the outcome is
    numerically impossible (norm below 1e-7, i.e. p < 1e-14).
    """
    out = fock.apply(y, psi_in)
    p = fock.norm(out) ** 2
    if p < 1e-14:
        raise ZeroProbabilityError(
            f"conditioning on an outcome of probability {p:.3e}")
    return fock.normalize(out), p


def _rotate_prep(prep, chi):
    """exp(i chi n) D(b) G(a^dag)|0>  =  D(e^(i chi) b) G'(a^dag)|0>
    with the polynomial coefficients picking up e^(i chi k)."""
    from .beamsplitter import OperatorPolynomial, ReferencePrep

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
    from .beamsplitter import OperatorPolynomial, ReferencePrep

    amps = psi_in.amps
    deg = max(int(i) for i in np.nonzero(np.abs(amps) > 1e-14)[0]) if np.any(amps) else 0
    new_ref = ReferencePrep(OperatorPolynomial.from_state_amplitudes(amps[: deg + 1]))
    new_signal = prep_ref.state(policy)
    y = y_displaced_general(new_ref, _rotate_prep(prep_meas, np.pi / 2),
                            bs.swapped(), policy)
    out, p = apply_conditional(y, new_signal)
    k = np.arange(policy.dim)
    return fock.FockVector(np.exp(-1j * np.pi / 2 * k) * out.amps, policy.cutoff), p
