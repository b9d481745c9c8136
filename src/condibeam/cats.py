"""Schrödinger-cat-like states from conditional photon-number measurements.

The central object is the chi state produced by feeding |n> into a balanced
beam splitter with a vacuum reference and detecting the displaced Fock
state D(beta')|n> (with beta = beta' exp(i(phi_t + phi_r + pi))):

    chi = (n! sqrt(N))^-1 (a - beta)^n (a^dag + beta*)^n |0>
        = N^(-1/2) sum_{k=0}^n L_{n-k}^k(|beta|^2) (-beta)^k / sqrt(k!) |k>,

with N = sum_k (|beta|^(2k)/k!) L_{n-k}^k(|beta|^2)^2 and success
probability p = 2^(-n) e^(-|beta|^2) N.  For |beta|^2 = n/2 the state shows
two phase-space peaks near +/- i beta whose separation grows like the
square root of the detected photon number.  The Laguerre factors come from
the normalized recurrence of :func:`polynomials.assoc_laguerre`; N and p
stay within 1e-13 of a 60-digit evaluation up to n = 300.

A second scheme mixes the coherent state |beta/T| with a Fock state |n> and
detects |n>; its output is the displaced chi state D(beta) chi (balanced
splitter, zero phases), with the same success probability.

Multi-component cats [(a^dag)^k - (beta*)^k]^n |0> generalize the k = 2
case of repeated displaced photon additions; their norm is
N_k = sum_j C(n,j)^2 |beta|^(2k(n-j)) (kj)!.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import conditional, fock, twomode
from .beamsplitter import BeamSplitterParams, ReferencePrep
from .errors import TruncationError
from .polynomials import assoc_laguerre

__all__ = [
    "CatSpec",
    "cat_norm_and_prob",
    "chi_state",
    "scheme_a_state",
    "scheme_b_state",
    "multi_cat_state",
    "multi_cat_log_norm",
]


@dataclass(frozen=True)
class CatSpec:
    """Detected photon number n, displacement beta, multiplicity k.

    Two well-separated peaks appear for |beta|^2 = n/2 (advisory, not
    enforced).  k > 1 only matters for the multi-cat constructors.
    """

    n: int
    beta: complex
    k: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def cat_norm_and_prob(spec):
    """Normalization N and generation probability p of the chi state."""
    amps = _chi_amps_unnormalized(spec.n, spec.beta)
    n_sum = float(np.vdot(amps, amps).real)
    p = 0.5 ** spec.n * math.exp(-abs(spec.beta) ** 2) * n_sum
    return n_sum, p


def _chi_amps_unnormalized(n, beta):
    """L_{n-k}^k(|b|^2) (-b)^k / sqrt(k!) for k = 0..n.

    Written with the normalized Laguerre values u_j^a of
    :func:`polynomials.assoc_laguerre` as sqrt(C(n, k)) u_{n-k}^k(|b|^2)
    e^(ik arg(-b)), so no factorial or power of |b| is formed on its own.
    """
    k = np.arange(n + 1)
    u = assoc_laguerre(n, k, abs(beta) ** 2)[n - k, k]
    binom = np.array([float(math.comb(n, j)) for j in k])
    return np.sqrt(binom) * u * np.exp(1j * k * np.angle(-beta))


def _chi_operator_route(n, beta, policy):
    """(a - beta)^n (a^dag + beta*)^n |0> by repeated operator application."""
    a = fock.annihilation_op(policy).mat
    adag = a.conj().T
    v = np.zeros(policy.dim, dtype=complex)
    v[0] = 1.0
    for _ in range(n):
        v = adag @ v + np.conj(beta) * v
    for _ in range(n):
        v = a @ v - beta * v
    return v


def chi_state(spec, policy):
    """The chi state as a normalized FockVector.

    Built from the explicit Fock expansion; the independent operator route
    must reproduce the normalization from the closed sum to 1e-9 relative,
    which catches any sign or phase slip in the Laguerre expansion.  The
    operator route itself limits that check: its vector grows like n! before
    the division, and from n ~ 30 its rounding alone can exceed 1e-9
    (ValueError); from n = 99, n!^2 no longer converts to a float
    (OverflowError).
    """
    n, beta = spec.n, spec.beta
    if n > policy.safe_levels:
        raise TruncationError(
            f"chi_state: n = {n} exceeds the safe block "
            f"({policy.safe_levels} levels) at cutoff {policy.cutoff}")
    n_sum, _ = cat_norm_and_prob(spec)
    amps = np.zeros(policy.dim, dtype=complex)
    amps[:n + 1] = _chi_amps_unnormalized(n, beta)
    w = _chi_operator_route(n, beta, policy)
    norm_sq_op = float(np.vdot(w, w).real) / math.factorial(n) ** 2
    if abs(norm_sq_op - n_sum) > 1e-9 * max(n_sum, 1.0):
        raise ValueError(
            f"chi_state normalization cross-check failed: operator route "
            f"gives {norm_sq_op!r}, closed sum gives {n_sum!r}")
    return fock.FockVector(amps / math.sqrt(n_sum), policy.cutoff)


def scheme_a_state(spec, policy, phi_t=0.0, phi_r=0.0, route="closed"):
    """Fock-source scheme: |n> signal, vacuum reference, detect D(beta')|n>.

    The measurement displacement is beta' = beta exp(-i(phi_t + phi_r + pi))
    so the spec's beta always refers to the produced chi state.  ``route``
    selects the closed-form conditional operator or the two-mode oracle.
    Returns (normalized output state, success probability).
    """
    bs = BeamSplitterParams(math.pi / 4, phi_t, phi_r)
    beta_meas = spec.beta * np.exp(-1j * (phi_t + phi_r + math.pi))
    signal = fock.fock_state(spec.n, policy)
    if route == "closed":
        y = conditional.y_displaced_fock(0, spec.n, 0j, beta_meas, bs, policy)
    elif route == "oracle":
        y = twomode.oracle_y(ReferencePrep.vacuum(),
                             ReferencePrep.fock(spec.n, beta_meas), bs, policy)
    else:
        raise ValueError(f"unknown route {route!r}")
    return conditional.apply_conditional(y, signal)


def scheme_b_state(spec, policy, bs=None, route="closed"):
    """Coherent-source scheme: |beta/T> signal, |n> reference, detect |n>.

    Requires a balanced beam splitter; with zero phases (the default) the
    output equals D(beta) chi up to a global phase, with the same success
    probability as the Fock-source scheme.  Returns (state, probability).
    """
    if bs is None:
        bs = BeamSplitterParams(math.pi / 4)
    if not bs.is_balanced:
        raise ValueError("scheme_b_state needs a balanced beam splitter")
    signal = fock.coherent_state(spec.beta / bs.transmittance, policy)
    if route == "closed":
        y = conditional.y_displaced_fock(spec.n, spec.n, 0j, 0j, bs, policy)
    elif route == "oracle":
        y = twomode.oracle_y(ReferencePrep.fock(spec.n),
                             ReferencePrep.fock(spec.n), bs, policy)
    else:
        raise ValueError(f"unknown route {route!r}")
    return conditional.apply_conditional(y, signal)


def multi_cat_log_norm(spec):
    """ln N_k for the multi-cat state (log space: (kj)! overflows quickly)."""
    n, k = spec.n, spec.k
    b = abs(spec.beta)
    if b == 0.0:
        return math.lgamma(k * n + 1)
    terms = [2.0 * (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1))
             + 2.0 * k * (n - j) * math.log(b) + math.lgamma(k * j + 1)
             for j in range(n + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def multi_cat_state(spec, policy):
    """[(a^dag)^k - (beta*)^k]^n |0> normalized; support on multiples of k.

    Amplitudes are assembled in log magnitude so the (kj)! factors never
    overflow.
    """
    n, k, beta = spec.n, spec.k, spec.beta
    if k * n > policy.safe_levels:
        raise TruncationError(
            f"multi_cat_state: k*n = {k * n} exceeds the safe block "
            f"({policy.safe_levels} levels) at cutoff {policy.cutoff}")
    amps = np.zeros(policy.dim, dtype=complex)
    if beta == 0:
        amps[k * n] = 1.0
        return fock.FockVector(amps, policy.cutoff)
    log_norm = multi_cat_log_norm(spec)
    conj_unit = np.conj(beta) / abs(beta)
    for j in range(n + 1):
        # binomial term C(n,j) (a^dag)^(kj) (-1)^(n-j) (beta*)^(k(n-j)) |0>
        logmag = (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                  + k * (n - j) * math.log(abs(beta))
                  + 0.5 * math.lgamma(k * j + 1) - 0.5 * log_norm)
        amps[k * j] = (math.exp(logmag) * (-1.0) ** (n - j)
                       * conj_unit ** (k * (n - j)))
    return fock.FockVector(amps, policy.cutoff)
