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
:func:`polynomials.laguerre_rows`; N and p stay within 1e-13 of a 60-digit
evaluation up to n = 300, and p within 1e-12 at n = 800, where N overflows
(the state is normalized from scaled terms).  The oracle route of
:func:`scheme_a_state` is its independent check, run by ``condibeam
selftest`` and the tests rather than on every call.

A second scheme mixes the coherent state |beta/T| with a Fock state |n> and
detects |n>; its output is the displaced chi state D(beta) chi (balanced
splitter, zero phases), with the same success probability.

Multi-component cats [(a^dag)^k - (beta*)^k]^n |0> generalize the k = 2
case of repeated displaced photon additions; their norm is
N_k = sum_j C(n,j)^2 |beta|^(2k(n-j)) (kj)!.
"""

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import fock
from .errors import DomainError
from .polynomials import _laguerre_shift, laguerre_rows, log_factorial

__all__ = [
    "CatSpec",
    "cat_norm_and_prob",
    "chi_state",
    "scheme_a_state",
    "scheme_b_state",
    "multi_cat_state",
    "multi_cat_log_norm",
]


class CatSpec(fock._Record):
    """Detected photon number n, displacement beta, multiplicity k.

    Two well-separated peaks appear for |beta|^2 = n/2 (advisory, not
    enforced).  k > 1 only matters for the multi-cat constructors.

    The chi sum (:attr:`chi_sum`) is computed once per spec, on first use,
    and read by :func:`chi_state`, :func:`cat_norm_and_prob` and the chi
    forms of :mod:`phasespace`.
    """

    n: int
    beta: complex
    k: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not math.isfinite(abs(self.beta) * abs(self.beta)):
            raise ValueError(f"|beta|^2 must be finite, got beta = {self.beta!r}")

    @cached_property
    def chi_sum(self):
        """The chi amplitudes, ln N and the factors they come from
        (:func:`_chi_amplitudes`)."""
        return _chi_amplitudes(self.n, self.beta)


def cat_norm_and_prob(spec):
    """Normalization N and generation probability p of the chi state.

    N = sum |amp_k|^2 with amp_k = sqrt(C(n, k)) u_{n-k}^k(|b|^2) e^(ik arg(-b))
    (:func:`_chi_factors`), so no factorial or power of |b| is formed on
    its own.  p sums the squares of the amplitudes scaled by
    2^-n e^(-|b|^2) inside the exponential; each scaled amplitude is at most
    1, so p stays finite where N overflows (n ~ 750 at |b|^2 = n/2) and N
    is then inf.  DomainError when p is not finite, or 0 while N overflows
    (huge |beta|).
    """
    n, b2 = spec.n, abs(spec.beta) ** 2
    log_binom, u = spec.chi_sum.log_binom, spec.chi_sum.u
    with np.errstate(over="ignore", invalid="ignore"):
        n_sum = float(np.sum(np.abs(np.exp(0.5 * log_binom) * u) ** 2))
        p = float(np.sum(np.abs(np.exp(0.5 * (log_binom - n * math.log(2.0) - b2)) * u) ** 2))
    if not math.isfinite(p) or (p == 0 and not math.isfinite(n_sum)):
        raise DomainError(_overflow_message(n, b2))
    return n_sum, p


def _overflow_message(n, b2):
    return f"chi state: normalization N overflows at n = {n}, |beta|^2 = {b2:.3e}"


def _chi_factors(n, beta):
    """ln C(n, k) + 2E ln 2 and u_{n-k}^k(|b|^2) 2^-E e^(ik arg(-b)), k = 0..n,
    whose product times e^(1/2) of the first is the chi amplitude
    L_{n-k}^k(|b|^2) (-b)^k / sqrt(k!).  u 2^-E (E = 0 up to |b|^2 = 1386)
    is the last entry of each row of :func:`polynomials.laguerre_rows`.
    """
    k = np.arange(n + 1)
    b2 = abs(beta) ** 2
    log_binom = (log_factorial(n) - log_factorial(k) - log_factorial(n - k)
                 + 2.0 * math.log(2.0) * int(_laguerre_shift(b2)))
    with np.errstate(over="ignore", invalid="ignore"):
        last = np.array([row[-1] for row in laguerre_rows(n, b2)])  # j = n - k
        u = last[::-1] * np.exp(1j * k * np.angle(-beta))
    return log_binom, u


# the chi sum of n and beta: the normalized amplitudes k = 0..n, ln N, and
# the factors log_binom and u of _chi_factors
_ChiSum = namedtuple("_ChiSum", "amps log_norm log_binom u")


def _chi_amplitudes(n, beta):
    """The chi sum (a :data:`_ChiSum`): the normalized chi amplitudes
    k = 0..n, ln N and their factors from :func:`_chi_factors`.

    The amplitudes are scaled by their largest binomial factor inside the
    exponential and by their largest magnitude after it, then normalized,
    so neither an overflowing N nor an underflowing p enters (at n = 800,
    |b|^2 = 400, N is ~1e414).  ln N comes from the same scaled terms.
    DomainError when the Laguerre values leave the float range.
    """
    log_binom, u = _chi_factors(n, beta)
    shift = 0.5 * log_binom.max()
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(0.5 * log_binom - shift) * u
        top = np.max(np.abs(terms))
        terms /= top
    if not np.isfinite(terms).all():  # an inf or NaN Laguerre value
        raise DomainError(_overflow_message(n, abs(beta) ** 2))
    norm = np.linalg.norm(terms)
    return _ChiSum(terms / norm, 2.0 * (shift + math.log(top) + math.log(norm)), log_binom, u)


def chi_state(spec, policy):
    """The chi state as a normalized FockVector, from the closed sum alone.

    Its independent check is the two-mode oracle: ``scheme_a_state(spec,
    policy, route="oracle")`` builds the same state from the sector
    recurrence, with no Laguerre or ordering code, and reproduces these
    amplitudes up to the global phase (-1)^n at zero splitter phases.  The
    ``chi-state-vs-oracle`` selftest check and the tests compare the two on
    amplitudes.
    """
    n = spec.n
    policy.check_levels(n, "chi_state: n")
    amps = np.zeros(policy.dim, dtype=complex)
    amps[:n + 1] = spec.chi_sum.amps
    return fock.FockVector(amps, policy.cutoff)


def scheme_a_state(spec, policy, phi_t=0.0, phi_r=0.0, route="closed"):
    """Fock-source scheme: |n> signal, vacuum reference, detect D(beta')|n>.

    The measurement displacement is beta' = beta exp(-i(phi_t + phi_r + pi))
    so the spec's beta always refers to the produced chi state.  ``route``
    selects the closed-form conditional operator or the two-mode oracle.
    Returns (normalized output state, success probability).
    """
    from . import conditional
    from .beamsplitter import BeamSplitterParams
    bs = BeamSplitterParams(math.pi / 4, phi_t, phi_r)
    beta_meas = spec.beta * np.exp(-1j * (phi_t + phi_r + math.pi))
    signal = fock.fock_state(spec.n, policy)
    y = _conditional_y(route, 0, 0j, spec.n, beta_meas, bs, policy)
    return conditional.apply_conditional(y, signal)


def scheme_b_state(spec, policy, bs=None, route="closed"):
    """Coherent-source scheme: |beta/T> signal, |n> reference, detect |n>.

    Requires a balanced beam splitter; with zero phases (the default) the
    output equals D(beta) chi up to a global phase, with the same success
    probability as the Fock-source scheme.  Returns (state, probability).
    """
    from . import conditional
    from .beamsplitter import BeamSplitterParams
    if bs is None:
        bs = BeamSplitterParams(math.pi / 4)
    if not bs.is_balanced:
        raise ValueError("scheme_b_state needs a balanced beam splitter")
    signal = fock.coherent_state(spec.beta / bs.transmittance, policy)
    y = _conditional_y(route, spec.n, 0j, spec.n, 0j, bs, policy)
    return conditional.apply_conditional(y, signal)


def _conditional_y(route, m, alpha, n, beta, bs, policy):
    """Y for the references D(alpha)|m> in and D(beta)|n> detected, from the
    closed form (``route = "closed"``) or the two-mode oracle ("oracle")."""
    if route == "closed":
        from . import conditional
        return conditional.y_displaced_fock(m, n, alpha, beta, bs, policy)
    if route == "oracle":
        from . import twomode  # the verification route: loaded only when taken
        from .beamsplitter import ReferencePrep
        return twomode.oracle_y(ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta),
                                bs, policy)
    raise ValueError(f"unknown route {route!r}")


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
    policy.check_levels(k * n, "multi_cat_state: k*n")
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
