"""Brute-force two-mode beam-splitter simulation: the referee of the closed form.

The conditional module builds Y and the conditioned states; this module
checks them by an independent route.  The unitary commutes with the total
photon number, so it acts sector by sector on k1 + k2 = M.
:func:`_sector_blocks` produces the exact blocks of the untruncated beam
splitter (the convention :func:`fock.displace` follows as well) one
sector at a time, from the recurrence of :func:`_sector_rotations`;
:func:`oracle_y` and :func:`conditional_reduce` contract each block as it
is produced, and no dense two-mode unitary is ever assembled.  Sectors
with M <= cutoff are complete and their blocks are unitary; a higher
sector keeps only the signal indices max(0, M - cutoff)..cutoff, so its
block is a compression of a unitary, yet each element it keeps is exact:
:func:`oracle_y` is Y's exact compression onto the levels 0..cutoff.

The recurrence is closed on the reference-mode levels q <= L: each step
reads only the element's own reference indices or one below them.  A
routine that needs only such levels runs it on that band alone, O(N L^2)
for cutoff N instead of O(N^3).  Each such bound is a numerical top
(:func:`fock._numerical_top`): the oracle takes L from the reference
amplitudes, and the reduce route stops at the top sector of its input,
which bounds every reference index it meets.

Everything here is deliberately independent of the closed-form construction
(no ``polynomials``, ``ordering`` or ``conditional`` import, and
``conditional`` imports nothing from here): the two routes check each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffMismatchError
from .fock import FockOperator, _conditioned, _freeze, _freeze_field, _numerical_top

__all__ = [
    "TwoModeState",
    "PhotonCountingPovm",
    "product_state",
    "oracle_y",
    "photon_counting_povm",
    "conditional_reduce",
]


@dataclass(frozen=True)
class TwoModeState:
    """Amplitudes over the product basis |k1, k2>, axis 0 = signal mode."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        _freeze_field(self, "amps", 2)


def product_state(v1, v2):
    """|v1> (signal) tensor |v2> (reference)."""
    if v1.cutoff != v2.cutoff:
        raise CutoffMismatchError(f"cutoff mismatch: {v1.cutoff} vs {v2.cutoff}")
    return TwoModeState(np.outer(v1.amps, v2.amps), v1.cutoff)


def _sector_rotations(theta, cutoff, band):
    """Windows R_M of the mixing rotation, sector by sector, on the
    reference band.

    Apart from the phases, sector M of the beam splitter is the real window

        R_M[p, k] = <p, M-p| exp(theta (a1^dag a2 - a2^dag a1)) |k, M-k>,

    the Fock-amplitude form of the beam splitter (Miatto & Quesada,
    Quantum 4, 366 (2020)).  Since U a1^dag U^dag = c a1^dag - s a2^dag and
    U a2^dag U^dag = c a2^dag + s a1^dag (c = cos theta, s = sin theta),
    raising either input index by one photon gives a two-term step; their
    weighted sum is the contractive four-term recurrence of Risbo
    (J. Geodesy 70, 383 (1996)), with q = M + 1 - p and R_0 = [[1]]:

        (M+1) R_{M+1}[p, k] = sqrt(k) (c sqrt(p) R_M[p-1, k-1] - s sqrt(q) R_M[p, k-1])
                            + sqrt(M+1-k) (c sqrt(q) R_M[p, k] + s sqrt(p) R_M[p-1, k]).

    Either two-term step alone divides by the square root of one input
    index and is unstable: at theta = pi/4 its sectors miss unitarity by
    4e-3 at M = 96 and by 5e4 at M = 128.

    In the reference-mode indices M - p and M - k, the step reads R_M only
    at the element's own reference indices or one below them.  So the
    elements whose reference indices are both <= ``band`` follow from
    elements of the same kind: the band is closed under the recurrence, and
    each banded element is the same exact element of the untruncated
    rotation.  Sector M keeps the signal indices lo = max(0, M - band) ..
    hi = min(cutoff, M), and the stream ends at M = cutoff + band; every
    window follows from the previous one in O(1) per element, O(N band^2)
    in all.  ``band = cutoff`` keeps every element of the truncated
    two-mode space, O(N^3) for the 2N + 1 sectors.

    Yields (total, lo, rot) for total = 0..cutoff + band (0 <= band <=
    cutoff), where
    rot[p - lo, k - lo] = R_total[p, k] over lo..hi, one vectorized
    recurrence step per sector; every yielded array is new.
    """
    c, s = math.cos(theta), math.sin(theta)
    roots = np.sqrt(np.arange(cutoff + band + 1, dtype=float))
    rot = np.ones((1, 1))
    yield 0, 0, rot
    for total in range(1, cutoff + band + 1):
        lo, hi = max(0, total - band), min(cutoff, total)
        # prev[i, j] = R_{total-1}[lo-1+i, lo-1+j]; a window that starts at
        # index 0 or ends at index total gains a zero border there (index -1,
        # and index total, where sqrt(q) = 0)
        prev = rot
        if lo == 0 or hi == total:
            prev = np.zeros((hi - lo + 2, hi - lo + 2))
            start = int(lo == 0)
            prev[start:start + len(rot), start:start + len(rot)] = rot
        # sqrt(p) and sqrt(total - p) over lo..hi, also sqrt(k), sqrt(total - k)
        sp, sq = roots[lo:hi + 1], roots[total - hi:total - lo + 1][::-1]
        rot = (((c / total) * sp)[:, None] * prev[:-1, :-1]
               - ((s / total) * sq)[:, None] * prev[1:, :-1]) * sp
        rot += (((c / total) * sq)[:, None] * prev[1:, 1:]
                + ((s / total) * sp)[:, None] * prev[:-1, 1:]) * sq
        yield total, lo, rot


def _sector_blocks(bs, cutoff, band):
    """Exact sector blocks of the beam-splitter unitary on the reference
    band, one sector at a time.

    Yields (total, lo, left, rot, right) with block = left[:, None] * rot *
    right: the window R_total of :func:`_sector_rotations` between the
    phases exp(i phi (k1 - k2)/2) of the photon-number-difference
    generators, phi = phi_t + phi_r on the left and phi_t - phi_r on the
    right.  Valid for every parameter value, T = 0 included.
    """
    # exp(i phi j/2) for j = k1 - k2 in -band..cutoff, indexed by band + j
    j = np.arange(-band, cutoff + 1)
    left, right = (np.exp(1j * phi * j / 2.0)
                   for phi in (bs.phi_t + bs.phi_r, bs.phi_t - bs.phi_r))
    for total, lo, rot in _sector_rotations(bs.theta, cutoff, band):
        hi = lo + len(rot) - 1
        at = slice(band + 2 * lo - total, band + 2 * hi - total + 1, 2)
        yield total, lo, left[at], rot, right[at]


def oracle_y(ref_in, ref_out, bs, policy):
    """Conditional operator from the two-mode simulation.

    Y[j, i] = <j| <ref_out| U |i> |ref_in> takes from each sector its block
    between the reference amplitudes it pairs with: amplitudes and sector
    phases fold into one vector per side, and each exact block of
    :func:`_sector_blocks` is contracted as it is produced (none is kept).
    Only reference levels up to L enter, L the higher numerical top of the
    two references' amplitudes (no closed form involved).  U is unitary, so
    the dropped part of Y has norm at most
    ||tail_out|| ||v_in|| + ||v_out|| ||tail_in||, and the cost is
    O(N L^2) for cutoff N instead of O(N^3).
    """
    vin = ref_in.state(policy).amps
    vout_conj = ref_out.state(policy).amps.conj()
    ymat = np.zeros((policy.dim, policy.dim), dtype=complex)
    band = max(_numerical_top(vin), _numerical_top(vout_conj))
    for total, lo, left, rot, right in _sector_blocks(bs, policy.cutoff, band):
        hi = lo + len(rot) - 1
        k2 = slice(total - hi, total - lo + 1)  # reversed against the window
        ymat[lo:hi + 1, lo:hi + 1] += (np.outer(vout_conj[k2][::-1] * left,
                                                right * vin[k2][::-1]) * rot)
    return FockOperator(ymat, policy.cutoff)


@dataclass(frozen=True)
class PhotonCountingPovm:
    """Photon counting with quantum efficiency eta.

    Element n is diagonal with entries C(k, n) eta^n (1 - eta)^(k - n),
    built only from retained levels k <= cutoff; each k-row of binomial
    weights sums to one, so completeness holds exactly in the truncated
    space.
    """

    weights: np.ndarray  # weights[n, k] = <k| Pi(n) |k>
    eta: float
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights, float))

    def element(self, n):
        return FockOperator(np.diag(self.weights[n].astype(complex)), self.cutoff)


def photon_counting_povm(eta, policy):
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {eta}")
    dim = policy.dim
    weights = np.zeros((dim, dim))
    if eta == 1.0:
        np.fill_diagonal(weights, 1.0)
        return PhotonCountingPovm(weights, eta, policy.cutoff)
    lg = np.array([math.lgamma(k + 1) for k in range(dim)])
    for n in range(dim):
        ks = np.arange(n, dim)
        logw = (lg[ks] - lg[n] - lg[ks - n]
                + n * np.log(eta) + (ks - n) * np.log1p(-eta))
        weights[n, ks] = np.exp(logw)
    return PhotonCountingPovm(weights, eta, policy.cutoff)


def conditional_reduce(state_in, povm_element, bs, policy):
    """Propagate a pure two-mode state and condition on a POVM outcome.

    Returns the normalized reduced signal-mode density matrix and the
    outcome probability p = Tr[ U rho U^dag (1 x Pi) ].  The unitary
    conserves the total photon number, so the sectors above the numerical
    top of the input's per-sector mass are never built.
    """
    amps = state_in.amps
    sectors = np.bincount(np.indices(amps.shape).sum(0).ravel(), (np.abs(amps) ** 2).ravel())
    top = _numerical_top(np.sqrt(sectors))
    vout = np.zeros_like(amps)
    # a sector M <= top has reference indices <= top
    for total, lo, left, rot, right in _sector_blocks(bs, policy.cutoff,
                                                      min(top, policy.cutoff)):
        if total > top:
            break
        k1 = np.arange(lo, lo + len(rot))
        vout[k1, total - k1] = left * (rot @ (right * amps[k1, total - k1]))
    return _conditioned(vout @ povm_element.mat.T @ vout.conj().T, policy.cutoff)
