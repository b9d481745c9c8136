"""Two-mode references that the tests compare the sector routes against.

The library never assembles the beam-splitter unitary: the oracle and the
reduce routes contract the windows of ``twomode._sector_windows``, a chunk
of sectors at a time in reference-mode coordinates, on the reference band
they need.  The tests need the unitary itself, so this module reads the
same windows back in signal coordinates (:func:`sector_rotations`), puts
each sector's phases around them and assembles the blocks into
:class:`TwoModeOperator`; it builds the factored form of the unitary as an
independent route to compare with.  It also keeps the full-window sector
recurrence, which runs over every retained signal index of every sector,
as the referee of the banded one, and the mixed-ensemble route that runs
the two-mode oracle's Y where the library runs the closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from condibeam import fock, twomode
from condibeam.errors import DegenerateBeamSplitterError


def sector_range(total, cutoff):
    """Signal-mode indices k1 present in the sector k1 + k2 = total."""
    return max(0, total - cutoff), min(cutoff, total)


def sector_rotations_full(theta, cutoff):
    """Windows R_M of the mixing rotation over every retained signal index.

    The recurrence of ``twomode._sector_windows`` in signal indices and
    without the reference band: O(N^3) for all 2N + 1 sectors.

    Yields (total, lo, rot) for total = 0..2*cutoff, where
    rot[p - lo, k - lo] = R_total[p, k] over the sector's retained signal
    indices lo..hi (:func:`sector_range`), one vectorized recurrence step
    per sector; every yielded array is new.
    """
    c, s = math.cos(theta), math.sin(theta)
    rot = np.ones((1, 1))
    yield 0, 0, rot
    for total in range(1, 2 * cutoff + 1):
        lo, hi = sector_range(total, cutoff)
        # prev[i, j] = R_{total-1}[lo-1+i, lo-1+j]; a complete sector gains a
        # zero border (index -1 and index total, where sqrt(q) = 0)
        prev = np.pad(rot, 1) if total <= cutoff else rot
        p = np.arange(lo, hi + 1, dtype=float)
        sp, sq = np.sqrt(p), np.sqrt(total - p)  # also sqrt(k), sqrt(total-k)
        rot = (((c / total) * sp)[:, None] * prev[:-1, :-1]
               - ((s / total) * sq)[:, None] * prev[1:, :-1]) * sp
        rot += (((c / total) * sq)[:, None] * prev[1:, 1:]
                + ((s / total) * sp)[:, None] * prev[:-1, 1:]) * sq
        yield total, lo, rot


@dataclass(frozen=True)
class TwoModeOperator:
    """Photon-number-conserving two-mode operator stored sector by sector.

    ``blocks[M]`` is the matrix over signal indices k1 = lo..hi of the
    sector k1 + k2 = M (k2 = M - k1).
    """

    blocks: tuple
    cutoff: int

    def apply(self, state):
        out = np.zeros_like(state.amps)
        for total, block in enumerate(self.blocks):
            lo, hi = sector_range(total, self.cutoff)
            k1 = np.arange(lo, hi + 1)
            out[k1, total - k1] = block @ state.amps[k1, total - k1]
        return twomode.TwoModeState(out, self.cutoff)

    def matrix(self):
        """Dense matrix over the product basis, row/col index = k1*(N+1)+k2."""
        d = self.cutoff + 1
        mat = np.zeros((d * d, d * d), dtype=complex)
        for total, block in enumerate(self.blocks):
            lo, hi = sector_range(total, self.cutoff)
            k1 = np.arange(lo, hi + 1)
            idx = k1 * d + (total - k1)
            mat[np.ix_(idx, idx)] = block
        return mat


def sector_rotations(theta, cutoff, band):
    """The library's banded windows in signal coordinates.

    Yields (total, lo, rot) for total = 0..cutoff + band, where
    rot[p - lo, k - lo] = R_total[p, k] over the signal indices lo..hi that
    the band keeps (hi - lo + 1 <= band + 1), read off the window
    X_total[q, r] = R_total[total - q, total - r] of
    ``twomode._sector_windows`` on its reference levels; every yielded array
    is new.
    """
    for first, windows in twomode._sector_windows(theta, cutoff, band, cutoff + band):
        for total, window in enumerate(windows, first):
            lo, hi = twomode._levels(total, cutoff, band)
            yield total, total - hi, window[hi + 1:lo:-1, hi + 1:lo:-1].copy()


def bs_unitary(bs, policy):
    """The beam-splitter unitary, assembled from the library's sector windows
    on the full reference band, each between its phases
    exp(i phi (k1 - k2)/2), phi = phi_t + phi_r on the left and
    phi_t - phi_r on the right."""
    cutoff = policy.cutoff
    blocks = []
    for total, lo, rot in sector_rotations(bs.theta, cutoff, cutoff):
        diff = 2 * np.arange(lo, lo + len(rot)) - total  # k1 - k2
        left, right = (np.exp(1j * phi * diff / 2.0)
                       for phi in (bs.phi_t + bs.phi_r, bs.phi_t - bs.phi_r))
        blocks.append(left[:, None] * rot * right)
    return TwoModeOperator(tuple(blocks), cutoff)


def nilpotent_exp(c, up):
    """exp(c J) for the matrix J whose only nonzero entries are J[i+1, i] = up[i].

    J is nilpotent, so the exponential series ends after len(up) terms:
    exp(cJ)[i+k, i] = c^k / k! * up[i] * ... * up[i+k-1].  Built one
    subdiagonal at a time in O(size^2).
    """
    size = len(up) + 1
    out = np.zeros((size, size), dtype=complex)
    idx = np.arange(size)
    diag = np.ones(size, dtype=complex)
    for k in range(size):
        out[idx[k:], idx[:size - k]] = diag
        diag = diag[:-1] * up[k:] * (c / (k + 1))
    return out


def bs_unitary_factored(bs, policy):
    """The same unitary from its factored form (requires T != 0).

    T^(n1) exp(-R* a2^dag a1) exp(R a1^dag a2) T^(-n2), assembled per
    sector.  Within a sector a1^dag a2 has a single nonzero subdiagonal and
    a2^dag a1 is its transpose, so both exponentials are finite series,
    built exactly by :func:`nilpotent_exp` (no Pade approximant).  Sectors
    with total <= cutoff agree with :func:`bs_unitary` to rounding; in
    truncated sectors the product of the two truncated exponentials misses
    the terms that pass through levels above the cutoff, so comparisons
    stay on the safe block.
    """
    t = bs.transmittance
    r = bs.reflectance
    if abs(t) < 1e-15:
        raise DegenerateBeamSplitterError("factored form needs T != 0")
    cutoff = policy.cutoff
    blocks = []
    for total in range(2 * cutoff + 1):
        lo, hi = sector_range(total, cutoff)
        k1 = np.arange(lo, hi + 1)
        up = np.sqrt((k1[:-1] + 1.0) * (total - k1[:-1]))  # a1^dag a2: k1 -> k1 + 1
        blocks.append(np.diag(t ** k1)
                      @ nilpotent_exp(-np.conj(r), up).T
                      @ nilpotent_exp(r, up)
                      @ np.diag((1.0 / t) ** (total - k1)))
    return TwoModeOperator(tuple(blocks), cutoff)


def conditional_reduce_mixed(rho_in1, ref_ensemble, meas_ensemble, bs, policy):
    """The Kraus map of ``conditional.apply_conditional_mixed`` with the
    oracle's Y (``twomode.oracle_y``) for every ensemble pair: the weighted
    sum of Y rho Y^dag, normalized by its trace, the outcome probability."""
    accum = np.zeros((policy.dim, policy.dim), dtype=complex)
    for w, prep_in in ref_ensemble:
        for pl, prep_meas in meas_ensemble:
            y = twomode.oracle_y(prep_in, prep_meas, bs, policy).mat
            accum += w * pl * (y @ rho_in1.mat @ y.conj().T)
    return fock._conditioned(accum, policy.cutoff)
