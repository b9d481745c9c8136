"""Brute-force two-mode beam-splitter simulation: the referee of the closed form.

The conditional module builds Y and the conditioned states; this module
checks them by an independent route.  The unitary commutes with the total
photon number, so it acts sector by sector on k1 + k2 = M.
:func:`_sector_windows` produces the exact real rotations of the
untruncated beam splitter (the convention :func:`fock.displace` follows as
well) a chunk of sectors at a time; :func:`oracle_y` and
:func:`conditional_reduce` put the sector phases around them and contract
each chunk as it is produced, and no dense two-mode unitary is ever
assembled.  Sectors with M <= cutoff are complete and their blocks are
unitary; a higher sector keeps only the signal indices
max(0, M - cutoff)..cutoff, so its block is a compression of a unitary, yet
each element it keeps is exact: :func:`oracle_y` is Y's exact compression
onto the levels 0..cutoff.

The recurrence is closed on the reference levels q <= L, so a routine that
needs only those runs it on that band alone, O(N L^2) for cutoff N instead
of O(N^3) (:func:`_sector_windows`).  Each such bound is a numerical top
(:func:`fock._numerical_top`): the oracle takes L from the reference
amplitudes, and the reduce route stops at the top sector of its input.

Everything here is deliberately independent of the closed-form construction
(no ``polynomials``, ``ordering`` or ``conditional`` import, and
``conditional`` imports nothing from here): the two routes check each other.
"""

import math

import numpy as np

from .errors import CutoffMismatchError
from .fock import (BandedOperator, FockOperator, _Record, _conditioned, _freeze, _freeze_field,
                   _numerical_top, _polar_powers)

__all__ = [
    "TwoModeState",
    "PhotonCountingPovm",
    "product_state",
    "oracle_y",
    "photon_counting_povm",
    "conditional_reduce",
]


class TwoModeState(_Record):
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


# elements of the (band + 2)^2 slots that one chunk of sectors holds
_CHUNK_ELEMENTS = 1 << 15
# sectors whose step coefficients one table holds
_TABLE_SECTORS = 4


def _levels(total, cutoff, band):
    """Reference levels lo..hi that sector ``total`` holds on the band: the
    reference index q = total - p of every signal index p in 0..cutoff,
    capped at the band."""
    return max(0, total - cutoff), min(total, band)


def _sector_windows(theta, cutoff, band, last):
    """Windows X_M of the mixing rotation in reference-mode coordinates,
    sector by sector on the reference band, a chunk of sectors at a time.

    Apart from the phases, sector M of the beam splitter is the real rotation

        R_M[p, k] = <p, M-p| exp(theta (a1^dag a2 - a2^dag a1)) |k, M-k>,

    the Fock-amplitude form of the beam splitter (Miatto & Quesada,
    Quantum 4, 366 (2020)).  Since U a1^dag U^dag = c a1^dag - s a2^dag and
    U a2^dag U^dag = c a2^dag + s a1^dag (c = cos theta, s = sin theta),
    raising either input index by one photon gives a two-term step; their
    weighted sum is the contractive four-term recurrence of Risbo
    (J. Geodesy 70, 383 (1996)).  In the reference-mode indices q = M - p
    and r = M - k, X_M[q, r] = R_M[M - q, M - r], X_0 = [[1]] and

        M X_M[q, r] = (c sqrt(M-q) X[q, r] - s sqrt(q) X[q-1, r]) sqrt(M-r)
                    + (c sqrt(q) X[q-1, r-1] + s sqrt(M-q) X[q, r-1]) sqrt(r)

    with X = X_{M-1}.  Either two-term step alone divides by the square root
    of one input index and is unstable: at theta = pi/4 its sectors miss
    unitarity by 4e-3 at M = 96 and by 5e4 at M = 128.

    The step reads X_{M-1} only at the element's own reference indices or
    one below them.  So the elements whose reference indices are both
    <= ``band`` follow from elements of the same kind: the band is closed
    under the recurrence, and each banded element is the same exact element
    of the untruncated rotation.  Sector M holds the levels lo..hi of
    :func:`_levels` (the signal indices 0..cutoff), and the stream runs over
    the sectors 0..``last`` (<= cutoff + band).

    Each window lives in a fixed (band + 2)^2 slot whose row and column 0
    (level -1) stay zero, and a chunk of sectors shares one buffer.  A step
    is nine in-place ufunc calls on contiguous runs of slot positions, the
    whole rows lo..hi (all rows between the two ends of the stream), with
    coefficients spread over the slot positions from one vectorized table
    per block of sectors.  So a sector costs O(band^2) and the stream
    O(N band^2) for cutoff N, in O(chunk band^2) memory; ``band = cutoff``
    keeps every element of the truncated two-mode space.  The arithmetic is
    the same, operation for operation, as that of the full-window
    recurrence in signal coordinates.

    Yields (first, windows) with windows[m, 1 + q, 1 + r] = X_{first+m}[q, r]
    for q, r in the sector's levels lo..hi; in the rows lo..hi every other
    column holds zero.  The windows are views into the buffer that the next
    chunk overwrites.
    """
    c, s = math.cos(theta), math.sin(theta)
    width = band + 2
    size = width * width
    span = size - width - 1
    chunk = max(1, min(last + 1, _CHUNK_ELEMENTS // size))
    buf = np.zeros((chunk + 1, size))
    slots = buf.reshape(chunk + 1, width, width)
    # X_M[q, r] sits at slot position (q + 1) width + r + 1, so the element of
    # X_{M+1} at position j + width + 1 reads X_M at j + width + 1, j + 1,
    # j + width and j: (q, r), (q - 1, r), (q, r - 1) and (q - 1, r - 1)
    reads = [[buf[k, at:at + span] for at in (width + 1, 1, width, 0)] + [buf[k + 1, width + 1:]]
             for k in range(chunk)]
    # the coefficients of the four reads, functions of M and q, then sqrt(M - r)
    # and sqrt(r): one vector per sector and chunk, spread over the slot
    # positions a block of sectors at a time
    levels = np.arange(band + 1.0)
    down = np.sqrt(levels)
    block = min(chunk, _TABLE_SECTORS)
    coefs = np.zeros((6, block, width, width))
    coefs[5, :, :, 1:] = down
    temps = [np.empty(span) for _ in range(3)]
    # the fourteen operands of each slot's step, over the full window
    tables = [list(coefs.reshape(6, block, size)[:, k, width + 1:]) for k in range(block)]
    steps = [reads[k] + tables[k % block] + temps for k in range(chunk)]
    mul, add = np.multiply, np.add
    buf[1, width + 1] = 1.0  # X_0
    first = 0
    while first <= last:
        count = min(chunk, last + 1 - first)
        totals = np.arange(first, first + count, dtype=float)[:, None]
        up = np.sqrt(np.maximum(totals - levels, 0.0))
        cm, sm = c / np.maximum(totals, 1.0), s / np.maximum(totals, 1.0)
        by_row = np.stack((cm * up, -(sm * down), sm * up, cm * down))[..., None]
        for m in range(count):
            if m % block == 0:
                # the next block's coefficients, on the rows its sectors hold
                at = slice(m, min(m + block, count))
                rows = slice(_levels(first + at.start, cutoff, band)[0],
                             _levels(first + at.stop - 1, cutoff, band)[1] + 1)
                coefs[:4, :at.stop - at.start, rows.start + 1:rows.stop + 1] = by_row[:, at, rows]
                coefs[4, :at.stop - at.start, rows.start + 1:rows.stop + 1, 1:] = up[at, None, :]
            total = first + m
            if total == 0:
                continue
            lo, hi = _levels(total, cutoff, band)
            ops = steps[m]
            if lo or hi < band:
                ops = [op[lo * width:(hi + 1) * width - 1] for op in ops]
            x, xq, xr, xqr, out, k1, k2, k3, k4, kr, kr1, t1, t2, t3 = ops
            mul(k1, x, t1)
            mul(k2, xq, t2)
            add(t1, t2, t1)
            mul(t1, kr, t1)
            mul(k3, xr, t2)
            mul(k4, xqr, t3)
            add(t2, t3, t2)
            mul(t2, kr1, t2)
            add(t1, t2, out)
            if lo:
                # the column below the window: an element of the untruncated
                # rotation whose signal index exceeds the cutoff
                slots[m + 1, lo + 1:, lo] = 0.0
        yield first, slots[1:count + 1]
        buf[0] = buf[count]
        first += count


def oracle_y(ref_in, ref_out, bs, policy):
    """Conditional operator from the two-mode simulation, on its band.

    Y[j, i] = <j| <ref_out| U |i> |ref_in> takes from each sector its block
    between the reference amplitudes it pairs with.  Sector M of U is
    exp(i phi (k1 - k2)/2) R_M exp(i phi' (k1 - k2)/2) (phi = phi_t + phi_r,
    phi' = phi_t - phi_r) and k1 - k2 = M - 2q, so with j = M - q it adds

        exp(i phi_t j) [conj(v_out[q]) exp(-i phi_r q)] X_M[q, r]
                       [exp(-i phi' r) v_in[r]]

    to Y[M - q, M - r]: the references and phases fold into one fixed
    matrix over (q, r), and exp(i phi_t j) into one phase per row of Y
    (:func:`fock._polar_powers`).  Only the reference levels q <= L_out and
    r <= L_in enter, the numerical tops of the two references' amplitudes,
    so Y lives on the diagonals -L_out <= j - k = r - q <= L_in, a
    :class:`fock.BandedOperator`.  For a fixed q, window row q of every
    sector in a chunk from :func:`_sector_windows` (on the band
    max(L_in, L_out)) lands on that band in one strided add.  U is unitary,
    so the dropped part of each column of Y has norm at most
    ||tail_out|| ||v_in|| + ||v_out|| ||tail_in||; the cost is O(N L^2).
    """
    vin = ref_in.state(policy).amps
    vout_conj = ref_out.state(policy).amps.conj()
    top_in, top_out = _numerical_top(vin), _numerical_top(vout_conj)
    band = max(top_in, top_out)
    cutoff, dim = policy.cutoff, policy.dim
    levels_out, levels_in = np.arange(top_out + 1), np.arange(top_in + 1)
    weight = np.outer(vout_conj[levels_out] * _polar_powers(1.0, -bs.phi_r, levels_out),
                      vin[levels_in] * _polar_powers(1.0, bs.phi_r - bs.phi_t, levels_in))
    # diagonals[j, top_out + j - k] = Y[j, k]: window row q lands on
    # diagonals[M - q, top_out - q:top_out - q + top_in + 1].  Its zeros off
    # the sector's levels fall on the elements with k outside 0..cutoff
    diagonals = np.zeros((dim, top_in + top_out + 1), dtype=complex)
    targets = [diagonals[:, top_out - q:top_out - q + top_in + 1] for q in range(top_out + 1)]
    for first, windows in _sector_windows(bs.theta, cutoff, band, cutoff + band):
        count = len(windows)
        terms = np.empty((count, top_in + 1), dtype=complex)
        # the rows that some sector of the chunk holds, up to the top of v_out
        for q in range(_levels(first, cutoff, band)[0],
                       min(_levels(first + count - 1, cutoff, band)[1], top_out) + 1):
            # the sectors whose row j = M - q lies in 0..cutoff
            lo, hi = max(first, q), min(first + count, q + cutoff + 1)
            target, part = targets[q][lo - q:hi - q], terms[:hi - lo]
            np.multiply(windows[lo - first:hi - first, q + 1, 1:top_in + 2], weight[q], out=part)
            np.add(target, part, out=target)
    diagonals *= _polar_powers(1.0, bs.phi_t, np.arange(dim))[:, None]
    norm = np.linalg.norm
    tail = norm(vout_conj[top_out + 1:]) * norm(vin) + norm(vout_conj) * norm(vin[top_in + 1:])
    return BandedOperator(diagonals, top_out, cutoff, float(tail))


class PhotonCountingPovm(_Record):
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
    n, k = np.triu_indices(dim)  # k >= n
    weights[n, k] = np.exp(lg[k] - lg[n] - lg[k - n]
                           + n * np.log(eta) + (k - n) * np.log1p(-eta))
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
    band = min(top, policy.cutoff)
    vout = np.zeros_like(amps)
    # sector M of U between its phases exp(i phi_t M) exp(-i phi q) and
    # exp(-i phi' r), as in oracle_y; q, r are reference indices
    sector_phase = _polar_powers(1.0, bs.phi_t, np.arange(top + 1))
    out_phase = _polar_powers(1.0, -(bs.phi_t + bs.phi_r), np.arange(band + 1))
    in_phase = _polar_powers(1.0, bs.phi_r - bs.phi_t, np.arange(band + 1))
    for first, windows in _sector_windows(bs.theta, policy.cutoff, band, top):
        for total, window in enumerate(windows, first):
            lo, hi = _levels(total, policy.cutoff, band)
            q = np.arange(lo, hi + 1)
            rot = window[lo + 1:hi + 2, lo + 1:hi + 2]
            vout[total - q, q] = (sector_phase[total] * out_phase[lo:hi + 1]
                                  * (rot @ (in_phase[lo:hi + 1] * amps[total - q, q])))
    return _conditioned(vout @ povm_element.mat.T @ vout.conj().T, policy.cutoff)
