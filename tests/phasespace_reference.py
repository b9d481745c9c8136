"""Phase-space references that the tests compare the grid evaluators against.

The library evaluates the chi-state Wigner sum from one triangular Laguerre
recurrence on the grid's mirror classes of radii, summed over the diagonals
by Horner in e^(i arg z), and the Husimi overlap by Horner in
e^(-i arg alpha) over the state's support, both in place.  The routes here
are the ones they replaced:

- the direct ones, one Laguerre table per diagonal on every grid point
  (:func:`wigner_cat_per_diagonal`) and one complex exponential per
  (point, level) pair (:func:`coherent_overlap_exp`), the referees within a
  tolerance;
- the same sums on every distinct radius of the grid as it is sampled, with
  new arrays at each Horner step (:func:`wigner_cat_per_radius`,
  :func:`coherent_overlap_horner`), which the library must equal bit for bit
  wherever its arithmetic is theirs: on grids whose axes are exact mirror
  images or not symmetric at all, and for every Husimi overlap.
"""

import math

import numpy as np

from condibeam.cats import _chi_amplitudes
from condibeam.phasespace import _far_radius, _support
from condibeam.polynomials import (_folded, _laguerre_shift, _scaled, laguerre_rows,
                                   log_factorial)

from test_polynomials import assoc_laguerre


def wigner_cat_per_diagonal(spec, grid):
    """The chi-state Wigner double sum, diagonal by diagonal on every point.

    With z = sqrt(2)(x + ip), c_k the chi amplitudes, j = min(k, m) and
    d = |m - k|, the pair (k, m) adds
    (1/pi) (-1)^j c_k c_m* e^(i(m-k) arg z) u_j^d(|z|^2) e^(-|z|^2/2).
    Returns the values as an array over the grid.
    """
    n = spec.n
    amps = _chi_amplitudes(n, spec.beta).amps
    z = math.sqrt(2.0) * grid.alpha()
    z2 = np.abs(z) ** 2
    arg = np.angle(z)
    total = np.zeros_like(z2)
    for d in range(n + 1):
        j = np.arange(n + 1 - d)
        pairs = (-1.0) ** j * amps[:n + 1 - d] * np.conj(amps[d:])
        lag = assoc_laguerre(n - d, d, z2)
        term = np.real(np.tensordot(pairs, lag, axes=(0, 0)) * np.exp(1j * d * arg))
        total += term if d == 0 else 2.0 * term
    return total * np.exp(-0.5 * z2) / np.pi


def wigner_cat_per_radius(spec, grid):
    """The chi-state Wigner sum with one Laguerre triangle over every distinct
    |z|^2 of the grid's own points, Horner on new arrays.  Returns the values
    as an array over the grid; NaN or inf where the sums leave the float range."""
    n = spec.n
    amps = _chi_amplitudes(n, spec.beta).amps
    z = math.sqrt(2.0) * grid.alpha()
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = np.abs(z) ** 2
        rho, where = np.unique(z2, return_inverse=True)
        where = where.reshape(z2.shape)
        radial = np.zeros((n + 1, rho.size), dtype=complex)
        for j, row in enumerate(laguerre_rows(n, rho)):
            radial[:n + 1 - j] += ((-1.0) ** j * amps[j] * np.conj(amps[j:]))[:, None] * row
        radial[1:] *= 2.0
        unit = np.exp(1j * np.angle(z))
        total = radial[n, where]
        for d in range(n - 1, -1, -1):
            total = total * unit + radial[d, where]
        envelope, exponent = _scaled(-0.5 * z2)
        return _folded(total.real * envelope, exponent + _laguerre_shift(z2)) / np.pi


def coherent_overlap_horner(state, alpha_flat):
    """<alpha|psi> by Horner in e^(-i arg alpha) over the state's support, the
    magnitude table from four grid-sized temporaries and each Horner step
    into a new array; |alpha| clipped to :func:`phasespace._far_radius`."""
    k = _support(state)
    r = np.minimum(np.abs(alpha_flat), _far_radius(k[-1]))
    safe_r = np.where(r > 0, r, 1.0)
    mag = np.exp(k[:, None] * np.log(safe_r) - 0.5 * log_factorial(k)[:, None]
                 - 0.5 * r ** 2)
    zero = r == 0
    if np.any(zero):
        mag[:, zero] = (k == 0)[:, None]
    arg = np.angle(alpha_flat)
    amps = state.amps[k]
    gaps = np.diff(k)
    powers = {g: np.exp(-1j * g * arg) for g in set(gaps.tolist())}
    total = amps[-1] * mag[-1]
    for i in range(k.size - 2, -1, -1):
        total = total * powers[gaps[i]] + amps[i] * mag[i]
    return total * np.exp(-1j * k[0] * arg) if k[0] else total


def coherent_overlap_exp(state, alpha_flat):
    """<alpha|psi> on the state's nonzero levels, one complex exponential
    e^(-ik arg alpha) per (point, level) pair; <0|psi> at alpha = 0."""
    k = _support(state)
    r = np.abs(alpha_flat)
    safe_r = np.where(r > 0, r, 1.0)
    logmag = (k[None, :] * np.log(safe_r)[:, None]
              - 0.5 * log_factorial(k)[None, :] - 0.5 * (r ** 2)[:, None])
    phases = np.exp(-1j * k[None, :] * np.angle(alpha_flat)[:, None])
    coeffs = np.exp(logmag) * phases
    zero = r == 0
    if np.any(zero):
        coeffs[zero] = k == 0
    return coeffs @ state.amps[k]
