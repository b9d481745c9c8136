"""Phase-space references that the tests compare the grid evaluators against.

The library evaluates the chi-state Wigner sum from one triangular Laguerre
recurrence on the grid's distinct radii, summed over the diagonals by
Horner in e^(i arg z), and the Husimi overlap by Horner in e^(-i arg alpha)
over the state's support.  The routes here are the direct ones they
replaced: one Laguerre table per diagonal on every grid point, and one
complex exponential per (point, level) pair.
"""

import math

import numpy as np

from condibeam.cats import _chi_amplitudes
from condibeam.phasespace import _support
from condibeam.polynomials import log_factorial

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
