"""The numpy/stdlib special functions checked against scipy and mpmath.

scipy and mpmath are test-only referees here: the package itself imports
neither.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm
from scipy.special import gammaln

from condibeam import cli
from condibeam.beamsplitter import BeamSplitterParams
from condibeam.fock import coherent_tail_mass, hermite_functions
from condibeam.polynomials import log_factorial
from twomode_reference import nilpotent_exp


def _poisson_tail_reference(lam, cutoff):
    """P(K > cutoff), K ~ Poisson(lam), at 30 digits."""
    with mpmath.workdps(30):
        return mpmath.gammainc(cutoff + 1, 0, mpmath.mpf(lam), regularized=True)


@pytest.mark.parametrize("cutoff", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_poisson_tail_against_mpmath(cutoff):
    for lam in np.geomspace(1e-3, 2 * cutoff, 14):
        alpha = math.sqrt(lam)
        lam_used = abs(alpha) ** 2  # the float the function actually sees
        ref = _poisson_tail_reference(lam_used, cutoff)
        if ref < mpmath.mpf("1e-300"):
            continue
        got = coherent_tail_mass(alpha, cutoff)
        assert abs(mpmath.mpf(got) - ref) <= 1e-12 * ref, (cutoff, lam)


def test_poisson_tail_reaches_1e_300():
    # deep tails: a 1 - P(K <= cutoff) route would return 0 for all of these
    for cutoff, lam in [(64, 1e-3), (128, 0.3), (512, 102.0), (1024, 333.0)]:
        alpha = math.sqrt(lam)
        ref = _poisson_tail_reference(abs(alpha) ** 2, cutoff)
        assert mpmath.mpf("1e-300") < ref < mpmath.mpf("1e-180")
        got = coherent_tail_mass(alpha, cutoff)
        assert abs(mpmath.mpf(got) - ref) <= 1e-12 * ref


def test_poisson_tail_edge_values():
    assert coherent_tail_mass(0.0, 8) == 0.0
    assert coherent_tail_mass(complex("inf"), 8) == 1.0
    assert math.isnan(coherent_tail_mass(complex("nan"), 8))
    assert coherent_tail_mass(40.0, 8) == pytest.approx(1.0, abs=1e-13)


def test_poisson_tail_far_above_cutoff():
    # the summation window would hold ~24 |alpha| = 2.4e151 entries
    assert coherent_tail_mass(1e150, 32) == 1.0
    assert coherent_tail_mass(complex(0, 1e150), 1024) == 1.0


def _hermite_functions_reference(x, nmax):
    """pi^(-1/4) e^(-x^2/2) H_k(x) / sqrt(2^k k!) at 50 digits, k = 0..nmax.

    H_k by its own recurrence H_{k+1} = 2x H_k - 2k H_{k-1} (not the
    normalized one the package uses); mpmath floats have no underflow.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        envelope = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
        h_prev, h = mpmath.mpf(0), mpmath.mpf(1)
        values = []
        for k in range(nmax + 1):
            values.append(envelope * h / mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k)))
            h_prev, h = h, 2 * x * h - 2 * k * h_prev
        return values


@pytest.mark.parametrize("x", [30.0, 38.0, 40.0, 44.0])
def test_hermite_functions_far_from_origin_against_mpmath(x):
    # e^(-x^2/2) is subnormal or 0 above |x| ~ 37.6, yet the higher levels
    # are of order 1 there (0.10968 at x = 40, k = 1024).  The error is
    # measured against the running maximum |phi_j|, j <= k: that is the
    # value itself where the levels still grow monotonically, and the
    # oscillation's envelope past the turning point k ~ x^2/2, where single
    # levels pass through zero.
    nmax = 1024
    got = hermite_functions(np.array([x, -x]), nmax)
    ref = _hermite_functions_reference(x, nmax)
    assert float(ref[nmax]) != 0.0
    scale = mpmath.mpf(0)
    for k in range(nmax + 1):
        scale = max(scale, abs(ref[k]))
        if scale <= mpmath.mpf("1e-300"):
            continue
        for sign, value in ((1, got[k, 0]), ((-1) ** k, got[k, 1])):
            assert abs(mpmath.mpf(value) - sign * ref[k]) <= 1e-12 * scale, (x, k)


@pytest.mark.parametrize("nmax", [0, 300, 1024])
@pytest.mark.parametrize("x", [1.3e3, 1e9, 3.1e9, 1e16, 1e200])
def test_hermite_functions_far_field_against_mpmath(x, nmax):
    # every phi_k underflows out here, and from |x| ~ 3e9 on the envelope's
    # power-of-two split no longer holds
    got = hermite_functions(np.array([x, -x]), nmax)
    ref = [float(v) for v in _hermite_functions_reference(x, nmax)]
    assert np.array_equal(got[:, 0], ref) and np.array_equal(got[:, 1], ref)


def test_log_factorial_array_against_gammaln():
    k = np.arange(2049)
    got = log_factorial(k)
    ref = gammaln(k + 1)
    assert got[0] == 0.0 and got[1] == 0.0
    assert np.all(np.abs(got[2:] - ref[2:]) <= 1e-12 * np.abs(ref[2:]))
    # any integer shape, scalar behaviour unchanged
    grid = np.array([[3, 0], [7, 2048]])
    assert np.array_equal(log_factorial(grid), got[grid])
    assert log_factorial(7) == math.lgamma(8)
    with pytest.raises(ValueError):
        log_factorial(np.array([2, -1]))


@pytest.mark.parametrize("points", [2, 3, 4, 5, 80, 81])
def test_simpson_against_scipy(points):
    rng = np.random.default_rng(points)
    y = rng.standard_normal((points, points + 1))
    for values in (y, y.T):  # integrate along either axis of the grid
        got = cli._simpson(values, 0.37)
        ref = simpson(values, dx=0.37)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(values).max())
    # the nested 2-D integral the wigner-grid experiment reports
    got2 = cli._simpson(cli._simpson(y[:, :points], 0.1), 0.2)
    ref2 = simpson(simpson(y[:, :points], dx=0.1), dx=0.2)
    assert got2 == pytest.approx(float(ref2), rel=1e-13, abs=1e-13)


def test_sector_exponential_against_expm():
    cutoff = 24
    r = BeamSplitterParams(0.6, 0.3, 1.2).reflectance
    for total in range(2 * cutoff + 1):
        lo, hi = max(0, total - cutoff), min(cutoff, total)
        k1 = np.arange(lo, hi + 1)
        up = np.sqrt((k1[:-1] + 1.0) * (total - k1[:-1]))
        size = len(k1)
        gen = np.zeros((size, size), dtype=complex)
        gen[np.arange(1, size), np.arange(size - 1)] = up
        for c in (r, -np.conj(r)):
            ref = expm(c * gen)
            got = nilpotent_exp(c, up)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()), total
