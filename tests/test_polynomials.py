import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from condibeam import polynomials as poly


def brute_jacobi(m, b, c, z):
    """Independent reference: the defining sum with falling-factorial binomials."""
    def binom(r, k):
        out = 1.0
        for i in range(k):
            out *= (r - i)
        return out / math.factorial(k)
    return 2.0 ** -m * sum(binom(m + b, j) * binom(m + c, m - j)
                           * (z - 1.0) ** (m - j) * (z + 1.0) ** j
                           for j in range(m + 1))


def sum_laguerre(n, a, z):
    """Reference L_n^a(z) by its finite sum, sum_j C(n+a, n-j) (-z)^j / j!.

    Its terms alternate and cancel, so it is a reference for small n only.
    """
    out = 0.0
    term = 1.0  # (-z)^j / j!
    for j in range(n + 1):
        out += math.comb(n + a, n - j) * term
        term *= -z / (j + 1)
    return out


def full_laguerre_table(nmax, a, x):
    """The normalized Laguerre recurrence over every (degree, parameter) pair,
    written out as one loop over the degree: the square table the
    triangular rows of ``laguerre_rows`` are cut from."""
    a, x = np.asarray(a), np.asarray(x)
    with np.errstate(divide="ignore"):
        log_x = np.log(np.where(a == 0, 1.0, x))
    u = np.empty((nmax + 1,) + np.broadcast(a, x).shape)
    u[0] = np.exp(0.5 * (a * log_x - poly.log_factorial(a)))
    prev = 0.0
    for j in range(nmax):
        u[j + 1] = (((2 * j + 1 + a - x) * u[j] - np.sqrt(j * (j + a)) * prev)
                    / np.sqrt((j + 1) * (j + 1 + a)))
        prev = u[j]
    return u


def assoc_laguerre(nmax, a, x):
    """Normalized associated Laguerre values for degrees j = 0..nmax.

    The rows of ``laguerre_rows`` over the parameters ``a``, stacked:
    u_j^a(x) = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x).  ``a`` and ``x`` broadcast;
    returns shape (nmax+1,) + broadcast shape of (a, x).  The square table
    the reference routes of the tests read.
    """
    return np.stack(list(poly.laguerre_rows(nmax, x, a)))


class TestLaguerreRows:
    """The triangular rows: degree j over the parameters a = 0..nmax - j."""

    @pytest.mark.parametrize("nmax", [128, 512, 1024])
    def test_triangle_is_bit_identical_to_the_full_recurrence(self, nmax):
        for x in (0.0, 0.37, nmax / 2, 1.3 * nmax):
            full = full_laguerre_table(nmax, np.arange(nmax + 1), x)
            rows = list(poly.laguerre_rows(nmax, x))
            assert [row.shape for row in rows] == [(nmax + 1 - j,) for j in range(nmax + 1)]
            for j, row in enumerate(rows):
                assert np.array_equal(row, full[j, :nmax + 1 - j]), (x, j)

    def test_array_argument(self):
        # one parameter axis in front of the argument's shape
        x = np.array([[0.0, 2.5, 40.0], [7.0, 0.1, 128.0]])
        full = full_laguerre_table(128, np.arange(129)[:, None, None], x)
        for j, row in enumerate(poly.laguerre_rows(128, x)):
            assert row.shape == (129 - j, 2, 3)
            assert np.array_equal(row, full[j, :129 - j])

    def test_given_parameters_are_the_square_table(self):
        x = np.linspace(0, 30, 7)
        a = np.array([0, 3, 11])[:, None]
        assert np.array_equal(assoc_laguerre(60, a, x), full_laguerre_table(60, a, x))

    def test_running_integers_at_high_degree(self):
        # given parameters up to 1024 and degrees up to 1024: the running
        # 2j+1+a and (j+1)(j+1+a) round as the formula written out does
        x = np.array([0.0, 0.37, 40.0, 512.0, 1331.2])
        a = np.array([0, 1, 7, 100, 513, 1024])[:, None]
        assert np.array_equal(assoc_laguerre(1024, a, x), full_laguerre_table(1024, a, x))

    def test_early_stop_computes_nothing_further(self):
        rows = poly.laguerre_rows(1000, 3.0)
        first = [next(rows) for _ in range(3)]
        assert [r.size for r in first] == [1001, 1000, 999]
        assert np.array_equal(first[2], full_laguerre_table(2, np.arange(999), 3.0)[2])

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="nmax >= 0"):
            next(poly.laguerre_rows(-1, 1.0))


class TestLaguerre:
    """``assoc_laguerre`` gives u_j = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x), j <= nmax."""

    def test_at_zero(self):
        assert np.all(assoc_laguerre(5, 0, 0.0) == 1.0)
        assert np.all(assoc_laguerre(5, 3, 0.0) == 0.0)

    def test_degree_one(self):
        # L_1(z) = 1 - z
        assert assoc_laguerre(1, 0, 0.5)[1] == pytest.approx(0.5)

    def test_complex_argument(self):
        z = 0.3 + 0.8j
        assert np.allclose(assoc_laguerre(2, 0, z),
                           [1.0, 1.0 - z, 1.0 - 2.0 * z + z * z / 2.0])

    def test_vectorized(self):
        z = np.linspace(0, 3, 5)
        assert np.allclose(assoc_laguerre(1, 0, z)[1], 1 - z)
        a = np.arange(4)
        table = assoc_laguerre(3, a[:, None], z)
        assert table.shape == (4, 4, 5)
        for i in a:
            assert np.array_equal(table[:, i], assoc_laguerre(3, i, z))

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.floats(min_value=0, max_value=2, allow_nan=False))
    def test_sum_matches_recurrence(self, n, a, z):
        scale = math.sqrt(math.factorial(n) / math.factorial(n + a)) * z ** (a / 2)
        ref = scale * sum_laguerre(n, a, z)
        assert assoc_laguerre(n, a, z)[n] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_matches_mpmath(self):
        """Within 1e-12 of the normalized scale e^(x/2) for a, j <= 200, x <= 300."""
        mpmath = pytest.importorskip("mpmath")
        for x in (0.0, 0.3, 7.5, 60.0, 170.0, 300.0):
            for a in (0, 1, 2, 17, 64, 150, 200):
                u = assoc_laguerre(200, a, x) * math.exp(-x / 2)
                for j in (*range(0, 200, 9), 200):
                    with mpmath.workdps(40):
                        xm = mpmath.mpf(x)
                        ref = (mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(j + a))
                               * xm ** (mpmath.mpf(a) / 2) * mpmath.laguerre(j, a, xm)
                               * mpmath.exp(-xm / 2))
                    assert abs(u[j] - float(ref)) < 1e-12, (x, a, j)


class TestJacobi:
    """Integer b >= 0, integer c >= -m (scalar or array) and real z."""

    def test_degree_zero(self):
        assert poly.jacobi(0, 2, 5, 0.3) == 1.0

    def test_endpoint_identity(self):
        # P_m^(b,c)(1) = C(m+b, m)
        for m, b, c in [(3, 2, 1), (4, 1, 7), (2, 0, -2), (5, 3, -4)]:
            assert poly.jacobi(m, b, c, 1.0) == pytest.approx(math.comb(m + b, m))

    def test_negative_integer_parameter(self):
        for c in (-1, -2, -3):
            assert poly.jacobi(3, 1, c, 0.4) == pytest.approx(brute_jacobi(3, 1, c, 0.4))

    def test_against_brute_sum_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(0, 13))
            b = int(rng.integers(0, 6))
            c = int(rng.integers(-m, 13))
            z = rng.uniform(-2, 2)
            val = poly.jacobi(m, b, c, z)
            ref = brute_jacobi(m, b, c, z)
            assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_array_parameter_matches_scalar_calls(self):
        for m, b, z in [(0, 2, 0.4), (3, 1, -0.7), (5, 4, 2.5)]:
            c = np.arange(-m, 5)
            ref = [poly.jacobi(m, b, ci, z) for ci in c]
            assert np.allclose(poly.jacobi(m, b, c, z), ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m, b, c, z", [
        (-1, 0, 0, 0.5), (2, -1, 0, 0.5), (2, 1.5, 0, 0.5), (2, 0, -3, 0.5),
        (2, 0, np.array([0.5, 1.0]), 0.5), (2, 0, 1, 0.5 + 0.1j)])
    def test_rejects_outside_domain(self, m, b, c, z):
        with pytest.raises(ValueError, match="jacobi needs"):
            poly.jacobi(m, b, c, z)

    def test_matches_mpmath(self):
        """Within 1e-12 of the running maximum of |P| over c, up to m = 100."""
        mpmath = pytest.importorskip("mpmath")

        def defining_sum(m, b, c, z):
            z = mpmath.mpf(z)
            return mpmath.fsum(math.comb(m + b, j) * math.comb(m + c, m - j)
                               * (z - 1) ** (m - j) * (z + 1) ** j
                               for j in range(m + 1)) / 2 ** m

        for m in (7, 30, 64, 100):
            # c sampled: its negative range with stride m // 8, then up to 200
            c = np.unique(np.r_[np.arange(-m, 0, max(1, m // 8)), -1, 0,
                                np.arange(1, 201, 13)])
            for b in (0, 1, 5, 20):
                for z in (-1.0, -0.9, -0.3, 0.0, 0.5, 0.95, 1.0):
                    with mpmath.workdps(60):
                        ref = np.array([float(defining_sum(m, b, int(ci), z)) for ci in c])
                    scale = np.maximum.accumulate(np.abs(ref))
                    err = np.abs(poly.jacobi(m, b, c, z) - ref)
                    assert np.all(err <= 1e-12 * scale), (m, b, z)


def test_log_factorial():
    assert poly.log_factorial(0) == 0.0
    assert poly.log_factorial(5) == pytest.approx(math.log(120))
    with pytest.raises(ValueError):
        poly.log_factorial(-1)
