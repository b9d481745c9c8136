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


class TestGenBinomial:
    def test_integer_values(self):
        assert poly.gen_binomial(5, 2) == 10
        assert poly.gen_binomial(7, 0) == 1
        assert poly.gen_binomial(3, 3) == 1

    def test_negative_upper(self):
        # (-1)(-2)(-3)/3! = -1
        assert poly.gen_binomial(-1, 3) == pytest.approx(-1.0)
        assert poly.gen_binomial(-2.5, 2) == pytest.approx((-2.5) * (-3.5) / 2)

    def test_k_zero_any_r(self):
        for r in (-3.7, 0.0, 2.0, 11.5):
            assert poly.gen_binomial(r, 0) == 1.0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            poly.gen_binomial(2.0, -1)

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
    def test_matches_comb_for_integers(self, r, k):
        if k <= r:
            assert poly.gen_binomial(r, k) == math.comb(r, k)


def sum_laguerre(n, a, z):
    """Reference L_n^a(z) by its finite sum, sum_j C(n+a, n-j) (-z)^j / j!.

    Its terms alternate and cancel, so it is a reference for small n only.
    """
    out = 0.0
    term = 1.0  # (-z)^j / j!
    for j in range(n + 1):
        out += poly.gen_binomial(n + a, n - j) * term
        term *= -z / (j + 1)
    return out


def recurrence_jacobi(m, b, c, z):
    """Reference P_m^(b,c) by the classical three-term recurrence.

    The recurrence divides by 2m(m+b+c)(2m+b+c-2); it is only used as a
    cross-check for generic (non-degenerate) parameters.
    """
    if m == 0:
        return 1.0
    pm1 = 1.0
    p = 0.5 * ((b + c + 2) * z + (b - c))
    for j in range(2, m + 1):
        a1 = 2 * j * (j + b + c) * (2 * j + b + c - 2)
        a2 = (2 * j + b + c - 1) * (b * b - c * c)
        a3 = (2 * j + b + c - 1) * (2 * j + b + c) * (2 * j + b + c - 2)
        a4 = 2 * (j + b - 1) * (j + c - 1) * (2 * j + b + c)
        p, pm1 = ((a2 + a3 * z) * p - a4 * pm1) / a1, p
    return p


class TestLaguerre:
    """``assoc_laguerre`` gives u_j = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x), j <= nmax."""

    def test_at_zero(self):
        assert np.all(poly.assoc_laguerre(5, 0, 0.0) == 1.0)
        assert np.all(poly.assoc_laguerre(5, 3, 0.0) == 0.0)

    def test_degree_one(self):
        # L_1(z) = 1 - z
        assert poly.assoc_laguerre(1, 0, 0.5)[1] == pytest.approx(0.5)

    def test_complex_argument(self):
        z = 0.3 + 0.8j
        assert np.allclose(poly.assoc_laguerre(2, 0, z),
                           [1.0, 1.0 - z, 1.0 - 2.0 * z + z * z / 2.0])

    def test_vectorized(self):
        z = np.linspace(0, 3, 5)
        assert np.allclose(poly.assoc_laguerre(1, 0, z)[1], 1 - z)
        a = np.arange(4)
        table = poly.assoc_laguerre(3, a[:, None], z)
        assert table.shape == (4, 4, 5)
        for i in a:
            assert np.array_equal(table[:, i], poly.assoc_laguerre(3, i, z))

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.floats(min_value=0, max_value=2, allow_nan=False))
    def test_sum_matches_recurrence(self, n, a, z):
        scale = math.sqrt(math.factorial(n) / math.factorial(n + a)) * z ** (a / 2)
        ref = scale * sum_laguerre(n, a, z)
        assert poly.assoc_laguerre(n, a, z)[n] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_matches_mpmath(self):
        """Within 1e-12 of the normalized scale e^(x/2) for a, j <= 200, x <= 300."""
        mpmath = pytest.importorskip("mpmath")
        for x in (0.0, 0.3, 7.5, 60.0, 170.0, 300.0):
            for a in (0, 1, 2, 17, 64, 150, 200):
                u = poly.assoc_laguerre(200, a, x) * math.exp(-x / 2)
                for j in (*range(0, 200, 9), 200):
                    with mpmath.workdps(40):
                        xm = mpmath.mpf(x)
                        ref = (mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(j + a))
                               * xm ** (mpmath.mpf(a) / 2) * mpmath.laguerre(j, a, xm)
                               * mpmath.exp(-xm / 2))
                    assert abs(u[j] - float(ref)) < 1e-12, (x, a, j)


class TestJacobi:
    def test_degree_zero(self):
        assert poly.jacobi(0, 1.5, -2.5, 0.3) == 1.0

    def test_endpoint_identity(self):
        # P_m^(b,c)(1) = C(m+b, m)
        for m, b, c in [(3, 2.0, 1.0), (4, -1.5, 0.7), (2, 0.0, -3.0)]:
            assert poly.jacobi(m, b, c, 1.0) == pytest.approx(
                poly.gen_binomial(m + b, m))

    def test_negative_integer_parameter(self):
        assert poly.jacobi(2, 1, -3, 0.0) == pytest.approx(brute_jacobi(2, 1, -3, 0.0))

    def test_against_brute_sum_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(0, 13))
            b, c, z = rng.uniform(-2, 2, 3)
            val = poly.jacobi(m, b, c, z)
            ref = brute_jacobi(m, b, c, z)
            assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_recurrence_route_generic_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(0, 13))
            b, c, z = rng.uniform(-2, 2, 3)
            ref = recurrence_jacobi(m, b, c, z)
            scale = max(1.0, abs(ref))
            assert abs(poly.jacobi(m, b, c, z) - ref) / scale < 1e-9

    def test_array_parameter_matches_scalar_calls(self):
        c = np.arange(-6, 5) + 0.0
        for m, b, z in [(0, 2, 0.4), (3, 1, -0.7), (5, 4, 2.5)]:
            ref = [poly.jacobi(m, b, ci, z) for ci in c]
            assert np.allclose(poly.jacobi(m, b, c, z), ref, rtol=1e-13, atol=0)


def test_log_factorial():
    assert poly.log_factorial(0) == 0.0
    assert poly.log_factorial(5) == pytest.approx(math.log(120))
    with pytest.raises(ValueError):
        poly.log_factorial(-1)
