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


class TestLaguerre:
    def test_at_zero(self):
        for n in range(6):
            assert poly.laguerre(n, 0.0) == pytest.approx(1.0)

    def test_degree_one(self):
        # L_1(z) = 1 - z
        assert poly.assoc_laguerre(1, 0, 0.5) == pytest.approx(0.5)

    def test_degree_zero_any_parameter(self):
        for a in (-3, -0.5, 0.0, 2.7):
            assert poly.assoc_laguerre(0, a, 1.3) == pytest.approx(1.0)

    def test_complex_argument(self):
        z = 0.3 + 0.8j
        assert poly.assoc_laguerre(1, 2, z) == pytest.approx(3 - z)

    def test_vectorized(self):
        z = np.linspace(0, 3, 5)
        assert np.allclose(poly.laguerre(1, z), 1 - z)

    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_sum_matches_recurrence(self, n, a, z):
        ref = poly._alt_assoc_laguerre(n, a, z)
        assert poly.assoc_laguerre(n, a, z) == pytest.approx(ref, rel=1e-9, abs=1e-9)


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
            ref = poly._alt_jacobi(m, b, c, z)
            scale = max(1.0, abs(ref))
            assert abs(poly.jacobi(m, b, c, z) - ref) / scale < 1e-9


def test_log_factorial():
    assert poly.log_factorial(0) == 0.0
    assert poly.log_factorial(5) == pytest.approx(math.log(120))
    with pytest.raises(ValueError):
        poly.log_factorial(-1)
