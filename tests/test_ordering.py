import math

import numpy as np
import pytest

from condibeam import fock
from condibeam.ordering import OrderedMonomialSpec, s_ordered_monomial, s_to_t_convert
from condibeam.polynomials import jacobi

POLICY = fock.TruncationPolicy(cutoff=32)
HALF = POLICY.safe_levels


def rel_frobenius(a, b):
    num = np.linalg.norm(a[:HALF, :HALF] - b[:HALF, :HALF])
    den = np.linalg.norm(b[:HALF, :HALF])
    return num / den if den else num


class TestSOrderedMonomial:
    def test_empty_product_is_identity(self):
        op = s_ordered_monomial(OrderedMonomialSpec(0, 0, 3.0), POLICY)
        assert np.allclose(op.mat, np.eye(POLICY.dim))

    def test_single_creation_operator(self):
        op = s_ordered_monomial(OrderedMonomialSpec(1, 0, 5.0), POLICY)
        assert np.allclose(op.mat, fock.creation_op(POLICY).mat)

    def test_single_annihilation_operator(self):
        op = s_ordered_monomial(OrderedMonomialSpec(0, 2, 2.0), POLICY)
        a = fock.annihilation_op(POLICY).mat
        assert np.allclose(op.mat, a @ a)

    def test_one_one_at_s_three(self):
        # converting to normal order gives a^dag a + (1-s)/2 = n - 1 at s = 3
        op = s_ordered_monomial(OrderedMonomialSpec(1, 1, 3.0), POLICY)
        expected = np.diag(np.arange(POLICY.dim) - 1.0)
        assert np.max(np.abs(op.mat - expected)) < 1e-12

    def test_branches_agree_at_equal_powers(self):
        # the m >= n branch written out explicitly must reproduce the module
        # (which takes the m <= n branch at equality)
        s = 2.4
        for m in (1, 2, 3):
            z = (s - 3.0) / (s + 1.0)
            coeff = math.factorial(m) * (-(s + 1.0) / 2.0) ** m
            diag = np.array([jacobi(m, 0, q - m, z) for q in range(POLICY.dim)])
            alt = coeff * np.diag(diag)
            op = s_ordered_monomial(OrderedMonomialSpec(m, m, s), POLICY)
            assert np.max(np.abs(op.mat - alt)) < 1e-10

    def test_hermiticity_pattern(self):
        # {(a+)^m a^n}_s^dag = {(a+)^n a^m}_s for real s
        for (m, n) in [(2, 1), (3, 0), (1, 3), (2, 2)]:
            lhs = s_ordered_monomial(OrderedMonomialSpec(m, n, 1.8), POLICY).dag()
            rhs = s_ordered_monomial(OrderedMonomialSpec(n, m, 1.8), POLICY)
            assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-10

    def test_pure_ladder_powers_at_large_k(self):
        # the band is the exact ladder power on every retained level
        policy = fock.TruncationPolicy(cutoff=128)
        a = fock.annihilation_op(policy).mat
        adag = fock.creation_op(policy).mat
        for k in range(41):
            for (m, n), ladder in (((0, k), a), ((k, 0), adag)):
                op = s_ordered_monomial(OrderedMonomialSpec(m, n, 2.5), policy).mat
                ref = np.linalg.matrix_power(ladder, k)
                assert np.all(np.abs(op - ref) <= 1e-12 * np.abs(ref)), (m, n)

    def test_mixed_powers_stay_on_one_diagonal(self):
        policy = fock.TruncationPolicy(cutoff=128)
        offsets = np.subtract.outer(np.arange(policy.dim), np.arange(policy.dim))
        for m, n in ((3, 40), (40, 3), (20, 20), (12, 31), (31, 12)):
            op = s_ordered_monomial(OrderedMonomialSpec(m, n, 1.8), policy).mat
            on_band = offsets == m - n  # entry (i, j) with j - i = n - m
            assert np.count_nonzero(op[~on_band]) == 0, (m, n)
            assert np.count_nonzero(op[on_band]) > 0, (m, n)

    def test_power_budget(self):
        # m + n = 19, above the former half-cutoff block at cutoff 32: the band
        # and the normal-ordered route agree on the full block
        closed = s_ordered_monomial(OrderedMonomialSpec(10, 9, 3.0), POLICY).mat
        converted = s_to_t_convert(10, 9, 3.0, 1.0, POLICY).mat
        assert np.linalg.norm(closed - converted) <= 1e-12 * np.linalg.norm(converted)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OrderedMonomialSpec(-1, 0, 3.0)


class TestOrderingConversion:
    def test_same_order_is_base(self):
        # t = s leaves only the k = 0 term: the normal-order realization
        a = s_to_t_convert(2, 1, 3.0, 3.0, POLICY)
        b = s_to_t_convert(2, 1, 3.0, 1.0, POLICY)
        assert np.allclose(a.mat, b.mat)

    def test_one_one_to_normal(self):
        for s in (1.5, 3.0, 9.0):
            op = s_to_t_convert(1, 1, s, 1.0, POLICY)
            a = fock.annihilation_op(POLICY).mat
            expected = a.conj().T @ a + (1 - s) / 2 * np.eye(POLICY.dim)
            assert np.max(np.abs(op.mat - expected)) < 1e-12

    def test_two_one_matches_closed_form(self):
        lhs = s_to_t_convert(2, 1, 3.0, 1.0, POLICY)
        rhs = s_ordered_monomial(OrderedMonomialSpec(2, 1, 3.0), POLICY)
        assert np.max(np.abs(lhs.mat[:HALF, :HALF] - rhs.mat[:HALF, :HALF])) < 1e-10

    def test_intermediate_order_roundtrip(self):
        # converting through an intermediate t must agree with going direct
        direct = s_to_t_convert(2, 2, 5.0, 1.0, POLICY)
        via = s_to_t_convert(2, 2, 5.0, 2.0, POLICY)
        assert rel_frobenius(via.mat, direct.mat) < 1e-12

    def test_route_equivalence_sweep(self):
        # closed Jacobi form vs conversion sum for all m + n <= 6
        for s in (1.5, 3.0, 9.0):
            for m in range(7):
                for n in range(7 - m):
                    closed = s_ordered_monomial(OrderedMonomialSpec(m, n, s), POLICY)
                    conv = s_to_t_convert(m, n, s, 1.0, POLICY)
                    assert rel_frobenius(closed.mat, conv.mat) < 1e-9, (m, n, s)


def normal_reorder(m, n, policy):
    """Normally ordered form of a^m (a^dag)^n.

    a^m (a^dag)^n is the antinormally ordered monomial {(a^dag)^n a^m}_-1,
    so the conversion sum to t = 1 gives its normal-order expansion
    sum_l l! C(m,l) C(n,l) (a^dag)^(n-l) a^(m-l).
    """
    return s_to_t_convert(n, m, -1.0, 1.0, policy)


class TestNormalReorder:
    def test_commutator(self):
        op = normal_reorder(1, 1, POLICY)
        a = fock.annihilation_op(POLICY).mat
        assert np.allclose(op.mat, a.conj().T @ a + np.eye(POLICY.dim))

    def test_pure_creation(self):
        op = normal_reorder(0, 3, POLICY)
        adag = fock.creation_op(POLICY).mat
        assert np.allclose(op.mat, adag @ adag @ adag)

    def test_matches_direct_product(self):
        a = fock.annihilation_op(POLICY).mat
        adag = a.conj().T
        direct = a @ a @ adag @ adag
        op = normal_reorder(2, 2, POLICY)
        assert np.max(np.abs(op.mat[:HALF, :HALF] - direct[:HALF, :HALF])) < 1e-10
