import math

import numpy as np
import pytest

from condibeam import fock
from condibeam.errors import (
    CutoffExceededError,
    CutoffMismatchError,
    DegenerateTransmittanceError,
    TruncationError,
)

POLICY = fock.TruncationPolicy(cutoff=32)


class TestTruncationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            fock.TruncationPolicy(cutoff=4)
        with pytest.raises(ValueError):
            fock.TruncationPolicy(cutoff=32, tail_tol=0.0)

    def test_safe_block_is_half(self):
        assert fock.TruncationPolicy(cutoff=48).safe_levels == 24
        assert fock.TruncationPolicy(cutoff=9).safe_levels == 5

    def test_tail_block(self):
        pol = fock.TruncationPolicy(cutoff=49)  # dim 50, top 5 levels
        assert pol.tail_start == 45


class TestFockState:
    def test_vacuum(self):
        v = fock.fock_state(0, POLICY)
        assert v.amps[0] == 1.0 and np.all(v.amps[1:] == 0)

    def test_basis_vector(self):
        v = fock.fock_state(2, POLICY)
        assert v.amps[2] == 1.0 and fock.norm(v) == 1.0

    def test_orthonormality(self):
        v3, v5 = fock.fock_state(3, POLICY), fock.fock_state(5, POLICY)
        assert fock.inner(v3, v5) == 0.0

    def test_cutoff_exceeded(self):
        with pytest.raises(CutoffExceededError):
            fock.fock_state(33, POLICY)


class TestCoherentState:
    def test_zero_is_vacuum(self):
        assert np.allclose(fock.coherent_state(0, POLICY).amps,
                           fock.fock_state(0, POLICY).amps)

    def test_normalized(self):
        v = fock.coherent_state(1.0, POLICY)
        assert abs(fock.norm(v) - 1.0) < 1e-12

    def test_poisson_amplitude_ratio(self):
        # |amps_2 / amps_0| = |alpha|^2 / sqrt(2!) = 1/sqrt(2) at alpha = 1
        v = fock.coherent_state(1.0, POLICY)
        assert abs(v.amps[2] / v.amps[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_complex_phase(self):
        alpha = 0.5 * np.exp(1.1j)
        v = fock.coherent_state(alpha, POLICY)
        phase = np.angle(v.amps[3] / v.amps[0])
        assert np.exp(1j * phase) == pytest.approx(np.exp(1j * 3 * 1.1))

    def test_tail_violation(self):
        with pytest.raises(TruncationError) as exc:
            fock.coherent_state(6.0, POLICY)
        assert exc.value.tail_mass > POLICY.tail_tol


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(fock.displacement_op(0, POLICY).mat, np.eye(POLICY.dim))

    def test_displaced_vacuum_is_coherent(self):
        alpha = 0.8 - 0.4j
        lhs = fock.apply(fock.displacement_op(alpha, POLICY), fock.fock_state(0, POLICY))
        assert np.allclose(lhs.amps, fock.coherent_state(alpha, POLICY).amps, atol=1e-12)

    def test_group_inverse_on_central_block(self):
        pol = fock.TruncationPolicy(cutoff=48)
        alpha = 1.1 + 0.3j
        prod = (fock.displacement_op(alpha, pol)
                @ fock.displacement_op(-alpha, pol)).mat
        half = pol.safe_levels
        assert np.max(np.abs(prod[:half, :half] - np.eye(pol.dim)[:half, :half])) < 1e-10

    def test_unitary_on_central_block(self):
        # a displaced Fock state at level j spreads over ~ |alpha| sqrt(2j+1)
        # levels, so the 1e-10 half-block claim needs the cutoff comfortably
        # above 2 * (half + |alpha|^2 + spread); cutoff 96 is the first point
        # where it holds for |alpha| up to 2 (measured)
        pol = fock.TruncationPolicy(cutoff=96)
        for alpha in (0.5, 1.3 + 0.9j, 2.0, 2.0j):
            d = fock.displacement_op(alpha, pol)
            gram = (d.dag() @ d).mat
            half = pol.safe_levels
            assert np.max(np.abs(gram[:half, :half]
                                 - np.eye(pol.dim)[:half, :half])) < 1e-10

    def test_conjugation_shifts_number_operator(self):
        # D^dag(a) n D(a) = (a^dag + a*)(a + a): conjugation route vs direct
        # construction from shifted ladder operators
        alpha = 0.7 + 0.2j
        d = fock.displacement_op(alpha, POLICY)
        conjugated = (d.dag() @ fock.number_op(POLICY) @ d).mat
        a = fock.annihilation_op(POLICY).mat
        shifted = (a.conj().T + np.conj(alpha) * np.eye(POLICY.dim)) @ (
            a + alpha * np.eye(POLICY.dim))
        half = POLICY.safe_levels
        assert np.max(np.abs(conjugated[:half, :half] - shifted[:half, :half])) < 1e-10

    def test_finite_with_unit_columns_at_cutoff_1024(self):
        pol = fock.TruncationPolicy(cutoff=1024)
        d = fock.displacement_op(0.5, pol).mat
        assert np.all(np.isfinite(d))
        columns = np.linalg.norm(d[:, :pol.safe_levels], axis=0)
        assert np.max(np.abs(columns - 1.0)) < 1e-12

    def test_tail_violation(self):
        with pytest.raises(TruncationError):
            fock.displacement_op(6.5, POLICY)


class TestAttenuation:
    def test_identity_at_one(self):
        assert np.allclose(fock.attenuation_op(1.0, POLICY).mat, np.eye(POLICY.dim))

    def test_diagonal_powers(self):
        t = 1j / math.sqrt(2)
        op = fock.attenuation_op(t, POLICY)
        assert op.mat[3, 3] == pytest.approx(t ** 3)

    def test_coherent_scaling_identity(self):
        # T^n |alpha> = exp(-|alpha|^2 (1-|T|^2)/2) |T alpha>, both sides numeric
        t, alpha = 1 / math.sqrt(2), 1.0
        lhs = fock.apply(fock.attenuation_op(t, POLICY),
                         fock.coherent_state(alpha, POLICY))
        rhs = (math.exp(-abs(alpha) ** 2 * (1 - abs(t) ** 2) / 2)
               * fock.coherent_state(t * alpha, POLICY).amps)
        assert np.max(np.abs(lhs.amps - rhs)) < 1e-10

    def test_degenerate(self):
        with pytest.raises(DegenerateTransmittanceError):
            fock.attenuation_op(0.0, POLICY)
        with pytest.raises(ValueError):
            fock.attenuation_op(1.5, POLICY)


class TestQuadratureState:
    def test_vacuum_wavefunction(self):
        x = 0.8
        q = fock.quadrature_state(x, 0.0, POLICY)
        overlap = fock.inner(q, fock.fock_state(0, POLICY))
        assert overlap == pytest.approx(np.pi ** -0.25 * math.exp(-x * x / 2))

    def test_odd_amplitude_vanishes_at_origin(self):
        q = fock.quadrature_state(0.0, 0.0, POLICY)
        assert q.amps[1] == 0.0

    def test_phase_factors(self):
        q = fock.quadrature_state(0.5, 0.9, POLICY)
        q0 = fock.quadrature_state(0.5, 0.0, POLICY)
        k = np.arange(POLICY.dim)
        assert np.allclose(q.amps, np.exp(1j * k * 0.9) * q0.amps)

    def test_coherent_overlap_normalization(self):
        # int |<x,0|alpha>|^2 dx = 1 by trapezoidal quadrature
        coh = fock.coherent_state(1.0, POLICY)
        xs = np.linspace(-7, 7, 1401)
        dens = [abs(fock.inner(fock.quadrature_state(x, 0.0, POLICY), coh)) ** 2
                for x in xs]
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)

    def test_hermite_function_orthonormality(self):
        # int <x,phi|k><l|x,phi> dx = delta_kl for k, l <= 6
        xs = np.linspace(-8, 8, 1601)
        fn = fock.hermite_functions(xs, 6)
        gram = np.trapezoid(fn[:, None, :] * fn[None, :, :], xs, axis=-1)
        assert np.max(np.abs(gram - np.eye(7))) < 1e-6

    def test_unrepresentable_x(self):
        with pytest.raises(TruncationError):
            fock.quadrature_state(9.5, 0.0, POLICY)  # sqrt(2*32+1) ~ 8.06


class TestLinearAlgebra:
    def test_number_operator_eigenvalue(self):
        v = fock.apply(fock.number_op(POLICY), fock.fock_state(3, POLICY))
        assert np.allclose(v.amps, 3 * fock.fock_state(3, POLICY).amps)

    def test_norm_of_basis_states(self):
        for k in (0, 5, 17):
            assert fock.norm(fock.fock_state(k, POLICY)) == 1.0

    def test_inner_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        u = fock.FockVector(rng.normal(size=POLICY.dim)
                            + 1j * rng.normal(size=POLICY.dim), POLICY.cutoff)
        v = fock.FockVector(rng.normal(size=POLICY.dim)
                            + 1j * rng.normal(size=POLICY.dim), POLICY.cutoff)
        assert fock.inner(u, v) == pytest.approx(np.conj(fock.inner(v, u)))

    def test_commutator_below_cutoff(self):
        a = fock.annihilation_op(POLICY).mat
        comm = a @ a.conj().T - a.conj().T @ a
        # exact identity on all levels below the top one
        assert np.allclose(comm[:-1, :-1], np.eye(POLICY.dim)[:-1, :-1])
        assert comm[-1, -1] != 1.0  # the edge artifact is real

    def test_cutoff_mismatch(self):
        other = fock.TruncationPolicy(cutoff=16)
        with pytest.raises(CutoffMismatchError):
            fock.apply(fock.number_op(POLICY), fock.fock_state(0, other))
        with pytest.raises(CutoffMismatchError):
            fock.inner(fock.fock_state(0, POLICY), fock.fock_state(0, other))

    def test_normalize(self):
        v = fock.FockVector(2.0 * fock.fock_state(1, POLICY).amps, POLICY.cutoff)
        assert fock.norm(fock.normalize(v)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            fock.normalize(fock.FockVector(np.zeros(POLICY.dim), POLICY.cutoff))

    def test_values_are_immutable(self):
        v = fock.fock_state(0, POLICY)
        with pytest.raises(ValueError):
            v.amps[0] = 2.0
        op = fock.number_op(POLICY)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 1.0
