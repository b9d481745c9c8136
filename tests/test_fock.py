import math
import sys

import numpy as np
import pytest

from condibeam import fock, phasespace
from condibeam.errors import CutoffExceededError, CutoffMismatchError, TruncationError

from test_polynomials import assoc_laguerre

POLICY = fock.TruncationPolicy(cutoff=32)


def number_op(policy):
    return fock.creation_op(policy) @ fock.annihilation_op(policy)


def displacement_reference(alpha, cutoff):
    """<k|D(alpha)|j> element by element: e^(-x/2) e^(i(k-j) arg alpha) u_j^(k-j)(x)
    for j <= k and e^(-x/2) (-e^(-i arg alpha))^(k-j) u_j^(k-j)(x) above."""
    x = abs(alpha) ** 2
    k = np.arange(cutoff + 1)
    lo = np.minimum.outer(k, k)
    d = np.abs(np.subtract.outer(k, k))
    sign = np.where(k[:, None] < k, (-1.0) ** d, 1.0)
    lag = assoc_laguerre(cutoff, k, x)[lo, d]
    phase = np.exp(1j * k * np.angle(alpha))
    return math.exp(-x / 2) * sign * lag * phase[:, None] * phase.conj()


def displacement_op(alpha, policy):
    """D(alpha) on the levels 0..cutoff as a FockOperator, from the factors the
    library's routes share, for the identities the tests assert."""
    policy.check_displacement(alpha, "displacement_op")
    factors = fock._displacement_factors(alpha, policy.cutoff, policy.cutoff)
    return fock.FockOperator(fock._dense_columns(factors), policy.cutoff)


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

    def test_check_levels_admits_every_level_and_no_more(self):
        pol = fock.TruncationPolicy(cutoff=48)
        pol.check_levels(0, "n")
        pol.check_levels(48, "n")
        for level in (49, -1):
            with pytest.raises(CutoffExceededError, match=f"n = {level} outside 0..48") as exc:
                pol.check_levels(level, "n")
            assert isinstance(exc.value, TruncationError) and exc.value.tail_mass is None

    def test_check_displacement(self):
        POLICY.check_displacement(1.0, "probe")
        with pytest.raises(TruncationError, match=r"probe: displacement \|6\| leaks mass") as exc:
            POLICY.check_displacement(6.0, "probe")
        assert exc.value.tail_mass == fock.coherent_tail_mass(6.0, POLICY.cutoff)
        assert exc.value.tail_mass > POLICY.tail_tol
        with pytest.raises(TruncationError) as exc:
            POLICY.check_displacement(complex("nan"), "probe")
        assert math.isnan(exc.value.tail_mass)

    def test_check_tail(self):
        POLICY.check_tail(np.zeros(POLICY.dim), "zero vector")
        amps = np.zeros(POLICY.dim)
        amps[0] = amps[-1] = 1.0
        with pytest.raises(TruncationError, match="edge: tail mass") as exc:
            POLICY.check_tail(amps, "edge")
        assert exc.value.tail_mass == 0.5

    def test_check_overlap(self):
        # no mass in the top-10% block: nothing of the overlap is truncated
        low = fock.fock_state(POLICY.tail_start - 1, POLICY).amps
        POLICY.check_overlap(low, 1e150, "low")
        edge = fock.fock_state(POLICY.cutoff, POLICY).amps
        POLICY.check_overlap(edge, 0.1, "edge")
        with pytest.raises(TruncationError, match="edge: overlap truncation bound") as exc:
            POLICY.check_overlap(edge, 10.0, "edge")
        coherent = fock.coherent_tail_mass(10.0, POLICY.tail_start - 1)
        assert exc.value.tail_mass == math.sqrt(coherent) > POLICY.tail_tol


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
        assert np.allclose(displacement_op(0, POLICY).mat, np.eye(POLICY.dim))

    def test_displaced_vacuum_is_coherent(self):
        alpha = 0.8 - 0.4j
        lhs = fock.apply(displacement_op(alpha, POLICY), fock.fock_state(0, POLICY))
        assert np.allclose(lhs.amps, fock.coherent_state(alpha, POLICY).amps, atol=1e-12)

    def test_group_inverse_on_central_block(self):
        pol = fock.TruncationPolicy(cutoff=48)
        alpha = 1.1 + 0.3j
        prod = (displacement_op(alpha, pol)
                @ displacement_op(-alpha, pol)).mat
        half = pol.safe_levels
        assert np.max(np.abs(prod[:half, :half] - np.eye(pol.dim)[:half, :half])) < 1e-10

    def test_unitary_on_central_block(self):
        # a displaced Fock state at level j spreads over ~ |alpha| sqrt(2j+1)
        # levels, so the 1e-10 half-block claim needs the cutoff comfortably
        # above 2 * (half + |alpha|^2 + spread); cutoff 96 is the first point
        # where it holds for |alpha| up to 2 (measured)
        pol = fock.TruncationPolicy(cutoff=96)
        for alpha in (0.5, 1.3 + 0.9j, 2.0, 2.0j):
            d = displacement_op(alpha, pol)
            gram = (d.dag() @ d).mat
            half = pol.safe_levels
            assert np.max(np.abs(gram[:half, :half]
                                 - np.eye(pol.dim)[:half, :half])) < 1e-10

    def test_conjugation_shifts_number_operator(self):
        # D^dag(a) n D(a) = (a^dag + a*)(a + a): conjugation route vs direct
        # construction from shifted ladder operators
        alpha = 0.7 + 0.2j
        d = displacement_op(alpha, POLICY)
        conjugated = (d.dag() @ number_op(POLICY) @ d).mat
        a = fock.annihilation_op(POLICY).mat
        shifted = (a.conj().T + np.conj(alpha) * np.eye(POLICY.dim)) @ (
            a + alpha * np.eye(POLICY.dim))
        half = POLICY.safe_levels
        assert np.max(np.abs(conjugated[:half, :half] - shifted[:half, :half])) < 1e-10

    def test_finite_with_unit_columns_at_cutoff_1024(self):
        pol = fock.TruncationPolicy(cutoff=1024)
        d = displacement_op(0.5, pol).mat
        assert np.all(np.isfinite(d))
        columns = np.linalg.norm(d[:, :pol.safe_levels], axis=0)
        assert np.max(np.abs(columns - 1.0)) < 1e-12

    def test_tail_violation(self):
        with pytest.raises(TruncationError):
            displacement_op(6.5, POLICY)

    @pytest.mark.parametrize("alpha", [1.786e-162, 1e-155j])
    def test_subnormal_intensity(self, alpha):
        # |alpha|^2 below the smallest normal float: the tail mass is 0, not
        # NaN, and the displacement is the identity to rounding, with no
        # warning (pytest turns a RuntimeWarning into an error)
        lam = abs(alpha) ** 2
        assert 0 < lam < sys.float_info.min
        for cutoff in (0, 8, 32):
            assert fock.coherent_tail_mass(alpha, cutoff) == 0.0
        coherent = fock.coherent_state(alpha, POLICY).amps
        assert coherent[0] == 1.0 and coherent[1] == pytest.approx(alpha, rel=1e-12)
        v = fock.fock_state(2, POLICY)
        displaced = fock.displace(alpha, v).amps
        assert np.all(np.isfinite(displaced))
        assert np.max(np.abs(displaced - v.amps)) < 1e-15

    @pytest.mark.parametrize("cutoff, alpha", [
        (8, 0.4 + 0.3j), (64, 2.1 - 1.3j), (1024, 7.0 * np.exp(2.5j)), (64, 0.0)])
    def test_displace_matches_the_matrix(self, cutoff, alpha):
        # the matrix against its elements, and the matrix-free route against
        # the matrix on a vector that fills every level up to the cutoff
        rng = np.random.default_rng(cutoff)
        v = fock.FockVector(rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1),
                            cutoff)
        mat = displacement_op(alpha, fock.TruncationPolicy(cutoff)).mat
        assert np.max(np.abs(mat - displacement_reference(alpha, cutoff))) < 1e-15
        expected = mat @ v.amps
        out = fock.displace(alpha, v)
        assert out.cutoff == cutoff
        assert np.linalg.norm(out.amps - expected) <= 1e-14 * np.linalg.norm(expected)


class TestWorkingLevels:
    """``working_levels`` bounds where columns 0..top of D(alpha) end, and
    ``working_factors`` finds that numerical top in the table it builds."""

    @pytest.mark.parametrize("top", [0, 1, 5, 30, 200, 600])
    @pytest.mark.parametrize("a", [1e-3, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 22.0])
    def test_bound_holds_the_numerical_top(self, top, a):
        alpha = a * np.exp(0.7j)
        policy = fock.TruncationPolicy(max(8, top, math.ceil(a * a)))
        levels = policy.working_levels(alpha, top, 0)
        w, (lower, phase, scale) = policy.working_factors(alpha, top, 0)
        # the same columns, dense, on 100 levels more than the bound
        wide = fock._dense_columns(fock._displacement_factors(alpha, levels + 100, top))
        true_top = fock._numerical_top(np.sqrt(np.sum(np.abs(wide) ** 2, axis=1)))
        assert true_top <= levels - 14
        assert w == max(policy.cutoff, true_top)
        assert lower.shape == (w + 1, top + 1) and phase.shape == (w + 1,)

    def test_cap_lies_beyond_every_displacement_admitted_at_half(self):
        # |alpha|^2 = cutoff + 1 leaks more than 1/2 above the cutoff, so the
        # cap is out of reach at tail_tol <= 1/2; tail_tol = 1 admits any alpha
        policy = fock.TruncationPolicy(48, tail_tol=1.0)
        assert fock.coherent_tail_mass(math.sqrt(49), 48) > 0.5
        assert 4 * 48 < policy.working_levels(math.sqrt(49), 48, 0) < 4 * 48 + 28 * math.sqrt(48)
        for alpha in (1.01 * math.sqrt(49), 1000.0, math.inf):
            policy.check_displacement(alpha, "probe")
            with pytest.raises(TruncationError, match="working levels at cutoff 48"):
                policy.working_levels(alpha, 48, 0)
        with pytest.raises(TruncationError, match="working levels at cutoff 48"):
            policy.working_levels(complex("nan"), 0, 0)

    def test_zero_displacement_is_the_identity(self):
        policy = fock.TruncationPolicy(32)
        w, factors = policy.working_factors(0.0, 5, 3)
        assert w == 32
        assert np.array_equal(fock._dense_columns(factors), np.eye(33, 6))
        assert policy.working_factors(0.0, 32, 3)[0] == 35


def count_laguerre_rows(monkeypatch, module):
    """Record the size of every Laguerre row ``module`` reads."""
    seen = []
    original = module.laguerre_rows

    def counting(nmax, x, *args):
        for row in original(nmax, x, *args):
            seen.append(row.size)
            yield row

    monkeypatch.setattr(module, "laguerre_rows", counting)
    return seen


class TestDisplaceOnSupport:
    """``displace`` reads columns 0..t of D(alpha), t the vector's top level."""

    @staticmethod
    def vectors(cutoff, rng):
        def random(top, zeros=()):
            amps = np.zeros(cutoff + 1, dtype=complex)
            amps[:top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
            amps[list(zeros)] = 0.0
            return fock.FockVector(amps, cutoff)

        top = cutoff // 3
        return {
            "t=0": fock.fock_state(0, fock.TruncationPolicy(cutoff)),
            "t=1": random(1),
            "interior zeros": random(top, zeros=(0, 2, 3, top // 2, top - 1)),
            "fock": fock.fock_state(top, fock.TruncationPolicy(cutoff)),
            "t=cutoff": random(cutoff),
        }

    @pytest.mark.parametrize("cutoff", [64, 512, 1024])
    def test_matches_the_matrix(self, cutoff):
        alpha = 2.5 * np.exp(-0.7j)
        mat = displacement_op(alpha, fock.TruncationPolicy(cutoff)).mat
        for name, v in self.vectors(cutoff, np.random.default_rng(cutoff)).items():
            expected = mat @ v.amps
            out = fock.displace(alpha, v).amps
            assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected), name
        zero = fock.FockVector(np.zeros(cutoff + 1), cutoff)
        assert np.all(fock.displace(alpha, zero).amps == 0)

    def test_fock_state_is_the_matching_column(self):
        pol = fock.TruncationPolicy(cutoff=512)
        mat = displacement_op(-1.2 + 3.1j, pol).mat
        for n in (0, 1, 100, 512):
            out = fock.displace(-1.2 + 3.1j, fock.fock_state(n, pol)).amps
            assert np.max(np.abs(out - mat[:, n])) < 1e-15


class TestDisplaceCost:
    def test_rows_stop_at_the_top_level(self, monkeypatch):
        # |100> at cutoff 512: degrees 0..100 (100 recurrence steps) and the
        # triangle's entries of those degrees, not the full 513 x 514 table
        seen = count_laguerre_rows(monkeypatch, fock)
        cutoff, top = 512, 100
        fock.displace(2.0 + 1.0j, fock.fock_state(top, fock.TruncationPolicy(cutoff)))
        assert len(seen) == top + 1
        assert sum(seen) <= (top + 1) * (cutoff + 1) - top * (top + 1) // 2

    def test_coherent_input_stops_at_its_numerical_top(self, monkeypatch):
        # |1.5 e^0.3i> is nonzero up to level 363, but above level t it holds
        # at most 1e-17 of its norm: degrees 0..t only
        policy = fock.TruncationPolicy(cutoff=384)
        v = fock.coherent_state(1.5 * np.exp(0.3j), policy)
        top = fock._numerical_top(v.amps)
        assert top < 50 < np.flatnonzero(v.amps)[-1]
        assert np.linalg.norm(v.amps[top + 1:]) <= 1e-17 * np.linalg.norm(v.amps)
        assert np.linalg.norm(v.amps[top:]) > 1e-17 * np.linalg.norm(v.amps)
        seen = count_laguerre_rows(monkeypatch, fock)
        alpha = 2.0 - 0.7j
        out = fock.displace(alpha, v).amps
        assert len(seen) <= top + 1
        monkeypatch.undo()
        expected = displacement_op(alpha, policy).mat @ v.amps
        assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("tail, degrees", [(1.01e-17, 101), (0.99e-17, 1)])
    def test_tail_just_above_the_bound_keeps_the_top_level(self, monkeypatch, tail, degrees):
        # unit amplitude on level 0 and `tail` on level 100: level 100 is
        # read while its norm is above 1e-17 of the vector's, dropped below
        amps = np.zeros(257, dtype=complex)
        amps[0], amps[100] = 1.0, tail
        seen = count_laguerre_rows(monkeypatch, fock)
        out = fock.displace(0.8j, fock.FockVector(amps, 256)).amps
        assert len(seen) == degrees
        monkeypatch.undo()
        expected = displacement_op(0.8j, fock.TruncationPolicy(256)).mat @ amps
        assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_matrix_reads_the_whole_triangle(self, monkeypatch):
        seen = count_laguerre_rows(monkeypatch, fock)
        displacement_op(1.5, fock.TruncationPolicy(cutoff=64))
        assert seen == list(range(65, 0, -1))


class TestAttenuation:
    def test_coherent_scaling_identity(self):
        # T^n |alpha> = exp(-|alpha|^2 (1-|T|^2)/2) |T alpha>, both sides numeric
        t, alpha = 1 / math.sqrt(2), 1.0
        lhs = np.diag(t ** np.arange(POLICY.dim)) @ fock.coherent_state(alpha, POLICY).amps
        rhs = (math.exp(-abs(alpha) ** 2 * (1 - abs(t) ** 2) / 2)
               * fock.coherent_state(t * alpha, POLICY).amps)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestQuadratureState:
    # <x,0|k> = phi_k(x), the oscillator eigenfunctions of hermite_functions
    def test_vacuum_wavefunction(self):
        x = 0.8
        overlap = fock.hermite_functions(x, POLICY.cutoff) @ fock.fock_state(0, POLICY).amps
        assert overlap == pytest.approx(np.pi ** -0.25 * math.exp(-x * x / 2))

    def test_odd_amplitude_vanishes_at_origin(self):
        assert fock.hermite_functions(0.0, POLICY.cutoff)[1] == 0.0

    def test_phase_factors(self):
        # <x,phi| = <x,0| exp(-i phi n) and exp(-i phi n)|alpha> = |alpha e^(-i phi)>
        alpha, phi = 1.2 + 0.4j, 0.9
        x_axis = phasespace.Axis("x", -5.0, 5.0, 41)
        rotated = phasespace.quadrature_dist(
            fock.coherent_state(alpha, POLICY),
            phasespace.PhaseGrid(x_axis, phasespace.Axis("phi", phi, phi, 1)))
        direct = phasespace.quadrature_dist(
            fock.coherent_state(alpha * np.exp(-1j * phi), POLICY),
            phasespace.PhaseGrid(x_axis, phasespace.Axis("phi", 0.0, 0.0, 1)))
        assert np.max(np.abs(rotated.values - direct.values)) < 1e-12

    def test_coherent_overlap_normalization(self):
        # int |<x,0|alpha>|^2 dx = 1 by trapezoidal quadrature
        coh = fock.coherent_state(1.0, POLICY)
        xs = np.linspace(-7, 7, 1401)
        dens = np.abs(coh.amps @ fock.hermite_functions(xs, POLICY.cutoff)) ** 2
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)

    def test_hermite_function_orthonormality(self):
        # int <x,phi|k><l|x,phi> dx = delta_kl for k, l <= 6
        xs = np.linspace(-8, 8, 1601)
        fn = fock.hermite_functions(xs, 6)
        gram = np.trapezoid(fn[:, None, :] * fn[None, :, :], xs, axis=-1)
        assert np.max(np.abs(gram - np.eye(7))) < 1e-6


class TestLinearAlgebra:
    def test_number_operator_eigenvalue(self):
        v = fock.apply(number_op(POLICY), fock.fock_state(3, POLICY))
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
            fock.apply(fock.identity_op(POLICY), fock.fock_state(0, other))
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
        op = fock.identity_op(POLICY)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 1.0


class TestDensityOperator:
    def test_rejects_unnormalized(self):
        mat = 2.0 * np.eye(POLICY.dim)
        with pytest.raises(ValueError):
            fock.DensityOperator(mat, POLICY.cutoff).validate()

    def test_rejects_non_hermitian(self):
        mat = np.eye(POLICY.dim, dtype=complex) / POLICY.dim
        mat[0, 1] = 0.5
        with pytest.raises(ValueError):
            fock.DensityOperator(mat, POLICY.cutoff).validate()

    def test_fidelity_with_pure(self):
        # <v| rho |v> = 1 for the projector onto a normalized v
        v = fock.coherent_state(0.6 - 0.3j, POLICY)
        rho = fock.DensityOperator.from_pure(v).validate()
        assert np.vdot(v.amps, rho.mat @ v.amps).real == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN passed every comparison and reached eigvalsh, which raised
        # LinAlgError after a RuntimeWarning
        mat = np.eye(POLICY.dim, dtype=complex) / POLICY.dim
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fock.DensityOperator(mat, POLICY.cutoff).validate()
