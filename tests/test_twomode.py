import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condibeam import conditional, fock, twomode
from condibeam.beamsplitter import BeamSplitterParams, ReferencePrep
from condibeam.errors import DegenerateBeamSplitterError, ZeroProbabilityError
from twomode_reference import (bs_unitary, bs_unitary_factored, sector_range,
                               sector_rotations, sector_rotations_full)

POLICY = fock.TruncationPolicy(cutoff=24)
HALF = POLICY.safe_levels


def two_mode_dense(bs, policy):
    return bs_unitary(bs, policy).matrix()


class TestBeamSplitterParams:
    def test_amplitudes(self):
        bs = BeamSplitterParams(math.pi / 4, 0.3, 1.1)
        t, r = bs.transmittance, bs.reflectance
        assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-14)
        assert np.angle(t) == pytest.approx(0.3)
        assert np.angle(r) == pytest.approx(1.1)

    def test_ordering_parameter(self):
        bs = BeamSplitterParams(math.pi / 4)
        assert bs.s == pytest.approx(3.0)  # |R|^2 = 1/2
        assert bs.s > 1.0

    def test_swapped_amplitudes(self):
        bs = BeamSplitterParams(0.7, 0.2, 1.9)
        sw = bs.swapped()
        assert sw.transmittance == pytest.approx(1j * bs.reflectance)
        assert sw.reflectance == pytest.approx(1j * bs.transmittance)


class TestBsUnitary:
    def test_identity_at_zero_angle(self):
        u = two_mode_dense(BeamSplitterParams(0.0), POLICY)
        assert np.max(np.abs(u - np.eye(POLICY.dim ** 2))) < 1e-12

    def test_coherent_state_mapping(self):
        # U |alpha>|0> = |T alpha>|-R* alpha>
        bs = BeamSplitterParams(math.pi / 4)
        alpha = 1.0
        state = twomode.product_state(fock.coherent_state(alpha, POLICY),
                                      fock.fock_state(0, POLICY))
        out = bs_unitary(bs, POLICY).apply(state)
        t, r = bs.transmittance, bs.reflectance
        expected = np.outer(fock.coherent_state(t * alpha, POLICY).amps,
                            fock.coherent_state(-np.conj(r) * alpha, POLICY).amps)
        assert np.max(np.abs(out.amps[:HALF, :HALF] - expected[:HALF, :HALF])) < 1e-8

    def test_unitarity_per_sector(self):
        # complete sectors are unitary; a truncated sector is the window of
        # the same sector at a cutoff where it is complete, hence a
        # compression of a unitary
        big = fock.TruncationPolicy(cutoff=48)
        for theta in (0.3, math.pi / 4, 1.2):
            bs = BeamSplitterParams(theta, 0.5, 1.3)
            u = bs_unitary(bs, POLICY)
            u_big = bs_unitary(bs, big)
            for total, block in enumerate(u.blocks):
                if total <= POLICY.cutoff:
                    gram = block.conj().T @ block
                    assert np.max(np.abs(gram - np.eye(block.shape[0]))) < 1e-12
                    continue
                lo, hi = total - POLICY.cutoff, POLICY.cutoff
                window = u_big.blocks[total][lo:hi + 1, lo:hi + 1]
                assert np.max(np.abs(block - window)) < 1e-13, (theta, total)
                assert np.linalg.norm(block, 2) <= 1.0 + 1e-12, (theta, total)

    def test_photon_number_conservation(self):
        pol = fock.TruncationPolicy(cutoff=10)
        u = two_mode_dense(BeamSplitterParams(0.9, 0.2, 0.7), pol)
        d = pol.dim
        total = np.add.outer(np.arange(d), np.arange(d)).ravel()
        off_block = u[~np.equal.outer(total, total)]
        assert np.max(np.abs(off_block)) < 1e-12

    def test_generator_vs_factored_form(self):
        # the factored route amplifies rounding by |T|^(-k2), so the 1e-8
        # agreement is asserted on a safe block small enough for the worst
        # angle (|T| = 0.36 at theta = 1.2)
        pol = fock.TruncationPolicy(cutoff=16)
        d, half = pol.dim, pol.safe_levels
        k1 = np.repeat(np.arange(d), d)
        k2 = np.tile(np.arange(d), d)
        safe = (k1 < half) & (k2 < half)
        for theta in (0.3, math.pi / 4, 1.2):
            bs = BeamSplitterParams(theta, 0.4, 2.0)
            gen = bs_unitary(bs, pol).matrix()
            fac = bs_unitary_factored(bs, pol).matrix()
            dev = np.max(np.abs(gen - fac)[np.ix_(safe, safe)])
            assert dev < 1e-8, (theta, dev)

    def test_generator_vs_factored_low_sectors(self):
        # moderate angles stay accurate on complete low sectors even at
        # larger cutoffs
        for theta in (0.3, math.pi / 4):
            bs = BeamSplitterParams(theta, 0.4, 2.0)
            gen = bs_unitary(bs, POLICY)
            fac = bs_unitary_factored(bs, POLICY)
            for total in range(HALF + 1):
                dev = np.max(np.abs(gen.blocks[total] - fac.blocks[total]))
                assert dev < 1e-10, (theta, total, dev)

    def test_factored_rejects_t_zero(self):
        with pytest.raises(DegenerateBeamSplitterError):
            bs_unitary_factored(BeamSplitterParams(math.pi / 2), POLICY)
        # the generator route handles a fully reflecting splitter fine
        u = bs_unitary(BeamSplitterParams(math.pi / 2), POLICY)
        state = twomode.product_state(fock.fock_state(1, POLICY),
                                      fock.fock_state(0, POLICY))
        out = u.apply(state)
        assert abs(abs(out.amps[0, 1]) - 1.0) < 1e-12


RECURRENCE_ANGLES = (0.3, math.pi / 4, 1.2, math.pi / 2, 3.0, -0.7)


def referee_sector(mpmath, theta, total, lo, hi):
    """R_total[p, k] for p, k in lo..hi as a 40-digit finite sum.

    U|k, M-k> = (c a1^dag - s a2^dag)^k (c a2^dag + s a1^dag)^(M-k) |0>
    / sqrt(k! (M-k)!); the coefficient of a1^dag^p a2^dag^(M-p) times
    sqrt(p! (M-p)!) is the element.
    """
    with mpmath.workdps(40):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        cpow = [c ** j for j in range(total + 1)]
        spow = [s ** j for j in range(total + 1)]
        out = np.zeros((hi - lo + 1, hi - lo + 1))
        for k in range(lo, hi + 1):
            first = [math.comb(k, i) * (-1) ** (k - i) * cpow[i] * spow[k - i]
                     for i in range(k + 1)]
            second = [math.comb(total - k, j) * spow[j] * cpow[total - k - j]
                      for j in range(total - k + 1)]
            for p in range(lo, hi + 1):
                coef = mpmath.fsum(first[i] * second[p - i]
                                   for i in range(max(0, p - total + k), min(k, p) + 1))
                scale = mpmath.sqrt(mpmath.mpf(math.factorial(p) * math.factorial(total - p))
                                    / (math.factorial(k) * math.factorial(total - k)))
                out[p - lo, k - lo] = float(coef * scale)
    return out


class TestSectorRecurrence:
    def test_every_element_matches_mpmath(self):
        # complete and truncated sectors alike hold exact elements
        mpmath = pytest.importorskip("mpmath")
        for theta in RECURRENCE_ANGLES:
            u = bs_unitary(BeamSplitterParams(theta), POLICY)
            for total, block in enumerate(u.blocks):
                lo, hi = max(0, total - POLICY.cutoff), min(total, POLICY.cutoff)
                ref = referee_sector(mpmath, theta, total, lo, hi)
                dev = np.max(np.abs(block - ref))
                assert dev < 1e-13, (theta, total, dev)

    def test_complete_sectors_unitary_at_cutoff_256(self):
        cutoff = 256
        for theta in RECURRENCE_ANGLES:
            for total, _, rot in sector_rotations(theta, cutoff, cutoff):
                if total > cutoff:
                    break
                dev = np.max(np.abs(rot.T @ rot - np.eye(total + 1)))
                assert dev < 1e-12, (theta, total, dev)


class TestEdgeSplitterWindows:
    """The oracle's side of the low-transmittance edge: banded windows near
    |T| = 0 and |R| = 0 against the 40-digit referee, element for element,
    sectors above the cutoff included."""

    @pytest.mark.parametrize("theta", [math.acos(t) for t in (1e-4, 1e-6, 1e-8)]
                             + [math.asin(r) for r in (1e-4, 1e-8)],
                             ids=["T=1e-4", "T=1e-6", "T=1e-8", "R=1e-4", "R=1e-8"])
    def test_banded_windows_match_mpmath(self, theta):
        mpmath = pytest.importorskip("mpmath")
        cutoff, band, totals = 64, 8, {3, 8, 40, 64, 65, 68, 72}
        checked = 0
        for total, lo, rot in sector_rotations(theta, cutoff, band):
            if total in totals:
                ref = referee_sector(mpmath, theta, total, lo, lo + len(rot) - 1)
                dev = np.max(np.abs(rot - ref))
                assert dev <= 1e-13, (total, dev)
                checked += 1
        assert checked == len(totals)


class TestBandedSectors:
    @pytest.mark.parametrize("cutoff", [24, 96, 256])
    def test_windows_match_full_recurrence(self, cutoff):
        # every banded window is the corner of the full window that keeps
        # the reference indices <= band, element for element
        bands = sorted({0, 3, 20, cutoff})
        for theta in RECURRENCE_ANGLES:
            streams = {band: sector_rotations(theta, cutoff, band)
                       for band in bands}
            for total, ref_lo, ref in sector_rotations_full(theta, cutoff):
                for band, stream in streams.items():
                    if total > cutoff + band:
                        continue
                    got_total, lo, rot = next(stream)
                    assert got_total == total and lo == max(0, total - band)
                    assert rot.shape == (min(cutoff, total) - lo + 1,) * 2
                    cut = lo - ref_lo
                    dev = np.max(np.abs(rot - ref[cut:, cut:]))
                    assert dev <= 1e-15, (theta, band, total, dev)
            for band, stream in streams.items():
                assert next(stream, None) is None, (theta, band)


BALANCED = BeamSplitterParams(math.pi / 4, 0.37, 1.3)

# reference pairs with the band L the oracle serves them on
BANDED_PAIRS = {
    "demo": (ReferencePrep.fock(2, 0.3), ReferencePrep.fock(1, 0.2), BALANCED, 20),
    "low-reflectance": (ReferencePrep.fock(2, 0.3), ReferencePrep.fock(2, 0.2),
                        BeamSplitterParams(0.2, 0.37, 1.3), 20),
    "large-displacement": (ReferencePrep.fock(1, 1.5), ReferencePrep.fock(0, 1.2),
                           BALANCED, 41),
    "undisplaced": (ReferencePrep.fock(3), ReferencePrep.fock(2), BALANCED, 3),
}


def dense_contraction(prep_in, prep_out, bs, policy):
    """<j| <v_out| U |i> |v_in> from the dense sector blocks of the unitary."""
    vin, vout = prep_in.state(policy).amps, prep_out.state(policy).amps
    y = np.zeros((policy.dim, policy.dim), dtype=complex)
    for total, block in enumerate(bs_unitary(bs, policy).blocks):
        lo, hi = sector_range(total, policy.cutoff)
        k2 = total - np.arange(lo, hi + 1)
        y[lo:hi + 1, lo:hi + 1] += np.outer(vout[k2].conj(), vin[k2]) * block
    return y


def tail_bound(prep_in, prep_out, policy):
    """The band L of the pair and the a-priori bound on the norm of the part
    of Y that the reference levels above L carry."""
    vin, vout = prep_in.state(policy).amps, prep_out.state(policy).amps
    band = max(fock._numerical_top(vin), fock._numerical_top(vout))
    norm = np.linalg.norm
    return band, (norm(vout[band + 1:]) * norm(vin) + norm(vout) * norm(vin[band + 1:]))


def count_windows(monkeypatch):
    """Record (total, window size) of every sector window the stream yields."""
    seen = []
    original = twomode._sector_windows

    def counting(theta, cutoff, band, last):
        for first, windows in original(theta, cutoff, band, last):
            seen.extend((total, window[1:, 1:].size) for total, window in enumerate(windows, first))
            yield first, windows

    monkeypatch.setattr(twomode, "_sector_windows", counting)
    return seen


class TestBandedOracle:
    @pytest.mark.parametrize("cutoff", [64, 96])
    @pytest.mark.parametrize("name", BANDED_PAIRS)
    def test_matches_dense_contraction(self, name, cutoff):
        prep_in, prep_out, bs, expected_band = BANDED_PAIRS[name]
        policy = fock.TruncationPolicy(cutoff)
        band, bound = tail_bound(prep_in, prep_out, policy)
        assert band == expected_band
        y = twomode.oracle_y(prep_in, prep_out, bs, policy).mat
        dev = np.linalg.norm(y - dense_contraction(prep_in, prep_out, bs, policy), 2)
        assert dev <= bound + 1e-14, (name, dev, bound)

    @pytest.mark.parametrize("name", ["demo", "large-displacement"])
    def test_band_holds_all_but_the_tail_bound(self, name):
        # the diagonals -L_out..L_in of the references' own numerical tops;
        # each column of the dense contraction holds at most the oracle's
        # bound outside them
        prep_in, prep_out, bs, _ = BANDED_PAIRS[name]
        policy = fock.TruncationPolicy(64)
        y = twomode.oracle_y(prep_in, prep_out, bs, policy)
        vin, vout = prep_in.state(policy).amps, prep_out.state(policy).amps
        assert (y.below, y.above) == (fock._numerical_top(vin), fock._numerical_top(vout))
        assert 0.0 < y.tail <= 2e-17
        dense = dense_contraction(prep_in, prep_out, bs, policy)
        j, k = np.indices(dense.shape)
        outside = np.where((j - k > y.below) | (k - j > y.above), dense, 0.0)
        assert np.linalg.norm(outside, axis=0).max() <= y.tail
        assert np.max(np.abs(y.mat - (dense - outside))) <= 1e-15

    def test_vacuum_references_use_band_zero(self, monkeypatch):
        bs = BeamSplitterParams(1.0, 0.3, 0.8)
        seen = count_windows(monkeypatch)
        y = twomode.oracle_y(ReferencePrep.vacuum(), ReferencePrep.vacuum(), bs, POLICY)
        assert seen == [(total, 1) for total in range(POLICY.cutoff + 1)]
        expected = np.diag(bs.transmittance ** np.arange(POLICY.dim))
        assert np.max(np.abs(y.mat - expected)) < 1e-12

    def test_support_at_the_cutoff_keeps_every_window(self):
        # D(1.5)|1> needs levels up to 41 for a 1e-17 tail: at cutoff 24
        # the band is the cutoff and the windows are the full ones
        prep_in, prep_out, bs, _ = BANDED_PAIRS["large-displacement"]
        policy = fock.TruncationPolicy(cutoff=24, tail_tol=1e-6)
        band, bound = tail_bound(prep_in, prep_out, policy)
        assert band == policy.cutoff and bound == 0.0
        y = twomode.oracle_y(prep_in, prep_out, bs, policy).mat
        assert np.max(np.abs(y - dense_contraction(prep_in, prep_out, bs, policy))) <= 1e-15

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2], ids=["R=0", "T=0"])
    def test_extreme_splitters(self, theta):
        prep_in, prep_out, _, _ = BANDED_PAIRS["demo"]
        bs = BeamSplitterParams(theta, 0.37, 1.3)
        policy = fock.TruncationPolicy(cutoff=64)
        _, bound = tail_bound(prep_in, prep_out, policy)
        y = twomode.oracle_y(prep_in, prep_out, bs, policy).mat
        dev = np.linalg.norm(y - dense_contraction(prep_in, prep_out, bs, policy), 2)
        assert dev <= bound + 1e-14
        vin, vout = prep_in.state(policy).amps, prep_out.state(policy).amps
        k = np.arange(policy.dim)
        if theta == 0.0:
            # U|k1, k2> = exp(i phi_t (k1 - k2)) |k1, k2>: Y is diagonal
            overlap = np.vdot(vout, np.exp(-1j * bs.phi_t * k) * vin)
            expected = np.diag(np.exp(1j * bs.phi_t * k) * overlap)
            assert np.max(np.abs(y - expected)) < 1e-13
        else:
            # the modes swap: Y[j, i] = vin[j] conj(vout[i]) up to a phase per element
            assert np.linalg.matrix_rank(y, tol=1e-12) == 1
            assert np.allclose(np.abs(y), np.abs(np.outer(vin, vout.conj())), atol=1e-15)


class TestSectorCost:
    def test_oracle_windows_stay_in_the_band(self, monkeypatch):
        # the shipped demo's references at cutoff 384: O(N L^2) elements,
        # not the O(N^3) of every window
        policy = fock.TruncationPolicy(cutoff=384)
        prep_in, prep_out = ReferencePrep.fock(2, 0.3), ReferencePrep.fock(1, -0.2j)
        band, _ = tail_bound(prep_in, prep_out, policy)
        assert band == 20
        seen = count_windows(monkeypatch)
        twomode.oracle_y(prep_in, prep_out, BeamSplitterParams(math.pi / 4, 0.4, 1.1),
                         policy)
        assert len(seen) == policy.cutoff + band + 1
        assert sum(size for _, size in seen) <= (policy.cutoff + band + 1) * (band + 1) ** 2

    def test_conditional_reduce_stops_at_its_top_sector(self, monkeypatch):
        # |3>|2> occupies sector 5 only: the stream ends there
        state = twomode.product_state(fock.fock_state(3, POLICY), fock.fock_state(2, POLICY))
        seen = count_windows(monkeypatch)
        twomode.conditional_reduce(state, fock.identity_op(POLICY),
                                   BeamSplitterParams(0.8, 0.1, 1.5), POLICY)
        assert [total for total, _ in seen] == list(range(6))


class TestOracleY:
    def test_vacuum_vacuum_is_attenuation(self):
        bs = BeamSplitterParams(1.0, 0.3, 0.8)
        y = twomode.oracle_y(ReferencePrep.vacuum(), ReferencePrep.vacuum(), bs, POLICY)
        expected = np.diag(bs.transmittance ** np.arange(POLICY.dim))
        assert np.max(np.abs(y.mat - expected)) < 1e-12

    def test_photon_subtraction(self):
        bs = BeamSplitterParams(math.pi / 3, 0.9, 0.1)
        y = twomode.oracle_y(ReferencePrep.vacuum(), ReferencePrep.fock(1), bs, POLICY)
        t, r = bs.transmittance, bs.reflectance
        expected = ((-np.conj(r) / t) * fock.annihilation_op(POLICY).mat
                    @ np.diag(t ** np.arange(POLICY.dim)))
        assert np.max(np.abs(y.mat - expected)) < 1e-12


class TestPhotonCountingPovm:
    def test_unit_efficiency_projectors(self):
        povm = twomode.photon_counting_povm(1.0, POLICY)
        assert np.array_equal(povm.weights, np.eye(POLICY.dim))
        assert np.allclose(povm.element(3).mat,
                           np.diag(np.eye(POLICY.dim)[3]).astype(complex))

    def test_binomial_element(self):
        povm = twomode.photon_counting_povm(0.6, POLICY)
        assert povm.weights[1, 2] == pytest.approx(2 * 0.6 * 0.4)

    def test_completeness_exact(self):
        for eta in (0.25, 0.6, 0.99):
            povm = twomode.photon_counting_povm(eta, POLICY)
            assert np.max(np.abs(povm.weights.sum(axis=0) - 1.0)) < 1e-12

    @given(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_completeness_property(self, eta):
        povm = twomode.photon_counting_povm(eta, POLICY)
        assert np.max(np.abs(povm.weights.sum(axis=0) - 1.0)) < 1e-12

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            twomode.photon_counting_povm(0.0, POLICY)
        with pytest.raises(ValueError):
            twomode.photon_counting_povm(1.2, POLICY)


class TestConditionalReduce:
    def test_identity_povm_gives_partial_trace(self):
        bs = BeamSplitterParams(0.8, 0.1, 1.5)
        psi = fock.normalize(fock.FockVector(
            np.concatenate([[0.6, 0.5j, -0.4, 0.3], np.zeros(POLICY.dim - 4)]),
            POLICY.cutoff))
        ref = fock.coherent_state(0.5, POLICY)
        state = twomode.product_state(psi, ref)
        rho, p = twomode.conditional_reduce(state, fock.identity_op(POLICY), bs, POLICY)
        assert p == pytest.approx(1.0, abs=1e-12)
        # independent partial trace of the propagated state
        out = bs_unitary(bs, POLICY).apply(state).amps
        expected = out @ out.conj().T
        assert np.max(np.abs(rho.mat - expected)) < 1e-12

    def test_vacuum_in_vacuum_detected(self):
        bs = BeamSplitterParams(1.1)
        state = twomode.product_state(fock.fock_state(0, POLICY),
                                      fock.fock_state(0, POLICY))
        povm = twomode.photon_counting_povm(1.0, POLICY)
        rho, p = twomode.conditional_reduce(state, povm.element(0), bs, POLICY)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert rho.mat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability(self):
        # theta = 0: nothing reaches the reference detector
        state = twomode.product_state(fock.fock_state(0, POLICY),
                                      fock.fock_state(0, POLICY))
        povm = twomode.photon_counting_povm(1.0, POLICY)
        with pytest.raises(ZeroProbabilityError):
            twomode.conditional_reduce(state, povm.element(3),
                                       BeamSplitterParams(0.0), POLICY)

    def test_density_matrix_is_physical(self):
        bs = BeamSplitterParams(0.7, 0.9, 0.2)
        state = twomode.product_state(fock.fock_state(3, POLICY),
                                      fock.coherent_state(0.4j, POLICY))
        povm = twomode.photon_counting_povm(0.8, POLICY)
        rho, p = twomode.conditional_reduce(state, povm.element(1), bs, POLICY)
        assert 0.0 < p <= 1.0 + 1e-9
        assert abs(np.trace(rho.mat) - 1.0) < 1e-10
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho.mat).min() > -1e-10

    def test_outcome_probabilities_sum_to_one(self):
        bs = BeamSplitterParams(1.0, 0.0, 0.4)
        povm = twomode.photon_counting_povm(0.7, POLICY)
        signal = fock.fock_state(2, POLICY)
        state = twomode.product_state(signal, fock.coherent_state(0.6, POLICY))
        total = 0.0
        for outcome in range(POLICY.dim):
            try:
                _, p = twomode.conditional_reduce(state, povm.element(outcome),
                                                  bs, POLICY)
            except ZeroProbabilityError:
                p = 0.0
            total += p
        assert total == pytest.approx(1.0, abs=1e-10)


class TestApplyConditionalMixed:
    """The closed-form Kraus map against the two-mode POVM route."""

    def test_singleton_matches_pure(self):
        bs = BeamSplitterParams(math.pi / 3, 0.5, 1.0)
        psi = fock.normalize(fock.FockVector(
            np.concatenate([[1.0, 0.7j, -0.2], np.zeros(POLICY.dim - 3)]),
            POLICY.cutoff))
        prep_in = ReferencePrep.fock(1)
        prep_out = ReferencePrep.fock(2)
        rho_mixed, p_mixed = conditional.apply_conditional_mixed(
            fock.DensityOperator.from_pure(psi),
            [(1.0, prep_in)], [(1.0, prep_out)], bs, POLICY)
        proj_state = prep_out.state(POLICY)
        proj = fock.FockOperator(np.outer(proj_state.amps, proj_state.amps.conj()),
                                 POLICY.cutoff)
        rho_pure, p_pure = twomode.conditional_reduce(
            twomode.product_state(psi, prep_in.state(POLICY)), proj, bs, POLICY)
        assert abs(p_mixed - p_pure) < 1e-10
        assert np.max(np.abs(rho_mixed.mat - rho_pure.mat)) < 1e-10

    def test_povm_decomposition_route(self):
        # inefficient detection of outcome 1, decomposed over Fock projectors
        bs = BeamSplitterParams(math.pi / 4)
        eta = 0.8
        povm = twomode.photon_counting_povm(eta, POLICY)
        signal = fock.fock_state(2, POLICY)
        rho_direct, p_direct = twomode.conditional_reduce(
            twomode.product_state(signal, fock.fock_state(0, POLICY)),
            povm.element(1), bs, POLICY)
        # the two-photon signal only reaches detector levels k <= 2, so
        # capping the decomposition at the safe block keeps equality exact
        meas = [(float(w), ReferencePrep.fock(k))
                for k, w in enumerate(povm.weights[1]) if w > 0 and k <= HALF]
        rho_mixed, p_mixed = conditional.apply_conditional_mixed(
            fock.DensityOperator.from_pure(signal),
            [(1.0, ReferencePrep.vacuum())], meas, bs, POLICY)
        assert abs(p_direct - p_mixed) < 1e-12
        assert np.max(np.abs(rho_direct.mat - rho_mixed.mat)) < 1e-12

    def test_weight_validation(self):
        rho = fock.DensityOperator.from_pure(fock.fock_state(0, POLICY))
        with pytest.raises(ValueError):
            conditional.apply_conditional_mixed(
                rho, [(0.5, ReferencePrep.vacuum())],
                [(1.0, ReferencePrep.vacuum())],
                BeamSplitterParams(1.0), POLICY)
