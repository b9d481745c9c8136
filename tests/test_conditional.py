import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from condibeam import cats, conditional, fock, twomode
from condibeam.beamsplitter import BeamSplitterParams, OperatorPolynomial, ReferencePrep
from condibeam.errors import (
    CutoffMismatchError,
    DegenerateBeamSplitterError,
    DomainError,
    TruncationError,
    ZeroProbabilityError,
)
from test_fock import count_laguerre_rows, displacement_op
from test_twomode import dense_contraction, tail_bound
from twomode_reference import bs_unitary, conditional_reduce_mixed

POLICY = fock.TruncationPolicy(cutoff=48)
POLICY24 = fock.TruncationPolicy(cutoff=24)
BS = BeamSplitterParams(math.pi / 3, 0.4, 1.1)
K = np.arange(POLICY.dim)


def full_rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_signal(rng, max_photons=6):
    amps = np.zeros(POLICY.dim, dtype=complex)
    amps[: max_photons + 1] = (rng.normal(size=max_photons + 1)
                               + 1j * rng.normal(size=max_photons + 1))
    return fock.normalize(fock.FockVector(amps, POLICY.cutoff))


class TestYDisplacedFock:
    def test_vacuum_vacuum_is_attenuation(self):
        y = conditional.y_displaced_fock(0, 0, 0j, 0j, BS, POLICY)
        assert np.allclose(y.mat, np.diag(BS.transmittance ** K))

    def test_photon_subtraction(self):
        y = conditional.y_displaced_fock(0, 1, 0j, 0j, BS, POLICY)
        t, r = BS.transmittance, BS.reflectance
        expected = (-np.conj(r) / t) * fock.annihilation_op(POLICY).mat @ np.diag(t ** K)
        assert np.max(np.abs(y.mat - expected)) < 1e-12
        # and it matches the contracted unitary matrix elements
        oracle = twomode.oracle_y(ReferencePrep.vacuum(), ReferencePrep.fock(1),
                                  BS, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12

    def test_displaced_case_matches_oracle(self):
        bs = BeamSplitterParams(math.pi / 4)
        y = conditional.y_displaced_fock(2, 1, 0.3, -0.2j, bs, POLICY)
        oracle = twomode.oracle_y(ReferencePrep.fock(2, 0.3),
                                  ReferencePrep.fock(1, -0.2j), bs, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12

    def test_degenerate_splitter_rejected(self):
        with pytest.raises(DegenerateBeamSplitterError):
            conditional.y_displaced_fock(0, 0, 0j, 0j,
                                         BeamSplitterParams(0.0), POLICY)
        with pytest.raises(DegenerateBeamSplitterError):
            conditional.y_displaced_fock(0, 0, 0j, 0j,
                                         BeamSplitterParams(math.pi / 2), POLICY)

    def test_fock_index_budget(self):
        # m = 13, above the former cutoff/4 rule at cutoff 48: Y is exact on
        # the full block, and only a negative index is refused
        y = conditional.y_displaced_fock(13, 0, 0.3j, 0.2, BS, POLICY)
        oracle = twomode.oracle_y(ReferencePrep.fock(13, 0.3j), ReferencePrep.fock(0, 0.2),
                                  BS, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12
        with pytest.raises(ValueError):
            conditional.y_displaced_fock(-1, 0, 0j, 0j, BS, POLICY)

    def test_detected_photons_above_the_working_levels(self):
        # a^60 T^n annihilates every level of the compression onto 0..48; the
        # band's diagonal lies wholly outside the working levels
        y = conditional.y_displaced_fock(0, 60, 0j, 0j, BS, POLICY)
        assert not np.any(y.mat)
        assert not np.any(y.apply(fock.fock_state(48, POLICY)).amps)

    def test_displacement_budget(self):
        with pytest.raises(TruncationError):
            conditional.y_displaced_fock(0, 0, 5.5, 0j, BS, POLICY)


class TestYGeneral:
    def test_both_vacuum(self):
        y = conditional.y_general(OperatorPolynomial.one(),
                                  OperatorPolynomial.one(), BS, POLICY)
        assert np.allclose(y.mat, np.diag(BS.transmittance ** K))

    def test_two_photon_addition(self):
        # F adds two photons, G detects vacuum: (R^2/sqrt(2)) (a^dag)^2 T^n
        y = conditional.y_general(OperatorPolynomial.fock_monomial(2),
                                  OperatorPolynomial.one(), BS, POLICY)
        r = BS.reflectance
        adag = fock.creation_op(POLICY).mat
        expected = (r ** 2 / math.sqrt(2)) * adag @ adag @ np.diag(BS.transmittance ** K)
        assert np.max(np.abs(y.mat - expected)) < 1e-12
        oracle = twomode.oracle_y(ReferencePrep.fock(2), ReferencePrep.vacuum(),
                                  BS, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12

    def test_matches_displaced_fock_at_zero_displacement(self):
        for m in range(4):
            for n in range(4):
                yg = conditional.y_general(OperatorPolynomial.fock_monomial(m),
                                           OperatorPolynomial.fock_monomial(n),
                                           BS, POLICY)
                yf = conditional.y_displaced_fock(m, n, 0j, 0j, BS, POLICY)
                assert np.max(np.abs(yg.mat - yf.mat)) < 1e-12

    def test_degree_budget(self):
        # deg F + deg G = 40, above the former half-cutoff block at cutoff 48:
        # the full block matches the oracle
        big = OperatorPolynomial(tuple([0.0] * 20 + [1.0])).normalized()
        y = conditional.y_general(big, big, BS, POLICY)
        oracle = twomode.oracle_y(ReferencePrep(big), ReferencePrep(big), BS, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12


class TestYDisplacedGeneral:
    def test_reduces_to_general(self):
        f = OperatorPolynomial((1.0, 0.5j))
        g = OperatorPolynomial((1.0, -0.2))
        ya = conditional.y_displaced_general(ReferencePrep(f), ReferencePrep(g),
                                             BS, POLICY)
        yb = conditional.y_general(f, g, BS, POLICY)
        assert np.allclose(ya.mat, yb.mat)

    def test_pure_displacement_sandwich(self):
        beta = 0.4 - 0.1j
        y = conditional.y_displaced_general(ReferencePrep.vacuum(),
                                            ReferencePrep.coherent(beta),
                                            BS, POLICY)
        t, r = BS.transmittance, BS.reflectance
        expected = (displacement_op(-t * beta / np.conj(r), POLICY).mat
                    @ np.diag(t ** K)
                    @ displacement_op(beta / np.conj(r), POLICY).mat)
        assert np.max(np.abs(y.mat - expected)) < 1e-12

    def test_random_config_matches_oracle(self):
        prep_in = ReferencePrep(OperatorPolynomial((0.7, -0.2j, 0.3)).normalized(), 0.4)
        prep_out = ReferencePrep(OperatorPolynomial((1.0, 0.5)).normalized(), 0.3j)
        bs = BeamSplitterParams(math.pi / 3)
        y = conditional.y_displaced_general(prep_in, prep_out, bs, POLICY)
        oracle = twomode.oracle_y(prep_in, prep_out, bs, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12


class TestApplyConditional:
    def test_attenuated_vacuum_is_certain(self):
        y = conditional.y_displaced_fock(0, 0, 0j, 0j, BS, POLICY)
        out, p = conditional.apply_conditional(y, fock.fock_state(0, POLICY))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert abs(out.amps[0]) == pytest.approx(1.0)

    def test_cannot_subtract_from_vacuum(self):
        y = conditional.y_displaced_fock(0, 1, 0j, 0j, BS, POLICY)
        with pytest.raises(ZeroProbabilityError):
            conditional.apply_conditional(y, fock.fock_state(0, POLICY))

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = random_signal(rng)
            y = conditional.y_displaced_fock(1, 2, 0.2, 0.3j, BS, POLICY)
            _, p = conditional.apply_conditional(y, psi)
            assert 0.0 < p <= 1.0 + 1e-9


class TestOracleEquivalence:
    def test_random_displaced_fock_configs(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            m, n = (int(v) for v in rng.integers(0, 5, 2))
            alpha = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
            beta = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
            theta = rng.choice([math.pi / 4, math.pi / 3, 1.0])
            bs = BeamSplitterParams(theta, rng.uniform(0, 2 * math.pi),
                                    rng.uniform(0, 2 * math.pi))
            y = conditional.y_displaced_fock(m, n, alpha, beta, bs, POLICY)
            oracle = twomode.oracle_y(ReferencePrep.fock(m, alpha),
                                      ReferencePrep.fock(n, beta), bs, POLICY)
            assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12

    def test_probability_matches_born_rule(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            psi = random_signal(rng)
            m, n = (int(v) for v in rng.integers(0, 4, 2))
            alpha = 0.4 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            beta = 0.4 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            bs = BeamSplitterParams(1.0, rng.uniform(0, 6.28), rng.uniform(0, 6.28))
            y = conditional.y_displaced_fock(m, n, alpha, beta, bs, POLICY)
            _, p_closed = conditional.apply_conditional(y, psi)
            prep_out = ReferencePrep.fock(n, beta)
            proj_state = prep_out.state(POLICY)
            proj = fock.FockOperator(np.outer(proj_state.amps, proj_state.amps.conj()),
                                     POLICY.cutoff)
            two = twomode.product_state(psi, ReferencePrep.fock(m, alpha).state(POLICY))
            _, p_oracle = twomode.conditional_reduce(two, proj, bs, POLICY)
            assert abs(p_closed - p_oracle) < 1e-8


class TestContractivity:
    def test_largest_singular_value_bounded(self):
        # normalized references cannot amplify probability
        rng = np.random.default_rng(5)
        for _ in range(5):
            m, n = (int(v) for v in rng.integers(0, 4, 2))
            bs = BeamSplitterParams(rng.choice([math.pi / 4, 1.0]),
                                    rng.uniform(0, 6.28), rng.uniform(0, 6.28))
            y = conditional.y_displaced_fock(m, n, 0.3, -0.2j, bs, POLICY)
            top = np.linalg.svd(y.mat, compute_uv=False)[0]
            assert top <= 1.0 + 1e-6


POLICY32 = fock.TruncationPolicy(cutoff=32)


@st.composite
def oracle_configs(draw, ends=False):
    """A random beam splitter and displaced Fock references D(alpha)|m>, D(beta)|n>
    with theta in [0, pi/2], m, n <= 3 and |alpha|, |beta| <= 0.5.  Without
    ``ends`` a splitter the closed form refuses (|T| or |R| below 1e-15, at
    either end) is rejected."""
    phase = st.floats(0.0, 2 * math.pi)
    bs = BeamSplitterParams(draw(st.floats(0.0, math.pi / 2)), draw(phase), draw(phase))
    if not ends:
        try:
            bs.require_nondegenerate()
        except DegenerateBeamSplitterError:
            reject()
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    alpha = draw(st.floats(0.0, 0.5)) * np.exp(1j * draw(phase))
    beta = draw(st.floats(0.0, 0.5)) * np.exp(1j * draw(phase))
    return m, n, alpha, beta, bs


# oracle_configs with both ends of [0, pi/2] included: the oracle alone holds
# at R = 0 and T = 0, where the closed form is refused
splitter_edge_configs = oracle_configs(ends=True)


class TestOracleInvariants:
    @given(splitter_edge_configs, st.integers(16, 256))
    # |beta|^2 = 4.9e-324 is subnormal: its tail mass was NaN (a log of 0)
    @example((1, 2, 0.3, 1.786e-162, BeamSplitterParams(0.7, 1.0, 2.0)), 32)
    @example((2, 3, 0.4, -0.3j, BeamSplitterParams(0.0, 0.4, 1.1)), 48)
    @example((2, 3, 0.4, -0.3j, BeamSplitterParams(math.pi / 2, 0.4, 1.1)), 48)
    @settings(max_examples=25, deadline=None)
    def test_oracle_is_a_contraction(self, config, cutoff):
        # Y compresses the unitary between normalized references
        m, n, alpha, beta, bs = config
        y = twomode.oracle_y(ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta),
                             bs, fock.TruncationPolicy(cutoff))
        assert np.linalg.norm(y.mat, 2) <= 1.0 + 1e-12

    @given(splitter_edge_configs, st.integers(16, 64))
    @example((2, 3, 0.4, -0.3j, BeamSplitterParams(0.0, 0.4, 1.1)), 24)
    @example((2, 3, 0.4, -0.3j, BeamSplitterParams(math.pi / 2, 0.4, 1.1)), 24)
    @settings(max_examples=25, deadline=None)
    def test_oracle_matches_dense_contraction(self, config, cutoff):
        # the banded oracle, element for element, against the references
        # contracted with every sector block of the unitary.  The two routes
        # round the phases exp(i phi k), arguments up to ~2 pi cutoff, in
        # different products: up to 9.4e-16 per level of cutoff in 1500 draws
        m, n, alpha, beta, bs = config
        prep_in, prep_out = ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta)
        policy = fock.TruncationPolicy(cutoff)
        y = twomode.oracle_y(prep_in, prep_out, bs, policy).mat
        _, bound = tail_bound(prep_in, prep_out, policy)
        dev = np.max(np.abs(y - dense_contraction(prep_in, prep_out, bs, policy)))
        assert dev <= bound + 2e-15 * cutoff

    @pytest.mark.parametrize("beta", [1.786e-162, 1e-155j])
    def test_subnormal_displacement_is_undisplaced(self, beta):
        # |beta|^2 below the smallest normal float: both routes give the Y of
        # the undisplaced references to rounding, with no warning
        bs = BeamSplitterParams(0.7, 1.0, 2.0)
        y = conditional.y_displaced_fock(1, 2, 0.0, beta, bs, POLICY32).mat
        y0 = conditional.y_displaced_fock(1, 2, 0.0, 0.0, bs, POLICY32).mat
        assert np.max(np.abs(y - y0)) < 1e-14
        oracle = twomode.oracle_y(ReferencePrep.fock(1), ReferencePrep.fock(2, beta),
                                  bs, POLICY32).mat
        oracle0 = twomode.oracle_y(ReferencePrep.fock(1), ReferencePrep.fock(2),
                                   bs, POLICY32).mat
        assert np.max(np.abs(oracle - oracle0)) < 1e-14

    @given(oracle_configs(), st.integers(16, 256))
    # the pinned draw of the defect this test recorded while the inner index
    # stopped at the cutoff (0.47 off on the full block at cutoff 32)
    @example((3, 3, 0.5, -0.5, BeamSplitterParams(0.5)), 32)
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_oracle_on_full_block(self, config, cutoff):
        m, n, alpha, beta, bs = config
        try:
            y = conditional.y_displaced_fock(m, n, alpha, beta, bs,
                                             fock.TruncationPolicy(cutoff))
        except TruncationError:
            reject()  # a refused displacement budget is a defined outcome
        # the oracle holds its references on its own levels: at cutoff 16,
        # D(0.5)|3> has 4.6e-9 of its norm above them, so it runs on 32 at least
        oracle = twomode.oracle_y(ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta),
                                  bs, fock.TruncationPolicy(max(cutoff, 32)))
        block = oracle.mat[:cutoff + 1, :cutoff + 1]
        assert full_rel_frobenius(y.mat, block) <= 1e-12


class TestBandForm:
    """Y on its diagonals -L_out..L_in, the form ``y-matrix`` runs on."""

    @given(oracle_configs(), st.integers(16, 128))
    # a nearly degenerate top, sigma_0 / sigma_1 - 1 = 3.2e-5: Lanczos runs
    # all cutoff + 1 = 193 steps
    @example((2, 1, 0.3, -0.2j, BeamSplitterParams(0.05, 0.4, 1.1)), 192)
    # undisplaced m = 0, n = cutoff: the single nonzero element Y[0, cutoff]
    @example((0, 32, 0.0, 0.0, BeamSplitterParams(math.pi / 4, 0.4, 1.1)), 32)
    @settings(max_examples=25, deadline=None)
    def test_band_matches_the_dense_routes(self, config, cutoff):
        m, n, alpha, beta, bs = config
        try:
            y = conditional.y_displaced_fock(m, n, alpha, beta, bs, fock.TruncationPolicy(cutoff))
        except TruncationError:
            reject()  # a refused displacement budget is a defined outcome
        band = y.band
        mat = band.mat
        # the band is .mat's diagonals k - j = above - c, and holds all of it
        for c in range(band.diagonals.shape[1]):
            d = band.above - c
            rows = slice(max(0, -d), cutoff + 1 - max(0, d))
            assert np.array_equal(np.diagonal(mat, d), band.diagonals[rows, c])
        assert np.count_nonzero(mat) == np.count_nonzero(band.diagonals)
        # apply's factored product on every basis vector, to rounding and the
        # out-of-band bound
        image = y._image(np.eye(cutoff + 1))
        spill = math.sqrt(cutoff + 1) * band.tail
        assert np.linalg.norm(mat - image) <= 1e-13 * np.linalg.norm(image) + spill
        # the y-matrix route's largest singular value against a dense SVD
        top = np.linalg.svd(mat, compute_uv=False)[0]
        sigma = band.largest_singular_value()
        assert abs(sigma - top) <= 1e-12 * top
        assert sigma <= 1.0 + 1e-12

    def test_band_at_cutoff_2048_is_built_from_banded_tables(self, monkeypatch):
        # the demo references at cutoff 2048: D(right) and D(-left) from one
        # Laguerre recurrence of cutoff + 1 rows, each the K + 1 offsets of both
        # arguments, K from the working-level bound; the references' own
        # amplitudes read their degrees 0..m only.  No dense D(alpha) table
        # and no (W + 1) x (N + 1) array
        def refuse(*args, **kwargs):
            raise AssertionError("dense displacement table built for the band")

        cutoff = 2048
        policy = fock.TruncationPolicy(cutoff)
        bs = BeamSplitterParams(math.pi / 4, 0.4, 1.1)
        y = conditional.y_displaced_fock(2, 1, 0.3, -0.2j, bs, policy)
        width = max(policy.working_levels(a, cutoff, 0) for a in (y.left, y.right)) - cutoff
        monkeypatch.setattr(fock.TruncationPolicy, "working_factors", refuse)
        calls = []
        original = fock.laguerre_rows

        def recording(nmax, x, *args):
            calls.append((args, []))
            for row in original(nmax, x, *args):
                calls[-1][1].append(row.shape)
                yield row

        monkeypatch.setattr(fock, "laguerre_rows", recording)
        tracemalloc.start()
        try:
            band = y.band
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        banded = [shapes for args, shapes in calls if args]
        assert len(banded) == 1 and banded[0] == [(2, width + 1)] * (cutoff + 1)
        assert sorted(len(shapes) for args, shapes in calls if not args) == [2, 3]
        assert peak < 4 * (cutoff + 1) ** 2  # half of one real (N + 1) x (N + 1) array
        monkeypatch.undo()
        # against the dense route on the first levels, which the cutoff does not reach
        image = y._image(np.eye(65))[:65]
        assert np.linalg.norm(band.mat[:65, :65] - image[:65]) <= 1e-13 * np.linalg.norm(image)

    def test_undisplaced_references_fill_one_diagonal(self):
        # |2> in, |1> detected: Y adds exactly m - n = 1 photon, so of the
        # L_in + L_out + 1 = 4 diagonals only k - j = -1 holds elements, and
        # the references have no tail
        band = conditional.y_displaced_fock(2, 1, 0j, 0j, BS, POLICY).band
        assert (band.above, band.below, band.tail) == (1, 2, 0.0)
        nonzero = [band.above - c for c in range(4) if band.diagonals[:, c].any()]
        assert nonzero == [-1]


@st.composite
def three_term_configs(draw):
    """Displaced preparations D(alpha) F(a^dag)|0>, D(beta) G(a^dag)|0> with
    three-term F and G (coefficient magnitudes in [0.1, 1]), on a beam
    splitter with theta in [0.3, 1.3]."""
    phase = st.floats(0.0, 2 * math.pi)
    bs = BeamSplitterParams(draw(st.floats(0.3, 1.3)), draw(phase), draw(phase))
    preps = []
    for _ in range(2):
        coeffs = [draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(phase)) for _ in range(3)]
        poly = OperatorPolynomial(tuple(coeffs)).normalized()
        preps.append(ReferencePrep(poly, draw(st.floats(0.0, 0.5)) * np.exp(1j * draw(phase))))
    return preps[0], preps[1], bs


@st.composite
def factored_cases(draw):
    """A conditional operator from oracle_configs or three_term_configs, and a
    random signal on the lowest six levels."""
    if draw(st.booleans()):
        m, n, alpha, beta, bs = draw(oracle_configs())
        prep_in, prep_meas = ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta)
    else:
        prep_in, prep_meas, bs = draw(three_term_configs())
    amps = np.zeros(POLICY32.dim, dtype=complex)
    amps[:6] = [draw(st.complex_numbers(max_magnitude=1.0)) for _ in range(6)]
    if np.linalg.norm(amps) < 1e-3:
        reject()
    return prep_in, prep_meas, bs, fock.normalize(fock.FockVector(amps, POLICY32.cutoff))


class TestFactoredForm:
    @given(factored_cases())
    @settings(max_examples=40, deadline=None)
    def test_apply_matches_dense_matrix(self, case):
        # displace -> band -> displace on the vector equals the dense matrix
        # built from the same factors
        prep_in, prep_meas, bs, psi = case
        try:
            y = conditional.y_displaced_general(prep_in, prep_meas, bs, POLICY32)
            out, p = conditional.apply_conditional(y, psi)
        except (TruncationError, ZeroProbabilityError):
            reject()  # refused budgets and impossible outcomes are defined outcomes
        dense = y.mat @ psi.amps
        assert np.linalg.norm(math.sqrt(p) * out.amps - dense) <= 1e-13 * np.linalg.norm(dense)
        assert abs(p / np.vdot(dense, dense).real - 1.0) <= 1e-13

    def test_vector_route_builds_no_dense_operator(self, monkeypatch):
        # no dense operator product on the vector route: scheme_a_state at
        # n = 100 and a 3-term Y on a coherent state
        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built on the vector route")

        monkeypatch.setattr(fock.FockOperator, "__matmul__", refuse)
        policy = fock.TruncationPolicy(512)
        spec = cats.CatSpec(100, math.sqrt(50.0) * np.exp(0.4j))
        _, p = cats.scheme_a_state(spec, policy, 0.3, 1.2)
        assert p == pytest.approx(cats.cat_norm_and_prob(spec)[1], rel=1e-10)
        prep_in = ReferencePrep(OperatorPolynomial((1.0, 0.5, 0.25j)), 0.8).normalized()
        prep_meas = ReferencePrep(OperatorPolynomial((0.7, -0.3j, 0.2)), 0.5j).normalized()
        y = conditional.y_displaced_general(prep_in, prep_meas,
                                            BeamSplitterParams(math.pi / 4, 0.3, 1.1), policy)
        _, p = conditional.apply_conditional(y, fock.coherent_state(1.5, policy))
        assert 0.0 < p <= 1.0

    def test_undisplaced_input_enters_the_band_as_it_is(self, monkeypatch):
        # right = 0: D(0) is the identity, so scheme_b_state at cutoff 1024
        # builds no displacement factors (no (W+1) x (N+1) identity)
        def refuse(*args, **kwargs):
            raise AssertionError("displacement factors built for D(0)")

        monkeypatch.setattr(fock.TruncationPolicy, "working_factors", refuse)
        spec = cats.CatSpec(20, math.sqrt(10.0))
        _, p = cats.scheme_b_state(spec, fock.TruncationPolicy(1024))
        assert p == pytest.approx(cats.cat_norm_and_prob(spec)[1], rel=1e-8)

    def test_displacements_run_on_the_numerical_top(self, monkeypatch):
        # the 3-term displaced preparation on |1.5 e^0.3i> at cutoff 384: each
        # displacement reads the degrees up to its input's numerical top, not
        # up to the highest nonzero level (363 and 384, 749 degrees in all)
        policy = fock.TruncationPolicy(384)
        prep_in = ReferencePrep(OperatorPolynomial((1.0, 0.5, 0.25j)),
                                0.8 * np.exp(1.1j)).normalized()
        prep_meas = ReferencePrep(OperatorPolynomial((0.7, -0.3j, 0.2)),
                                  0.5 * np.exp(-2.0j)).normalized()
        y = conditional.y_displaced_general(prep_in, prep_meas,
                                            BeamSplitterParams(math.pi / 4, 0.3, 1.1), policy)
        v = fock.coherent_state(1.5 * np.exp(0.3j), policy)
        seen = count_laguerre_rows(monkeypatch, fock)
        out = y.apply(v).amps
        assert len(seen) < 150
        monkeypatch.undo()
        expected = y.mat @ v.amps
        assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)


POLICY64 = fock.TruncationPolicy(cutoff=64)


@st.composite
def displaced_polynomial_cases(draw):
    """Displaced references D(alpha) F(a^dag)|0>, D(beta) G(a^dag)|0>, F and
    G of degree <= 3 with coefficient magnitudes in [0.1, 1], |alpha|,
    |beta| <= 1, a splitter with theta in [0.3, 1.3] and random phases, and a
    signal on levels 0..top (top <= 10) at cutoff 64."""
    phase = st.floats(0.0, 2 * math.pi)

    def prep():
        coeffs = [draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(phase))
                  for _ in range(draw(st.integers(1, 4)))]
        disp = draw(st.floats(0.0, 1.0)) * np.exp(1j * draw(phase))
        return ReferencePrep(OperatorPolynomial(tuple(coeffs)), disp).normalized()

    bs = BeamSplitterParams(draw(st.floats(0.3, 1.3)), draw(phase), draw(phase))
    top = draw(st.integers(0, 10))
    amps = np.zeros(POLICY64.dim, dtype=complex)
    amps[:top + 1] = [draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(phase))
                      for _ in range(top + 1)]
    return prep(), prep(), bs, fock.normalize(fock.FockVector(amps, POLICY64.cutoff)), top


class TestPhotonNumberBound:
    """The splitter conserves photon number, so Y takes a state whose
    numerical top is t to the levels 0..t + L, L the prepared reference's
    numerical top; ``apply`` evaluates D(left) on those rows only, and on
    fewer where the two masses' tails allow."""

    @given(displaced_polynomial_cases())
    @settings(max_examples=30, deadline=None)
    def test_apply_is_zero_above_the_bound_and_matches_the_two_mode_route(self, case):
        prep_in, prep_meas, bs, psi, top = case
        try:
            y = conditional.y_displaced_general(prep_in, prep_meas, bs, POLICY64)
        except TruncationError:
            reject()  # a refused displacement budget is a defined outcome
        bound = top + len(y.ref_mass) - 1  # t + L
        assert bound < POLICY64.cutoff  # L <= 36 over 300 trial draws: levels to cut
        out = y.apply(psi).amps
        assert not out[bound + 1:].any()
        # <meas| U |psi>|in>, the splitter's sector blocks on the product state
        two = twomode.product_state(psi, prep_in.state(POLICY64))
        expected = bs_unitary(bs, POLICY64).apply(two).amps @ prep_meas.state(POLICY64).amps.conj()
        assert np.max(np.abs(out - expected)) <= 1e-12
        # the levels apply leaves at zero hold nothing of the two-mode output
        cut = np.flatnonzero(out).max(initial=-1)
        assert np.linalg.norm(expected[cut + 1:]) <= 1e-15

    def test_left_factor_reads_only_the_reachable_rows(self, monkeypatch):
        # scheme_a_state at n = 100, cutoff 512: |100> in a vacuum reference
        # (L = 0), so the output lives on 0..100 and D(left) is built from 101
        # Laguerre rows, not from the band output's numerical top (330)
        seen = []
        original = fock._displacement_factors

        def recording(alpha, cutoff, top):
            seen.append(top)
            return original(alpha, cutoff, top)

        monkeypatch.setattr(fock, "_displacement_factors", recording)
        spec = cats.CatSpec(100, math.sqrt(50.0) * np.exp(0.4j))
        _, p = cats.scheme_a_state(spec, fock.TruncationPolicy(512), 0.3, 1.2)
        assert p == pytest.approx(cats.cat_norm_and_prob(spec)[1], rel=1e-10)
        assert len(seen) == 2 and max(seen) <= 100  # D(right), then D(left)

    def test_reference_past_the_working_levels_has_no_bound(self):
        # D(30)|0> in at |R| = 0.05, detected in D(T* 30)|0>: right = 0 and
        # |left| = 1.5 pass the budget, but the reference's own working levels
        # pass the cap, so there is no bound and every row is kept
        bs = BeamSplitterParams(0.05)
        alpha = 30.0
        y = conditional.y_displaced_fock(0, 0, alpha, np.conj(bs.transmittance) * alpha,
                                         bs, POLICY)
        assert y.ref_mass is None
        psi = fock.normalize(fock.FockVector(np.exp(-0.3 * K) + 0j, POLICY.cutoff))
        expected = y.mat @ psi.amps
        assert np.linalg.norm(y.apply(psi).amps - expected) <= 1e-13 * np.linalg.norm(expected)


@st.composite
def finite_signals(draw):
    """A signal on levels 0..top (top <= 5) with random amplitudes and phases,
    a Fock reference m <= 3, a splitter with theta in [0.2, 1.37] and random
    phases, and a cutoff of at least 8 and 4 (top + m)."""
    phase = st.floats(0.0, 2 * math.pi)
    top, m = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    bs = BeamSplitterParams(draw(st.floats(0.2, 1.37)), draw(phase), draw(phase))
    cutoff = max(8, 4 * (top + m)) + draw(st.integers(0, 16))
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[:top + 1] = [draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(phase))
                      for _ in range(top + 1)]
    return fock.normalize(fock.FockVector(amps, cutoff)), top, m, bs


class TestOutcomeCompleteness:
    @given(finite_signals())
    @settings(max_examples=40, deadline=None)
    def test_closed_form_probabilities_sum_to_one(self, case):
        # photon number is conserved, so the detector sees at most top + m
        # photons and the closed-form outcome probabilities exhaust them
        psi, top, m, bs = case
        policy = fock.TruncationPolicy(psi.cutoff)
        total = sum(fock.norm(conditional.y_displaced_fock(m, n, 0j, 0j, bs, policy)
                              .apply(psi)) ** 2 for n in range(top + m + 1))
        assert abs(total - 1.0) <= 1e-12

    @given(finite_signals(), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
           st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_displaced_references_sum_to_one(self, case, r_alpha, r_beta, phi_alpha,
                                             phi_beta):
        # D(alpha)|m> in and D(beta)|n> detected: the displaced Fock states are
        # a basis, so the outcomes exhaust the input.  With at most 8 photons
        # before the displacements and |alpha|, |beta| <= 0.5, the outcomes
        # past n = 32 hold below 1e-13 of it (n = 24 at most in trial runs),
        # and the signal stays well inside cutoff 48
        psi, top, m, bs = case
        policy = fock.TruncationPolicy(48)
        amps = np.zeros(policy.dim, dtype=complex)
        amps[:top + 1] = psi.amps[:top + 1]
        psi = fock.FockVector(amps, policy.cutoff)
        alpha, beta = r_alpha * np.exp(1j * phi_alpha), r_beta * np.exp(1j * phi_beta)
        try:
            ys = [conditional.y_displaced_fock(m, n, alpha, beta, bs, policy) for n in range(33)]
        except TruncationError:
            reject()  # a refused displacement budget is a defined outcome
        total = sum(fock.norm(y.apply(psi)) ** 2 for y in ys)
        assert abs(total - 1.0) <= 1e-12


@st.composite
def inefficient_detection_cases(draw):
    """A signal on levels 0..top (top <= 5) with random amplitudes and phases,
    a reference mixing |m1> and |m2> (m1, m2 <= 3), a splitter with theta in
    [0.2, 1.37] and random phases, and photon counting with efficiency eta in
    [0.05, 1], at cutoff 24."""
    phase = st.floats(0.0, 2 * math.pi)
    top = draw(st.integers(0, 5))
    w = draw(st.floats(0.0, 1.0))
    refs = [(w, ReferencePrep.fock(draw(st.integers(0, 3)))),
            (1.0 - w, ReferencePrep.fock(draw(st.integers(0, 3))))]
    bs = BeamSplitterParams(draw(st.floats(0.2, 1.37)), draw(phase), draw(phase))
    amps = np.zeros(POLICY24.dim, dtype=complex)
    amps[:top + 1] = [draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(phase))
                      for _ in range(top + 1)]
    psi = fock.normalize(fock.FockVector(amps, POLICY24.cutoff))
    return psi, top, refs, bs, draw(st.floats(0.05, 1.0))


@st.composite
def mixed_ensembles(draw, max_disp):
    """A rank-2 signal density matrix on levels 0..4, a two-element reference
    ensemble of displaced Fock states (m <= 2) and a three-element measurement
    ensemble of displaced Fock states (n <= 3), displacements up to
    ``max_disp``, on a splitter with theta in [0.3, 1.3] and random phases."""
    phase = st.floats(0.0, 2 * math.pi)

    def prep(top):
        disp = draw(st.floats(0.0, max_disp)) * np.exp(1j * draw(phase))
        return ReferencePrep.fock(draw(st.integers(0, top)), disp)

    rho = 0.0
    for weight in (1.0, draw(st.floats(0.0, 1.0))):
        amps = [draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(phase)) for _ in range(5)]
        rho = rho + weight * np.outer(amps, np.conj(amps)) / np.vdot(amps, amps).real
    w = draw(st.floats(0.1, 0.9))
    refs = [(w, prep(2)), (1.0 - w, prep(2))]
    meas = [(draw(st.floats(0.1, 1.0)), prep(3)) for _ in range(3)]
    bs = BeamSplitterParams(draw(st.floats(0.3, 1.3)), draw(phase), draw(phase))
    return rho / np.trace(rho).real, refs, meas, bs


class TestMixedEnsembles:
    """The closed-form Kraus map for mixed references and non-projective
    measurements."""

    @pytest.mark.parametrize("cutoff, max_disp", [(32, 0.0), (32, 0.5), (64, 0.5)])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_referee(self, cutoff, max_disp, data):
        rho, refs, meas, bs = data.draw(mixed_ensembles(max_disp))
        policy = fock.TruncationPolicy(cutoff)
        mat = np.zeros((policy.dim, policy.dim), dtype=complex)
        mat[:5, :5] = rho
        rho = fock.DensityOperator(mat, cutoff)
        try:
            out, p = conditional.apply_conditional_mixed(rho, refs, meas, bs, policy)
        except TruncationError:
            reject()  # a refused displacement budget is a defined outcome
        ref_out, ref_p = conditional_reduce_mixed(rho, refs, meas, bs, policy)
        assert abs(p - ref_p) <= 1e-12
        assert np.max(np.abs(out.mat - ref_out.mat)) <= 1e-12

    @given(inefficient_detection_cases())
    @settings(max_examples=30, deadline=None)
    def test_outcome_probabilities_sum_to_one(self, case):
        # the detector sees at most top + max(m) photons, and each binomial row
        # of the photon-counting POVM sums to one
        psi, top, refs, bs, eta = case
        seen = top + max(prep.poly.degree for _, prep in refs)
        povm = twomode.photon_counting_povm(eta, POLICY24)
        rho = fock.DensityOperator.from_pure(psi)
        total = 0.0
        for outcome in range(seen + 1):
            meas = [(povm.weights[outcome, k], ReferencePrep.fock(k))
                    for k in range(outcome, seen + 1)]
            try:
                total += conditional.apply_conditional_mixed(rho, refs, meas, bs, POLICY24)[1]
            except ZeroProbabilityError:
                pass  # p < 1e-14
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("weights", [
        ([math.nan], [1.0]), ([math.inf], [1.0]), ([0.5, math.nan], [1.0]),
        ([1.0], [math.nan]), ([1.0], [math.inf])])
    def test_non_finite_weights_are_refused(self, weights):
        # a NaN weight passed the w < 0 and sum checks and ended in LinAlgError
        w_in, w_meas = weights
        rho = fock.DensityOperator.from_pure(fock.fock_state(1, POLICY24))
        with pytest.raises(ValueError, match="finite"):
            conditional.apply_conditional_mixed(
                rho, [(w, ReferencePrep.vacuum()) for w in w_in],
                [(w, ReferencePrep.fock(1)) for w in w_meas], BS, POLICY24)


    def test_cutoff_mismatch(self):
        # a state wider than the policy would lose its upper levels unseen
        rho = fock.DensityOperator.from_pure(fock.fock_state(30, POLICY32))
        with pytest.raises(CutoffMismatchError):
            conditional.apply_conditional_mixed(
                rho, [(1.0, ReferencePrep.vacuum())], [(1.0, ReferencePrep.fock(1))],
                BS, POLICY24)


class TestHighFockReferences:
    # from n ~ 150 m! [-(s+1)/2]^m overflows and from n ~ 180 1/sqrt(m! n!)
    # underflows; each term is one scaled product, folded once
    @pytest.mark.parametrize("n, cutoff", [(30, 128), (40, 168), (60, 256), (100, 400),
                                           (150, 600), (200, 800)])
    def test_fock_matches_oracle_on_full_block(self, n, cutoff):
        policy = fock.TruncationPolicy(cutoff=cutoff)
        bs = BeamSplitterParams(math.pi / 4)
        y = conditional.y_displaced_fock(n, n, 0j, 0j, bs, policy)
        oracle = twomode.oracle_y(ReferencePrep.fock(n), ReferencePrep.fock(n), bs, policy)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12

    @pytest.mark.parametrize("m", [128, 200])
    def test_displaced_balanced_references_stay_in_range(self, m):
        # a float-range DomainError from m = 128 at cutoff 4m while m! [-(s+1)/2]^m
        # and the Jacobi band were formed in linear space: Y is a contraction,
        # and its low block meets the oracle
        policy = fock.TruncationPolicy(cutoff=4 * m)
        bs = BeamSplitterParams(math.pi / 4)
        y = conditional.y_displaced_fock(m, m, 0.3, -0.2j, bs, policy)
        assert y.band.largest_singular_value() <= 1.0 + 1e-12
        oracle = twomode.oracle_y(ReferencePrep.fock(m, 0.3), ReferencePrep.fock(m, -0.2j),
                                  bs, policy)
        low = slice(0, m + 1)
        assert full_rel_frobenius(y.mat[low, low], oracle.mat[low, low]) <= 1e-12

    def test_unrepresentable_operator_is_a_domain_error(self):
        # coefficients of 1e300 make Y's elements 1e600
        huge = ReferencePrep(OperatorPolynomial((1e300,)))
        with pytest.raises(DomainError, match=r"\(m, n\) = \(0, 0\) leaves the float range"):
            conditional.y_displaced_general(huge, huge, BeamSplitterParams(0.7), POLICY)

    def test_unrepresentable_reference_is_a_domain_error(self):
        # 1/sqrt(n!) is subnormal from n = 301 and 0 from n = 373: |400> has
        # no polynomial coefficient to scale
        assert OperatorPolynomial.fock_monomial(300).coeffs[300].real > 0
        with pytest.raises(DomainError, match=r"\|301>: 1/sqrt\(n!\) leaves the float range"):
            conditional.y_displaced_fock(301, 301, 0j, 0j, BS, fock.TruncationPolicy(1204))
        with pytest.raises(DomainError, match=r"\|400>"):
            ReferencePrep.fock(400)


class TestSwapSymmetry:
    def test_swap_roles_reproduces_output(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            psi = random_signal(rng, max_photons=4)
            prep_ref = ReferencePrep(
                OperatorPolynomial.from_state_amplitudes(
                    rng.normal(size=4) + 1j * rng.normal(size=4)).normalized())
            prep_meas = ReferencePrep(
                OperatorPolynomial.from_state_amplitudes(
                    rng.normal(size=3) + 1j * rng.normal(size=3)).normalized())
            bs = BeamSplitterParams(1.0, rng.uniform(0, 6.28), rng.uniform(0, 6.28))
            y = conditional.y_displaced_general(prep_ref, prep_meas, bs, POLICY)
            direct, p_direct = conditional.apply_conditional(y, psi)
            swapped, p_swapped = conditional.swap_roles(psi, prep_ref, prep_meas,
                                                        bs, POLICY)
            assert abs(fock.inner(direct, swapped)) == pytest.approx(1.0, abs=1e-8)
            assert p_swapped == pytest.approx(p_direct, rel=1e-8)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_swap_roles_reproduces_output_at_random_splitters(self, data):
        phase = st.floats(0.0, 2 * math.pi)

        def poly(size):
            return OperatorPolynomial(tuple(
                data.draw(st.floats(0.1, 1.0)) * np.exp(1j * data.draw(phase))
                for _ in range(size))).normalized()

        amps = np.zeros(POLICY.dim, dtype=complex)
        amps[:5] = [data.draw(st.floats(0.1, 1.0)) * np.exp(1j * data.draw(phase))
                    for _ in range(5)]
        psi = fock.normalize(fock.FockVector(amps, POLICY.cutoff))
        prep_ref = ReferencePrep(poly(data.draw(st.integers(1, 4))))
        prep_meas = ReferencePrep(poly(data.draw(st.integers(1, 4))))
        bs = BeamSplitterParams(data.draw(st.floats(0.3, 1.3)), data.draw(phase),
                                data.draw(phase))
        y = conditional.y_displaced_general(prep_ref, prep_meas, bs, POLICY)
        direct, p_direct = conditional.apply_conditional(y, psi)
        swapped, p_swapped = conditional.swap_roles(psi, prep_ref, prep_meas, bs, POLICY)
        assert abs(fock.inner(direct, swapped)) == pytest.approx(1.0, abs=1e-12)
        assert p_swapped == pytest.approx(p_direct, rel=1e-12)

    def test_fock_measurement_needs_no_frame_change(self):
        # measured states of definite photon-number parity: plain (T,R)->(R,T)
        # exchange reproduces the output directly
        rng = np.random.default_rng(13)
        psi = random_signal(rng, max_photons=4)
        prep_ref = ReferencePrep.fock(1)
        meas = ReferencePrep.fock(2)
        bs = BeamSplitterParams(0.9, 0.5, 1.7)
        y = conditional.y_displaced_general(prep_ref, meas, bs, POLICY)
        direct, p_direct = conditional.apply_conditional(y, psi)
        bs_rt = BeamSplitterParams(math.pi / 2 - bs.theta, bs.phi_r, bs.phi_t)
        y_sw = conditional.y_displaced_general(
            ReferencePrep(OperatorPolynomial.from_state_amplitudes(psi.amps[:5])),
            meas, bs_rt, POLICY)
        swapped, p_swapped = conditional.apply_conditional(
            y_sw, prep_ref.state(POLICY))
        assert abs(fock.inner(direct, swapped)) == pytest.approx(1.0, abs=1e-8)
        assert p_swapped == pytest.approx(p_direct, rel=1e-8)


def low_reflectance_cases():
    """(|R|^2, prep_in, prep_meas, cutoff): undisplaced Fock references m, n <= 4
    and three-term F, G at cutoff 48 for each |R|^2, and m = n = 40 at cutoff 160."""
    f3 = OperatorPolynomial((0.7, -0.2j, 0.3 * np.exp(0.9j))).normalized()
    g3 = OperatorPolynomial((0.4j, 1.0, 0.5 * np.exp(-2.1j))).normalized()
    cases = []
    for r2 in (0.04, 1e-3, 1e-6, 1e-8):
        cases += [pytest.param(r2, ReferencePrep.fock(m), ReferencePrep.fock(n), 48,
                               id=f"R2={r2:g}-fock-{m}-{n}")
                  for m in range(5) for n in range(5)]
        cases.append(pytest.param(r2, ReferencePrep(f3), ReferencePrep(g3), 48,
                                  id=f"R2={r2:g}-three-term"))
    cases.append(pytest.param(1e-6, ReferencePrep.fock(40), ReferencePrep.fock(40), 160,
                              id="R2=1e-06-fock-40-40"))
    return cases


class TestLowReflectance:
    """The s-ordered closed form stays exact as |R| -> 0 (s = 2/|R|^2 - 1 -> infinity)."""

    @pytest.mark.parametrize("r2, prep_in, prep_meas, cutoff", low_reflectance_cases())
    def test_closed_form_matches_oracle(self, r2, prep_in, prep_meas, cutoff):
        policy = fock.TruncationPolicy(cutoff)
        bs = BeamSplitterParams(math.asin(math.sqrt(r2)), 0.7, 1.9)
        y = conditional.y_displaced_general(prep_in, prep_meas, bs, policy).mat
        oracle = twomode.oracle_y(prep_in, prep_meas, bs, policy).mat
        assert full_rel_frobenius(y, oracle) <= 1e-12

    def test_displaced_references_match_oracle(self):
        # displaced references at |R|^2 = 0.039
        bs = BeamSplitterParams(0.2, 0.3, 1.2)
        prep_in = ReferencePrep(OperatorPolynomial((0.8, 0.3j)).normalized(), 0.3)
        prep_out = ReferencePrep.fock(1, -0.2j)
        y = conditional.y_displaced_general(prep_in, prep_out, bs, POLICY)
        oracle = twomode.oracle_y(prep_in, prep_out, bs, POLICY)
        assert full_rel_frobenius(y.mat, oracle.mat) <= 1e-12

    @pytest.mark.parametrize("build", [
        lambda bs: conditional.y_displaced_fock(1, 1, 0.1, 0j, bs, POLICY),
        lambda bs: conditional.y_general(OperatorPolynomial.fock_monomial(1),
                                         OperatorPolynomial.one(), bs, POLICY),
        lambda bs: conditional.y_displaced_general(ReferencePrep.fock(1),
                                                   ReferencePrep.coherent(0.1), bs, POLICY),
    ], ids=["y_displaced_fock", "y_general", "y_displaced_general"])
    def test_builds_without_warning(self, build):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            build(BeamSplitterParams(0.2))  # |R|^2 = 0.039
        assert record == []


def low_transmittance_cases():
    """Fock references at theta = pi/2 - eps, |T| = sin(eps), down to eps =
    1e-12: m = 2, n = 3 at cutoff 48, m = 5, n = 20 and m = n = 20 at cutoff
    96, m = 0, n = 40 and m = n = 40 at cutoff 160."""
    rows = [(2, 3, 48), (5, 20, 96), (20, 20, 96), (0, 40, 160), (40, 40, 160)]
    return [pytest.param(eps, m, n, cutoff, id=f"eps={eps:g}-fock-{m}-{n}")
            for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12) for m, n, cutoff in rows]


class TestLowTransmittance:
    """The s-ordered closed form stays exact as |T| -> 0 (s -> 1, Jacobi's z ->
    -1): Szego's prefactor takes (1 + z)/2 = |T|^2 from the splitter, which
    1 + z, formed from s, loses (2.0e-7 off at m = n = 20, eps = 1e-8)."""

    @pytest.mark.parametrize("eps, m, n, cutoff", low_transmittance_cases())
    def test_closed_form_matches_oracle(self, eps, m, n, cutoff):
        policy = fock.TruncationPolicy(cutoff)
        bs = BeamSplitterParams(math.pi / 2 - eps, 0.3, 1.1)
        prep_in, prep_meas = ReferencePrep.fock(m), ReferencePrep.fock(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = conditional.y_displaced_general(prep_in, prep_meas, bs, policy).mat
            oracle = twomode.oracle_y(prep_in, prep_meas, bs, policy).mat
        assert full_rel_frobenius(y, oracle) <= 1e-12
