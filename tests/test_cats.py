import math

import numpy as np
import pytest

from condibeam import cats, cli, fock, phasespace
from condibeam.beamsplitter import BeamSplitterParams
from condibeam.errors import DomainError, TruncationError
from test_fock import displacement_op

POLICY = fock.TruncationPolicy(cutoff=48)


def chi_operator_route(n, beta, policy):
    """(a - beta)^n (a^dag + beta*)^n |0> by repeated operator application.

    The vector grows like n! before any normalization, so this reference
    only serves small n.
    """
    a = fock.annihilation_op(policy).mat
    adag = a.conj().T
    v = np.zeros(policy.dim, dtype=complex)
    v[0] = 1.0
    for _ in range(n):
        v = adag @ v + np.conj(beta) * v
    for _ in range(n):
        v = a @ v - beta * v
    return v


def chi_referee(mpmath, n, beta):
    """The normalized chi amplitudes k = 0..n as a 60-digit sum."""
    with mpmath.workdps(60):
        b = mpmath.mpc(beta.real, beta.imag)
        b2 = abs(b) ** 2
        lag = [mpmath.laguerre(n - k, k, b2, zeroprec=1000) for k in range(n + 1)]
        norm = mpmath.fsum(b2 ** k / mpmath.factorial(k) * lag[k] ** 2 for k in range(n + 1))
        p = float(2 ** -mpmath.mpf(n) * mpmath.exp(-b2) * norm)
        amps = [complex(lag[k] * (-b) ** k / mpmath.sqrt(mpmath.factorial(k) * norm))
                for k in range(n + 1)]
    return np.array(amps), p


class TestCatNormAndProb:
    def test_vacuum_case(self):
        n_sum, p = cats.cat_norm_and_prob(cats.CatSpec(0, 0.0))
        assert n_sum == 1.0 and p == 1.0

    def test_hand_expanded_n_one(self):
        # k=0: L_1(1/2)^2 = 1/4; k=1: (1/2) L_0^1(1/2)^2 = 1/2
        n_sum, p = cats.cat_norm_and_prob(cats.CatSpec(1, math.sqrt(0.5)))
        assert n_sum == pytest.approx(0.75, abs=1e-14)
        assert p == pytest.approx(0.375 * math.exp(-0.5), abs=1e-14)

    def test_probability_equals_conditional_norm(self):
        # p from the closed sum vs ||Y |n>||^2 through the full pipeline
        for n in range(7):
            spec = cats.CatSpec(n, math.sqrt(n / 2.0) if n else 0.3)
            _, p_formula = cats.cat_norm_and_prob(spec)
            _, p_pipeline = cats.scheme_a_state(spec, POLICY, route="closed")
            assert p_pipeline == pytest.approx(p_formula, abs=1e-12)

    @pytest.mark.parametrize("n", [30, 50, 100])
    def test_matches_mpmath_at_large_n(self, n):
        mpmath = pytest.importorskip("mpmath")
        beta = math.sqrt(n / 2.0) * np.exp(0.7j)
        n_sum, p = cats.cat_norm_and_prob(cats.CatSpec(n, beta))
        with mpmath.workdps(60):
            b2 = mpmath.mpf(abs(beta)) ** 2
            ref = mpmath.fsum(b2 ** k / mpmath.factorial(k)
                              * mpmath.laguerre(n - k, k, b2) ** 2 for k in range(n + 1))
            ref_p = float(2 ** -mpmath.mpf(n) * mpmath.exp(-b2) * ref)
        assert abs(n_sum / float(ref) - 1.0) < 1e-12
        assert abs(p / ref_p - 1.0) < 1e-12

    def test_huge_beta(self):
        # e^(-|beta|^2) underflows to 0: exact at n = 0, where N = 1 ...
        assert cats.cat_norm_and_prob(cats.CatSpec(0, 1e150)) == (1.0, 0.0)
        # ... while from n = 1 on the Laguerre values overflow and p would be NaN
        for n in (1, 3):
            with pytest.raises(DomainError, match="N overflows"):
                cats.cat_norm_and_prob(cats.CatSpec(n, 1e150))
        with pytest.raises(DomainError, match="N overflows"):
            cats.chi_state(cats.CatSpec(3, 1e150), POLICY)


class TestChiState:
    def test_zero_detected_photons_gives_vacuum(self):
        chi = cats.chi_state(cats.CatSpec(0, 0.7 + 0.2j), POLICY)
        assert abs(chi.amps[0]) == pytest.approx(1.0)
        assert np.all(chi.amps[1:] == 0)

    def test_one_photon_zero_displacement(self):
        # a a^dag |0> = |0>: only the vacuum amplitude survives
        chi = cats.chi_state(cats.CatSpec(1, 0.0), POLICY)
        assert abs(chi.amps[0]) == pytest.approx(1.0)

    def test_support_bounded_by_n(self):
        chi = cats.chi_state(cats.CatSpec(5, 1.3), POLICY)
        assert np.all(chi.amps[6:] == 0)
        assert np.any(chi.amps[:6] != 0)

    def test_normalized(self):
        chi = cats.chi_state(cats.CatSpec(6, 2.0 - 0.5j), POLICY)
        assert fock.norm(chi) == pytest.approx(1.0, abs=1e-12)

    def test_three_construction_routes_agree(self):
        # explicit amplitudes (construction), operator product, and the
        # operator-Laguerre form applied to the vacuum
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 8):
            beta = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            spec = cats.CatSpec(n, beta)
            chi = cats.chi_state(spec, POLICY)
            n_sum, _ = cats.cat_norm_and_prob(spec)

            w = chi_operator_route(n, beta, POLICY)
            route_a = w / (math.factorial(n) * math.sqrt(n_sum))
            assert np.max(np.abs(route_a - chi.amps)) < 1e-10

            # L_n(beta a^dag + |beta|^2) |0> via Horner on the vector
            a_dag = fock.creation_op(POLICY).mat
            op = beta * a_dag + abs(beta) ** 2 * np.eye(POLICY.dim)
            coeffs = [math.comb(n, j) * (-1) ** j / math.factorial(j)
                      for j in range(n + 1)]
            v = np.zeros(POLICY.dim, dtype=complex)
            v[0] = 1.0
            acc = coeffs[0] * v
            power = v
            for j in range(1, n + 1):
                power = op @ power
                acc = acc + coeffs[j] * power
            route_c = acc / math.sqrt(n_sum)
            assert np.max(np.abs(route_c - chi.amps)) < 1e-10

    def test_budget(self):
        # n = 30, above the former half-cutoff block at cutoff 48, matches the
        # closed-form conditional route (the oracle's reference D(beta)|30>
        # does not fit this cutoff); n = 49 is past the cutoff
        spec = cats.CatSpec(30, 1.0)
        state, _ = cats.scheme_a_state(spec, POLICY)
        chi = cats.chi_state(spec, POLICY)
        assert abs(1.0 - abs(fock.inner(chi, state))) < 1e-12
        with pytest.raises(TruncationError):
            cats.chi_state(cats.CatSpec(49, 1.0), POLICY)

    def test_matches_mpmath_where_the_norm_overflows(self):
        # at n = 800, |beta|^2 = 400 the normalization N ~ 1e414 overflows
        # while p = 3.98e-4; the state and the closed Husimi form need no N
        mpmath = pytest.importorskip("mpmath")
        n = 800
        spec = cats.CatSpec(n, math.sqrt(n / 2.0) * np.exp(0.7j))
        policy = fock.TruncationPolicy(2 * n)
        n_sum, p = cats.cat_norm_and_prob(spec)
        assert n_sum == math.inf
        chi = cats.chi_state(spec, policy)
        ref, ref_p = chi_referee(mpmath, n, spec.beta)
        assert abs(p / ref_p - 1.0) < 1e-12
        assert np.max(np.abs(chi.amps[:n + 1] - ref)) < 1e-12
        assert np.all(chi.amps[n + 1:] == 0)
        # the closed Husimi form around the peak at i beta, against the overlap route
        peak = 1j * spec.beta
        grid = phasespace.PhaseGrid(
            phasespace.Axis("re_alpha", peak.real - 1.0, peak.real + 1.0, 5),
            phasespace.Axis("im_alpha", peak.imag - 1.0, peak.imag + 1.0, 5))
        closed = phasespace.husimi_chi_closed(spec, grid).values
        overlap = phasespace.husimi(chi, grid, policy).values
        assert closed.max() > 0.1
        assert np.max(np.abs(closed - overlap)) < 1e-12


CHI_EXPERIMENTS = {
    "scheme-a": "n = 4\nbeta = 1.4\ncutoff = 32\n",
    "scheme-b": "n = 4\nbeta = 1.4\ncutoff = 32\n",
    "q-grid": "state = chi\nn = 4\nbeta = 1.4\ncutoff = 32\ngrid_points = 11\n",
    "wigner-grid": "method = both\nn = 4\nbeta = 1.4\ncutoff = 32\ngrid_points = 11\n",
    "quadrature-grid": "n = 4\nbeta = 1.4\ncutoff = 32\ngrid_points = 11\nphi_points = 5\n",
}


@pytest.mark.parametrize("experiment", sorted(CHI_EXPERIMENTS))
def test_one_chi_sum_per_run(monkeypatch, experiment):
    # the chi state and the closed form or probability next to it read one
    # chi sum; a second run of the same config computes its own
    calls = []
    original = cats._chi_factors

    def counting(n, beta):
        calls.append((n, beta))
        return original(n, beta)

    monkeypatch.setattr(cats, "_chi_factors", counting)
    cli.run_experiment(experiment, CHI_EXPERIMENTS[experiment])
    assert len(calls) == 1
    cli.run_experiment(experiment, CHI_EXPERIMENTS[experiment])
    assert len(calls) == 2


class TestChiVsOracle:
    # the two-mode oracle route shares no Laguerre or ordering code with the
    # closed sum; at zero splitter phases its output is (-1)^n chi exactly
    @pytest.mark.parametrize("n, cutoff", [(5, 32), (30, 128), (50, 256), (100, 512)])
    def test_against_mpmath(self, n, cutoff):
        mpmath = pytest.importorskip("mpmath")
        policy = fock.TruncationPolicy(cutoff)
        spec = cats.CatSpec(n, math.sqrt(n / 2.0) * np.exp(0.7j))
        chi = cats.chi_state(spec, policy)
        state, p = cats.scheme_a_state(spec, policy, route="oracle")
        ref, ref_p = chi_referee(mpmath, n, spec.beta)
        assert np.max(np.abs(chi.amps[:n + 1] - ref)) < 1e-12
        assert np.all(chi.amps[n + 1:] == 0)
        assert np.max(np.abs((-1) ** n * state.amps - chi.amps)) < 1e-9
        assert abs(p / ref_p - 1.0) < 1e-12


class TestSchemeA:
    def test_closed_equals_oracle_route(self):
        spec = cats.CatSpec(3, 1.1 * np.exp(0.4j))
        sc, pc = cats.scheme_a_state(spec, POLICY, route="closed")
        so, po = cats.scheme_a_state(spec, POLICY, route="oracle")
        assert abs(fock.inner(sc, so)) == pytest.approx(1.0, abs=1e-10)
        assert pc == pytest.approx(po, rel=1e-10)

    def test_phase_map(self):
        # nonzero splitter phases reach the same chi state once the
        # measurement displacement is mapped accordingly
        spec = cats.CatSpec(2, 0.9)
        chi = cats.chi_state(spec, POLICY)
        state, p = cats.scheme_a_state(spec, POLICY, phi_t=0.8, phi_r=2.1,
                                       route="oracle")
        assert abs(fock.inner(chi, state)) == pytest.approx(1.0, abs=1e-10)
        _, p_formula = cats.cat_norm_and_prob(spec)
        assert p == pytest.approx(p_formula, abs=1e-12)


class TestSchemeB:
    def test_zero_photons_gives_coherent(self):
        pol = fock.TruncationPolicy(cutoff=32)
        spec = cats.CatSpec(0, 0.8)
        state, p = cats.scheme_b_state(spec, pol)
        target = fock.coherent_state(0.8, pol)
        assert abs(fock.inner(target, state)) == pytest.approx(1.0, abs=1e-10)

    def test_displaced_chi_relation(self):
        pol = fock.TruncationPolicy(cutoff=64)
        spec = cats.CatSpec(4, math.sqrt(2.0))
        state, p_b = cats.scheme_b_state(spec, pol)
        chi = cats.chi_state(spec, pol)
        displaced = fock.apply(displacement_op(spec.beta, pol), chi)
        assert abs(fock.inner(displaced, state)) >= 1.0 - 1e-6
        _, p_a = cats.cat_norm_and_prob(spec)
        assert p_b == pytest.approx(p_a, abs=1e-8)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            cats.scheme_b_state(cats.CatSpec(2, 1.0), POLICY,
                                bs=BeamSplitterParams(1.0))


class TestMultiCat:
    def test_single_addition(self):
        # k=1, n=1: norm |beta|^2 + 1, state ~ (a^dag - beta*)|0>
        beta = 0.8 + 0.3j
        spec = cats.CatSpec(1, beta, k=1)
        assert math.exp(cats.multi_cat_log_norm(spec)) == pytest.approx(
            abs(beta) ** 2 + 1.0)
        v = cats.multi_cat_state(spec, POLICY)
        expected = np.zeros(POLICY.dim, dtype=complex)
        expected[0] = -np.conj(beta)
        expected[1] = 1.0
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(v.amps - expected)) < 1e-12

    def test_two_fold_specialization(self):
        # k=2 must equal the direct operator construction ((a^dag)^2-b*^2)^n|0>
        beta = 1.2 * np.exp(0.7j)
        n = 3
        v = cats.multi_cat_state(cats.CatSpec(n, beta, k=2), POLICY)
        adag = fock.creation_op(POLICY).mat
        op = adag @ adag - np.conj(beta) ** 2 * np.eye(POLICY.dim)
        w = np.zeros(POLICY.dim, dtype=complex)
        w[0] = 1.0
        for _ in range(n):
            w = op @ w
        w /= np.linalg.norm(w)
        assert np.max(np.abs(v.amps - w)) < 1e-12

    def test_norm_validates_closed_sum(self):
        for spec in (cats.CatSpec(4, 2.0, k=3), cats.CatSpec(10, 4.2, k=2)):
            v = cats.multi_cat_state(spec, POLICY)
            assert fock.norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_support_on_multiples_of_k(self):
        v = cats.multi_cat_state(cats.CatSpec(4, 1.5, k=3), POLICY)
        nz = np.nonzero(np.abs(v.amps) > 0)[0]
        assert np.all(nz % 3 == 0) and nz.max() == 12

    def test_zero_displacement_is_fock(self):
        v = cats.multi_cat_state(cats.CatSpec(4, 0.0, k=2), POLICY)
        assert abs(v.amps[8]) == pytest.approx(1.0)

    def test_budget(self):
        with pytest.raises(TruncationError):
            cats.multi_cat_state(cats.CatSpec(10, 4.2, k=5), POLICY)  # kn = 50


class TestPeakStructure:
    @pytest.mark.parametrize("n", [4, 10])
    def test_two_peaks_separated_by_sqrt_2n(self, n):
        # |beta|^2 = n/2: the two Husimi maxima sit near +/- i beta, so their
        # distance is 2|beta| = sqrt(2n) (within one grid cell)
        pol = fock.TruncationPolicy(cutoff=64)
        spec = cats.CatSpec(n, math.sqrt(n / 2.0))
        chi = cats.chi_state(spec, pol)
        grid = phasespace.PhaseGrid.square(-4.0, 4.0, 41)  # cell 0.2
        q = phasespace.husimi(chi, grid, pol).values
        upper = q[:, 21:]
        lower = q[:, :20]
        iu = np.unravel_index(np.argmax(upper), upper.shape)
        il = np.unravel_index(np.argmax(lower), lower.shape)
        peak_hi = complex(grid.axis1.values[iu[0]], grid.axis2.values[21 + iu[1]])
        peak_lo = complex(grid.axis1.values[il[0]], grid.axis2.values[il[1]])
        cell = grid.axis1.step
        assert abs(peak_hi - 1j * spec.beta) <= cell * math.sqrt(2) + 1e-12
        assert abs(peak_lo + 1j * spec.beta) <= cell * math.sqrt(2) + 1e-12
        assert abs(peak_hi - peak_lo) == pytest.approx(
            math.sqrt(2 * n), abs=2 * cell)
