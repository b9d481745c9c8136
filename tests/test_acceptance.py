"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import simpson

from condibeam import cats, conditional, fock, phasespace as ps, twomode
from condibeam.beamsplitter import BeamSplitterParams, OperatorPolynomial, ReferencePrep
from condibeam.errors import ZeroProbabilityError
from condibeam.ordering import OrderedMonomialSpec, s_ordered_monomial, s_to_t_convert
from twomode_reference import bs_unitary
from test_fock import displacement_op

POLICY48 = fock.TruncationPolicy(cutoff=48)
BLOCK = 24  # lowest-24-level comparison block at cutoff 48


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number} PASS  {description}")


def rel_frobenius(a, b, block=BLOCK):
    return (np.linalg.norm(a[:block, :block] - b[:block, :block])
            / np.linalg.norm(b[:block, :block]))


def draw_configs(rng, count):
    for _ in range(count):
        m, n = (int(v) for v in rng.integers(0, 5, 2))
        alpha = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        beta = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        theta = float(rng.choice([math.pi / 4, math.pi / 3, 1.0]))
        bs = BeamSplitterParams(theta, float(rng.uniform(0, 2 * math.pi)),
                                float(rng.uniform(0, 2 * math.pi)))
        yield m, n, alpha, beta, bs


def test_criterion_1_closed_form_equals_oracle():
    with criterion(1, "closed-form conditional operator matches the two-mode "
                      "oracle within 1e-8 on the lowest-24 block (50 configs)"):
        rng = np.random.default_rng(20240101)
        start = time.monotonic()
        worst_fock = worst_general = 0.0
        for m, n, alpha, beta, bs in draw_configs(rng, 50):
            oracle = twomode.oracle_y(ReferencePrep.fock(m, alpha),
                                      ReferencePrep.fock(n, beta), bs, POLICY48)
            y_fock = conditional.y_displaced_fock(m, n, alpha, beta, bs, POLICY48)
            y_gen = conditional.y_displaced_general(
                ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta),
                bs, POLICY48)
            worst_fock = max(worst_fock, rel_frobenius(y_fock.mat, oracle.mat))
            worst_general = max(worst_general, rel_frobenius(y_gen.mat, oracle.mat))
        elapsed = time.monotonic() - start
        assert worst_fock < 1e-8, worst_fock
        assert worst_general < 1e-8, worst_general
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_probability_consistency():
    with criterion(2, "||Y psi||^2 equals the two-mode Born probability "
                      "within 1e-8 (50 configs, random signals)"):
        rng = np.random.default_rng(20240102)
        worst = 0.0
        for m, n, alpha, beta, bs in draw_configs(rng, 50):
            amps = np.zeros(POLICY48.dim, dtype=complex)
            amps[:7] = rng.normal(size=7) + 1j * rng.normal(size=7)
            psi = fock.normalize(fock.FockVector(amps, POLICY48.cutoff))
            y = conditional.y_displaced_fock(m, n, alpha, beta, bs, POLICY48)
            try:
                _, p_closed = conditional.apply_conditional(y, psi)
            except ZeroProbabilityError:
                p_closed = 0.0
            prep_out = ReferencePrep.fock(n, beta)
            proj_state = prep_out.state(POLICY48)
            proj = fock.FockOperator(
                np.outer(proj_state.amps, proj_state.amps.conj()), POLICY48.cutoff)
            two = twomode.product_state(psi,
                                        ReferencePrep.fock(m, alpha).state(POLICY48))
            try:
                _, p_oracle = twomode.conditional_reduce(two, proj, bs, POLICY48)
            except ZeroProbabilityError:
                p_oracle = 0.0
            worst = max(worst, abs(p_closed - p_oracle))
        assert worst < 1e-8, worst


def test_criterion_3_fock_source_scheme():
    with criterion(3, "Fock-source cat scheme: oracle pipeline reproduces the "
                      "chi state (fidelity >= 1-1e-8) and the closed "
                      "probability sum (1e-10); spot value p(1) ~ 0.2274"):
        bs = BeamSplitterParams(math.pi / 4)
        for n in (1, 2, 4, 6):
            spec = cats.CatSpec(n, math.sqrt(n / 2.0))
            chi = cats.chi_state(spec, POLICY48)
            _, p_formula = cats.cat_norm_and_prob(spec)
            beta_meas = spec.beta * np.exp(-1j * math.pi)
            prep_out = ReferencePrep.fock(n, beta_meas)
            proj_state = prep_out.state(POLICY48)
            proj = fock.FockOperator(
                np.outer(proj_state.amps, proj_state.amps.conj()), POLICY48.cutoff)
            two = twomode.product_state(fock.fock_state(n, POLICY48),
                                        fock.fock_state(0, POLICY48))
            rho, p = twomode.conditional_reduce(two, proj, bs, POLICY48)
            assert np.vdot(chi.amps, rho.mat @ chi.amps).real >= 1.0 - 1e-8
            assert abs(p - p_formula) < 1e-10
            if n == 1:
                assert p == pytest.approx(0.2274, abs=5e-5)


def test_criterion_4_coherent_source_scheme():
    with criterion(4, "coherent-source scheme output equals the displaced chi "
                      "state (fidelity >= 1-1e-6) with matching probability "
                      "(1e-8), cutoff 64"):
        pol = fock.TruncationPolicy(cutoff=64)
        for n in (2, 4):
            spec = cats.CatSpec(n, math.sqrt(n / 2.0))
            state, p_b = cats.scheme_b_state(spec, pol)
            displaced = fock.apply(displacement_op(spec.beta, pol),
                                   cats.chi_state(spec, pol))
            assert abs(fock.inner(displaced, state)) >= 1.0 - 1e-6
            _, p_a = cats.cat_norm_and_prob(spec)
            assert abs(p_b - p_a) < 1e-8


def test_criterion_5_wigner_closed_form():
    with criterion(5, "cat-state Wigner closed form matches the numeric "
                      "transform (1e-6 on 81x81), normalizes to 1 (1e-4), "
                      "and its p-marginal is the x-quadrature density (1e-5)"):
        start = time.monotonic()
        pol = fock.TruncationPolicy(cutoff=32)
        spec = cats.CatSpec(3, math.sqrt(1.5))
        chi = cats.chi_state(spec, pol)
        grid = ps.PhaseGrid.square(-4.0, 4.0, 81)
        numeric = ps.wigner_numeric(chi, grid)
        closed = ps.wigner_cat_closed(spec, grid)
        assert np.max(np.abs(closed.values - numeric.values)) <= 1e-6
        integral = simpson(simpson(numeric.values, dx=grid.axis2.step),
                           dx=grid.axis1.step)
        assert abs(integral - 1.0) <= 1e-4
        # marginal: integrate over a p-window wide enough for the state
        x_axis = grid.axis1
        wide = ps.PhaseGrid(x_axis, ps.Axis("p", -6.5, 6.5, 131))
        w_wide = ps.wigner_numeric(chi, wide)
        marginal = simpson(w_wide.values, dx=wide.axis2.step, axis=1)
        density = ps.quadrature_dist(
            chi, ps.PhaseGrid(x_axis, ps.Axis("phi", 0.0, 0.0, 1))).values[:, 0]
        assert np.max(np.abs(marginal - density)) <= 1e-5
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_6_husimi_closed_forms():
    with criterion(6, "Husimi closed forms match the overlap route within "
                      "1e-8 (chi and 5-component cat); chi(10) peaks sit at "
                      "+/- i beta within one grid cell"):
        pol = fock.TruncationPolicy(cutoff=64)
        spec = cats.CatSpec(10, math.sqrt(5.0))
        chi = cats.chi_state(spec, pol)
        grid = ps.PhaseGrid.square(-4.0, 4.0, 41)
        q_chi = ps.husimi(chi, grid, pol)
        assert np.max(np.abs(q_chi.values
                             - ps.husimi_chi_closed(spec, grid).values)) <= 1e-8

        # five-component cat at the plotted parameters (support up to 50)
        pol_mc = fock.TruncationPolicy(cutoff=128)
        spec_mc = cats.CatSpec(10, 4.2, k=5)
        state_mc = cats.multi_cat_state(spec_mc, pol_mc)
        grid_mc = ps.PhaseGrid.square(-8.0, 8.0, 81)
        q_mc = ps.husimi(state_mc, grid_mc, pol_mc)
        assert np.max(np.abs(
            q_mc.values - ps.husimi_multi_cat_closed(spec_mc, grid_mc).values)) <= 1e-8

        # peak locations of the two-component cat
        cell = grid.axis1.step
        mid = grid.axis2.points // 2
        upper = q_chi.values[:, mid:]
        lower = q_chi.values[:, :mid]
        iu = np.unravel_index(np.argmax(upper), upper.shape)
        il = np.unravel_index(np.argmax(lower), lower.shape)
        peak_hi = complex(grid.axis1.values[iu[0]], grid.axis2.values[mid + iu[1]])
        peak_lo = complex(grid.axis1.values[il[0]], grid.axis2.values[il[1]])
        assert abs(peak_hi - 1j * spec.beta) <= cell * math.sqrt(2) + 1e-12
        assert abs(peak_lo + 1j * spec.beta) <= cell * math.sqrt(2) + 1e-12


def test_criterion_7_ordering_machinery():
    with criterion(7, "closed ordering form agrees with the conversion sum "
                      "(1e-9 rel, m+n<=6, s in {1.5,3,9}); reordering "
                      "identity holds to 1e-10 on the safe block"):
        pol = fock.TruncationPolicy(cutoff=32)
        half = pol.safe_levels
        for s in (1.5, 3.0, 9.0):
            for m in range(7):
                for n in range(7 - m):
                    closed = s_ordered_monomial(OrderedMonomialSpec(m, n, s), pol)
                    conv = s_to_t_convert(m, n, s, 1.0, pol)
                    dev = rel_frobenius(closed.mat, conv.mat, half)
                    assert dev < 1e-9, (m, n, s, dev)
        a = fock.annihilation_op(pol).mat
        adag = a.conj().T
        for m in range(4):
            for n in range(4):
                lhs = np.linalg.matrix_power(a, m) @ np.linalg.matrix_power(adag, n)
                # a^m (a^dag)^n is {(a^dag)^n a^m}_-1, converted to normal order
                rhs = s_to_t_convert(n, m, -1.0, 1.0, pol).mat
                assert np.max(np.abs(lhs[:half, :half] - rhs[:half, :half])) < 1e-10


def test_criterion_8_photon_counting_povm():
    with criterion(8, "photon-counting POVM is complete in the truncated "
                      "space, reduces to projectors at unit efficiency, and "
                      "the ensemble route reproduces the pure route (1e-10)"):
        pol = fock.TruncationPolicy(cutoff=24)
        povm = twomode.photon_counting_povm(0.75, pol)
        assert np.max(np.abs(povm.weights.sum(axis=0) - 1.0)) < 1e-12
        ideal = twomode.photon_counting_povm(1.0, pol)
        assert np.array_equal(ideal.weights, np.eye(pol.dim))

        bs = BeamSplitterParams(math.pi / 3, 0.7, 0.2)
        psi = fock.normalize(fock.FockVector(
            np.concatenate([[0.8, 0.4j, -0.3, 0.2], np.zeros(pol.dim - 4)]),
            pol.cutoff))
        prep_in = ReferencePrep.fock(1, 0.2)
        prep_out = ReferencePrep.fock(2, -0.1j)
        rho_mixed, p_mixed = conditional.apply_conditional_mixed(
            fock.DensityOperator.from_pure(psi),
            [(1.0, prep_in)], [(1.0, prep_out)], bs, pol)
        proj_state = prep_out.state(pol)
        proj = fock.FockOperator(np.outer(proj_state.amps, proj_state.amps.conj()),
                                 pol.cutoff)
        rho_pure, p_pure = twomode.conditional_reduce(
            twomode.product_state(psi, prep_in.state(pol)), proj, bs, pol)
        assert abs(p_mixed - p_pure) < 1e-10
        assert np.max(np.abs(rho_mixed.mat - rho_pure.mat)) < 1e-10


def test_criterion_9_swap_symmetry_and_trivial_limits():
    with criterion(9, "signal/reference exchange under (T,R)->(iR,iT) "
                      "reproduces the output (fidelity 1 +- 1e-8); zero "
                      "mixing angle is the identity; vacuum-vacuum "
                      "conditioning is the identity channel with p = 1"):
        rng = np.random.default_rng(20240109)
        pol = fock.TruncationPolicy(cutoff=32)
        for _ in range(5):
            amps = np.zeros(pol.dim, dtype=complex)
            amps[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
            psi = fock.normalize(fock.FockVector(amps, pol.cutoff))
            prep_ref = ReferencePrep(OperatorPolynomial.from_state_amplitudes(
                rng.normal(size=4) + 1j * rng.normal(size=4)).normalized())
            prep_meas = ReferencePrep(OperatorPolynomial.from_state_amplitudes(
                rng.normal(size=3) + 1j * rng.normal(size=3)).normalized())
            bs = BeamSplitterParams(float(rng.choice([math.pi / 4, math.pi / 3, 1.0])),
                                    float(rng.uniform(0, 2 * math.pi)),
                                    float(rng.uniform(0, 2 * math.pi)))
            assert bs.swapped().transmittance == pytest.approx(1j * bs.reflectance)
            assert bs.swapped().reflectance == pytest.approx(1j * bs.transmittance)
            y = conditional.y_displaced_general(prep_ref, prep_meas, bs, pol)
            direct, p_direct = conditional.apply_conditional(y, psi)
            swapped, p_swapped = conditional.swap_roles(psi, prep_ref, prep_meas,
                                                        bs, pol)
            assert abs(fock.inner(direct, swapped)) >= 1.0 - 1e-8
            assert p_swapped == pytest.approx(p_direct, rel=1e-8)

        # theta = 0: the unitary is the identity on the safe block
        u = bs_unitary(BeamSplitterParams(0.0), pol).matrix()
        assert np.max(np.abs(u - np.eye(pol.dim ** 2))) < 1e-8

        # vacuum-vacuum conditioning at theta = 0 is the identity channel
        y = twomode.oracle_y(ReferencePrep.vacuum(), ReferencePrep.vacuum(),
                             BeamSplitterParams(0.0), pol)
        rng2 = np.random.default_rng(1)
        amps = rng2.normal(size=pol.dim) + 1j * rng2.normal(size=pol.dim)
        psi = fock.normalize(fock.FockVector(amps, pol.cutoff))
        out, p = conditional.apply_conditional(y, psi)
        assert p == pytest.approx(1.0, abs=1e-10)
        assert abs(fock.inner(out, psi)) == pytest.approx(1.0, abs=1e-10)
