import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from condibeam import cats, fock, phasespace as ps
from condibeam.errors import DomainError, IntegrationRangeError, TruncationError
from condibeam.polynomials import log_factorial
from phasespace_reference import (coherent_overlap_exp, coherent_overlap_horner,
                                  wigner_cat_per_diagonal, wigner_cat_per_radius)

POLICY = fock.TruncationPolicy(cutoff=32)


# Full-level references: every level 0..cutoff at every sample point, as the
# evaluators did before they ran on the state's support.

def full_coherent_overlap(state, alpha_flat):
    k = np.arange(state.dim)
    r = np.abs(alpha_flat)
    safe_r = np.where(r > 0, r, 1.0)
    logmag = (k[None, :] * np.log(safe_r)[:, None]
              - 0.5 * log_factorial(k)[None, :] - 0.5 * (r ** 2)[:, None])
    phases = np.exp(-1j * k[None, :] * np.angle(alpha_flat)[:, None])
    coeffs = np.exp(logmag) * phases
    zero = r == 0
    coeffs[zero] = 0.0
    coeffs[zero, 0] = 1.0
    return coeffs @ state.amps


def full_wavefunction(state, u):
    return np.tensordot(state.amps, fock.hermite_functions(u, state.cutoff), axes=(0, 0))


def full_quadrature_dist(state, x, phi):
    k = np.arange(state.dim)
    amp = np.tensordot(np.exp(-1j * k * phi) * state.amps,
                       fock.hermite_functions(x, state.cutoff), axes=(0, 0))
    return np.abs(amp) ** 2


def wigner_reference(state, grid, integration):
    """The per-row transform: for each x, two wavefunction evaluations over
    y = linspace(-half_range, half_range) at a step <= integration.step."""
    half, step = integration.half_range, integration.step
    y = np.linspace(-half, half, int(math.ceil(2.0 * half / step)) + 1)
    dy = y[1] - y[0]
    weights = np.ones(y.size)
    weights[0] = weights[-1] = 0.5
    phase = np.exp(2j * np.outer(y, grid.axis2.values))
    rows = [(dy / np.pi) * np.real((weights * full_wavefunction(state, xi - y)
                                    * np.conj(full_wavefunction(state, xi + y))) @ phase)
            for xi in grid.axis1.values]
    return np.array(rows)


def at_phase(x_axis, phi):
    """The grid of one quadrature distribution: x_axis at the single phase phi."""
    return ps.PhaseGrid(x_axis, ps.Axis("phi", phi, phi, 1))


class TestGridTypes:
    def test_axis_values(self):
        ax = ps.Axis("x", -1.0, 1.0, 5)
        assert np.allclose(ax.values, [-1, -0.5, 0, 0.5, 1])
        assert ax.step == 0.5

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            ps.Axis("x", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            ps.Axis("x", 0.0, math.inf, 5)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (1e308, -1e308),
                                        (np.float64(-1e308), np.float64(1e308))],
                             ids=["float", "reversed", "float64"])
    def test_axis_width_past_the_float_range(self, lo, hi):
        # each end is finite but hi - lo is not: refused before linspace
        # computes an infinite step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="width"):
                ps.Axis("x", lo, hi, 5)

    def test_quasiprobability_needs_2d(self):
        grid = ps.PhaseGrid(ps.Axis("x", -1, 1, 5), ps.Axis("p", 0, 0, 1))
        with pytest.raises(ValueError):
            ps.husimi(fock.fock_state(0, POLICY), grid, POLICY)

    def test_gridfunction_shape_check(self):
        grid = ps.PhaseGrid.square(-1, 1, 5)
        with pytest.raises(ValueError):
            ps.GridFunction(np.zeros((4, 5)), grid, "husimi")

    def test_gridfunction_immutable(self):
        grid = ps.PhaseGrid.square(-1, 1, 3)
        gf = ps.GridFunction(np.zeros((3, 3)), grid, "wigner")
        with pytest.raises(ValueError):
            gf.values[0, 0] = 1.0


class TestHusimi:
    def test_vacuum(self):
        grid = ps.PhaseGrid.square(-3, 3, 31)
        q = ps.husimi(fock.fock_state(0, POLICY), grid, POLICY)
        expected = np.exp(-np.abs(grid.alpha()) ** 2) / np.pi
        assert np.max(np.abs(q.values - expected)) < 1e-14

    def test_nonnegative_and_normalized(self):
        grid = ps.PhaseGrid.square(-5, 5, 101)
        for state in (fock.coherent_state(0.8j, POLICY),
                      cats.chi_state(cats.CatSpec(3, 1.0), POLICY)):
            q = ps.husimi(state, grid, POLICY)
            assert np.all(q.values >= 0)
            integral = simpson(simpson(q.values, dx=grid.axis2.step),
                               dx=grid.axis1.step)
            assert integral == pytest.approx(1.0, abs=1e-4)

    def test_chi_closed_form(self):
        spec = cats.CatSpec(4, 1.3 * np.exp(0.3j))
        chi = cats.chi_state(spec, POLICY)
        grid = ps.PhaseGrid.square(-4, 4, 41)
        direct = ps.husimi(chi, grid, POLICY)
        closed = ps.husimi_chi_closed(spec, grid)
        assert np.max(np.abs(direct.values - closed.values)) < 1e-8

    def test_multi_cat_closed_form(self):
        spec = cats.CatSpec(3, 1.8, k=2)
        state = cats.multi_cat_state(spec, POLICY)
        grid = ps.PhaseGrid.square(-4, 4, 41)
        direct = ps.husimi(state, grid, POLICY)
        closed = ps.husimi_multi_cat_closed(spec, grid)
        assert np.max(np.abs(direct.values - closed.values)) < 1e-8

    def test_tail_guard(self):
        # a state with weight at the cutoff edge on a far-reaching grid
        amps = np.zeros(POLICY.dim, dtype=complex)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2)
        state = fock.FockVector(amps, POLICY.cutoff)
        grid = ps.PhaseGrid.square(-7, 7, 11)
        with pytest.raises(TruncationError):
            ps.husimi(state, grid, POLICY)


class TestWignerNumeric:
    def test_vacuum(self):
        grid = ps.PhaseGrid.square(-3, 3, 31)
        w = ps.wigner_numeric(fock.fock_state(0, POLICY), grid)
        expected = np.exp(-np.abs(grid.alpha()) ** 2) / np.pi
        assert np.max(np.abs(w.values - expected)) < 1e-8

    def test_single_photon_negative_at_origin(self):
        grid = ps.PhaseGrid.square(-1, 1, 3)
        w = ps.wigner_numeric(fock.fock_state(1, POLICY), grid)
        assert w.values[1, 1] == pytest.approx(-1.0 / math.pi, abs=1e-10)

    def test_normalization(self):
        chi = cats.chi_state(cats.CatSpec(3, math.sqrt(1.5)), POLICY)
        grid = ps.PhaseGrid.square(-4.5, 4.5, 91)
        w = ps.wigner_numeric(chi, grid)
        integral = simpson(simpson(w.values, dx=grid.axis2.step),
                           dx=grid.axis1.step)
        assert integral == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("half_range, step", [
        (math.nan, 0.02), (math.inf, 0.02), (5.0, math.nan), (5.0, math.inf),
    ])
    def test_integration_spec_rejects_non_finite(self, half_range, step):
        with pytest.raises(ValueError, match="finite"):
            ps.IntegrationSpec(half_range=half_range, step=step)

    def test_range_too_small(self):
        grid = ps.PhaseGrid.square(-2, 2, 11)
        with pytest.raises(IntegrationRangeError):
            ps.wigner_numeric(fock.fock_state(0, POLICY), grid,
                              ps.IntegrationSpec(half_range=2.0, step=0.02))


class TestWignerFarField:
    """Momenta the y-sum would alias, and x far past the state's support."""

    SPEC = cats.CatSpec(10, math.sqrt(5.0))
    CHI = cats.chi_state(SPEC, fock.TruncationPolicy(cutoff=64))

    @pytest.mark.parametrize("grid", [
        ps.PhaseGrid.square(-1e3, 1e3, 81),   # W(0, -625) would read W(0, 3.3185)
        ps.PhaseGrid(ps.Axis("x", -2, 2, 5), ps.Axis("p", -149, 149, 41)),
    ], ids=["1e3", "149"])
    def test_aliasing_momenta_are_refused(self, grid):
        # with dy = 0.02 the sum returns W summed over p + k pi/dy, k whole;
        # half_range is ~8.6 here, so |p| past ~148.5 lets an alias reach it
        with pytest.raises(IntegrationRangeError, match="alias"):
            ps.wigner_numeric(self.CHI, grid)

    @pytest.mark.parametrize("p_max", [100.0, 148.0])
    def test_momenta_inside_the_alias_bound(self, p_max):
        grid = ps.PhaseGrid(ps.Axis("x", -2, 2, 5), ps.Axis("p", -p_max, p_max, 41))
        w = ps.wigner_numeric(self.CHI, grid).values
        assert np.max(np.abs(w - ps.wigner_cat_closed(self.SPEC, grid).values)) < 1e-13

    def test_x_axis_past_int64(self):
        # the row stride r = ceil(dx / step) ~ 1.25e200 passes int64
        grid = ps.PhaseGrid(ps.Axis("x", -1e200, 1e200, 81), ps.Axis("p", -5, 5, 11))
        w = ps.wigner_numeric(self.CHI, grid).values
        assert np.isfinite(w).all()
        assert not w[0].any() and not w[-1].any()


class TestWignerLattice:
    """The grid is evaluated from one wavefunction table on a shared lattice."""

    SPEC = cats.CatSpec(10, math.sqrt(5.0) * np.exp(0.4j))
    P_AXIS = ps.Axis("p", -5, 5, 41)

    @pytest.mark.parametrize("x_axis", [
        ps.Axis("x", -6, 6, 81),          # spacing 0.15 > step 0.141: r = 2, s = 1
        ps.Axis("x", -0.84, 0.84, 81),    # spacing 0.021 < step: r = 1, s = 6
        ps.Axis("x", -0.2, 0.2, 81),      # spacing 0.005 < step: r = 1, s = 28
        ps.Axis("x", 5, -5, 41),          # descending
        ps.Axis("x", 1.3, 1.3, 4),        # lo == hi: every row is the same
        ps.Axis("x", -2e-3, 2e-3, 41),    # y-step far wider than the spacing
        ps.Axis("x", -40, 40, 3),         # spacing far wider than the window
    ], ids=["0.15", "0.021", "0.005", "descending", "lo-eq-hi", "fine", "coarse"])
    def test_matches_closed_form_and_per_row_route(self, x_axis):
        chi = cats.chi_state(self.SPEC, fock.TruncationPolicy(cutoff=64))
        grid = ps.PhaseGrid(x_axis, self.P_AXIS)
        w = ps.wigner_numeric(chi, grid).values
        closed = ps.wigner_cat_closed(self.SPEC, grid).values
        reference = wigner_reference(chi, grid, ps.default_integration(chi))
        assert np.max(np.abs(w - closed)) < 1e-8
        peak = np.max(np.abs(reference))
        assert np.max(np.abs(w - reference)) < 1e-12 * peak

    def test_one_table_per_grid(self, monkeypatch):
        # one wavefunction table per Wigner grid and one oscillator table
        # per quadrature grid, whatever the number of rows or phases
        calls = []
        hermite = ps.hermite_functions
        monkeypatch.setattr(ps, "hermite_functions",
                            lambda x, nmax: calls.append(nmax) or hermite(x, nmax))
        chi = cats.chi_state(self.SPEC, fock.TruncationPolicy(cutoff=64))
        for points in (5, 41):
            calls.clear()
            ps.wigner_numeric(chi, ps.PhaseGrid.square(-5, 5, points))
            assert len(calls) == 1
            calls.clear()
            ps.quadrature_dist(chi, ps.PhaseGrid(ps.Axis("x", -6, 6, 3 * points),
                                                 ps.Axis("phi", 0, 3, points)))
            assert len(calls) == 1


class TestWignerDerivedStep:
    """The default y-step: the largest lattice step with pi/dy at least
    max|p| + 2 half_range, its bound never below 0.02."""

    @staticmethod
    def grid(n, shape):
        r = round(math.sqrt(2 * n + 1)) + 4
        return {
            "symmetric": ps.PhaseGrid.square(-r, r, 61),
            "one-sided": ps.PhaseGrid(ps.Axis("x", 0.3, r, 47), ps.Axis("p", 0.1, r, 41)),
            "descending": ps.PhaseGrid(ps.Axis("x", r, -r, 41), ps.Axis("p", r, -r, 53)),
        }[shape]

    @staticmethod
    def routes(n, shape):
        spec = cats.CatSpec(n, math.sqrt(n / 2))
        chi = cats.chi_state(spec, fock.TruncationPolicy(cutoff=max(64, 3 * n)))
        grid = TestWignerDerivedStep.grid(n, shape)
        fixed = ps.IntegrationSpec(ps.default_integration(chi).half_range, 0.02)
        return (ps.wigner_numeric(chi, grid).values, ps.wigner_numeric(chi, grid, fixed).values,
                ps.wigner_cat_closed(spec, grid).values)

    @pytest.mark.parametrize("shape", ["symmetric", "one-sided", "descending"])
    @pytest.mark.parametrize("n", [2, 5, 10, 20, 40, 80])
    def test_matches_closed_form_and_the_fixed_step(self, n, shape):
        derived, fixed, closed = self.routes(n, shape)
        peak = np.max(np.abs(closed))
        assert np.max(np.abs(derived - closed)) < 1e-13 * peak
        assert np.max(np.abs(derived - fixed)) < 1e-13 * peak

    @pytest.mark.parametrize("shape", ["symmetric", "one-sided", "descending"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_low_photon_numbers_share_the_window_error(self, n, shape):
        # half_range = 4 + 2 sqrt(<n>) cuts ~1.5e-8 of the vacuum's integrand
        # off at either step
        derived, fixed, closed = self.routes(n, shape)
        assert np.max(np.abs(derived - closed)) < 1e-8
        assert np.max(np.abs(derived - fixed)) < 1e-8

    def test_shipped_grid_samples_at_the_alias_bound(self, monkeypatch):
        # two_peak_wigner.cfg: dx = 0.125 and half_range = 8.61, so
        # pi / (5 + 2 half_range) = 0.141 >= dx gives dy = dx, h = 69 and a
        # lattice of 80 + 2 h + 1 points, where the fixed 0.02 took 1527
        sizes = []
        hermite = ps.hermite_functions
        monkeypatch.setattr(ps, "hermite_functions",
                            lambda x, nmax: sizes.append(np.size(x)) or hermite(x, nmax))
        chi = cats.chi_state(cats.CatSpec(10, 2.23606797749979), fock.TruncationPolicy(cutoff=64))
        ps.wigner_numeric(chi, ps.PhaseGrid.square(-5.0, 5.0, 81))
        assert sizes == [219]


class TestWignerCatClosed:
    def test_zero_photons_is_vacuum(self):
        grid = ps.PhaseGrid.square(-3, 3, 31)
        w = ps.wigner_cat_closed(cats.CatSpec(0, 1.0), grid)
        expected = np.exp(-np.abs(grid.alpha()) ** 2) / np.pi
        assert np.max(np.abs(w.values - expected)) < 1e-12

    def test_matches_numeric_transform(self):
        spec = cats.CatSpec(3, math.sqrt(1.5))
        chi = cats.chi_state(spec, POLICY)
        grid = ps.PhaseGrid.square(-4, 4, 81)
        numeric = ps.wigner_numeric(chi, grid)
        closed = ps.wigner_cat_closed(spec, grid)
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-6

    def test_complex_displacement(self):
        spec = cats.CatSpec(2, 1.1 * np.exp(1.9j))
        chi = cats.chi_state(spec, POLICY)
        grid = ps.PhaseGrid.square(-4, 4, 41)
        numeric = ps.wigner_numeric(chi, grid)
        closed = ps.wigner_cat_closed(spec, grid)
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-8

    def test_output_is_real_valued(self):
        grid = ps.PhaseGrid.square(-3, 3, 21)
        w = ps.wigner_cat_closed(cats.CatSpec(4, 1.2), grid)
        assert w.values.dtype == np.float64

    @pytest.mark.parametrize("span", [1e16, 1e200])
    def test_raises_outside_float_range(self, span):
        with pytest.raises(DomainError, match="leaves the float range"):
            ps.wigner_cat_closed(cats.CatSpec(10, math.sqrt(5.0)),
                                 ps.PhaseGrid.square(-span, span, 5))


class TestQuadratureDist:
    def test_vacuum_density(self):
        ax = ps.Axis("x", -4, 4, 161)
        p = ps.quadrature_dist(fock.fock_state(0, POLICY), at_phase(ax, 0.0))
        expected = np.exp(-ax.values ** 2) / math.sqrt(math.pi)
        assert np.max(np.abs(p.values[:, 0] - expected)) < 1e-14

    def test_normalization_any_phase(self):
        chi = cats.chi_state(cats.CatSpec(4, math.sqrt(2)), POLICY)
        ax = ps.Axis("x", -8, 8, 801)
        for phi in (0.0, 0.7, 2.9):
            p = ps.quadrature_dist(chi, at_phase(ax, phi))
            assert simpson(p.values[:, 0], dx=ax.step) == pytest.approx(1.0, abs=1e-6)

    def test_fock_state_phase_invariance(self):
        ax = ps.Axis("x", -5, 5, 101)
        base = ps.quadrature_dist(fock.fock_state(3, POLICY), at_phase(ax, 0.0))
        for phi in (0.4, 1.8):
            rotated = ps.quadrature_dist(fock.fock_state(3, POLICY), at_phase(ax, phi))
            assert np.max(np.abs(rotated.values - base.values)) < 1e-10

    def test_chi_closed_form(self):
        spec = cats.CatSpec(10, math.sqrt(5.0))
        pol = fock.TruncationPolicy(cutoff=64)
        chi = cats.chi_state(spec, pol)
        ax = ps.Axis("x", -6, 6, 121)
        for phi in np.linspace(0, math.pi, 7, endpoint=False):
            overlap = ps.quadrature_dist(chi, at_phase(ax, float(phi)))
            closed = ps.quadrature_chi_closed(spec, at_phase(ax, float(phi)))
            assert np.max(np.abs(overlap.values - closed.values)) < 1e-8

    def test_nonnegative(self):
        chi = cats.chi_state(cats.CatSpec(5, 1.0), POLICY)
        ax = ps.Axis("x", -5, 5, 101)
        assert np.all(ps.quadrature_dist(chi, at_phase(ax, 1.0)).values >= 0)

    def test_closed_form_outside_float_range(self):
        # at n = 300 the unnormalized H_k(x) leave the float range; the closed
        # form carries their power-of-two exponents and matches the overlap
        # route, with no RuntimeWarning
        spec = cats.CatSpec(300, math.sqrt(150.0))
        chi = cats.chi_state(spec, fock.TruncationPolicy(cutoff=1024))
        grid = ps.PhaseGrid(ps.Axis("x", -6, 6, 25), ps.Axis("phi", 0, 3, 3))
        overlap = ps.quadrature_dist(chi, grid).values
        closed = ps.quadrature_chi_closed(spec, grid).values
        assert np.all(np.isfinite(overlap)) and overlap.max() > 0.05
        assert np.max(np.abs(closed - overlap)) < 1e-8

    def test_closed_form_raises_when_the_sum_overflows(self):
        # at |x| = 1e300 one recurrence step 2x H_k leaves the float range
        # between two rescalings: DomainError, not NaN, and no RuntimeWarning
        spec = cats.CatSpec(3, 1.2)
        grid = ps.PhaseGrid(ps.Axis("x", -1e300, 1e300, 3), ps.Axis("phi", 0, 1, 2))
        with pytest.raises(DomainError, match="leaves the float range"):
            ps.quadrature_chi_closed(spec, grid)


class TestMarginals:
    @pytest.mark.parametrize("state_factory", [
        lambda: fock.fock_state(0, POLICY),
        lambda: fock.fock_state(2, POLICY),
        lambda: cats.chi_state(cats.CatSpec(4, math.sqrt(2)), POLICY),
    ])
    def test_p_marginal_is_quadrature_density(self, state_factory):
        state = state_factory()
        x_axis = ps.Axis("x", -4, 4, 81)
        grid = ps.PhaseGrid(x_axis, ps.Axis("p", -6.5, 6.5, 131))
        w = ps.wigner_numeric(state, grid)
        marginal = simpson(w.values, dx=grid.axis2.step, axis=1)
        density = ps.quadrature_dist(state, at_phase(x_axis, 0.0)).values[:, 0]
        assert np.max(np.abs(marginal - density)) < 1e-5


class TestSupportEvaluation:
    """The evaluators run on the state's support and agree with the full sums."""

    POL = fock.TruncationPolicy(cutoff=128)

    @pytest.fixture(params=["chi-10", "chi-20", "multi-cat-5", "fock-7", "coherent"])
    def state(self, request):
        return {
            "chi-10": lambda: cats.chi_state(cats.CatSpec(10, math.sqrt(5.0) * np.exp(0.4j)),
                                             self.POL),
            "chi-20": lambda: cats.chi_state(cats.CatSpec(20, math.sqrt(10.0)), self.POL),
            "multi-cat-5": lambda: cats.multi_cat_state(cats.CatSpec(4, 1.3, k=5), self.POL),
            "fock-7": lambda: fock.fock_state(7, self.POL),
            "coherent": lambda: fock.coherent_state(1.5 - 0.7j, self.POL),
        }[request.param]()

    def test_coherent_overlap_matches_full_sum(self, state):
        alpha = ps.PhaseGrid.square(-6, 6, 25).alpha().ravel()
        assert np.any(alpha == 0)  # <0|psi>, which is 0 where level 0 is off the support
        got = ps._coherent_overlap(state, alpha)
        assert np.max(np.abs(got - full_coherent_overlap(state, alpha))) < 1e-14

    def test_wavefunction_matches_full_sum(self, state):
        u = np.linspace(-9, 9, 181)
        got = ps._wavefunction(state, u)
        assert np.max(np.abs(got - full_wavefunction(state, u))) < 1e-14

    def test_quadrature_dist_matches_full_sum(self, state):
        ax = ps.Axis("x", -9, 9, 181)
        for phi in (0.0, 0.9, 2.6):
            got = ps.quadrature_dist(state, at_phase(ax, phi)).values[:, 0]
            assert np.max(np.abs(got - full_quadrature_dist(state, ax.values, phi))) < 1e-14

    def test_quadrature_grid_columns_match_full_sum(self, state):
        ax = ps.Axis("x", -9, 9, 181)
        phi_axis = ps.Axis("phi", 0.0, 2.6, 7)
        got = ps.quadrature_dist(state, ps.PhaseGrid(ax, phi_axis)).values
        for j, phi in enumerate(phi_axis.values):
            assert np.max(np.abs(got[:, j] - full_quadrature_dist(state, ax.values, phi))) < 1e-14

    def test_grids_do_not_depend_on_cutoff(self, monkeypatch):
        # the same chi state at cutoff 64 and 1024 gives bit-identical grids,
        # and no evaluator asks for a level above the state's top level 10
        levels = []
        hermite, log_fact = ps.hermite_functions, ps.log_factorial
        monkeypatch.setattr(ps, "hermite_functions",
                            lambda x, nmax: levels.append(nmax) or hermite(x, nmax))
        monkeypatch.setattr(ps, "log_factorial",
                            lambda k: levels.append(np.size(k) - 1) or log_fact(k))
        spec = cats.CatSpec(10, math.sqrt(5.0))
        grid = ps.PhaseGrid.square(-5, 5, 11)
        ax = ps.Axis("x", -7, 7, 57)
        results = []
        for cutoff in (64, 1024):
            pol = fock.TruncationPolicy(cutoff=cutoff)
            chi = cats.chi_state(spec, pol)
            results.append((ps.husimi(chi, grid, pol).values,
                            ps.wigner_numeric(chi, grid).values,
                            ps.quadrature_dist(chi, at_phase(ax, 0.7)).values))
        for small, large in zip(*results):
            assert np.array_equal(small, large)
        assert levels and max(levels) == 10

    def test_conditional_output_runs_on_its_numerical_top(self, monkeypatch):
        # a scheme-b output is nonzero on every level up to the cutoff, but
        # the levels above its numerical top t hold at most 1e-17 of its norm:
        # the evaluators read levels 0..t only and match the full sums
        pol = fock.TruncationPolicy(cutoff=512)
        state, _ = cats.scheme_b_state(cats.CatSpec(20, math.sqrt(10.0)), pol)
        top = fock._numerical_top(state.amps)
        assert np.count_nonzero(state.amps) == pol.dim and top < 128
        grid = ps.PhaseGrid.square(-6, 6, 25)
        ax = ps.Axis("x", -9, 9, 37)

        def evaluate():
            return (ps.husimi(state, grid, pol).values, ps.wigner_numeric(state, grid).values,
                    ps.quadrature_dist(state, at_phase(ax, 0.7)).values)

        levels = []
        hermite, log_fact = ps.hermite_functions, ps.log_factorial
        monkeypatch.setattr(ps, "hermite_functions",
                            lambda x, nmax: levels.append(nmax) or hermite(x, nmax))
        monkeypatch.setattr(ps, "log_factorial",
                            lambda k: levels.append(int(np.max(k))) or log_fact(k))
        got = evaluate()
        assert len(levels) >= 3 and max(levels) <= top
        monkeypatch.setattr(ps, "_numerical_top", lambda amps: len(amps) - 1)
        full = evaluate()
        assert max(levels) == pol.cutoff
        for value, reference in zip(got, full):
            assert np.max(np.abs(value - reference)) <= 1e-15


# Grids on which the Horner sums meet their direct referees: symmetric (many
# repeated |z|^2), off-center, asymmetric (few repeats), with a reversed
# axis, and through z = 0.
REFEREE_GRIDS = {
    "symmetric": ps.PhaseGrid.square(-5, 5, 81),
    "off-center": ps.PhaseGrid(ps.Axis("x", -1.0, 4.0, 37), ps.Axis("p", -3.0, 2.0, 29)),
    "asymmetric": ps.PhaseGrid(ps.Axis("x", -2.3, 3.7, 41), ps.Axis("p", -1.1, 4.9, 23)),
    "reversed": ps.PhaseGrid(ps.Axis("x", 4.0, -4.0, 33), ps.Axis("p", -4.0, 4.0, 33)),
    "through zero": ps.PhaseGrid(ps.Axis("x", 0.0, 3.0, 7), ps.Axis("p", -3.0, 3.0, 7)),
}


class TestHornerAgainstReferees:
    @pytest.mark.parametrize("grid", REFEREE_GRIDS.values(), ids=REFEREE_GRIDS.keys())
    @pytest.mark.parametrize("spec", [cats.CatSpec(0, 0.4), cats.CatSpec(3, math.sqrt(1.5)),
                                      cats.CatSpec(10, math.sqrt(5.0) * np.exp(2.2j)),
                                      cats.CatSpec(20, math.sqrt(10.0) * np.exp(-0.6j))],
                             ids=lambda spec: f"n={spec.n}")
    def test_wigner_closed_matches_per_diagonal_sum(self, spec, grid):
        got = ps.wigner_cat_closed(spec, grid).values
        ref = wigner_cat_per_diagonal(spec, grid)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.fixture(params=["chi", "fock-7", "from-level-3-with-gaps", "multi-cat-5",
                            "coherent", "empty"])
    def state(self, request):
        pol = fock.TruncationPolicy(cutoff=128)
        if request.param == "from-level-3-with-gaps":
            return from_level_3_with_gaps(pol)
        return {
            "chi": lambda: cats.chi_state(cats.CatSpec(12, math.sqrt(6.0) * np.exp(0.9j)), pol),
            "fock-7": lambda: fock.fock_state(7, pol),
            "multi-cat-5": lambda: cats.multi_cat_state(cats.CatSpec(6, 1.4, k=5), pol),
            "coherent": lambda: fock.coherent_state(2.0 - 1.0j, pol),
            "empty": lambda: fock.FockVector(np.zeros(pol.dim), pol.cutoff),
        }[request.param]()

    @pytest.mark.parametrize("grid", REFEREE_GRIDS.values(), ids=REFEREE_GRIDS.keys())
    def test_husimi_overlap_matches_exp_phases(self, state, grid):
        alpha = grid.alpha().ravel()
        got = ps._coherent_overlap(state, alpha)
        ref = coherent_overlap_exp(state, alpha)
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)
        if not np.any(state.amps):
            assert np.all(got == 0)

    def test_overlap_at_the_origin_is_the_vacuum_amplitude(self, state):
        alpha = np.array([0.0, 1e-3])
        assert ps._coherent_overlap(state, alpha)[0] == state.amps[0]


def recorded_radii(monkeypatch):
    """The sizes of the arguments :func:`phasespace.laguerre_rows` receives."""
    sizes = []
    original = ps.laguerre_rows

    def counting(nmax, x, *args):
        sizes.append(np.size(x))
        return original(nmax, x, *args)

    monkeypatch.setattr(ps, "laguerre_rows", counting)
    return sizes


def mirror_grid(grid):
    """A stand-in for ``grid`` whose alpha() holds the mirror-exact axis values
    that :func:`phasespace.wigner_cat_closed` evaluates on."""
    x, p = ps._mirror_values(grid.axis1), ps._mirror_values(grid.axis2)
    return types.SimpleNamespace(alpha=lambda: x[:, None] + 1j * p[None, :])


def mirror_class_bound(points):
    """ceil(N/2)(ceil(N/2) + 1)/2: the pairs (|x|, |p|) of a square grid of N
    points a side whose axes are both symmetric, up to x <-> p."""
    half = (points + 1) // 2
    return half * (half + 1) // 2


class TestHornerCost:
    def test_wigner_recurrence_runs_on_distinct_radii(self, monkeypatch):
        # the 81 x 81 grids of the shipped Wigner config (+-5) and of the
        # bench (+-6, +-7) are symmetric in x, p and x <-> p: at most
        # 41 * 42 / 2 = 861 mirror classes among 6561 points (fewer where two
        # pairs (|x|, |p|) give the same radius), where linspace's rounding
        # leaves 773, 1259 and 1585 distinct |z|^2
        sizes = recorded_radii(monkeypatch)
        for half in (5, 6, 7):
            ps.wigner_cat_closed(cats.CatSpec(10, math.sqrt(5.0)),
                                 ps.PhaseGrid.square(-half, half, 81))
        assert len(sizes) == 3 and max(sizes) <= mirror_class_bound(81) == 861


# Grids whose axes are exact mirror images (step 1/8) or not symmetric at all:
# there the mirror classes are the distinct radii themselves.
UNFOLDED_GRIDS = {
    "+-5/81": ps.PhaseGrid.square(-5, 5, 81),
    "+-4/65": ps.PhaseGrid.square(-4, 4, 65),
    "no symmetric axis": ps.PhaseGrid(ps.Axis("x", -3, 5, 81), ps.Axis("p", -2, 6, 81)),
}
# Symmetric axes whose linspace points are not exact mirror images.
FOLDED_GRIDS = {
    "+-6/81": ps.PhaseGrid.square(-6, 6, 81),
    "+-7/81": ps.PhaseGrid.square(-7, 7, 81),
    "reversed": ps.PhaseGrid.square(7, -7, 81),
    "even N": ps.PhaseGrid.square(-7, 7, 80),
    "one axis": ps.PhaseGrid(ps.Axis("x", -6.3, 6.3, 57), ps.Axis("p", -2.0, 5.0, 43)),
}
MIRROR_SPECS = [cats.CatSpec(10, math.sqrt(5.0) * np.exp(0.7j)),
                cats.CatSpec(20, math.sqrt(10.0) * np.exp(-0.6j))]


class TestWignerMirrorClasses:
    """The chi-state Wigner sum runs once per mirror class of radii."""

    @pytest.mark.parametrize("grid", UNFOLDED_GRIDS.values(), ids=UNFOLDED_GRIDS.keys())
    @pytest.mark.parametrize("spec", MIRROR_SPECS, ids=lambda spec: f"n={spec.n}")
    def test_equals_the_per_radius_sum_where_nothing_folds(self, spec, grid):
        assert np.array_equal(ps.wigner_cat_closed(spec, grid).values,
                              wigner_cat_per_radius(spec, grid))

    @pytest.mark.parametrize("grid", FOLDED_GRIDS.values(), ids=FOLDED_GRIDS.keys())
    @pytest.mark.parametrize("spec", MIRROR_SPECS, ids=lambda spec: f"n={spec.n}")
    def test_folded_grids_match_the_per_diagonal_sum(self, monkeypatch, spec, grid):
        sizes = recorded_radii(monkeypatch)
        got = ps.wigner_cat_closed(spec, grid).values
        ref = wigner_cat_per_diagonal(spec, grid)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        distinct = np.unique(np.abs(math.sqrt(2.0) * grid.alpha()) ** 2).size
        assert sizes[0] < distinct
        if grid.axis1 == grid.axis2:
            assert sizes[0] <= mirror_class_bound(grid.axis1.points)

    @given(log_half=st.floats(math.log(1e-320), math.log(40.0)), reverse=st.booleans(),
           points=st.integers(2, 101), n=st.integers(0, 30), modulus=st.floats(0.0, 3.0),
           phase=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_windows(self, log_half, reverse, points, n, modulus, phase):
        # half-widths log-uniform from the subnormal 1e-320 to 40, either way round
        half = math.exp(log_half)
        lo, hi = (half, -half) if reverse else (-half, half)
        grid = ps.PhaseGrid.square(lo, hi, points)
        spec = cats.CatSpec(n, modulus * np.exp(1j * phase))
        with pytest.MonkeyPatch.context() as patch:
            sizes = recorded_radii(patch)
            got = ps.wigner_cat_closed(spec, grid).values
        # the grids drawn may miss the peak (two points at +-40) or sit on
        # one point of cancelling terms (W(0) = sum_j (-1)^j |c_j|^2 / pi), so
        # the scale is W's bound 1/pi, not the grid's largest value
        ref = wigner_cat_per_diagonal(spec, mirror_grid(grid))
        assert np.max(np.abs(got - ref)) <= 1e-14 / np.pi
        assert sizes[0] <= mirror_class_bound(points)
        chi = cats.chi_state(spec, fock.TruncationPolicy(cutoff=64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                w = ps.wigner_numeric(chi, grid).values
            except (IntegrationRangeError, DomainError):
                return
        assert np.isfinite(w).all()


def from_level_3_with_gaps(pol):
    """A state on the levels 3, 4, 9, 17 and 40: its support starts above 0."""
    amps = np.zeros(pol.dim, dtype=complex)
    amps[[3, 4, 9, 17, 40]] = [0.5, -0.3j, 0.6 + 0.2j, -0.4, 0.25j]
    return fock.normalize(fock.FockVector(amps, pol.cutoff))


OVERLAP_POL = fock.TruncationPolicy(cutoff=128)
# (state, grid) pairs: alpha = 0 sits at the centre of every odd square grid
OVERLAP_CASES = {
    "chi-10": (lambda: cats.chi_state(cats.CatSpec(10, math.sqrt(5.0) * np.exp(0.4j)),
                                      OVERLAP_POL), ps.PhaseGrid.square(-4, 4, 81)),
    "chi-20": (lambda: cats.chi_state(cats.CatSpec(20, math.sqrt(10.0) * np.exp(-1.1j)),
                                      OVERLAP_POL), ps.PhaseGrid.square(-5, 5, 81)),
    # five_component_cat_husimi.cfg
    "five-fold cat": (lambda: cats.multi_cat_state(cats.CatSpec(10, 4.2, k=5), OVERLAP_POL),
                      ps.PhaseGrid.square(-8, 8, 81)),
    "from level 3": (lambda: from_level_3_with_gaps(OVERLAP_POL), ps.PhaseGrid.square(-6, 6, 61)),
    # |alpha| up to 85, past _far_radius(10) = 46.3
    "far field": (lambda: cats.chi_state(cats.CatSpec(10, math.sqrt(5.0)), OVERLAP_POL),
                  ps.PhaseGrid.square(-60, 60, 41)),
}


class TestInPlaceOverlap:
    """The Husimi overlap's in-place magnitude table and Horner sum equal the
    arithmetic they replaced bit for bit."""

    @pytest.mark.parametrize("case", OVERLAP_CASES.values(), ids=OVERLAP_CASES.keys())
    def test_equals_the_horner_reference(self, case):
        state_factory, grid = case
        state = state_factory()
        alpha = grid.alpha().ravel()
        assert np.any(alpha == 0)
        got = ps._coherent_overlap(state, alpha)
        assert np.array_equal(got, coherent_overlap_horner(state, alpha))

    def test_cases_reach_the_support_and_radius_branches(self):
        assert ps._support(OVERLAP_CASES["from level 3"][0]())[0] == 3
        state_factory, grid = OVERLAP_CASES["far field"]
        assert np.abs(grid.alpha()).max() > ps._far_radius(ps._support(state_factory())[-1])
