"""Reduced-size verification suite behind ``condibeam selftest``.

Each check re-derives a core identity at small cutoff and compares two
independent computation routes; a corrupted coefficient anywhere in the
closed-form pipeline shows up as a failed check.  The report is free of
timing and environment data, so repeated runs are byte-identical.
"""

import math

import numpy as np

from . import cats, conditional, fock, twomode
from .beamsplitter import BeamSplitterParams, ReferencePrep
from .ordering import OrderedMonomialSpec, s_ordered_monomial, s_to_t_convert
from .phasespace import PhaseGrid, husimi, wigner_cat_closed, wigner_numeric

__all__ = ["run_selftest", "selftest_checks"]

_POLICY = fock.TruncationPolicy(cutoff=24)


def _rel_frobenius(a, b):
    return np.linalg.norm(a - b) / (np.linalg.norm(b) or 1.0)


def _worst_closed_vs_oracle(configs):
    worst = 0.0
    for m, n, alpha, beta, bs in configs:
        closed = conditional.y_displaced_fock(m, n, alpha, beta, bs, _POLICY)
        oracle = twomode.oracle_y(ReferencePrep.fock(m, alpha),
                                  ReferencePrep.fock(n, beta), bs, _POLICY)
        worst = max(worst, _rel_frobenius(closed.mat, oracle.mat))
    return worst


def _check_closed_form_vs_oracle():
    configs = [
        (0, 0, 0.2 + 0.1j, -0.3j, BeamSplitterParams(math.pi / 4, 0.3, 1.1)),
        (0, 1, 0j, 0j, BeamSplitterParams(math.pi / 4)),
        (1, 0, 0.4, 0.2, BeamSplitterParams(1.0, 2.0, 0.5)),
        (2, 1, -0.2, 0.3j, BeamSplitterParams(math.pi / 3, 1.7, 0.9)),
        (1, 2, 0.25j, -0.1, BeamSplitterParams(1.0, 0.0, 2.2)),
        (3, 3, 0.1, 0.1j, BeamSplitterParams(math.pi / 4, 0.8, 0.2)),
        (2, 2, 0j, 0j, BeamSplitterParams(0.05, 0.7, 1.9)),  # |R|^2 ~ 0.0025
        (3, 3, 0.5, -0.5, BeamSplitterParams(0.5)),  # D(right) carries levels past the cutoff
    ]
    worst = _worst_closed_vs_oracle(configs)
    return worst <= 1e-8, f"max rel Frobenius deviation {worst:.3e} (limit 1e-8)"


def _check_low_transmittance_vs_oracle():
    # |T|^2 = sin(0.05)^2 ~ 0.0025: the s-ordered band's Jacobi prefactor
    # takes |T|^2 from the splitter, where s - 1 would lose its digits
    bs = BeamSplitterParams(math.pi / 2 - 0.05, 0.7, 1.9)
    worst = _worst_closed_vs_oracle([(2, 2, 0j, 0j, bs), (3, 1, 0j, 0j, bs),
                                     (1, 3, 0.2, -0.1j, bs)])
    return worst <= 1e-12, f"max rel Frobenius deviation {worst:.3e} (limit 1e-12)"


def _check_probability_consistency():
    bs = BeamSplitterParams(math.pi / 3, 0.4, 1.3)
    amps = np.zeros(_POLICY.dim, dtype=complex)
    amps[:5] = [0.5, -0.3j, 0.4, 0.2 + 0.1j, -0.25]
    psi = fock.normalize(fock.FockVector(amps, _POLICY.cutoff))
    y = conditional.y_displaced_fock(1, 2, 0.3, -0.2j, bs, _POLICY)
    _, p_closed = conditional.apply_conditional(y, psi)
    prep_in = ReferencePrep.fock(1, 0.3)
    prep_out = ReferencePrep.fock(2, -0.2j)
    proj_state = prep_out.state(_POLICY)
    proj = fock.FockOperator(np.outer(proj_state.amps, proj_state.amps.conj()),
                             _POLICY.cutoff)
    two = twomode.product_state(psi, prep_in.state(_POLICY))
    _, p_oracle = twomode.conditional_reduce(two, proj, bs, _POLICY)
    dev = abs(p_closed - p_oracle)
    return dev <= 1e-10, f"|p_closed - p_oracle| = {dev:.3e} (limit 1e-10)"


def _check_ordering_equivalence():
    worst = 0.0
    for s in (1.5, 3.0):
        for m in range(3):
            for n in range(3):
                closed = s_ordered_monomial(OrderedMonomialSpec(m, n, s), _POLICY)
                converted = s_to_t_convert(m, n, s, 1.0, _POLICY)
                worst = max(worst, _rel_frobenius(closed.mat, converted.mat))
    return worst <= 1e-9, f"max rel deviation {worst:.3e} (limit 1e-9)"


def _check_cat_pipeline():
    spec = cats.CatSpec(2, math.sqrt(1.0))
    chi = cats.chi_state(spec, _POLICY)
    state, p = cats.scheme_a_state(spec, _POLICY, route="closed")
    _, p_formula = cats.cat_norm_and_prob(spec)
    fid_gap = abs(1.0 - abs(fock.inner(chi, state)))
    p_gap = abs(p - p_formula)
    ok = fid_gap <= 1e-10 and p_gap <= 1e-10
    return ok, f"fidelity gap {fid_gap:.3e}, probability gap {p_gap:.3e} (limits 1e-10)"


def _check_chi_state_vs_oracle():
    # the closed sum against the two-mode oracle route, which shares no
    # Laguerre or ordering code with it; at zero splitter phases the oracle's
    # output is (-1)^n chi exactly
    worst = 0.0
    for spec in (cats.CatSpec(4, 1.0), cats.CatSpec(5, 1.2 * np.exp(0.9j))):
        chi = cats.chi_state(spec, _POLICY)
        state, _ = cats.scheme_a_state(spec, _POLICY, route="oracle")
        worst = max(worst, float(np.max(np.abs((-1) ** spec.n * state.amps - chi.amps))))
    return worst <= 1e-9, f"max amplitude deviation {worst:.3e} (limit 1e-9)"


def _check_povm_completeness():
    povm = twomode.photon_counting_povm(0.7, _POLICY)
    total = povm.weights.sum(axis=0)
    dev = float(np.max(np.abs(total - 1.0)))
    ideal = twomode.photon_counting_povm(1.0, _POLICY)
    proj_dev = float(np.max(np.abs(ideal.weights - np.eye(_POLICY.dim))))
    ok = dev <= 1e-12 and proj_dev == 0.0
    return ok, f"completeness deviation {dev:.3e}, eta=1 projector deviation {proj_dev:.3e}"


def _check_husimi_normalization():
    chi = cats.chi_state(cats.CatSpec(2, 1.0), _POLICY)
    grid = PhaseGrid.square(-5.0, 5.0, 101)
    q = husimi(chi, grid, _POLICY)
    step = grid.axis1.step
    integral = float(np.trapezoid(np.trapezoid(q.values, dx=step), dx=step))
    dev = abs(integral - 1.0)
    return dev <= 1e-3, f"|int Q - 1| = {dev:.3e} (limit 1e-3)"


def _check_wigner_numeric_vs_closed():
    # the two-peak Wigner configuration: the numeric transform at its
    # default y-step against the closed double sum
    spec = cats.CatSpec(10, math.sqrt(5.0))
    chi = cats.chi_state(spec, fock.TruncationPolicy(cutoff=64))
    grid = PhaseGrid.square(-5.0, 5.0, 81)
    dev = float(np.max(np.abs(wigner_numeric(chi, grid).values
                              - wigner_cat_closed(spec, grid).values)))
    return dev <= 1e-12, f"max |W_numeric - W_closed| = {dev:.3e} (limit 1e-12)"


def selftest_checks():
    return [
        ("closed-form-vs-oracle", _check_closed_form_vs_oracle),
        ("closed-form-vs-oracle-low-transmittance", _check_low_transmittance_vs_oracle),
        ("probability-consistency", _check_probability_consistency),
        ("ordering-equivalence", _check_ordering_equivalence),
        ("cat-state-pipeline", _check_cat_pipeline),
        ("chi-state-vs-oracle", _check_chi_state_vs_oracle),
        ("povm-completeness", _check_povm_completeness),
        ("husimi-normalization", _check_husimi_normalization),
        ("wigner-numeric-vs-closed", _check_wigner_numeric_vs_closed),
    ]


def run_selftest(write=print):
    """Run all checks; returns True iff everything passed."""
    all_ok = True
    for name, check in selftest_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok" if ok else "FAIL"
        write(f"{status:4s} {name}: {detail}")
        if not ok:
            all_ok = False
            break  # report the first failing property and stop
    write("selftest passed" if all_ok else "selftest FAILED")
    return all_ok
