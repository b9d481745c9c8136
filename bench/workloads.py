"""The benchmark's three workloads as lists of checked operations.

Every op is one call into condibeam (``run``) and a reference check on its
result (``check``), which raises :class:`Mismatch` when the result is wrong.
The checks hold the experiments' own cross-check scalars to the tier-1 test
thresholds, compare cold CLI envelopes with the output recorded in
``reference/cold_cli.json.gz``, and compare cat probabilities and amplitudes
with a 60-digit mpmath referee (not with ``cats.cat_norm_and_prob``, whose
Laguerre sum loses digits at large n).

The seed draws only phases: beam-splitter phases phi_t and phi_r and the
phases of the displacements.  Magnitudes, cutoffs and grid sizes are fixed,
so the cost of a pass and every check threshold hold for any seed.
"""

import cmath
import gzip
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference" / "cold_cli.json.gz"

# Tier-1 test thresholds for the experiments' own cross-check scalars.
THRESHOLDS = {
    "oracle_rel_frobenius_error": 1e-8,
    "closed_form_max_abs_dev": 1e-8,
    "closed_vs_numeric_max_abs_dev": 1e-6,
    "completeness_max_dev": 1e-12,
    "route_probability_dev": 1e-12,
    "route_state_max_dev": 1e-12,
}
# Cat probabilities and amplitudes against the mpmath referee.
REFEREE_REL_TOL = 1e-8
# Below |R|^2 = 0.05 conditional._guard_conditioning accepts a closed form
# within 1e-6 (relative) of the oracle.  With displaced references at
# |R|^2 = 0.039 the closed form reaches ~6e-7 at some phases (22 of 120
# seeds exceed 1e-8), so the low-reflectance op is held to the guard's bound.
GUARD_REL_TOL = 1e-6


class Mismatch(Exception):
    """A result that fails its reference check."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # check(result) -> {"scalars": ..., "duration_s": ...}; raises Mismatch
    check: Callable[[Any], dict]
    # (exception type, message prefix) this op raises at the baseline commit
    known_defect: tuple = None


def _require(ok, message):
    if not ok:
        raise Mismatch(message)


def check_thresholds(scalars, limits=THRESHOLDS):
    for key, limit in limits.items():
        if key in scalars:
            _require(scalars[key] < limit, f"{key} = {scalars[key]!r} not below {limit}")


# --- cold-cli ------------------------------------------------------------------

@dataclass
class ChildRun:
    """A finished CLI process: exit code, peak RSS, envelope path, spans."""

    returncode: int
    maxrss_mb: float
    out_path: Path
    stderr: str
    spans: list = None


def spawn(argv, env, cwd, tmp):
    """Run one child to completion; its own peak RSS comes from wait4."""
    err_path = tmp / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")


def _experiment_of(cfg_path):
    for line in cfg_path.read_text().splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.strip() == "experiment":
            return value.strip()
    raise ValueError(f"{cfg_path} names no experiment")


def load_reference():
    return json.loads(gzip.decompress(REFERENCE.read_bytes()))


def cold_cli_ops(root, env, tmp, traced, reference):
    """Each shipped config as a fresh ``python -m condibeam.cli`` process."""
    ops = []
    for cfg in sorted((root / "configs").glob("*.cfg")):
        experiment = _experiment_of(cfg)
        out = tmp / f"{cfg.stem}.json"
        spans_path = tmp / f"{cfg.stem}.spans.json"
        cli_args = [experiment, "--config", str(cfg.relative_to(root)),
                    "--format", "json-like", "--out", str(out)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "condibeam.cli", *cli_args]

        def run(argv=argv, out=out, spans_path=spans_path):
            for path in (out, spans_path):
                path.unlink(missing_ok=True)
            code, rss, stderr = spawn(argv, env, root, tmp)
            spans = json.loads(spans_path.read_text()) if traced and code == 0 else None
            return ChildRun(code, rss, out, stderr, spans)

        def check(child, name=cfg.name, text=cfg.read_text()):
            _require(child.returncode == 0,
                     f"exit {child.returncode}: {child.stderr.strip()[-300:]}")
            envelope = json.loads(child.out_path.read_text())
            _require(envelope["config"] == text, "envelope does not embed the config")
            compare_envelope(envelope, reference[name])
            return {"scalars": envelope["results"], "duration_s": envelope["duration_s"]}

        ops.append(Op(cfg.name, run, check))
    return ops


def reference_record(envelope):
    """What the reference keeps of an envelope: results and grids, 12 digits."""
    grids = {}
    for name, grid in envelope["grids"].items():
        grids[name] = dict(grid, values=[[float(f"{v:.12g}") for v in row]
                                         for row in grid["values"]])
    return {"experiment": envelope["experiment"], "results": envelope["results"],
            "grids": grids}


def compare_envelope(envelope, ref):
    """Results and grids equal to the recorded output (``duration_s`` excluded).

    Scalars that are themselves cross-check deviations only have to stay
    below their thresholds; other floats agree to 1e-9 relative and grid
    values to 1e-9 of the grid's largest magnitude.
    """
    _require(envelope["experiment"] == ref["experiment"], "experiment differs")
    results = envelope["results"]
    _require(results.keys() == ref["results"].keys(),
             f"result keys differ: {sorted(results.keys() ^ ref['results'].keys())}")
    check_thresholds(results)
    for key, expected in ref["results"].items():
        if key in THRESHOLDS:
            continue
        got = results[key]
        if isinstance(expected, str):
            got, expected = _complex(got), _complex(expected)
        elif isinstance(expected, int):
            _require(got == expected, f"{key} = {got!r}, recorded {expected!r}")
            continue
        _require(abs(got - expected) <= 1e-9 * abs(expected) + 1e-12,
                 f"{key} = {got!r}, recorded {expected!r}")
    _require(envelope["grids"].keys() == ref["grids"].keys(), "grid names differ")
    for name, expected in ref["grids"].items():
        grid = envelope["grids"][name]
        for key in ("axis1", "axis2", "kind"):
            _require(grid[key] == expected[key], f"grid {name} {key} differs")
        got, want = np.asarray(grid["values"]), np.asarray(expected["values"])
        _require(got.shape == want.shape, f"grid {name} shape {got.shape} != {want.shape}")
        dev = float(np.max(np.abs(got - want)))
        _require(dev <= 1e-9 * float(np.max(np.abs(want))),
                 f"grid {name} deviates from the recorded values by {dev:.3e}")


def _complex(text):
    return complex(text.replace("i", "j"))


# --- shared helpers for the in-process workloads ------------------------------

def _phase(rng):
    return rng.uniform(0.0, 2.0 * math.pi)


def _polar(magnitude, rng):
    return magnitude * cmath.exp(1j * _phase(rng))


def _config(**params):
    """A config document; complex values as re+imi with every digit."""
    def text(v):
        if isinstance(v, complex):
            return f"{v.real!r}{v.imag:+}i"
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{key} = {text(value)}\n" for key, value in params.items())


def cat_referee(n, beta):
    """Generation probability and chi-state amplitudes from 60-digit mpmath.

    p = 2^-n e^-|b|^2 N with N = sum_k |b|^(2k)/k! L_{n-k}^k(|b|^2)^2 and
    chi_k = L_{n-k}^k(|b|^2) (-b)^k / sqrt(k! N).
    """
    import mpmath
    with mpmath.workdps(60):
        b = mpmath.mpc(beta.real, beta.imag)
        b2 = abs(b) ** 2
        lag = [mpmath.laguerre(n - k, k, b2) for k in range(n + 1)]
        norm = mpmath.fsum(b2 ** k / mpmath.factorial(k) * lag[k] ** 2 for k in range(n + 1))
        p = 2 ** -mpmath.mpf(n) * mpmath.exp(-b2) * norm
        amps = [lag[k] * (-b) ** k / mpmath.sqrt(mpmath.factorial(k) * norm)
                for k in range(n + 1)]
        return float(p), np.array([complex(a) for a in amps])


def _check_probability(p, referee_p, what="probability"):
    rel = abs(p / referee_p - 1.0)
    _require(rel < REFEREE_REL_TOL,
             f"{what} {p!r} differs from the mpmath referee {referee_p!r} by {rel:.2e} (rel)")


def _experiment_op(name, experiment, config_text, extra_check=None, limits=THRESHOLDS):
    from condibeam import cli

    def check(result):
        scalars, _, duration = result
        check_thresholds(scalars, limits)
        if extra_check:
            extra_check(scalars)
        return {"scalars": scalars, "duration_s": duration}

    return Op(name, lambda: cli.run_experiment(experiment, config_text), check)


def _scheme_a_check(referee_p):
    def check(s):
        _require(abs(s["fidelity_vs_chi"] - 1.0) < 1e-10,
                 f"fidelity_vs_chi = {s['fidelity_vs_chi']!r}")
        _require(abs(s["probability"] - s["probability_formula"]) < 1e-10,
                 "probability differs from probability_formula")
        _check_probability(s["probability"], referee_p)
        _check_probability(s["probability_formula"], referee_p, "probability_formula")
    return check


def _scheme_b_check(referee_p):
    def check(s):
        _require(s["fidelity_vs_displaced_chi"] >= 1.0 - 1e-6,
                 f"fidelity_vs_displaced_chi = {s['fidelity_vs_displaced_chi']!r}")
        _require(abs(s["probability"] - s["probability_formula"]) < 1e-8,
                 "probability differs from probability_formula")
        _check_probability(s["probability"], referee_p)
    return check


def _wigner_check(s):
    _require(abs(s["integral"] - 1.0) < 1e-3, f"Wigner integral = {s['integral']!r}")
    _require(s["min_value"] < 0.0, "the cat's Wigner function is not negative anywhere")


# --- cat-pipeline ----------------------------------------------------------------

def cat_pipeline_ops(seed):
    """Closed-form Y at scale, cat generation and the phase-space grids; no oracle."""
    from condibeam import cats, conditional, fock, twomode
    from condibeam.beamsplitter import BeamSplitterParams, OperatorPolynomial, ReferencePrep

    rng = random.Random(seed)
    ops = []

    # (a) Fock-source cats at large n, against the mpmath referee
    for n, cutoff in ((50, 256), (100, 512)):
        spec = cats.CatSpec(n, _polar(math.sqrt(n / 2), rng))
        policy = fock.TruncationPolicy(cutoff)
        phi_t, phi_r = _phase(rng), _phase(rng)
        referee_p, referee_amps = cat_referee(n, spec.beta)

        def check(result, referee_p=referee_p, referee_amps=referee_amps):
            state, p = result
            _check_probability(p, referee_p)
            infidelity = 1.0 - abs(np.vdot(referee_amps, state.amps[:len(referee_amps)]))
            _require(abs(infidelity) < REFEREE_REL_TOL,
                     f"1 - |<chi_referee|state>| = {infidelity:.3e}")
            return {}

        ops.append(Op(f"scheme_a_state n={n} cutoff={cutoff}",
                      lambda spec=spec, policy=policy, phi_t=phi_t, phi_r=phi_r:
                      cats.scheme_a_state(spec, policy, phi_t, phi_r),
                      check))

    # (b) displaced general preparations with 3-term F and G, on a coherent input;
    # referee: the two-mode oracle at cutoff 64 on the low levels
    bs = BeamSplitterParams(math.pi / 4, _phase(rng), _phase(rng))
    prep_in = ReferencePrep(OperatorPolynomial((1.0, 0.5, 0.25j)), _polar(0.8, rng)).normalized()
    prep_meas = ReferencePrep(OperatorPolynomial((0.7, -0.3j, 0.2)), _polar(0.5, rng)).normalized()
    gamma = _polar(1.5, rng)
    policy = fock.TruncationPolicy(384)
    small = fock.TruncationPolicy(64)
    oracle_out = fock.apply(twomode.oracle_y(prep_in, prep_meas, bs, small),
                            fock.coherent_state(gamma, small)).amps
    low = small.safe_levels

    def run_general():
        y = conditional.y_displaced_general(prep_in, prep_meas, bs, policy)
        return conditional.apply_conditional(y, fock.coherent_state(gamma, policy))

    def check_general(result):
        state, p = result
        dev = float(np.max(np.abs(math.sqrt(p) * state.amps[:low] - oracle_out[:low])))
        _require(dev < 1e-8, f"output amplitudes deviate from the oracle by {dev:.3e}")
        p_oracle = float(np.vdot(oracle_out, oracle_out).real)
        _require(abs(p - p_oracle) < 1e-8, f"p = {p!r}, oracle gives {p_oracle!r}")
        return {}

    ops.append(Op("y_displaced_general 3-term cutoff=384", run_general, check_general))

    # (c) the shipped experiments at the two-peak point |beta|^2 = n/2
    for n, cutoff in ((10, 64), (20, 128)):
        b = math.sqrt(n / 2)
        beta = _polar(b, rng)
        ops.append(_experiment_op(
            f"scheme-a n={n}", "scheme-a",
            _config(n=n, beta=beta, cutoff=cutoff, phi_t=_phase(rng), phi_r=_phase(rng)),
            _scheme_a_check(cat_referee(n, beta)[0])))
        beta = _polar(b, rng)
        ops.append(_experiment_op(
            f"scheme-b n={n}", "scheme-b", _config(n=n, beta=beta, cutoff=cutoff),
            _scheme_b_check(cat_referee(n, beta)[0])))
        half = round(b + 2)
        ops.append(_experiment_op(
            f"q-grid chi n={n}", "q-grid",
            _config(state="chi", n=n, beta=_polar(b, rng), cutoff=cutoff,
                    grid_lo=-float(half), grid_hi=float(half), grid_points=81)))
        # the five-fold cat reaches level k*n, which must sit in the safe
        # lower half of the Fock space: twice the cutoff covers it
        k = 5
        half = math.ceil(math.sqrt(k * n)) + 2
        ops.append(_experiment_op(
            f"q-grid multi-cat k={k} n={n}", "q-grid",
            _config(state="multi-cat", n=n, k=k, beta=_polar(b, rng), cutoff=2 * cutoff,
                    grid_lo=-float(half), grid_hi=float(half), grid_points=81)))
        half = round(b + 4)  # holds all but ~1e-6 of the Wigner function's mass
        ops.append(_experiment_op(
            f"wigner-grid both n={n}", "wigner-grid",
            _config(n=n, beta=_polar(b, rng), cutoff=cutoff, grid_lo=-float(half),
                    grid_hi=float(half), grid_points=81, method="both"),
            _wigner_check))
        ops.append(_experiment_op(
            f"quadrature-grid n={n}", "quadrature-grid",
            _config(n=n, beta=_polar(b, rng), cutoff=cutoff, grid_lo=-float(half),
                    grid_hi=float(half), grid_points=121, phi_lo=0.0,
                    phi_hi=math.pi * 32 / 33, phi_points=33)))

    # (d) scheme-a at n = 30: the chi-state cross-check fails at this size
    # because assoc_laguerre's alternating sum loses digits (known defect)
    beta = _polar(math.sqrt(15), rng)
    op = _experiment_op(
        "scheme-a n=30 cutoff=128", "scheme-a",
        _config(n=30, beta=beta, cutoff=128, phi_t=_phase(rng), phi_r=_phase(rng)),
        _scheme_a_check(cat_referee(30, beta)[0]))
    op.known_defect = ("ValueError", "chi_state normalization cross-check failed")
    ops.append(op)
    return ops


# --- oracle-verify ---------------------------------------------------------------

def _y_matrix_check(s):
    _require(s["largest_singular_value"] <= 1.0 + 1e-6,
             f"largest_singular_value = {s['largest_singular_value']!r} > 1")


def oracle_verify_ops(seed):
    """The verification path: closed-form Y against the two-mode oracle."""
    rng = random.Random(seed)
    ops = []
    # (a) the shipped demo's m, n, |alpha|, |beta| at three cutoffs
    for cutoff in (48, 96, 192):
        ops.append(_experiment_op(
            f"y-matrix demo cutoff={cutoff}", "y-matrix",
            _config(m=2, n=1, alpha=_polar(0.3, rng), beta=_polar(0.2, rng),
                    theta=math.pi / 4, phi_t=_phase(rng), phi_r=_phase(rng), cutoff=cutoff),
            _y_matrix_check))
    # (b) |R|^2 = sin(0.2)^2 ~ 0.039 < 0.05: the guard runs a second oracle
    ops.append(_experiment_op(
        "y-matrix low-reflectance cutoff=96", "y-matrix",
        _config(m=2, n=2, alpha=_polar(0.3, rng), beta=_polar(0.2, rng), theta=0.2,
                phi_t=_phase(rng), phi_r=_phase(rng), cutoff=96),
        _y_matrix_check, dict(THRESHOLDS, oracle_rel_frobenius_error=GUARD_REL_TOL)))
    # (c) inefficient photon counting: POVM and ensemble routes
    eta, signal_n, outcome = 0.8, 4, 1

    def povm_check(s):
        # |signal_n> against vacuum on a balanced splitter: binomial(signal_n, 1/2)
        # photons reach the detector, each seen with probability eta
        p = sum(math.comb(signal_n, k) * 0.5 ** signal_n * math.comb(k, outcome)
                * eta ** outcome * (1.0 - eta) ** (k - outcome)
                for k in range(outcome, signal_n + 1))
        _require(abs(s["p_outcome"] - p) < 1e-12, f"p_outcome = {s['p_outcome']!r}, exact {p!r}")

    ops.append(_experiment_op(
        "povm-demo cutoff=96", "povm-demo",
        _config(eta=eta, cutoff=96, signal_n=signal_n, outcome=outcome, theta=math.pi / 4,
                phi_t=_phase(rng), phi_r=_phase(rng)),
        povm_check))
    return ops
