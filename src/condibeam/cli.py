"""Command-line front end.

Usage::

    condibeam <experiment> --config <path> [--out <path>] [--format csv|json-like]
    condibeam selftest

Configs are flat ``key = value`` documents ('#' starts a comment); unknown
keys are errors, not warnings, since a silently ignored typo in a physics
parameter is the worst failure mode here.  Complex values are written as
"re+imi" pairs (e.g. ``beta = 1.5-0.25i``); angles are radians.

Results go to stdout as a structured text document that embeds the config
byte for byte; grid payloads are written as CSV with a three-line header
(axes, ranges, resolution).  ``--format json-like`` emits one JSON document
with everything inline instead.  Identical configs reproduce identical
results.

Exit codes: 0 success, 2 config error, 3 domain error (zero probability,
truncation, a NaN result, ...), 4 selftest failure.

Each run is a fresh process, so each subcommand imports only the package
modules it runs: this module loads ``errors`` and the standard library alone
at import, and every runner imports its own modules.  So dispatch, ``--help``,
a grid experiment asked for csv without ``--out``, and a config that fails to
parse, names an unknown key or another experiment, or gives an enumerated key
(``route``, ``state``, ``method``, ``beta_rule``) a value outside its schema,
load neither the physics nor numpy.  numpy loads in ``run_experiment`` once
the config has validated against its schema, before the run's clock starts:
``duration_s`` times the computation, not numpy's import.  The package's
value types are records (``fock._Record``) whose methods are written once, so
loading a physics module compiles no generated methods per class, as a frozen
dataclass did at every start, and nothing loads ``dataclasses``.  The
json-like envelope encodes each grid row with json's C encoder and lays it
out as ``indent=2`` does, which alone would send every float through the
pure-Python encoder.

A CLI process (the ``condibeam`` script and ``python -m condibeam.cli``) runs
through ``entry``, without the cyclic garbage collector, which a run gives
nothing worth reclaiming: reference counting frees every array it makes, and
the cycles left are argparse's parser (74 objects) and, once per process, the
~350 functions, classes and descriptors that imports discard.  With the
collector on, a computing child runs ~35 collections past interpreter start,
most of them inside numpy's import, and at exit the interpreter's own
collections walk the whole heap; ``entry`` freezes the heap before the process
exits, so exit skips them.  Output files are closed by ``with`` blocks, and the
interpreter flushes stdout and stderr and runs atexit handlers whether or not
the collector runs.  ``main(argv)`` leaves the caller's collector as it was.
"""

import argparse
import gc
import json
import math
import sys
import time

from . import __version__
from .errors import ConfigError, DomainError

__all__ = ["main", "entry", "run_experiment", "parse_config"]


# --- config parsing -------------------------------------------------------

def parse_config(text):
    """Flat key = value document -> ordered dict of raw strings."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_complex(text):
    compact = text.replace(" ", "")
    if compact.endswith("i"):  # only a trailing i is the imaginary unit: inf keeps its i
        compact = compact[:-1] + "j"
    try:
        return complex(compact)
    except ValueError:
        raise ConfigError(f"cannot parse complex value {text!r} (use re+imi)") from None


def _parse_value(key, kind, text):
    if isinstance(kind, tuple):  # an enumerated key: its allowed values
        if text in kind:
            return text
        raise ConfigError(f"{key} must be {', '.join(kind[:-1])} or {kind[-1]}, got {text!r}")
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "complex":
            return _parse_complex(text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as {kind}") from None
    raise AssertionError(kind)


def _extract(entries, experiment, schema):
    """Validate keys against the schema; returns a fully defaulted dict."""
    allowed = dict(schema)
    unknown = [k for k in entries if k not in allowed and k != "experiment"]
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(sorted(unknown))!s}; "
            f"allowed: {', '.join(sorted(allowed))}")
    if "experiment" in entries and entries["experiment"] != experiment:
        raise ConfigError(
            f"config says experiment = {entries['experiment']!r}, "
            f"command line says {experiment!r}")
    out = {}
    for key, (kind, default) in allowed.items():
        if key in entries:
            out[key] = _parse_value(key, kind, entries[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            out[key] = default
    return out


_REQUIRED = object()


def _build(factory, *args, **kwargs):
    """Construct a library object from config values; a value it rejects
    (ValueError) is a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _policy(params):
    from . import fock
    return _build(fock.TruncationPolicy, cutoff=params["cutoff"],
                  tail_tol=params["tail_tol"])


def _bs(params):
    from .beamsplitter import BeamSplitterParams
    return _build(BeamSplitterParams, params["theta"], params["phi_t"], params["phi_r"])


def _cat_spec(params, k=1):
    from . import cats
    return _build(cats.CatSpec, params["n"], params["beta"], k)


def _fmt_complex(z):
    z = complex(z)
    return f"{z.real!r}{z.imag:+}i".replace("+-", "-") if z.imag else repr(z.real)


# --- experiments ----------------------------------------------------------

_COMMON = {
    "cutoff": ("int", 48),
    "tail_tol": ("float", 1e-9),
}

_BS_KEYS = {
    "theta": ("float", math.pi / 4),
    "phi_t": ("float", 0.0),
    "phi_r": ("float", 0.0),
}


def _run_y_matrix(params):
    from . import conditional, twomode
    from .beamsplitter import ReferencePrep
    policy = _policy(params)
    for key in ("m", "n"):
        if not 0 <= params[key] <= policy.cutoff:
            bound = ">= 0" if params[key] < 0 else f"<= cutoff {policy.cutoff}"
            raise ConfigError(f"{key} must be {bound}, got {params[key]}")
    bs = _bs(params)
    prep_in = _build(ReferencePrep.fock, params["m"], params["alpha"])
    prep_out = _build(ReferencePrep.fock, params["n"], params["beta"])
    y = conditional.y_displaced_general(prep_in, prep_out, bs, policy).band
    oracle = twomode.oracle_y(prep_in, prep_out, bs, policy)
    if not (y.norm and oracle.norm):
        raise DomainError("y-matrix: every element of Y underflows to 0")
    scalars = {
        "frobenius_norm": y.norm,
        "largest_singular_value": float(y.largest_singular_value()),
        "oracle_rel_frobenius_error": float(y.rel_deviation(oracle)),
        "ordering_parameter_s": bs.s,
    }
    return scalars, []


_Y_MATRIX_SCHEMA = {
    **_COMMON, **_BS_KEYS,
    "m": ("int", _REQUIRED),
    "n": ("int", _REQUIRED),
    "alpha": ("complex", 0j),
    "beta": ("complex", 0j),
}


def _run_scheme_a(params):
    from . import cats, fock
    from .beamsplitter import BeamSplitterParams
    policy = _policy(params)
    spec = _cat_spec(params)
    # scheme_a_state builds this splitter itself, outside _build
    _build(BeamSplitterParams, math.pi / 4, params["phi_t"], params["phi_r"])
    chi = cats.chi_state(spec, policy)
    state, p = cats.scheme_a_state(spec, policy, params["phi_t"], params["phi_r"],
                                   route=params["route"])
    n_sum, p_formula = cats.cat_norm_and_prob(spec)
    scalars = {
        "probability": p,
        "probability_formula": p_formula,
        "norm_sum": n_sum,
        "fidelity_vs_chi": abs(fock.inner(chi, state)),
    }
    for k in range(spec.n + 1):
        scalars[f"amp_{k}"] = complex(chi.amps[k])
    return scalars, []


_SCHEME_A_SCHEMA = {
    **_COMMON,
    "n": ("int", _REQUIRED),
    "beta": ("complex", _REQUIRED),
    "phi_t": ("float", 0.0),
    "phi_r": ("float", 0.0),
    "route": (("closed", "oracle"), "closed"),
}


def _run_scheme_b(params):
    from . import cats, fock
    policy = _policy(params)
    spec = _cat_spec(params)
    # the coherent input |beta/T> has passed its truncation check, and
    # |beta| <= |beta/T|, so D(beta) needs none of its own
    state, p = cats.scheme_b_state(spec, policy, route=params["route"])
    chi = cats.chi_state(spec, policy)
    displaced = fock.displace(spec.beta, chi)
    _, p_formula = cats.cat_norm_and_prob(spec)
    scalars = {
        "probability": p,
        "probability_formula": p_formula,
        "fidelity_vs_displaced_chi": abs(fock.inner(displaced, state)),
    }
    return scalars, []


_SCHEME_B_SCHEMA = {
    **_COMMON,
    "n": ("int", _REQUIRED),
    "beta": ("complex", _REQUIRED),
    "route": (("closed", "oracle"), "closed"),
}


def _run_multi_cat(params):
    import numpy as np
    from . import cats
    policy = _policy(params)
    spec = _cat_spec(params, params["k"])
    state = cats.multi_cat_state(spec, policy)
    scalars = {
        "log_norm": cats.multi_cat_log_norm(spec),
        "vector_norm": float(np.linalg.norm(state.amps)),
        "support_step": spec.k,
        "top_level": spec.k * spec.n,
    }
    for j in range(spec.n + 1):
        scalars[f"amp_{spec.k * j}"] = complex(state.amps[spec.k * j])
    return scalars, []


_MULTI_CAT_SCHEMA = {
    **_COMMON,
    "n": ("int", _REQUIRED),
    "k": ("int", _REQUIRED),
    "beta": ("complex", _REQUIRED),
}


def _grid_from(params, names):
    from . import phasespace
    if params["grid_points"] < 2:
        raise ConfigError(f"grid_points must be >= 2, got {params['grid_points']}")
    return _build(phasespace.PhaseGrid.square, params["grid_lo"], params["grid_hi"],
                  params["grid_points"], names=names)


_GRID_KEYS = {
    "grid_lo": ("float", -4.0),
    "grid_hi": ("float", 4.0),
    "grid_points": ("int", 81),
}


def _run_q_grid(params):
    import numpy as np
    from . import cats, phasespace
    policy = _policy(params)
    grid = _grid_from(params, ("re_alpha", "im_alpha"))
    if params["state"] == "chi":
        spec = _cat_spec(params)
        state = cats.chi_state(spec, policy)
        closed = phasespace.husimi_chi_closed(spec, grid)
    else:
        spec = _cat_spec(params, params["k"])
        state = cats.multi_cat_state(spec, policy)
        closed = phasespace.husimi_multi_cat_closed(spec, grid)
    q = phasespace.husimi(state, grid, policy)
    peak = np.unravel_index(np.argmax(q.values), q.values.shape)
    scalars = {
        "closed_form_max_abs_dev": float(np.max(np.abs(q.values - closed.values))),
        "q_max": float(q.values[peak]),
        "q_max_re": float(grid.axis1.values[peak[0]]),
        "q_max_im": float(grid.axis2.values[peak[1]]),
    }
    return scalars, [("husimi", q)]


_Q_GRID_SCHEMA = {
    **_COMMON, **_GRID_KEYS,
    "state": (("chi", "multi-cat"), "chi"),
    "n": ("int", _REQUIRED),
    "k": ("int", 1),
    "beta": ("complex", _REQUIRED),
}


def _run_wigner_grid(params):
    import numpy as np
    from . import cats, phasespace
    policy = _policy(params)
    grid = _grid_from(params, ("x", "p"))
    spec = _cat_spec(params)
    scalars = {}
    grids = []
    if params["method"] in ("closed", "both"):
        closed = phasespace.wigner_cat_closed(spec, grid)
        grids = [("wigner", closed)]
    if params["method"] in ("numeric", "both"):
        state = cats.chi_state(spec, policy)
        numeric = phasespace.wigner_numeric(state, grid)
        if params["method"] == "both":
            scalars["closed_vs_numeric_max_abs_dev"] = float(
                np.max(np.abs(grids[0][1].values - numeric.values)))
        else:
            grids = [("wigner", numeric)]
    w = grids[0][1]
    step1, step2 = grid.axis1.step, grid.axis2.step
    scalars["integral"] = float(_simpson(_simpson(w.values, step2), step1))
    scalars["min_value"] = float(w.values.min())
    return scalars, grids


def _simpson(y, dx):
    """Composite Simpson's rule along the last axis of ``y`` (spacing ``dx``).

    The same rule as ``scipy.integrate.simpson``: 1-4-2-...-4-1 weights for
    an odd number of points N; for even N >= 4, Simpson over the first N - 1
    points plus Cartwright's last-interval term h (5 y[-1] + 8 y[-2] - y[-3]) / 12;
    the trapezoid for N = 2.
    """
    n = y.shape[-1]
    if n == 2:
        return 0.5 * dx * (y[..., 0] + y[..., 1])
    odd = n - 1 + n % 2
    result = (y[..., 0:odd - 2:2] + 4.0 * y[..., 1:odd - 1:2] + y[..., 2:odd:2]).sum(
        axis=-1) * (dx / 3.0)
    if n % 2 == 0:
        result = result + dx * (5.0 * y[..., -1] + 8.0 * y[..., -2] - y[..., -3]) / 12.0
    return result


_WIGNER_GRID_SCHEMA = {
    **_COMMON, **_GRID_KEYS,
    "n": ("int", _REQUIRED),
    "beta": ("complex", _REQUIRED),
    "method": (("closed", "numeric", "both"), "both"),
}


def _run_quadrature_grid(params):
    import numpy as np
    from . import cats, phasespace
    policy = _policy(params)
    spec = _cat_spec(params)
    state = cats.chi_state(spec, policy)
    x_axis = _build(phasespace.Axis, "x", params["grid_lo"], params["grid_hi"],
                    params["grid_points"])
    phi_axis = _build(phasespace.Axis, "phi", params["phi_lo"], params["phi_hi"],
                      params["phi_points"])
    grid = phasespace.PhaseGrid(x_axis, phi_axis)
    overlap = phasespace.quadrature_dist(state, grid)
    closed = phasespace.quadrature_chi_closed(spec, grid)
    scalars = {"closed_form_max_abs_dev": float(np.max(np.abs(overlap.values - closed.values)))}
    return scalars, [("quadrature", overlap)]


_QUADRATURE_GRID_SCHEMA = {
    **_COMMON, **_GRID_KEYS,
    "n": ("int", _REQUIRED),
    "beta": ("complex", _REQUIRED),
    "phi_lo": ("float", 0.0),
    "phi_hi": ("float", math.pi),
    "phi_points": ("int", 33),
}


def _run_prob_scan(params):
    from . import cats
    if params["n_min"] < 0:
        raise ConfigError(f"n_min must be >= 0, got {params['n_min']}")
    if params["n_max"] < params["n_min"]:
        raise ConfigError("n_max must be >= n_min")
    scalars = {}
    for n in range(params["n_min"], params["n_max"] + 1):
        beta = math.sqrt(n / 2.0) if params["beta_rule"] == "half-n" else params["beta"]
        _, p = cats.cat_norm_and_prob(_build(cats.CatSpec, n, beta))
        scalars[f"p_{n}"] = p
    return scalars, []


_PROB_SCAN_SCHEMA = {
    "n_min": ("int", 0),
    "n_max": ("int", 12),
    "beta_rule": (("half-n", "fixed"), "half-n"),
    "beta": ("complex", 0j),
}


def _run_povm_demo(params):
    import numpy as np
    from . import conditional, fock, twomode
    from .beamsplitter import ReferencePrep
    policy = _policy(params)
    bs = _bs(params)
    for key in ("signal_n", "outcome"):
        if not 0 <= params[key] <= policy.cutoff:
            raise ConfigError(f"{key} must be in 0..{policy.cutoff}, got {params[key]}")
    povm = _build(twomode.photon_counting_povm, params["eta"], policy)
    completeness = float(np.max(np.abs(povm.weights.sum(axis=0) - 1.0)))
    signal = fock.fock_state(params["signal_n"], policy)
    two = twomode.product_state(signal, fock.fock_state(0, policy))
    rho_direct, p_direct = twomode.conditional_reduce(
        two, povm.element(params["outcome"]), bs, policy)
    # the same outcome from the closed form: the POVM element decomposed
    # over Fock projectors, one closed-form Y per projector (a Kraus map),
    # checked against the two-mode route above; with a vacuum reference the
    # detector never sees more than signal_n photons, so the decomposition
    # can stop there exactly
    weights = povm.weights[params["outcome"]]
    meas_ensemble = [(float(w), ReferencePrep.fock(k))
                     for k, w in enumerate(weights[: params["signal_n"] + 1])
                     if w > 0]
    rho_mixed, p_mixed = conditional.apply_conditional_mixed(
        fock.DensityOperator.from_pure(signal), [(1.0, ReferencePrep.vacuum())],
        meas_ensemble, bs, policy)
    scalars = {
        "completeness_max_dev": completeness,
        "p_outcome": p_direct,
        "p_outcome_ensemble_route": p_mixed,
        "route_probability_dev": abs(p_direct - p_mixed),
        "route_state_max_dev": float(np.max(np.abs(rho_direct.mat - rho_mixed.mat))),
    }
    return scalars, []


_POVM_DEMO_SCHEMA = {
    **_COMMON, **_BS_KEYS,
    "eta": ("float", _REQUIRED),
    "signal_n": ("int", 2),
    "outcome": ("int", 1),
}


_EXPERIMENTS = {
    "y-matrix": (_Y_MATRIX_SCHEMA, _run_y_matrix),
    "scheme-a": (_SCHEME_A_SCHEMA, _run_scheme_a),
    "scheme-b": (_SCHEME_B_SCHEMA, _run_scheme_b),
    "multi-cat": (_MULTI_CAT_SCHEMA, _run_multi_cat),
    "q-grid": (_Q_GRID_SCHEMA, _run_q_grid),
    "wigner-grid": (_WIGNER_GRID_SCHEMA, _run_wigner_grid),
    "quadrature-grid": (_QUADRATURE_GRID_SCHEMA, _run_quadrature_grid),
    "prob-scan": (_PROB_SCAN_SCHEMA, _run_prob_scan),
    "povm-demo": (_POVM_DEMO_SCHEMA, _run_povm_demo),
}


# the keys that size a run's arrays, named when an allocation fails
_SIZE_KEYS = ("cutoff", "grid_points", "phi_points")


# --- envelopes and serialization ------------------------------------------

def run_experiment(experiment, config_text):
    """Parse, validate and run; returns (scalars, grids, duration_s)."""
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {', '.join(sorted(_EXPERIMENTS))}")
    schema, runner = _EXPERIMENTS[experiment]
    params = _extract(parse_config(config_text), experiment, schema)
    # every runner computes on numpy: import it here, once the config has
    # validated, so that duration_s times the run and not the import
    import numpy as np
    start = time.perf_counter()
    try:
        scalars, grids = runner(params)
    except MemoryError:  # e.g. a cutoff or grid whose arrays exceed memory
        sizes = ", ".join(f"{key} {params[key]}" for key in _SIZE_KEYS if key in params)
        raise DomainError(f"{experiment}: cannot allocate the arrays"
                          + (f" for {sizes}" if sizes else "")) from None
    nan = ([key for key, value in scalars.items() if np.isnan(value)]
           + [name for name, gf in grids if np.isnan(gf.values).any()])
    if nan:
        raise DomainError(f"{experiment}: NaN in {', '.join(nan)}")
    return scalars, grids, time.perf_counter() - start


def _scalar_text(value):
    if isinstance(value, complex):
        return _fmt_complex(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_envelope_text(experiment, config_text, scalars, duration_s):
    lines = [
        f"# condibeam {__version__}",
        f"# experiment {experiment}",
        f"# duration_s {duration_s:.3f}",
        "# config-begin",
        config_text.rstrip("\n"),
        "# config-end",
    ]
    for key, value in scalars.items():
        lines.append(f"{key} = {_scalar_text(value)}")
    return "\n".join(lines) + "\n"


def render_grid_csv(gf):
    a1, a2 = gf.grid.axis1, gf.grid.axis2
    header = [
        f"# axis1 {a1.name} {a1.lo!r} {a1.hi!r} {a1.points}",
        f"# axis2 {a2.name} {a2.lo!r} {a2.hi!r} {a2.points}",
        f"# kind {gf.kind}",
    ]
    rows = [",".join(map(repr, row)) for row in gf.values.tolist()]
    return "\n".join(header + rows) + "\n"


def _values_json(values):
    """A grid's values as ``json.dumps(..., indent=2)`` lays them out under a
    grid's "values" key, each row encoded by json's C encoder (an indented
    dump runs the pure-Python one).  A grid function has at least one row and
    column, and its rows hold numbers alone, so each ", " in a row is a
    separator."""
    rows = (json.dumps(row).replace(", ", ",\n          ") for row in values.tolist())
    return ("[\n        "
            + ",\n        ".join(f"[\n          {row[1:-1]}\n        ]" for row in rows)
            + "\n      ]")


def render_envelope_json(experiment, config_text, scalars, grids, duration_s):
    """The json-like envelope: ``json.dumps(doc, indent=2)`` byte for byte,
    with each grid's values dumped as null, then replaced by
    :func:`_values_json`.  A string's quotes are escaped, so '"values": null'
    occurs only where a "values" key holds null; the grids come last, each
    with its values as its last key, so the last len(grids) occurrences are
    theirs, whatever the config text or the scalars hold."""
    grids = dict(grids)  # as the document keys them: a repeated name keeps its last grid
    doc = {
        "tool": "condibeam",
        "version": __version__,
        "experiment": experiment,
        "duration_s": round(duration_s, 3),
        "config": config_text,
        "results": {k: _scalar_text(v) if isinstance(v, complex) else v
                    for k, v in scalars.items()},
        "grids": {
            name: {
                "axis1": [gf.grid.axis1.name, gf.grid.axis1.lo,
                          gf.grid.axis1.hi, gf.grid.axis1.points],
                "axis2": [gf.grid.axis2.name, gf.grid.axis2.lo,
                          gf.grid.axis2.hi, gf.grid.axis2.points],
                "kind": gf.kind,
                "values": None,
            }
            for name, gf in grids.items()
        },
    }
    head, *tails = json.dumps(doc, indent=2).rsplit('"values": null', len(grids))
    return head + "".join(f'"values": {_values_json(gf.values)}{tail}'
                          for gf, tail in zip(grids.values(), tails)) + "\n"


def _write_out(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="condibeam",
        description="conditional beam-splitter state engineering experiments")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["selftest"])
    parser.add_argument("--config", help="path to the key = value config file")
    parser.add_argument("--out", help="output path (grid CSV, or the whole "
                                      "envelope for --format json-like)")
    parser.add_argument("--format", choices=["csv", "json-like"], default="csv")
    args = parser.parse_args(argv)

    if args.experiment == "selftest":
        from .selftest import run_selftest
        return 0 if run_selftest() else 4

    try:
        if not args.config:
            raise ConfigError("--config is required")
        # an experiment returns grids exactly when its schema has grid_points
        schema, _ = _EXPERIMENTS[args.experiment]
        if "grid_points" in schema and args.format == "csv" and not args.out:
            raise ConfigError("--out is required for grid experiments with --format csv")
        try:
            with open(args.config, encoding="utf-8") as fh:
                config_text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        scalars, grids, duration = run_experiment(args.experiment, config_text)
        if args.format == "json-like":
            doc = render_envelope_json(args.experiment, config_text, scalars,
                                       grids, duration)
            if args.out:
                _write_out(args.out, doc)
            else:
                sys.stdout.write(doc)
        else:
            for _, gf in grids:
                _write_out(args.out, render_grid_csv(gf))
            sys.stdout.write(render_envelope_text(args.experiment, config_text,
                                                  scalars, duration))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def entry():
    """The CLI process: ``main`` on ``sys.argv`` with the cyclic collector off.

    Returns main's exit code.  Nothing is collected afterwards: the heap is
    frozen before the process exits (also when main raises, e.g. argparse's
    ``SystemExit``).
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
