"""Timing wrappers around condibeam's public functions, and per-layer metrics.

Nothing under ``src/`` knows about this module: :func:`install` replaces the
package's public functions on their module objects, every ``from .x import
y`` copy of them in other modules, and ``FockOperator.__matmul__``, so spans
nest across layers.  Spans are kept in memory as tuples

    (name, start, end, parent index, exception type or None, attrs or None)

and are written out by the caller when the run ends.  A layer's self time is
its span's duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc

# The package's modules that hold measured work.  beamsplitter, errors and
# selftest are left out: no workload spends time in them.
LAYERS = ("fock", "polynomials", "ordering", "conditional", "twomode", "cats",
          "phasespace", "cli")
_Y_BUILDERS = ("conditional.y_displaced_fock", "conditional.y_general",
               "conditional.y_displaced_general")
_RENDERERS = ("cli.render_envelope_json", "cli.render_envelope_text",
              "cli.render_grid_csv")


class Tracer:
    """Collects spans from the wrappers that :func:`install` puts in place."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def take(self):
        """Return the spans recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, probe=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            attrs = probe(*args, **kwargs) if probe else None
            alloc = name == "twomode.bs_unitary" and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if alloc:
                    attrs = dict(attrs or {}, alloc_mb=tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                spans[idx] = (name, start, end, parent, error, attrs)

        return traced


# --- probes: counts computed from a call's inputs -----------------------------

def _support(prep, cutoff):
    """Lowest and highest reference level that D(disp) F(a^dag)|0> occupies."""
    if prep.displacement != 0:
        return 0, cutoff
    levels = [k for k, c in enumerate(prep.poly.coeffs) if c != 0]
    return min(levels), min(max(levels), cutoff)


def _probe_oracle_y(ref_in, ref_out, bs, policy):
    # level k2 of the reference mode sits in the sectors k1 + k2 = k2..k2+cutoff,
    # so a support spanning lo..hi reaches the sectors lo..hi+cutoff
    c = policy.cutoff
    (lo_in, hi_in), (lo_out, hi_out) = _support(ref_in, c), _support(ref_out, c)
    lo, hi = max(lo_in, lo_out), min(hi_in, hi_out) + c
    return {"useful_sectors": max(0, hi - lo + 1)}


def _probe_conditional_reduce(state_in, povm_element, bs, policy):
    k1, k2 = state_in.amps.nonzero()
    return {"useful_sectors": len(set((k1 + k2).tolist()))}


def _probe_bs_unitary(bs, policy):
    return {"sectors": 2 * policy.cutoff + 1}


def _probe_matmul(a, b):
    return {"dim": a.mat.shape[0]} if hasattr(b, "mat") else None


_PROBES = {
    "twomode.oracle_y": _probe_oracle_y,
    "twomode.conditional_reduce": _probe_conditional_reduce,
    "twomode.bs_unitary": _probe_bs_unitary,
}


def install(tracer):
    """Wrap every public function of the measured layers, wherever it is bound."""
    import condibeam
    modules = {layer: importlib.import_module(f"condibeam.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, _PROBES.get(name))
    for mod in [condibeam, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    fock_operator = modules["fock"].FockOperator
    fock_operator.__matmul__ = tracer.wrap("fock.matmul", fock_operator.__matmul__,
                                           _probe_matmul)


# --- aggregation ------------------------------------------------------------------

def pass_metrics(spans):
    """Per-layer figures of one pass, from the spans of all its ops.

    ``spans`` is a list of per-op span lists (parent indices are local to
    each list).
    """
    self_s, calls = {}, {}
    y_built = guard_oracles = sectors = useful = dense_matmuls = 0
    alloc_mb = gflop = 0.0
    cats_errors = 0
    for op_spans in spans:
        child = [0.0] * len(op_spans)
        for _, start, end, parent, _, _ in op_spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, error, attrs) in enumerate(op_spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
            in_y_build = any(a in _Y_BUILDERS for a in _ancestors(op_spans, parent))
            if name in _Y_BUILDERS and not in_y_build:
                y_built += 1
            if name == "twomode.oracle_y" and in_y_build:
                guard_oracles += 1
            if attrs:
                sectors += attrs.get("sectors", 0)
                useful += attrs.get("useful_sectors", 0)
                alloc_mb = max(alloc_mb, attrs.get("alloc_mb", 0.0))
                if "dim" in attrs:
                    dense_matmuls += 1
                    gflop += 8e-9 * attrs["dim"] ** 3
            parent_name = op_spans[parent][0] if parent >= 0 else ""
            if (error and name.startswith("cats.")
                    and not parent_name.startswith("cats.")):
                cats_errors += 1

    def ms(name):
        return 1e3 * self_s.get(name, 0.0)

    return {
        "cli.render_ms": sum(ms(n) for n in _RENDERERS),
        "fock.displacement_op.self_ms": ms("fock.displacement_op"),
        "fock.displacement_op.calls": calls.get("fock.displacement_op", 0),
        "fock.hermite_functions.self_ms": ms("fock.hermite_functions"),
        "fock.matmul.calls": dense_matmuls,
        "fock.matmul.gflop": gflop,
        "polynomials.jacobi.calls": calls.get("polynomials.jacobi", 0),
        "polynomials.assoc_laguerre.calls": calls.get("polynomials.assoc_laguerre", 0),
        "polynomials.self_ms": sum(1e3 * v for n, v in self_s.items()
                                   if n.startswith("polynomials.")),
        "ordering.s_ordered_monomial.self_ms": ms("ordering.s_ordered_monomial"),
        "conditional.y_displaced_fock.self_ms": ms("conditional.y_displaced_fock"),
        "conditional.y_displaced_general.self_ms": ms("conditional.y_displaced_general"),
        "conditional.y_built": y_built,
        "conditional.guard_oracle_calls": guard_oracles,
        "conditional.guard_oracle_per_y": guard_oracles / y_built if y_built else 0.0,
        "twomode.bs_unitary.self_ms": ms("twomode.bs_unitary"),
        "twomode.bs_unitary.alloc_mb": alloc_mb,
        "twomode.oracle_y.self_ms": ms("twomode.oracle_y"),
        "twomode.oracle_y.calls": calls.get("twomode.oracle_y", 0),
        "twomode.conditional_reduce.self_ms": ms("twomode.conditional_reduce"),
        "twomode.sectors_built": sectors,
        "twomode.useful_sector_frac": useful / sectors if sectors else 0.0,
        "cats.scheme_a_state.self_ms": ms("cats.scheme_a_state"),
        "cats.chi_state.self_ms": ms("cats.chi_state"),
        "cats.errors": cats_errors,
        "phasespace.husimi.self_ms": ms("phasespace.husimi"),
        "phasespace.wigner_numeric.self_ms": ms("phasespace.wigner_numeric"),
        "phasespace.wigner_cat_closed.self_ms": ms("phasespace.wigner_cat_closed"),
        "phasespace.quadrature_dist.self_ms": ms("phasespace.quadrature_dist"),
    }


def _ancestors(op_spans, parent):
    while parent >= 0:
        yield op_spans[parent][0]
        parent = op_spans[parent][3]


def median_metrics(per_pass):
    """Median of each per-layer figure over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def import_times_ms(stderr):
    """Cumulative import time of scipy and of condibeam from ``-X importtime``.

    Each line reads ``import time: self | cumulative | <indent>name`` and is
    printed when its import finishes, so a module's parent is the next line
    with a shallower indent.  A package is charged the cumulative time of its
    outermost imports only.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    totals = {"scipy": 0, "condibeam": 0}
    stack = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and not any(n.split(".")[0] == package for _, n in stack):
            totals[package] += cumulative
        stack.append((depth, name))
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}
