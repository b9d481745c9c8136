"""Every public name of the package has a production caller.

A name in a module's ``__all__`` stays only if code outside its own
definition uses it: another function or class of ``src/condibeam`` (the
CLI and ``selftest`` included), or the benchmark under ``bench/``.  The
paper's named results are the exception.  Verification-only code belongs
in the tests.  Every module but the package's ``__init__`` declares its
public names in ``__all__``, so none escapes the check.
"""

import ast
import importlib
from pathlib import Path

import pytest

import condibeam
from condibeam import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "condibeam"

# results the paper names, public whether or not the package calls them
PAPER_RESULTS = {"y_general", "swap_roles"}


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def used_names(nodes):
    """Names and attribute names read anywhere inside ``nodes``."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_exported_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = used_names(ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py")))
    unused = []
    for module, tree in trees.items():
        for name in exported(tree) or []:
            callers = set(bench)
            for other, other_tree in trees.items():
                if other == "__init__":
                    continue  # re-exports are not callers
                # within the defining module, skip the definition itself
                callers |= used_names(
                    node for node in other_tree.body
                    if other != module or getattr(node, "name", None) != name)
            if name not in callers and name not in PAPER_RESULTS:
                unused.append(f"{module}.{name}")
    assert not unused, f"exported but never called outside the tests: {unused}"


def test_every_module_declares_all():
    missing = [path.stem for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__" and exported(ast.parse(path.read_text())) is None]
    assert not missing, f"modules without __all__: {missing}"


TRUNCATION_ERRORS = {"TruncationError", "CutoffExceededError"}


def raised_names(tree):
    """(enclosing function, exception class name) for every ``raise X(...)``."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                out.append((func, getattr(exc, "id", getattr(exc, "attr", None))))
            visit(child, func)

    visit(tree, None)
    return out


def test_truncation_is_decided_only_in_fock():
    # fock.TruncationPolicy owns every cutoff, tail and working-level check
    strays = [f"{path.stem}.{func} raises {name}"
              for path in sorted(SRC.glob("*.py")) if path.stem != "fock"
              for func, name in raised_names(ast.parse(path.read_text()))
              if name in TRUNCATION_ERRORS]
    assert not strays, strays


ZERO_SCANS = {"nonzero", "flatnonzero", "argwhere"}


def test_state_extent_is_decided_only_by_the_numerical_top():
    # fock._numerical_top is the one rule for where a state lives; only
    # phasespace._support looks for exact zeros, to skip the gaps below the top
    strays = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "fock":
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == "phasespace":
            support = next(node for node in tree.body if getattr(node, "name", None) == "_support")
            allowed = {id(node) for node in ast.walk(support)}
        # np.nonzero(...), a.nonzero() and ``from numpy import nonzero``
        strays += [f"{path.stem}.py:{node.lineno}" for node in ast.walk(tree)
                   if (getattr(node, "attr", None) in ZERO_SCANS
                       or isinstance(node, ast.alias) and node.name in ZERO_SCANS)
                   and id(node) not in allowed]
    assert not strays, strays


def test_one_scaled_number_layer():
    # every long recurrence keeps its range through the helpers next to
    # laguerre_rows: np.ldexp, np.frexp and the 2^500 renormalization step
    # appear in polynomials alone
    def strays(tree):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("ldexp", "frexp")
                    and getattr(node.value, "id", None) in ("np", "numpy")):
                yield node
            elif isinstance(node, ast.alias) and node.name in ("ldexp", "frexp"):
                yield node
            elif isinstance(node, ast.Constant) and node.value in (500, 2.0 ** 500):
                yield node

    found = [f"{path.stem}.py:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in strays(ast.parse(path.read_text())) if path.stem != "polynomials"]
    assert not found, found
    assert list(strays(ast.parse((SRC / "polynomials.py").read_text())))


def imported_modules(tree):
    """Package modules a module imports: ``from . import x``, ``from .x import
    y`` and ``import condibeam.x`` all name x."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= ({node.module.split(".")[0]} if node.module
                    else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("condibeam"):
            parts = node.module.split(".")
            out |= {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("condibeam.")}
    return out


def test_oracle_and_closed_form_routes_are_independent():
    # the two-mode oracle referees the closed form, so neither may reach
    # into the other: twomode shares only fock's linear algebra with it
    imports = {stem: imported_modules(ast.parse((SRC / f"{stem}.py").read_text()))
               for stem in ("twomode", "conditional")}
    assert not imports["twomode"] & {"conditional", "ordering", "polynomials"}, imports
    assert "twomode" not in imports["conditional"], imports


# every name the package exported when its __init__ imported each module
# eagerly, by defining module
PACKAGE_EXPORTS = {
    "beamsplitter": ["BeamSplitterParams", "OperatorPolynomial", "ReferencePrep"],
    "cats": ["CatSpec", "cat_norm_and_prob", "chi_state", "multi_cat_log_norm",
             "multi_cat_state", "scheme_a_state", "scheme_b_state"],
    "conditional": ["ConditionalOperator", "apply_conditional", "apply_conditional_mixed",
                    "swap_roles", "y_displaced_fock", "y_displaced_general", "y_general"],
    "errors": ["CondibeamError", "ConfigError", "DomainError", "CutoffExceededError",
               "CutoffMismatchError", "TruncationError", "DegenerateBeamSplitterError",
               "ZeroProbabilityError", "IntegrationRangeError"],
    "fock": ["DensityOperator", "FockOperator", "FockVector", "TruncationPolicy",
             "annihilation_op", "apply", "coherent_state", "creation_op", "displace",
             "fock_state", "identity_op", "inner", "norm", "normalize"],
    "ordering": ["OrderedMonomialSpec", "s_ordered_band", "s_ordered_monomial",
                 "s_to_t_convert"],
    "phasespace": ["Axis", "GridFunction", "IntegrationSpec", "PhaseGrid", "husimi",
                   "husimi_chi_closed", "husimi_multi_cat_closed", "quadrature_chi_closed",
                   "quadrature_dist", "wigner_cat_closed", "wigner_numeric"],
    "twomode": ["PhotonCountingPovm", "TwoModeState", "conditional_reduce", "oracle_y",
                "photon_counting_povm", "product_state"],
}


def test_lazy_namespace_exports_what_the_eager_one_did():
    names = [name for names in PACKAGE_EXPORTS.values() for name in names]
    assert sorted(condibeam.__all__) == sorted(names)
    assert len(set(condibeam.__all__)) == len(condibeam.__all__)
    assert set(errors.__all__) <= set(condibeam.__all__)
    assert list(condibeam._MODULE_OF) == condibeam.__all__  # one table behind both
    for module, module_names in PACKAGE_EXPORTS.items():
        defining = importlib.import_module(f"condibeam.{module}")
        for name in module_names:
            assert getattr(condibeam, name) is getattr(defining, name), name
    assert set(names) <= set(dir(condibeam))
    namespace = {}
    exec("from condibeam import *", namespace)
    assert set(names) <= set(namespace)
    assert all(namespace[name] is getattr(condibeam, name) for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        condibeam.no_such_name
