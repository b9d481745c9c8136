"""Conditional beam-splitter state engineering in truncated Fock space.

Mixing a signal mode with a prepared reference mode at a beam splitter and
conditioning on a measurement of the output reference mode applies a
non-unitary operator to the signal.  This package builds that operator in
closed form (an s-ordered operator product attenuated by T^n, with s fixed
by the beam-splitter reflectance), verifies it against a brute-force
two-mode simulation, and uses it to generate and analyze
Schrödinger-cat-like states, including their Husimi, Wigner and quadrature
distributions.

The namespace is lazy (PEP 562): ``import condibeam`` loads no submodule,
and a public name imports its defining module on first access.  Each CLI
run is a fresh process, so a run pays only for the modules its experiment
uses; numpy loads only once a run computes, so ``--help`` and a config with
an unknown key never load it.  ``from condibeam import X`` and
``from condibeam import *`` work as for eager re-exports.
"""

import importlib

__version__ = "0.1.0"

# the defining module of every public name
_EXPORTS = {
    "beamsplitter": ("BeamSplitterParams", "OperatorPolynomial", "ReferencePrep"),
    "cats": ("CatSpec", "cat_norm_and_prob", "chi_state", "multi_cat_log_norm",
             "multi_cat_state", "scheme_a_state", "scheme_b_state"),
    "conditional": ("ConditionalOperator", "apply_conditional", "apply_conditional_mixed",
                    "swap_roles", "y_displaced_fock", "y_displaced_general", "y_general"),
    "errors": ("CondibeamError", "ConfigError", "DomainError", "CutoffExceededError",
               "CutoffMismatchError", "TruncationError", "DegenerateBeamSplitterError",
               "ZeroProbabilityError", "IntegrationRangeError"),
    "fock": ("DensityOperator", "FockOperator", "FockVector", "TruncationPolicy",
             "annihilation_op", "apply", "coherent_state", "creation_op", "displace",
             "fock_state", "identity_op", "inner", "norm", "normalize"),
    "ordering": ("OrderedMonomialSpec", "s_ordered_band", "s_ordered_monomial",
                 "s_to_t_convert"),
    "phasespace": ("Axis", "GridFunction", "IntegrationSpec", "PhaseGrid", "husimi",
                   "husimi_chi_closed", "husimi_multi_cat_closed", "quadrature_chi_closed",
                   "quadrature_dist", "wigner_cat_closed", "wigner_numeric"),
    "twomode": ("PhotonCountingPovm", "TwoModeState", "conditional_reduce", "oracle_y",
                "photon_counting_povm", "product_state"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# spelled out, not derived from _EXPORTS: tools that check the public
# surface read __all__ from the source without importing the package
__all__ = [
    "BeamSplitterParams", "OperatorPolynomial", "ReferencePrep",
    "CatSpec", "cat_norm_and_prob", "chi_state", "multi_cat_log_norm", "multi_cat_state",
    "scheme_a_state", "scheme_b_state",
    "ConditionalOperator", "apply_conditional", "apply_conditional_mixed", "swap_roles",
    "y_displaced_fock", "y_displaced_general", "y_general",
    "CondibeamError", "ConfigError", "DomainError", "CutoffExceededError",
    "CutoffMismatchError", "TruncationError", "DegenerateBeamSplitterError",
    "ZeroProbabilityError", "IntegrationRangeError",
    "DensityOperator", "FockOperator", "FockVector", "TruncationPolicy", "annihilation_op",
    "apply", "coherent_state", "creation_op", "displace", "fock_state", "identity_op",
    "inner", "norm", "normalize",
    "OrderedMonomialSpec", "s_ordered_band", "s_ordered_monomial", "s_to_t_convert",
    "Axis", "GridFunction", "IntegrationSpec", "PhaseGrid", "husimi", "husimi_chi_closed",
    "husimi_multi_cat_closed", "quadrature_chi_closed", "quadrature_dist",
    "wigner_cat_closed", "wigner_numeric",
    "PhotonCountingPovm", "TwoModeState", "conditional_reduce", "oracle_y",
    "photon_counting_povm", "product_state",
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
