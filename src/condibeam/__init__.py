"""Conditional beam-splitter state engineering in truncated Fock space.

Mixing a signal mode with a prepared reference mode at a beam splitter and
conditioning on a measurement of the output reference mode applies a
non-unitary operator to the signal.  This package builds that operator in
closed form (an s-ordered operator product attenuated by T^n, with s fixed
by the beam-splitter reflectance), verifies it against a brute-force
two-mode simulation, and uses it to generate and analyze
Schrödinger-cat-like states, including their Husimi, Wigner and quadrature
distributions.
"""

__version__ = "0.1.0"

from .beamsplitter import BeamSplitterParams, OperatorPolynomial, ReferencePrep
from .cats import (
    CatSpec,
    cat_norm_and_prob,
    chi_state,
    multi_cat_log_norm,
    multi_cat_state,
    scheme_a_state,
    scheme_b_state,
)
from .conditional import (
    ConditionalOperator,
    apply_conditional,
    swap_roles,
    y_displaced_fock,
    y_displaced_general,
    y_general,
)
from .errors import *  # noqa: F403 -- errors.__all__: every error class
from .fock import (
    FockOperator,
    FockVector,
    TruncationPolicy,
    annihilation_op,
    apply,
    coherent_state,
    creation_op,
    displace,
    displacement_op,
    fock_state,
    identity_op,
    inner,
    norm,
    normalize,
)
from .ordering import (
    OrderedMonomialSpec,
    s_ordered_band,
    s_ordered_monomial,
    s_to_t_convert,
)
from .phasespace import (
    Axis,
    GridFunction,
    IntegrationSpec,
    PhaseGrid,
    husimi,
    husimi_chi_closed,
    husimi_multi_cat_closed,
    quadrature_chi_closed,
    quadrature_dist,
    wigner_cat_closed,
    wigner_numeric,
)
from .twomode import (
    DensityOperator,
    PhotonCountingPovm,
    TwoModeState,
    conditional_reduce,
    conditional_reduce_mixed,
    oracle_y,
    photon_counting_povm,
    product_state,
)
