"""s-ordered operator monomials as truncated matrices.

Three independent realizations are provided and cross-validated:

* :func:`s_ordered_monomial` -- the closed Jacobi-polynomial form.  The
  second Jacobi parameter is the photon-number operator shifted by the
  annihilation power; since n is diagonal, the polynomial becomes a diagonal
  operator whose entries are scalar Jacobi values P_m^(b, q-n)(z) at each
  Fock level q.  Those parameters run through negative integers on low
  levels, which is why the generalized-binomial Jacobi evaluation is used.
  A ladder power times that diagonal is one shifted diagonal, built as such.
* :func:`s_to_t_convert` -- the ordering-conversion sum, recursing down to
  normal order where the monomial is a plain matrix product.
* :func:`normal_reorder` -- the a^m (a^dag)^n reordering identity.

The last two are the tests' reference routes, built from dense ladder powers.

Conditioning: the closed-form coefficients contain [-(s+1)/2]^m and grow
without bound as |R| -> 0 (s -> infinity); below |R|^2 = 0.05 the
conditional module checks the Y it builds against the two-mode oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffExceededError
from .fock import FockOperator, annihilation_op, creation_op, identity_op
from .polynomials import gen_binomial, jacobi, log_factorial

__all__ = [
    "OrderedMonomialSpec",
    "s_ordered_monomial",
    "s_to_t_convert",
    "normal_reorder",
]


@dataclass(frozen=True)
class OrderedMonomialSpec:
    """Creation power m, annihilation power n, ordering parameter s."""

    m: int
    n: int
    s: float

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"powers must be >= 0, got m={self.m}, n={self.n}")


def _check_budget(m, n, policy):
    if m + n > policy.safe_levels:
        raise CutoffExceededError(
            f"operator powers m+n = {m + n} exceed the safe block "
            f"({policy.safe_levels} levels) at cutoff {policy.cutoff}")


def _ladder_power(op, k, policy):
    out = identity_op(policy)
    for _ in range(k):
        out = out @ op
    return out


def s_ordered_monomial(spec, policy):
    """{(a^dag)^m a^n}_s as a matrix, from the closed Jacobi form.

    For m <= n:  m! [-(s+1)/2]^m  a^(n-m)  P_m^(n-m, n-hat - n)[(s-3)/(s+1)],
    and symmetrically with creation operators for m >= n.  Both branches
    coincide at m = n.  The result is the single diagonal at offset n - m.
    """
    m, n, s = spec.m, spec.n, spec.s
    _check_budget(m, n, policy)
    z = (s - 3.0) / (s + 1.0)
    lo, k = min(m, n), abs(n - m)
    coeff = math.factorial(lo) * (-(s + 1.0) / 2.0) ** lo
    dim = policy.dim
    # the levels q the band keeps: its column index for m <= n, else its row index
    q = np.arange(k, dim) if m <= n else np.arange(dim - k)
    lf = log_factorial(np.arange(dim))
    ratio = np.exp(0.5 * (lf[k:] - lf[:dim - k]))  # sqrt((j+k)!/j!)
    band = ratio * jacobi(lo, k, q - n, z)
    return FockOperator(np.diag(coeff * band, n - m), policy.cutoff)


def s_to_t_convert(m, n, s, t, policy):
    """{(a^dag)^m a^n}_s realized through t-ordered monomials.

    {..}_s = sum_k k! C(m,k) C(n,k) ((t-s)/2)^k {(a^dag)^(m-k) a^(n-k)}_t,
    with the t-ordered base itself converted recursively to normal order
    (t = 1), where {(a^dag)^a a^b}_1 is the plain matrix product.
    """
    _check_budget(m, n, policy)
    if t == 1.0:
        base = lambda mm, nn: (_ladder_power(creation_op(policy), mm, policy)
                               @ _ladder_power(annihilation_op(policy), nn, policy))
    else:
        base = lambda mm, nn: s_to_t_convert(mm, nn, t, 1.0, policy)
    total = np.zeros((policy.dim, policy.dim), dtype=complex)
    for k in range(min(m, n) + 1):
        ck = (math.factorial(k) * gen_binomial(m, k) * gen_binomial(n, k)
              * ((t - s) / 2.0) ** k)
        if ck == 0.0:
            continue
        term = base(m - k, n - k)
        total += ck * term.mat
    return FockOperator(total, policy.cutoff)


def normal_reorder(m, n, policy):
    """Normally ordered form of a^m (a^dag)^n.

    Returns sum_l C(m,l) n!/(n-l)! (a^dag)^(n-l) a^(m-l); the left-hand
    matrix product a^m (a^dag)^n agrees with it on the safe block.
    """
    _check_budget(m, n, policy)
    total = np.zeros((policy.dim, policy.dim), dtype=complex)
    for l in range(min(m, n) + 1):
        cl = gen_binomial(m, l) * math.factorial(n) / math.factorial(n - l)
        term = (_ladder_power(creation_op(policy), n - l, policy)
                @ _ladder_power(annihilation_op(policy), m - l, policy))
        total += cl * term.mat
    return FockOperator(total, policy.cutoff)
