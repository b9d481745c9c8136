"""s-ordered operator monomials as truncated matrices.

Two independent realizations are provided and cross-validated:

* :func:`s_ordered_band` -- the closed Jacobi-polynomial form.  The
  second Jacobi parameter is the photon-number operator shifted by the
  annihilation power; since n is diagonal, the polynomial becomes a diagonal
  operator whose entries are scalar Jacobi values P_m^(b, q-n)(z) at each
  Fock level q.  Those parameters run down to -m on low levels, which
  :func:`polynomials.jacobi` maps to nonnegative ones for its recurrence.
  A ladder power times that diagonal is one shifted diagonal, returned as
  its values; :func:`s_ordered_monomial` places them in a matrix.
* :func:`s_to_t_convert` -- the ordering-conversion sum, recursing down to
  normal order where the monomial is a plain matrix product.

The second is the reference route of ``condibeam selftest`` and the tests,
built from dense ladder powers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffExceededError
from .fock import FockOperator, annihilation_op, creation_op, identity_op
from .polynomials import jacobi, log_factorial

__all__ = [
    "OrderedMonomialSpec",
    "s_ordered_band",
    "s_ordered_monomial",
    "s_to_t_convert",
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


def s_ordered_band(spec, policy):
    """{(a^dag)^m a^n}_s as its one diagonal, from the closed Jacobi form.

    For m <= n:  m! [-(s+1)/2]^m  a^(n-m)  P_m^(n-m, n-hat - n)[(s-3)/(s+1)],
    and symmetrically with creation operators for m >= n.  Both branches
    coincide at m = n.  Returns the values of the diagonal at offset
    n - m, in the order of ``np.diag``.
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
    return coeff * (ratio * jacobi(lo, k, q - n, z))


def s_ordered_monomial(spec, policy):
    """{(a^dag)^m a^n}_s as a matrix: the diagonal of :func:`s_ordered_band`."""
    return FockOperator(np.diag(s_ordered_band(spec, policy), spec.n - spec.m),
                        policy.cutoff)


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
        ck = math.factorial(k) * math.comb(m, k) * math.comb(n, k) * ((t - s) / 2.0) ** k
        if ck == 0.0:
            continue
        term = base(m - k, n - k)
        total += ck * term.mat
    return FockOperator(total, policy.cutoff)
