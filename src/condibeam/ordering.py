"""s-ordered operator monomials as truncated matrices.

Two independent realizations are provided and cross-validated:

* :func:`s_ordered_band` -- the closed Jacobi-polynomial form.  Its second
  Jacobi parameter is the photon-number operator shifted by the
  annihilation power, so the polynomial is a diagonal of scalar Jacobi
  values P_m^(b, q-n)(z), q the Fock level, and a ladder power times it one
  shifted diagonal; :func:`_s_ordered_scaled` gives its logs and signs,
  :func:`s_ordered_monomial` places it in a matrix.
* :func:`s_to_t_convert` -- the ordering-conversion sum down to normal
  order, built from dense ladder powers: the reference route of
  ``condibeam selftest`` and the tests.
"""

import math

import numpy as np

from .fock import FockOperator, _Record, annihilation_op, creation_op, identity_op
from .polynomials import _folded, _scaled, jacobi, log_factorial

__all__ = [
    "OrderedMonomialSpec",
    "s_ordered_band",
    "s_ordered_monomial",
    "s_to_t_convert",
]


class OrderedMonomialSpec(_Record):
    """Creation power m, annihilation power n, ordering parameter s."""

    m: int
    n: int
    s: float

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"powers must be >= 0, got m={self.m}, n={self.n}")


def _ladder_power(op, k, policy):
    out = identity_op(policy)
    for _ in range(k):
        out = out @ op
    return out


def _s_ordered_scaled(spec, dim, u=None):
    """{(a^dag)^m a^n}_s's diagonal on the levels 0..dim - 1, in the order of
    ``np.diag`` at offset n - m, as (log magnitudes, signed values): for
    m <= n, m! [-(s+1)/2]^m a^(n-m) P_m^(n-m, n-hat - n)[(s-3)/(s+1)] (and
    symmetrically), with lo = min(m, n), k = |n - m| the logs ln lo! +
    lo ln|(s+1)/2| + ln sqrt((j+k)!/j!) and the values
    sign(-(s+1)/2)^lo P_lo^(k, q-n)(z) at level q.  ``u`` = (s - 1)/2, given
    where it is known to more digits than s - 1 keeps (a splitter's
    |T|^2/|R|^2 as |T| -> 0), gives Jacobi's (1 + z)/2 = u/(1 + u)."""
    m, n, s = spec.m, spec.n, spec.s
    z = (s - 3.0) / (s + 1.0)
    w = None if u is None else u / (1.0 + u)
    lo, k = min(m, n), abs(n - m)
    # the levels q the band keeps: its column index for m <= n, else its row index
    q = np.arange(k, dim) if m <= n else np.arange(dim - k)
    lf = log_factorial(np.arange(dim))
    log_mag = (log_factorial(lo) + lo * math.log(abs(s + 1.0) / 2.0)
               + 0.5 * (lf[k:] - lf[:max(dim - k, 0)]))  # sqrt((j+k)!/j!)
    return log_mag, math.copysign(1.0, -(s + 1.0)) ** lo * jacobi(lo, k, q - n, z, w)


def s_ordered_band(spec, policy):
    """{(a^dag)^m a^n}_s as its one diagonal, in the order of ``np.diag`` at
    offset n - m: the exact elements :func:`_s_ordered_scaled` gives (inf
    where one leaves the float range)."""
    log_mag, values = _s_ordered_scaled(spec, policy.dim)
    mantissa, exponent = _scaled(log_mag)
    return _folded(mantissa * values, exponent)


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
