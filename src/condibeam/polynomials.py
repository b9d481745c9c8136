"""Stable evaluation of the special polynomials used throughout the package.

Laguerre, associated Laguerre and Jacobi polynomials, log-factorials and
generalized binomial coefficients.  (Hermite functions live in :mod:`fock`.)
The Jacobi evaluation accepts *any* real parameters, including negative
integers: it uses the finite sum over generalized binomial coefficients,

    P_m^(b,c)(z) = 2^-m sum_j C(m+b, j) C(m+c, m-j) (z-1)^(m-j) (z+1)^j,

which stays well defined where gamma-function forms have poles.  Negative
integer parameters occur for real once the second Jacobi parameter is an
operator (the photon-number operator shifted by a detected photon count)
evaluated on low Fock levels.

The associated Laguerre and Jacobi polynomials also have a second,
independent evaluation route (module private, prefixed ``_alt_``) used by
the cross-check tests.
"""

import functools
import math

import numpy as np


def log_factorial(k):
    """ln(k!) for an integer k >= 0, or elementwise for an integer array.

    Arrays are answered from a table of ``math.lgamma`` values cached per
    table length; a cumulative sum of ln j would lose digits at large k.
    """
    if np.ndim(k) == 0:
        if k < 0:
            raise ValueError(f"log_factorial needs k >= 0, got {k}")
        return math.lgamma(k + 1)
    k = np.asarray(k)
    if k.min() < 0:
        raise ValueError(f"log_factorial needs k >= 0, got {k.min()}")
    return _log_factorial_table(int(k.max()) + 1)[k]


@functools.lru_cache(maxsize=16)
def _log_factorial_table(length):
    table = np.array([math.lgamma(j + 1) for j in range(length)])
    table.setflags(write=False)
    return table


def gen_binomial(r, k):
    """Generalized binomial coefficient C(r, k) = r(r-1)...(r-k+1)/k!.

    Parameters
    ----------
    r : float
        Any real number (negative integers included).
    k : int
        Nonnegative integer.

    Exact for integer r with 0 <= k <= r; the falling-factorial product is
    evaluated with interleaved divisions so intermediate values stay bounded.
    """
    if k < 0:
        raise ValueError(f"gen_binomial needs k >= 0, got {k}")
    if k == 0:
        return 1.0
    r_int = round(r)
    if r == r_int and 0 <= r_int and k <= r_int:
        return float(math.comb(r_int, k))
    out = 1.0
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out


def assoc_laguerre(n, a, z):
    """Associated Laguerre polynomial L_n^a(z) by its finite sum.

    L_n^a(z) = sum_{j=0}^n C(n+a, n-j) (-z)^j / j!

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    a : float
        Any real parameter (negative integers allowed).
    z : scalar or ndarray, real or complex
        Argument(s).
    """
    if n < 0:
        raise ValueError(f"assoc_laguerre needs degree n >= 0, got {n}")
    z = np.asarray(z)
    out = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
    term = np.ones_like(out)  # (-z)^j / j!
    for j in range(n + 1):
        out = out + gen_binomial(n + a, n - j) * term
        term = term * (-z) / (j + 1)
    return out if out.ndim else out[()]


def laguerre(n, z):
    """Laguerre polynomial L_n(z) = L_n^0(z)."""
    return assoc_laguerre(n, 0.0, z)


def jacobi(m, b, c, z):
    """Jacobi polynomial P_m^(b,c)(z) via generalized binomials.

    Valid for any real b, c including negative integers; see module
    docstring for the defining sum.
    """
    if m < 0:
        raise ValueError(f"jacobi needs degree m >= 0, got {m}")
    zm = z - 1.0
    zp = z + 1.0
    out = 0.0
    for j in range(m + 1):
        out += (gen_binomial(m + b, j) * gen_binomial(m + c, m - j)
                * zm ** (m - j) * zp ** j)
    return out * 0.5 ** m


# --- independent routes for cross-check tests ---------------------------

def _alt_assoc_laguerre(n, a, z):
    """L_n^a by the three-term recurrence in the degree."""
    if n == 0:
        return 1.0
    lm1 = 1.0
    l = 1.0 + a - z
    for j in range(1, n):
        l, lm1 = ((2 * j + 1 + a - z) * l - (j + a) * lm1) / (j + 1), l
    return l


def _alt_jacobi(m, b, c, z):
    """P_m^(b,c) by the classical three-term recurrence.

    The recurrence divides by 2m(m+b+c)(2m+b+c-2); it is only used as a
    cross-check for generic (non-degenerate) parameters.
    """
    if m == 0:
        return 1.0
    pm1 = 1.0
    p = 0.5 * ((b + c + 2) * z + (b - c))
    for j in range(2, m + 1):
        a1 = 2 * j * (j + b + c) * (2 * j + b + c - 2)
        a2 = (2 * j + b + c - 1) * (b * b - c * c)
        a3 = (2 * j + b + c - 1) * (2 * j + b + c) * (2 * j + b + c - 2)
        a4 = 2 * (j + b - 1) * (j + c - 1) * (2 * j + b + c)
        p, pm1 = ((a2 + a3 * z) * p - a4 * pm1) / a1, p
    return p
