"""Special polynomials used throughout the package.

Associated Laguerre and Jacobi polynomials, log-factorials and generalized
binomial coefficients.  (Hermite functions live in :mod:`fock`.)

Associated Laguerre values are evaluated in one place, :func:`assoc_laguerre`,
by the three-term recurrence in the degree applied to the normalized values
sqrt(j!/(j+a)!) x^(a/2) L_j^a(x).  Times e^(-x/2) these are the matrix
elements of a displacement operator, so they are bounded by e^(x/2) and
nothing of the size of (j+a)!/j! is formed.  The alternating finite sum
sum_i C(j+a, j-i) (-x)^i / i! is not used: its terms cancel and it loses
digits from degree ~25 on at x ~ j/2.

The Jacobi evaluation accepts *any* real parameters, including negative
integers: it uses the finite sum over generalized binomial coefficients,

    P_m^(b,c)(z) = 2^-m sum_j C(m+b, j) C(m+c, m-j) (z-1)^(m-j) (z+1)^j,

which stays well defined where gamma-function forms have poles.  Negative
integer parameters occur for real once the second Jacobi parameter is an
operator (the photon-number operator shifted by a detected photon count)
evaluated on low Fock levels; ``c`` may therefore be an array, one value per
level.
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
    r : float or ndarray
        Any real number (negative integers included), or an array of them
        evaluated elementwise.
    k : int
        Nonnegative integer.

    Exact for scalar integer r with 0 <= k <= r; otherwise the
    falling-factorial product is evaluated with interleaved divisions so
    intermediate values stay bounded.
    """
    if k < 0:
        raise ValueError(f"gen_binomial needs k >= 0, got {k}")
    if np.ndim(r) == 0:
        r_int = round(r)
        if r == r_int and 0 <= r_int and k <= r_int:
            return float(math.comb(r_int, k))
    out = np.ones(np.shape(r))
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out if out.ndim else float(out)


def assoc_laguerre(nmax, a, x):
    """Normalized associated Laguerre values for degrees j = 0..nmax.

    u_j = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x), by the normalized recurrence

        u_{j+1} = [(2j+1+a-x) u_j - sqrt(j(j+a)) u_{j-1}] / sqrt((j+1)(j+1+a))

    from u_0 = x^(a/2) / sqrt(a!), assembled in log space.  e^(-x/2) |u_j|
    is the magnitude of the displacement-operator element <j+a|D(alpha)|j>
    at |alpha|^2 = x, so |u_j| <= e^(x/2).

    Parameters
    ----------
    nmax : int
        Highest degree, >= 0.
    a : int or integer ndarray
        Parameter(s) a >= 0.
    x : float or ndarray
        Argument(s) x >= 0, broadcast against ``a``.  Complex arguments are
        allowed at a = 0, where u_j = L_j(x).

    Returns shape (nmax+1,) + broadcast shape of (a, x).
    """
    if nmax < 0:
        raise ValueError(f"assoc_laguerre needs degree nmax >= 0, got {nmax}")
    a = np.asarray(a)
    x = np.asarray(x)
    with np.errstate(divide="ignore"):  # x = 0 with a > 0 gives u_0 = 0
        log_x = np.log(np.where(a == 0, 1.0, x))
    u = np.empty((nmax + 1,) + np.broadcast(a, x).shape,
                 dtype=complex if np.iscomplexobj(x) else float)
    u[0] = np.exp(0.5 * (a * log_x - log_factorial(a)))
    prev = 0.0
    for j in range(nmax):
        u[j + 1] = (((2 * j + 1 + a - x) * u[j] - np.sqrt(j * (j + a)) * prev)
                    / np.sqrt((j + 1) * (j + 1 + a)))
        prev = u[j]
    return u


def jacobi(m, b, c, z):
    """Jacobi polynomial P_m^(b,c)(z) via generalized binomials.

    Valid for any real b, c including negative integers; see module
    docstring for the defining sum.  ``c`` may be an array, evaluated
    elementwise.
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
