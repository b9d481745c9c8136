"""Special polynomials used throughout the package.

Associated Laguerre and Jacobi polynomials and log-factorials.  (Hermite
functions live in :mod:`fock`.)

Associated Laguerre values are evaluated in one place, :func:`laguerre_rows`,
by the three-term recurrence in the degree applied to the normalized values
sqrt(j!/(j+a)!) x^(a/2) L_j^a(x).  Times e^(-x/2) these are the matrix
elements of a displacement operator, so they are bounded by e^(x/2) and
nothing of the size of (j+a)!/j! is formed.  The alternating finite sum
sum_i C(j+a, j-i) (-x)^i / i! is not used: its terms cancel and it loses
digits from degree ~25 on at x ~ j/2.

The recurrence yields one row per degree, so a caller stops at the degree
it needs.  By default a row covers the triangle j + a <= nmax only: each
degree advances a prefix of the parameters one shorter than the last, and
the nmax + 1 rows hold (nmax + 1)(nmax + 2)/2 values, half the square
table, each bit for bit the value the square table holds.  The displacement
matrix, the chi amplitudes and the chi Wigner sum read that triangle;
with given parameters every row covers them all, and the chi Husimi form
reads the last row at a = 0.

Jacobi values P_m^(b,c)(z) come from the three-term recurrence in the
degree.  ``c`` may be an array, one value per Fock level, and runs down to
-m on the lowest levels, where the recurrence would divide by zero; there a
negative c = -l is first mapped by Szego's identity (Orthogonal Polynomials,
4.22.2), so the recurrence meets only parameters >= 0:

    P_m^(b,-l)(z) = [C(m+b, l) / C(m, l)] ((1+z)/2)^l P_{m-l}^(b,l)(z).
"""

import math
from numbers import Integral

import numpy as np

__all__ = ["log_factorial", "laguerre_rows", "jacobi"]


def log_factorial(k):
    """ln(k!) for an integer k >= 0, or elementwise for an integer array.

    Arrays are answered from one read-only table of ``math.lgamma`` values;
    a cumulative sum of ln j would lose digits at large k.
    """
    if np.ndim(k) == 0:
        if k < 0:
            raise ValueError(f"log_factorial needs k >= 0, got {k}")
        return math.lgamma(k + 1)
    k = np.asarray(k)
    if k.min() < 0:
        raise ValueError(f"log_factorial needs k >= 0, got {k.min()}")
    return _log_factorial_table(int(k.max()) + 1)[k]


# ln j! for j < len(_LOG_FACTORIALS); read-only, and only ever replaced
_LOG_FACTORIALS = np.zeros(1)
_LOG_FACTORIALS.setflags(write=False)


def _log_factorial_table(length):
    """The table of ln j! for at least j < length.  A longer request swaps
    in a table at least twice as long; a table once returned is never
    written to."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) < length:
        more = range(len(table), max(length, 2 * len(table)))
        table = np.concatenate((table, [math.lgamma(j + 1) for j in more]))
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return table


def laguerre_rows(nmax, x, a=None):
    """Yield the normalized associated Laguerre values degree by degree.

    Row j holds u_j^a(x) = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x), by the
    normalized recurrence

        u_{j+1} = [(2j+1+a-x) u_j - sqrt(j(j+a)) u_{j-1}] / sqrt((j+1)(j+1+a))

    from u_0 = x^(a/2) / sqrt(a!), assembled in log space.  e^(-x/2) |u_j|
    is the magnitude of the displacement-operator element <j+a|D(alpha)|j>
    at |alpha|^2 = x, so |u_j| <= e^(x/2).

    The denominator sqrt((j+1)(j+1+a)) of step j is the root the next step
    multiplies u_{j-1} by, so it is kept for that step.  The integers 2j+1+a
    and (j+1)(j+1+a) are carried as running integer arrays (+2, then plus
    the new 2j+1+a, per step), so each step rounds the same operands as the
    formula written out and every row is bit for bit the same.

    Parameters
    ----------
    nmax : int
        Highest degree, >= 0.
    x : float or ndarray
        Argument(s) x >= 0.  Complex arguments are allowed at a = 0, where
        u_j = L_j(x).
    a : int or integer ndarray, optional
        Parameter(s) a >= 0, broadcast against ``x``; every row then has
        the broadcast shape of (a, x).  Without ``a`` the rows are the
        triangle j + a <= nmax: row j has shape (nmax - j + 1,) + shape(x)
        over a = 0..nmax - j, and the first nmax - j entries of row j - 1
        and row j - 2 are all that degree j reads.

    Yields nmax + 1 new arrays, j = 0..nmax; a consumer that stops early
    leaves the higher degrees uncomputed.
    """
    if nmax < 0:
        raise ValueError(f"laguerre_rows needs degree nmax >= 0, got {nmax}")
    x = np.asarray(x)
    triangle = a is None
    if triangle:
        a = np.arange(nmax + 1).reshape((-1,) + (1,) * x.ndim)
    a = np.asarray(a)
    with np.errstate(divide="ignore"):  # x = 0 with a > 0 gives u_0 = 0
        log_x = np.log(np.where(a == 0, 1.0, x))
    u, prev = np.exp(0.5 * (a * log_x - log_factorial(a))), 0.0
    yield u
    lead, norm, root = 1 + a, 1 + a, 0.0  # 2j+1+a, (j+1)(j+1+a), sqrt(j(j+a))
    for j in range(nmax):
        if triangle:  # degree j + 1 keeps the parameters a <= nmax - j - 1
            keep = nmax - j
            u, lead, norm = u[:keep], lead[:keep], norm[:keep]
            if j:
                prev, root = prev[:keep], root[:keep]
        denom = np.sqrt(norm)
        u, prev = ((lead - x) * u - root * prev) / denom, u
        root = denom
        lead += 2
        norm += lead
        yield u


def jacobi(m, b, c, z):
    """P_m^(b,c)(z) for integers m, b >= 0 and c >= -m, and real z.

    ``c`` may be an integer array, evaluated elementwise; a scalar ``c``
    gives a float.
    """
    c = np.asarray(c)
    if not (isinstance(m, Integral) and isinstance(b, Integral) and c.dtype.kind in "iu"
            and m >= 0 and b >= 0 and np.all(c >= -m) and not np.iscomplexobj(z)):
        raise ValueError(f"jacobi needs integers m >= 0, b >= 0, c >= -m and a real z, got m = "
                         f"{m!r}, b = {b!r}, c = {np.array2string(c, threshold=6)}, z = {z!r}")
    flat = c.ravel()
    a = np.abs(flat).astype(float)  # c = -l is read from P_{m-l}^(b,l)
    p = np.ones((m + 1, flat.size))
    if m:
        p[1] = 0.5 * ((b + a + 2) * z + (b - a))
    for j in range(2, m + 1):
        t = 2 * j + b + a
        p[j] = (((t - 1) * (t * (t - 2) * z + b * b - a * a) * p[j - 1]
                 - 2 * (j + b - 1) * (j + a - 1) * t * p[j - 2])
                / (2 * j * (j + b + a) * (t - 2)))
    l = np.arange(m + 1)  # Szego's prefactor for l = 0..m; 1 at l = 0
    lf = log_factorial(np.arange(m + b + 1))
    prefactor = np.exp(lf[m + b] - lf[m + b - l] - lf[m] + lf[m - l]) * (0.5 * (1.0 + z)) ** l
    lc = np.maximum(-flat, 0)  # l for c = -l, 0 for c >= 0
    out = p[m - lc, np.arange(flat.size)] * prefactor[lc]
    return out.reshape(c.shape) if c.ndim else float(out[0])
