"""Special polynomials, and the one scaled-number layer of the package.

Associated Laguerre and Jacobi polynomials and log-factorials.  (Hermite
functions live in :mod:`fock`.)  A recurrence whose values leave the float
range runs on scaled values, a mantissa array and an integer power-of-two
exponent array: :func:`_scaled` starts them from a log value,
:func:`_renormalized` takes 2^500 out of a recurrence pair and
:func:`_folded` returns floats, an exponent below the range giving an
exact 0.  Where a value is a normal float the exponent is 0 and the
mantissa is that float, so the layer only moves powers of two.  A complex
mantissa moves by its real and imaginary parts.

Associated Laguerre values come from one place, :func:`laguerre_rows`: the
three-term recurrence in the degree on the normalized values
sqrt(j!/(j+a)!) x^(a/2) L_j^a(x), displacement-operator elements times
e^(x/2).  (The alternating finite sum loses digits from degree ~25 on at
x ~ j/2.)  Its operands 2j+1+a and sqrt(j(j+a)) are tabled per block of
degrees, for all the parameters at once (and the argument, where it is no
larger), so a degree step forms no operand.  The displacement matrix and
the chi amplitudes and Wigner sum read its triangle j + a <= nmax.  The
chi Husimi form reads one row at a = 0 and complex x, through
:func:`_laguerre_times`, which carries it on scaled values where it leaves
the float range.

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


# ln 2 = _LN2_HI + _LN2_LO, _LN2_HI short enough that k _LN2_HI is exact for |k| < 2^20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_TINY = np.finfo(float).tiny
# the power of two one renormalization takes out of a scaled pair
_STEP = 500


def _scaled(log_value):
    """e^log_value as (mantissa, exponent): exponent 0 (a plain 0 if throughout) and
    mantissa np.exp, bit for bit, wherever that is a normal float (or 0 at a log
    of -inf); elsewhere k = rint(log_value / ln 2) and e^(log_value - k ln 2)."""
    log_value = np.asarray(log_value, dtype=float)
    if log_value.size and -708.0 < log_value.min() and log_value.max() < 709.0:
        return np.exp(log_value), 0
    with np.errstate(over="ignore"):
        mantissa = np.asarray(np.exp(log_value))
    exponent = np.zeros(log_value.shape, dtype=np.int64)
    carry = ~((mantissa >= _TINY) & (mantissa < np.inf)) & np.isfinite(log_value)
    k = np.rint(np.clip(log_value[carry], -2.0 ** 60, 2.0 ** 60) / math.log(2.0))
    mantissa[carry] = np.exp((log_value[carry] - k * _LN2_HI) - k * _LN2_LO)
    exponent[carry] = k
    return mantissa, exponent


def _renormalized(value, prev, exponent):
    """Where |value| passes 2^500, the recurrence pair (value, prev) scaled
    down by 2^500, exactly, and 500 added to their exponent."""
    big = np.abs(value) > 2.0 ** _STEP
    if big.any():
        shift = np.where(big, -_STEP, 0)
        value, prev = _ldexp(value, shift), _ldexp(prev, shift)
        exponent = exponent + _STEP * big
    return value, prev, exponent


def _folded(mantissa, exponent):
    """mantissa 2^exponent as floats; 0 below the float range."""
    return mantissa if isinstance(exponent, int) and not exponent else _ldexp(mantissa, exponent)


def _ldexp(value, exponent):
    """np.ldexp, which takes no complex value: a complex one is scaled by its
    real and imaginary parts."""
    if not np.iscomplexobj(value):
        return np.ldexp(value, exponent)
    out = np.array(np.ldexp(value.real, exponent), dtype=complex)
    out.imag = np.ldexp(value.imag, exponent)
    return out


def _laguerre_shift(x):
    """E(x), the power of two dividing the rows of :func:`laguerre_rows` (a plain 0 if
    no x needs it): 0 up to x = 1386 (their bound e^(x/2) < 2^1000), for complex x
    and past x ~ 1.45e6 (E ln 2 splits exactly below), else rint(x / (2 ln 2))."""
    x = np.asarray(x)
    if x.dtype.kind == "c" or not x.size or (x.max() if x.ndim else x.item()) <= 1386.29:
        return 0
    half = 0.5 * x / math.log(2.0)
    return np.where((half > 1000.0) & (half < 2.0 ** 20), np.rint(half), 0.0).astype(np.int64)


def laguerre_rows(nmax, x, a=None):
    """Yield the normalized associated Laguerre values degree by degree.

    Row j holds u_j^a(x) 2^-E, E = :func:`_laguerre_shift` (x), by

        u_{j+1} = [(2j+1+a-x) u_j - sqrt(j(j+a)) u_{j-1}] / sqrt((j+1)(j+1+a))

    from u_0 = x^(a/2) / sqrt(a!), formed in log space.  e^(-x/2) |u_j| is
    |<j+a|D(alpha)|j>| at |alpha|^2 = x, so |u_j| <= e^(x/2); past x = 1386
    a caller takes e^(-x/2) 2^E for e^(-x/2).  The operands 2j+1+a and
    sqrt((j+1)(j+1+a)) are tabled for a block of degrees at a time from
    exact integers (:func:`_recurrence`), so each step rounds the operands
    of the formula written out, and a step is four or five array operations.

    The start underflows for large a while later degrees need not: by
    |L_j^a(x)| <= C(j+a, j) e^(x/2) (x, a >= 0; Abramowitz & Stegun
    22.14.13), |u_j^a(x)| <= sqrt(C(j+a, j)) u_0^a(x) e^(x/2).  Only a
    parameter whose start is not a normal float and whose bound, at its
    highest degree, reaches 2^-500 e^(x/2) runs on scaled values; the rest,
    below every tolerance of the package, run as plain floats, bit for bit.

    ``nmax`` >= 0 is the highest degree; ``x`` >= 0 the argument(s), complex
    allowed at a = 0 (u_j = L_j(x)); ``a`` >= 0 integer parameter(s),
    broadcast against ``x``.  Without ``a`` the rows are the triangle
    j + a <= nmax: row j has shape (nmax - j + 1,) + shape(x) over
    a = 0..nmax - j, and degree j reads only the first nmax - j entries of
    the two rows before it.  Returns an iterator of nmax + 1 new arrays,
    j = 0..nmax; a consumer that stops early leaves the higher degrees
    uncomputed.
    """
    if nmax < 0:
        raise ValueError(f"laguerre_rows needs degree nmax >= 0, got {nmax}")
    x = np.asarray(x)
    triangle = a is None
    if triangle:
        a = np.arange(nmax + 1).reshape((-1,) + (1,) * x.ndim)
    a = np.asarray(a)
    shift = _laguerre_shift(x)
    with np.errstate(divide="ignore"):  # x = 0 with a > 0 gives u_0 = 0
        log_x = np.log(np.where(a == 0, 1.0, x))
    log_u = 0.5 * (a * log_x - log_factorial(a))
    if isinstance(shift, np.ndarray):
        log_u = (log_u - shift * _LN2_HI) - shift * _LN2_LO
    u = np.exp(log_u)
    rows = _recurrence(nmax, x, a, u, triangle)
    # sqrt(C(J+a, J)) <= 2^((J+a)/2), so below J + a = 1044 no start under 2^-1022 comes back
    if isinstance(shift, int) and nmax + (0 if triangle else a.max()) < 1044:
        return rows
    degrees = np.maximum(nmax - a, 0) if triangle else nmax  # each parameter's highest
    low = ((np.abs(u) < _TINY) & np.isfinite(log_u)  # not at x = 0, where u_0 = 0 is exact
           & (log_u + shift * math.log(2.0)  # the 2^-E cancels against e^(x/2)
              + 0.5 * (log_factorial(degrees + a) - log_factorial(degrees) - log_factorial(a))
              >= -_STEP * math.log(2.0)))
    if not low.any():
        return rows
    # the carried parameters, flat in C order: along a in the triangle
    x_low, a_low = (np.broadcast_to(v, low.shape)[low] for v in (x, a))
    mantissa, exponent = _scaled(log_u[low])
    carried = _recurrence(nmax, x_low, a_low, mantissa, False, exponent)
    return (_written(row, low[:len(row)], values) for row, values in zip(rows, carried))


def _written(row, where, values):
    """``row`` with its entries ``where`` set to the first ``values``."""
    row[where] = values[:np.count_nonzero(where)]
    return row


# entries per operand table of the Laguerre recurrence (a block of at least
# one degree): 64 kB, below the 128 kB from which glibc's malloc maps each
# array afresh, page faults and all
_TABLE = 1 << 13


def _recurrence(nmax, x, a, u, triangle, exponent=None):
    """The rows of :func:`laguerre_rows` from its row 0, ``u``; with an
    ``exponent``, on scaled values, renormalized and folded degree by degree.

    The operands are tabled for a block of degrees at a time, about
    :data:`_TABLE` entries, when its first degree is asked for: 2j+1+a
    (less x, where x has no more entries than a) and the roots sqrt(j(j+a)).
    Both come from exact integers held as floats, so each rounds as in the
    formula written out, and a degree step is four array operations (five
    with x apart) in that formula's order:
    ((2j+1+a - x) u_j - sqrt(j(j+a)) u_(j-1)) / sqrt((j+1)(j+1+a)).
    """
    yield u if exponent is None else _folded(u, exponent)
    x, a = np.asarray(x), np.asarray(a, dtype=float)
    fold = x.size <= a.size  # x goes into the table of 2j+1+a
    axes = (1,) * max(a.ndim, x.ndim)
    prev = None
    j0 = 0
    while j0 < nmax:
        params = a[:nmax - j0] if triangle else a  # the parameters degree j0 + 1 keeps
        width = np.broadcast(params, x).size if fold else params.size
        # blocks of 4, 8, 16, ... degrees up to the table size: a consumer that
        # stops early leaves at most about half of the tabled degrees unread
        steps = min(nmax - j0, 4 + j0, max(1, _TABLE // max(width, 1)))
        j = np.arange(j0, j0 + steps + 1.0).reshape((-1,) + axes)
        leads = params + (2.0 * j[:-1] + 1.0)  # 2j+1+a
        if fold:
            leads = leads - x
        roots = j + params
        roots *= j
        np.sqrt(roots, out=roots)  # sqrt(j(j+a)); row i + 1 divides step i
        for i in range(steps):
            lead, root, denom = leads[i], roots[i], roots[i + 1]
            if triangle:  # degree j + 1 keeps the parameters a <= nmax - j - 1
                keep = nmax - j0 - i
                lead, root, denom, u = lead[:keep], root[:keep], denom[:keep], u[:keep]
            new = (lead if fold else lead - x) * u
            if prev is not None:  # degree 1 has no u_(-1) term
                new -= root * (prev[:keep] if triangle else prev)
            new /= denom
            prev, u = u, new
            if exponent is not None:
                u, prev, exponent = _renormalized(u, prev, exponent)
            yield u if exponent is None else _folded(u, exponent)
        j0 += steps


def _laguerre_times(nmax, z, log_scale):
    """L_nmax(z) e^log_scale for complex z and real log_scale, elementwise,
    where L_nmax(z) or e^log_scale alone leaves the float range.

    By |L_j(z)| <= L_j(-|z|) <= e^(2 sqrt(j |z|)) no row passes 2^500 while
    2 sqrt(nmax max|z|) < 500 ln 2; there, and with e^log_scale a normal
    float, this is the last row of :func:`laguerre_rows` times
    np.exp(log_scale).  Elsewhere the recurrence, linear in its start, starts
    from e^log_scale as a scaled number, so row j is e^log_scale L_j(z) on
    scaled values.
    """
    mantissa, exponent = _scaled(log_scale)
    if (isinstance(exponent, int)
            and 2.0 * math.sqrt(nmax * np.abs(z).max(initial=0.0)) < _STEP * math.log(2.0)):
        for row in laguerre_rows(nmax, z, 0):
            pass  # only the last row, L_nmax, is read
        return row * mantissa  # np.exp(log_scale), bit for bit
    for row in _recurrence(nmax, z, 0, mantissa, False, exponent):
        pass
    return row


def jacobi(m, b, c, z, w=None):
    """P_m^(b,c)(z) for integers m, b >= 0 and c >= -m, and real z.

    ``c`` may be an integer array, evaluated elementwise; a scalar ``c``
    gives a float.  ``w`` is (1 + z)/2, the base of Szego's prefactor, where
    the caller has it to more digits than 1 + z keeps near z = -1.
    """
    c = np.asarray(c)
    if not (isinstance(m, Integral) and isinstance(b, Integral) and c.dtype.kind in "iu"
            and m >= 0 and b >= 0 and np.all(c >= -m) and not np.iscomplexobj(z)):
        raise ValueError(f"jacobi needs integers m >= 0, b >= 0, c >= -m and a real z, got m = "
                         f"{m!r}, b = {b!r}, c = {np.array2string(c, threshold=6)}, z = {z!r}")
    if not m:
        return np.ones(c.shape) if c.ndim else 1.0
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
    w = 0.5 * (1.0 + z) if w is None else w
    prefactor = np.exp(lf[m + b] - lf[m + b - l] - lf[m] + lf[m - l]) * w ** l
    lc = np.maximum(-flat, 0)  # l for c = -l, 0 for c >= 0
    out = p[m - lc, np.arange(flat.size)] * prefactor[lc]
    return out.reshape(c.shape) if c.ndim else float(out[0])
