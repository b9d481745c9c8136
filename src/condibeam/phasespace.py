"""Husimi Q functions, Wigner functions and quadrature distributions.

Conventions: the quadrature states have vacuum variance 1/2 in x, the
Wigner function is

    W(x, p) = (1/pi) int dy e^(2ipy) <x-y,0|psi> <psi|x+y,0>,

whose p-marginal is the x-quadrature distribution and whose (x, p) plane
coincides with the coherent-amplitude plane alpha = x + i p of the Husimi
function Q(alpha) = |<alpha|psi>|^2 / pi.

Closed forms for the cat states (Q, W and p(x, phi)) are implemented next
to the generic overlap/transform routes; the pairs are cross-validated in
the tests.

Each generic route evaluates a whole grid in one pass over one table.  The
Husimi overlap takes one table of log-space coherent magnitudes and sums
the levels by Horner in e^(-i arg alpha), one complex exponential per grid
point instead of one per (point, level) pair.  The Wigner transform
evaluates the wavefunction once, on a lattice that holds every point
x +- y of the grid and of the y-integral.  Its integrand is Hermitian in y,
f(x, -y) = f(x, y)*, so the rows are contracted on the y >= 0 half only,
their real and imaginary parts with real weighted cos(2py) and sin(2py)
tables in two real matrix products.  The quadrature route builds one table
of oscillator functions over the x axis and applies every phase to it as
one (level, phi) matrix.

The chi-state Wigner closed form runs one triangular Laguerre recurrence
for all diagonals, on the grid's distinct |z|^2 values only, and sums the
diagonals by Horner in e^(i arg z).

The generic routes stop at the state's numerical top t
(:func:`fock._numerical_top`), not at the cutoff: the Husimi overlap runs
on the nonzero levels up to t, skipping gaps such as a multi-cat's, and
the wavefunction and quadrature routes on every level up to t (the
Hermite recurrence needs them all).  So a chi state with n photons, or a
conditional output whose amplitudes stay tiny up to the cutoff, costs the
same at any cutoff.  The Husimi truncation check
(:meth:`fock.TruncationPolicy.check_overlap`) still reads the full vector.
Past :func:`_far_radius` (t) the Husimi routes return exact zeros, as
:func:`fock.hermite_functions` does past its radius.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cats import _chi_amplitudes, multi_cat_log_norm
from .errors import DomainError, IntegrationRangeError
from .fock import _numerical_top, hermite_functions
from .polynomials import laguerre_rows, log_factorial

__all__ = [
    "Axis",
    "PhaseGrid",
    "GridFunction",
    "IntegrationSpec",
    "husimi",
    "husimi_chi_closed",
    "husimi_multi_cat_closed",
    "wigner_numeric",
    "wigner_cat_closed",
    "quadrature_dist",
    "quadrature_chi_closed",
]


@dataclass(frozen=True)
class Axis:
    """A uniformly sampled closed interval."""

    name: str
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"axis needs >= 1 point, got {self.points}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("axis range must be finite")

    @property
    def values(self):
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def step(self):
        return (self.hi - self.lo) / (self.points - 1) if self.points > 1 else 0.0


@dataclass(frozen=True)
class PhaseGrid:
    """Two axes spanning a phase-space rectangle.

    Quasiprobability evaluations require >= 2 points per axis; quadrature
    distributions take an x axis and a phase axis of any length, a single
    phase included.
    """

    axis1: Axis
    axis2: Axis

    @classmethod
    def square(cls, lo, hi, points, names=("x", "p")):
        return cls(Axis(names[0], lo, hi, points), Axis(names[1], lo, hi, points))

    def alpha(self):
        """Complex grid axis1 + i axis2, shape (axis1.points, axis2.points)."""
        return self.axis1.values[:, None] + 1j * self.axis2.values[None, :]


def _require_2d(grid):
    if grid.axis1.points < 2 or grid.axis2.points < 2:
        raise ValueError("phase-space evaluation needs >= 2 points per axis")


@dataclass(frozen=True)
class GridFunction:
    """Real values over a grid; kind is one of husimi/wigner/quadrature."""

    values: np.ndarray
    grid: PhaseGrid
    kind: str

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        shape = (self.grid.axis1.points, self.grid.axis2.points)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != grid shape {shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _support(state):
    """The nonzero levels below the numerical top t, then t."""
    top = _numerical_top(state.amps)
    return np.append(np.flatnonzero(state.amps[:top]), top)


def _far_radius(top):
    """R = 40 + 2u, u = sqrt(top).  For |alpha| >= R the magnitudes
    e^(-|alpha|^2/2) |alpha|^k / sqrt(k!), k <= top, peak at k = top and fall
    with |alpha|; at R their log is below u^2 (ln 2 + 20/u + 1/2) - R^2/2 < -800."""
    return 40.0 + 2.0 * math.sqrt(top)


def _coherent_overlap(state, alpha_flat):
    """<alpha|psi> for an array of coherent amplitudes.

    Uses the exact analytic coherent amplitudes (no renormalization) on the
    levels k_0 < ... < k_m of :func:`_support` only.  Their magnitudes
    |alpha|^k e^(-|alpha|^2/2) / sqrt(k!) are assembled in log space, so
    every one is bounded by 1 and the sum is stable for any |alpha|; their
    phases come from Horner's rule in v = e^(-i arg alpha),

        sum_i c_i m_i v^(k_i) = v^(k_0) (c_0 m_0 + v^(k_1 - k_0) (c_1 m_1 + ...)),

    with one power v^g = e^(-ig arg alpha) per distinct gap g (and for
    k_0), so a grid takes as many complex exponentials as the support has
    distinct gaps, not one per level.  At alpha = 0 the overlap is <0|psi>.
    |alpha| is clipped to :func:`_far_radius`, where every magnitude is 0.
    The truncation check on the full vector is the caller's.
    """
    k = _support(state)
    r = np.minimum(np.abs(alpha_flat), _far_radius(k[-1]))
    safe_r = np.where(r > 0, r, 1.0)
    mag = np.exp(k[:, None] * np.log(safe_r) - 0.5 * log_factorial(k)[:, None]
                 - 0.5 * r ** 2)  # (level, point)
    zero = r == 0
    if np.any(zero):
        mag[:, zero] = (k == 0)[:, None]  # <0|psi>, zero when level 0 is not in the support
    arg = np.angle(alpha_flat)
    amps = state.amps[k]
    gaps = np.diff(k)
    powers = {g: np.exp(-1j * g * arg) for g in np.unique(gaps).tolist()}
    total = amps[-1] * mag[-1]
    for i in range(k.size - 2, -1, -1):
        total = total * powers[gaps[i]] + amps[i] * mag[i]
    return total * np.exp(-1j * k[0] * arg) if k[0] else total


def husimi(state, grid, policy):
    """Q(alpha) = |<alpha|psi>|^2 / pi on the grid (axis1 = Re, axis2 = Im).

    :meth:`TruncationPolicy.check_overlap` runs first, on the full vector
    and the largest |alpha| of the grid; the overlap then runs on the
    nonzero levels up to the state's numerical top.
    """
    _require_2d(grid)
    alpha = grid.alpha().ravel()
    policy.check_overlap(state.amps, np.abs(alpha).max(), "husimi")
    q = np.abs(_coherent_overlap(state, alpha)) ** 2 / np.pi
    return GridFunction(q.reshape(grid.axis1.points, grid.axis2.points),
                        grid, "husimi")


def husimi_chi_closed(spec, grid):
    """Closed form for the chi state: |L_n(beta(a* + b*))|^2 e^(-|a|^2)/(pi N).

    N enters as ln N inside the exponential, so the form holds where N
    overflows.  Past :func:`_far_radius` (n) Q is 0 and not evaluated.
    """
    _require_2d(grid)
    _, log_norm = _chi_amplitudes(spec.n, spec.beta)
    alpha = grid.alpha()
    near = np.abs(alpha) <= _far_radius(spec.n)
    alpha = alpha[near]
    arg = spec.beta * (np.conj(alpha) + np.conj(spec.beta))
    for lag in laguerre_rows(spec.n, arg, 0):
        pass  # only the last row, L_n, is read
    scaled = lag * np.exp(-0.5 * (np.abs(alpha) ** 2 + log_norm))
    q = np.zeros(near.shape)
    q[near] = np.abs(scaled) ** 2 / np.pi
    return GridFunction(q, grid, "husimi")


def husimi_multi_cat_closed(spec, grid):
    """Closed form |alpha^k - beta^k|^(2n) e^(-|alpha|^2) / (pi N_k), in log
    space; past :func:`_far_radius` (kn) Q is 0 and not evaluated."""
    _require_2d(grid)
    alpha = grid.alpha()
    near = np.abs(alpha) <= _far_radius(spec.k * spec.n)
    alpha = alpha[near]
    log_norm = multi_cat_log_norm(spec)
    diff = alpha ** spec.k - spec.beta ** spec.k
    with np.errstate(divide="ignore"):
        logq = (2.0 * spec.n * np.log(np.abs(diff)) - np.abs(alpha) ** 2
                - math.log(math.pi) - log_norm)
    q = np.zeros(near.shape)
    q[near] = np.exp(logq)
    q[~np.isfinite(q)] = 0.0  # log(0) at the exact zeros of the pattern
    return GridFunction(q, grid, "husimi")


@dataclass(frozen=True)
class IntegrationSpec:
    """Fixed-step trapezoid rule for the Wigner y-integral over +-half_range.

    ``step`` is an upper bound.  The step used is at most ``step`` and
    shares one lattice with the x spacing: it divides the spacing, or is a
    whole multiple of it when the spacing is below ``step``.  The window is
    rounded up to whole steps, so it covers at least +-half_range.
    """

    half_range: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.half_range) and math.isfinite(self.step)):
            raise ValueError("half_range and step must be finite")
        if self.half_range <= 0 or self.step <= 0:
            raise ValueError("half_range and step must be > 0")


def default_integration(state):
    """Range +-(4 + 2 sqrt(<n>)), step <= 0.02: bounds tail and step error
    below 1e-6 for the states exercised here."""
    return IntegrationSpec(half_range=4.0 + 2.0 * math.sqrt(max(state.mean_photon_number(), 0.0)),
                           step=0.02)


def _wavefunction(state, u):
    """<u,0|psi> evaluated with the stable oscillator-function recurrence.

    The recurrence runs up to the state's numerical top, not up to the
    cutoff.
    """
    top = _numerical_top(state.amps)
    return np.tensordot(state.amps[:top + 1], hermite_functions(u, top), axes=(0, 0))


def wigner_numeric(state, grid, integration=None):
    """W(x, p) by trapezoidal quadrature of the defining y-integral.

    With dx the x spacing, the y-step is dy = s delta <= step for a lattice
    step delta with |dx| = r delta (r, s whole), and the window is
    +-h dy with h = ceil(half_range / dy).  Every point x_i +- y_j is then
    a point of one lattice, on which the wavefunction is evaluated once:
    row i of psi(x + y) is a strided window of that table and psi(x - y) the
    same window reversed.  Where the lattice would hold more points than
    the rows and the window together (a y-step or an x spacing far wider
    than the other), the points x_i + y_j themselves are evaluated instead.

    The integrand f(x, y) = psi(x + y)* psi(x - y) satisfies
    f(x, -y) = f(x, y)*, so it is formed and contracted on the y >= 0 half
    alone: 2 Re[f e^(2ipy)] = 2 (Re f cos 2py - Im f sin 2py) for y > 0,
    with real weighted cos and sin tables, and y = 0 counted once.  Since
    |f(x, -y)| = |f(x, y)|, the half holds the peak and the window end.

    Raises IntegrationRangeError when the integrand has not decayed at the
    ends of the integration window (boundary magnitude above 1e-6 of the
    global maximum), and when max|p| + half_range > pi/dy, where W at the
    aliases p + k pi/dy (k whole) that the y-sum adds in may be nonzero.
    """
    _require_2d(grid)
    if integration is None:
        integration = default_integration(state)
    half, step = integration.half_range, integration.step
    x = grid.axis1.values
    p = grid.axis2.values
    dx = abs(grid.axis1.step)
    rows = x.size if dx > 0 else 1  # lo == hi: every row is the same
    if dx >= step:
        r, s = math.ceil(dx / step), 1
    elif dx > 0:
        r, s = 1, math.floor(step / dx)
    else:
        r, s = 1, 1
    delta = dx / r if dx > 0 else step
    dy = s * delta
    p_max = max(abs(p[0]), abs(p[-1]))
    if p_max + half > math.pi / dy:
        raise IntegrationRangeError(
            f"wigner_numeric: |p| up to {p_max:.3g} plus half_range {half:.3g} "
            f"exceeds pi/dy = {math.pi / dy:.3g}; the y-sum would alias")
    h = math.ceil(half / dy)
    ny = 2 * h + 1
    x_lo = min(x[0], x[-1])
    size = (rows - 1) * r + 2 * h * s + 1
    if size <= rows * ny:
        lattice = x_lo + (np.arange(size) - h * s) * delta
        psi = sliding_window_view(_wavefunction(state, lattice), 2 * h * s + 1)[::r, ::s]
    else:
        offsets = (np.arange(ny) - h) * dy
        psi = _wavefunction(state, (x_lo + np.arange(rows) * float(r) * delta)[:, None] + offsets)
    f = np.conj(psi[:, h:])  # (rows, h + 1): psi(x_i + y_j)* psi(x_i - y_j), y_j >= 0
    f *= psi[:, h::-1]
    absf = np.abs(f)
    boundary = absf[:, -1].max()
    peak = absf.max()
    if boundary > 1e-6 * max(peak, 1e-300):
        raise IntegrationRangeError(
            f"wigner_numeric: integrand magnitude {boundary:.3e} at the "
            f"window ends (peak {peak:.3e}); enlarge half_range > {half:.3g}")
    weights = np.full(h + 1, 2.0 * dy / np.pi)
    weights[0] = weights[-1] = dy / np.pi  # y = 0 once; the window ends at half weight
    angle = 2.0 * np.outer(np.arange(h + 1) * dy, p)
    values = (f.real @ (weights[:, None] * np.cos(angle))
              - f.imag @ (weights[:, None] * np.sin(angle)))
    if grid.axis1.step < 0:
        values = values[::-1]
    return GridFunction(np.broadcast_to(values, (x.size, p.size)), grid, "wigner")


def wigner_cat_closed(spec, grid):
    """Closed double sum for the chi-state Wigner function.

    With z = sqrt(2)(x + ip), c_k the chi amplitudes (the Laguerre values
    L_{n-k}^k(|beta|^2) (-beta)^k / sqrt(k!) over sqrt(N)), j = min(k, m),
    d = |m - k| and u_j^d(|z|^2) = sqrt(j!/(j+d)!) |z|^d L_j^d(|z|^2), the
    pair (k, m) adds

        (1/pi) (-1)^j c_k c_m* e^(i(m-k) arg z) u_j^d(|z|^2) e^(-|z|^2/2).

    This is the conjugate-symmetric transcription of the paper's sum
    (L_k^(m-k)(|z|^2) z^(m-k)/m! for k <= m, L_m^(k-m)(|z|^2) (-z*)^(k-m)/k!
    for k > m); it is validated against the numeric transform.

    The radial sums S_d(rho) = sum_j (-1)^j c_j c_(j+d)* u_j^d(rho) depend on
    |z|^2 = rho alone.  They are accumulated row by row of one triangular
    Laguerre recurrence (degree j, diagonals d <= n - j) over the grid's
    distinct rho, and W = Re sum_d w_d S_d e^(id arg z), w_0 = 1 and
    w_d = 2, is then summed by Horner in e^(i arg z).  Raises DomainError
    when the sums leave the float range (|z|^2 ~ 1e32 and beyond).
    """
    _require_2d(grid)
    n = spec.n
    amps, _ = _chi_amplitudes(n, spec.beta)
    z = math.sqrt(2.0) * grid.alpha()
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = np.abs(z) ** 2
        rho, where = np.unique(z2, return_inverse=True)
        where = where.reshape(z2.shape)
        radial = np.zeros((n + 1, rho.size), dtype=complex)
        for j, row in enumerate(laguerre_rows(n, rho)):
            radial[:n + 1 - j] += ((-1.0) ** j * amps[j] * np.conj(amps[j:]))[:, None] * row
        radial[1:] *= 2.0
        unit = np.exp(1j * np.angle(z))
        total = radial[n, where]
        for d in range(n - 1, -1, -1):
            total = total * unit + radial[d, where]
        values = total.real * np.exp(-0.5 * z2) / np.pi
    if not np.isfinite(values).all():
        raise DomainError(f"wigner_cat_closed: the closed sum leaves the float range "
                          f"at |z|^2 = {rho[-1]:.3g}")
    return GridFunction(values, grid, "wigner")


def quadrature_dist(state, grid):
    """p(x, phi) = |<x,phi|psi>|^2 over x (axis1) and phi (axis2).

    <x,phi|psi> = sum_k e^(-ik phi) c_k phi_k(x): one table of oscillator
    functions, up to the state's numerical top, is contracted with the
    (level, phi) matrix of phased amplitudes.
    """
    top = _numerical_top(state.amps)
    k = np.arange(top + 1)
    coeffs = np.exp(-1j * np.outer(k, grid.axis2.values)) * state.amps[:top + 1, None]
    amp = np.tensordot(hermite_functions(grid.axis1.values, top), coeffs, axes=(0, 0))
    return GridFunction(np.abs(amp) ** 2, grid, "quadrature")


def quadrature_chi_closed(spec, grid):
    """Closed Hermite-sum form of p(x, phi) for the chi state.

    p = |sum_k L_{n-k}^k(|beta|^2) w^k H_k(x) / k!|^2 e^(-x^2) / (sqrt(pi) N)
    with w = -beta* e^(i phi) / sqrt(2); the Laguerre and power factors come
    in as the conjugate chi amplitudes times e^(ik phi) / sqrt(2^k k!).

    The Hermite polynomials come from their own recurrence
    H_{k+1} = 2x H_k - 2k H_{k-1}, not from the oscillator functions of the
    overlap route.  They leave the float range from k ~ 300 at |x| ~ 6, so
    each x point carries H_k as a mantissa times 2^e: the pair (H_k, H_{k-1})
    is scaled down by 2^500 whenever |H_k| passes 2^500.  The exponent e,
    the envelope e^(-x^2/2) and 1/sqrt(2^k k!) are summed in log space
    before the contraction, where each level weighs at most ~1.  Raises
    DomainError when the sum leaves the float range all the same.
    """
    amps, _ = _chi_amplitudes(spec.n, spec.beta)
    k = np.arange(spec.n + 1)
    coeffs = np.conj(amps)[:, None] * np.exp(1j * np.outer(k, grid.axis2.values))
    x = grid.axis1.values
    mantissa = np.empty((spec.n + 1, x.size))
    exponent = np.empty((spec.n + 1, x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        h, prev, e = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
        for j in range(spec.n + 1):
            mantissa[j], exponent[j] = h, e
            if j == spec.n:
                break
            h, prev = 2.0 * x * h - 2.0 * j * prev, h
            big = np.abs(h) > 2.0 ** 500
            if big.any():
                shift = np.where(big, -500, 0)
                h, prev = np.ldexp(h, shift), np.ldexp(prev, shift)
                e = e + 500.0 * big
        log_weight = (exponent * math.log(2.0) - 0.5 * x * x
                      - 0.5 * (k * math.log(2.0) + log_factorial(k))[:, None])
        total = np.tensordot(mantissa * np.exp(log_weight), coeffs, axes=(0, 0))
        vals = np.abs(total) ** 2 / math.sqrt(math.pi)
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            f"quadrature_chi_closed: the Hermite sum leaves the float range "
            f"at n = {spec.n}")
    return GridFunction(vals, grid, "quadrature")
