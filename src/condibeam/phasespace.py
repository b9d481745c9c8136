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

Each route evaluates a whole grid in one pass over one table (coherent
magnitudes, the wavefunction on one lattice, oscillator functions or one
triangular Laguerre recurrence) and sums the levels by Horner in a phase,
in place, or by real matrix products; the functions say how.

The chi-state Wigner sum runs its Laguerre recurrence once per mirror class
of radii: on an axis symmetric about 0, the points i and N-1-i share one
magnitude.  :class:`Axis` values stay ``np.linspace``'s, which are not exact
mirror images (their last digits differ), because the Husimi and quadrature
grids and every printed grid coordinate read them: exact mirror values
would move a one-ulp tie between the two peaks of a symmetric Husimi grid
and with it the reported peak position.

The generic routes stop at the state's numerical top t
(:func:`fock._numerical_top`), not at the cutoff, so a chi state with n
photons, or a conditional output whose amplitudes stay tiny up to the
cutoff, costs the same at any cutoff; the Husimi overlap also skips the
zero levels below t, such as a multi-cat's gaps.  The Husimi truncation
check (:meth:`fock.TruncationPolicy.check_overlap`) still reads the full
vector.  Past :func:`_far_radius` (t) the Husimi routes return exact
zeros, as :func:`fock.hermite_functions` does past its radius.

The numeric Wigner transform is a trapezoid sum in y, whose error on a
smooth decaying integrand is its aliases alone (Poisson summation):
(1/pi) dy sum_j f(x, y_j) e^(2ip y_j) = sum_k W(x, p + k pi/dy).  Its
default step is the coarsest that keeps every alias k != 0 at least twice
the integration half-range away from p = 0; its bound never drops below
0.02 (:func:`wigner_numeric`).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cats import multi_cat_log_norm
from .errors import DomainError, IntegrationRangeError
from .fock import _Record, _numerical_top, hermite_functions
from .polynomials import (_folded, _laguerre_shift, _laguerre_times, _renormalized, _scaled,
                          laguerre_rows, log_factorial)

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


class Axis(_Record):
    """A uniformly sampled closed interval."""

    name: str
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"axis needs >= 1 point, got {self.points}")
        # an infinite or NaN end makes the width non-finite too
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"axis ends and width hi - lo must be finite, "
                             f"got [{self.lo!r}, {self.hi!r}]")

    @property
    def values(self):
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def step(self):
        return (self.hi - self.lo) / (self.points - 1) if self.points > 1 else 0.0


class PhaseGrid(_Record):
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


class GridFunction(_Record):
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

    The exact coherent amplitudes on the levels k_0 < ... < k_m of
    :func:`_support`: magnitudes |alpha|^k e^(-|alpha|^2/2) / sqrt(k!) from
    log space, each at most 1, and phases by Horner's rule in
    v = e^(-i arg alpha), sum_i c_i m_i v^(k_i) = v^(k_0) (c_0 m_0 +
    v^(k_1 - k_0) (c_1 m_1 + ...)), one complex exponential per distinct gap.
    At alpha = 0 the overlap is <0|psi>; |alpha| is clipped to
    :func:`_far_radius`, where every magnitude is 0.  The truncation check
    on the full vector is the caller's.
    """
    k = _support(state)
    r = np.minimum(np.abs(alpha_flat), _far_radius(k[-1]))
    safe_r = np.where(r > 0, r, 1.0)
    mag = np.multiply.outer(k, np.log(safe_r))  # (level, point), formed in place
    mag -= 0.5 * log_factorial(k)[:, None]
    mag -= 0.5 * r ** 2
    np.exp(mag, out=mag)
    zero = r == 0
    if np.any(zero):
        mag[:, zero] = (k == 0)[:, None]  # <0|psi>, zero when level 0 is not in the support
    arg = np.angle(alpha_flat)
    amps = state.amps[k]
    gaps = np.diff(k)
    powers = {g: np.exp(-1j * g * arg) for g in set(gaps.tolist())}
    total = amps[-1] * mag[-1]
    for i in range(k.size - 2, -1, -1):
        total *= powers[gaps[i]]
        total += amps[i] * mag[i]
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
    overflows; L_n and e^(-(|a|^2 + ln N)/2) are one product
    (:func:`polynomials._laguerre_times`), carried on scaled values where
    either leaves the float range.  Past :func:`_far_radius` (n) Q is 0 and
    not evaluated.
    """
    _require_2d(grid)
    log_norm = spec.chi_sum.log_norm
    alpha = grid.alpha()
    near = np.abs(alpha) <= _far_radius(spec.n)
    alpha = alpha[near]
    arg = spec.beta * (np.conj(alpha) + np.conj(spec.beta))
    scaled = _laguerre_times(spec.n, arg, -0.5 * (np.abs(alpha) ** 2 + log_norm))
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


class IntegrationSpec(_Record):
    """Trapezoid rule for the Wigner y-integral over +-half_range.

    ``step`` is an upper bound.  The step used is at most ``step`` and
    shares one lattice with the x spacing: it divides the spacing, or is a
    whole multiple of it when the spacing is below ``step``.  The window is
    rounded up to whole steps, so it covers at least +-half_range.  Passed
    to :func:`wigner_numeric`, a spec fixes the step bound; without one the
    bound is derived from the grid's momenta.
    """

    half_range: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.half_range) and math.isfinite(self.step)):
            raise ValueError("half_range and step must be finite")
        if self.half_range <= 0 or self.step <= 0:
            raise ValueError("half_range and step must be > 0")


def default_integration(state):
    """Range +-(4 + 2 sqrt(<n>)) and step bound 0.02.

    The range is the window :func:`wigner_numeric` integrates over by
    default, past which it takes the integrand, and W, to be negligible: it
    cuts ~1.5e-8 of the vacuum's integrand off, less for larger <n>.  The
    step 0.02 is the floor of the default's derived step; as an explicit
    spec it gives the fixed fine-step transform.
    """
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

    By Poisson summation the trapezoid sum at step dy is exact up to its
    aliases: (1/pi) dy sum_j f(x, y_j) e^(2ip y_j) = sum_k W(x, p + k pi/dy),
    with the window error of the finite sum on top.  The window
    +-half_range already takes W to be negligible past half_range in p, so
    the step only has to put the aliases k != 0 there.  Without an
    ``integration`` spec the half-range is :func:`default_integration`'s and
    the step bound is pi / (max|p| + 2 half_range), which keeps every alias
    at least 2 half_range from p = 0, a full half-range past where W is
    already neglected.  That bound never drops below the spec's 0.02, so a
    grid whose momenta alias at 0.02 is refused as before.  An explicit
    spec's step bound is used as given.

    With dx the x spacing, the y-step is dy = s delta <= step for a lattice
    step delta with |dx| = r delta (r, s whole), and the window is +-h dy,
    h = ceil(half_range / dy).  Every point x_i +- y_j is then a point of
    one lattice, where the wavefunction is evaluated once: psi(x_i + y) is a
    strided window of that table and psi(x_i - y) the same one reversed.
    Where the lattice would outnumber the rows and the window together, the
    points x_i + y_j themselves are evaluated instead; so too where dx is so
    small that step / dx leaves the float range and no whole s exists, at
    dy = step.

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
    x = grid.axis1.values
    p = grid.axis2.values
    p_max = max(abs(p[0]), abs(p[-1]))
    if integration is None:
        default = default_integration(state)
        alias_step = math.pi / (p_max + 2.0 * default.half_range)
        integration = IntegrationSpec(default.half_range, max(alias_step, default.step))
    half, step = integration.half_range, float(integration.step)  # step / dx may overflow
    dx = abs(grid.axis1.step)
    rows = x.size if dx > 0 else 1  # lo == hi: every row is the same
    if dx >= step:
        r, s = math.ceil(dx / step), 1
    elif dx == 0:
        r, s = 1, 1
    elif step / dx < math.inf:
        r, s = 1, math.floor(step / dx)
    else:  # step / dx past the float range: no whole s, dy = step and no lattice
        r, s = 1, math.inf
    delta = dx / r if dx > 0 else step
    dy = s * delta if s < math.inf else step
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


def _mirror_values(axis):
    """The axis values v, mirror-exact.  On a symmetric axis (lo == -hi,
    reversed included) the points i and N-1-i are mirror images up to
    linspace's rounding; both take the mean of their magnitudes, each with
    its own sign, which leaves exact mirror images as they are and moves
    the others by half their gap, within linspace's own rounding."""
    v = axis.values
    return np.copysign(0.5 * (np.abs(v) + np.abs(v[::-1])), v) if axis.lo == -axis.hi else v


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
    |z|^2 = rho alone: they come from one triangular Laguerre recurrence
    over the grid's distinct rho, and W = Re sum_d w_d S_d e^(id arg z),
    w_0 = 1 and w_d = 2, is summed by Horner in e^(i arg z), in place.  The
    rows' 2^-E(rho) is folded in with e^(-rho/2) as scaled values.  Raises
    DomainError when the sums leave the float range (|z|^2 ~ 1e32 and on).

    rho runs once per mirror class: the sum is evaluated on mirror-exact
    axis values (:func:`_mirror_values`), where the points i and N-1-i of a
    symmetric axis differ in sign only, so a square grid of N points a side
    has at most ceil(N/2)(ceil(N/2)+1)/2 radii, not the ~N^2/4 distinct ones
    that linspace's rounding leaves.  On axes whose values are exact mirror
    images (the shipped +-5 at step 1/8) or that are not symmetric, these
    are the grid's own values, bit for bit; elsewhere a point moves within
    linspace's rounding, which moved W by up to 7e-15 of max|W| at n = 20
    on +-7 (81 points).  The axis values themselves stay linspace's (see the
    module docstring).
    """
    _require_2d(grid)
    n = spec.n
    amps = spec.chi_sum.amps
    x, p = _mirror_values(grid.axis1), _mirror_values(grid.axis2)
    z = math.sqrt(2.0) * (x[:, None] + 1j * p[None, :])
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
            total *= unit
            total += radial[d, where]
        envelope, exponent = _scaled(-0.5 * z2)
        values = _folded(total.real * envelope, exponent + _laguerre_shift(z2)) / np.pi
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
    the recurrence and the weights e^(-x^2/2) / sqrt(2^k k!) run on scaled
    values (:mod:`polynomials`), folded once, as their product.  Raises
    DomainError when the sum leaves the float range all the same.
    """
    amps = spec.chi_sum.amps
    k = np.arange(spec.n + 1)
    coeffs = np.conj(amps)[:, None] * np.exp(1j * np.outer(k, grid.axis2.values))
    x = grid.axis1.values
    mantissa = np.empty((spec.n + 1, x.size))
    exponent = np.empty((spec.n + 1, x.size), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        h, prev, e = np.ones_like(x), np.zeros_like(x), np.zeros(x.shape, dtype=np.int64)
        for j in range(spec.n + 1):  # the last step's level n + 1 is not read
            mantissa[j], exponent[j] = h, e
            h, prev, e = _renormalized(2.0 * x * h - 2.0 * j * prev, h, e)
        weight, shift = _scaled(-0.5 * x * x - 0.5 * (k * np.log(2.0) + log_factorial(k))[:, None])
        total = np.tensordot(_folded(mantissa * weight, exponent + shift), coeffs, axes=(0, 0))
        vals = np.abs(total) ** 2 / math.sqrt(math.pi)
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            f"quadrature_chi_closed: the Hermite sum leaves the float range "
            f"at n = {spec.n}")
    return GridFunction(vals, grid, "quadrature")
