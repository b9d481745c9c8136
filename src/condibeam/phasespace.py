"""Husimi Q functions, Wigner functions and quadrature distributions.

Conventions: the quadrature states have vacuum variance 1/2 in x, the
Wigner function is

    W(x, p) = (1/pi) int dy e^(2ipy) <x-y,0|psi> <psi|x+y,0>,

whose p-marginal is the x-quadrature distribution and whose (x, p) plane
coincides with the coherent-amplitude plane alpha = x + i p of the Husimi
function Q(alpha) = |<alpha|psi>|^2 / pi.

Closed forms for the cat states (Q, W and p(x, phi)) are implemented next
to the generic overlap/transform routes; the pairs are cross-validated in
the tests.  Pointwise evaluations are independent, so grids can be mapped
in parallel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cats import _chi_amps_unnormalized, cat_norm_and_prob, multi_cat_log_norm
from .errors import IntegrationRangeError, TruncationError
from .fock import hermite_functions
from .polynomials import assoc_laguerre, log_factorial

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
    distributions reuse the type with a degenerate (single-point) phase
    axis.
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


def _coherent_overlap(state, alpha_flat):
    """<alpha|psi> for an array of coherent amplitudes.

    Uses the exact analytic coherent amplitudes on the retained levels
    (no renormalization), assembled in log space; every coefficient is
    bounded by 1, so the contraction is stable for any |alpha|.
    """
    dim = state.dim
    k = np.arange(dim)
    r = np.abs(alpha_flat)
    safe_r = np.where(r > 0, r, 1.0)
    logmag = (k[None, :] * np.log(safe_r)[:, None]
              - 0.5 * log_factorial(k)[None, :] - 0.5 * (r ** 2)[:, None])
    phases = np.exp(-1j * k[None, :] * np.angle(alpha_flat)[:, None])
    coeffs = np.exp(logmag) * phases  # conj(alpha)^k e^(-|a|^2/2) / sqrt(k!)
    zero = r == 0
    if np.any(zero):
        coeffs[zero] = 0.0
        coeffs[zero, 0] = 1.0
    return coeffs @ state.amps


def _husimi_tail_guard(state, grid, policy):
    """Error bound for the truncated overlap: sqrt(state tail x coherent tail).

    The neglected part of <alpha|psi> lives above the top-10% boundary; it
    is bounded by the product of the state's tail norm and the coherent
    tail norm at the worst grid corner.  States supported strictly below
    the boundary therefore never trip the guard, no matter how far the
    grid reaches.
    """
    prob = np.abs(state.amps) ** 2
    tail_state = float(prob[policy.tail_start:].sum())
    if tail_state == 0.0:
        return
    corners = [abs(complex(x, p)) for x in (grid.axis1.lo, grid.axis1.hi)
               for p in (grid.axis2.lo, grid.axis2.hi)]
    from .fock import coherent_tail_mass
    tail_coh = max(coherent_tail_mass(c, policy.tail_start - 1) for c in corners)
    bound = math.sqrt(tail_state * tail_coh)
    if bound > policy.tail_tol:
        raise TruncationError(
            f"husimi: overlap truncation bound {bound:.3e} exceeds tail_tol "
            f"{policy.tail_tol:.1e} (state tail {tail_state:.3e})",
            tail_mass=bound,
        )


def husimi(state, grid, policy):
    """Q(alpha) = |<alpha|psi>|^2 / pi on the grid (axis1 = Re, axis2 = Im)."""
    _require_2d(grid)
    _husimi_tail_guard(state, grid, policy)
    alpha = grid.alpha().ravel()
    q = np.abs(_coherent_overlap(state, alpha)) ** 2 / np.pi
    return GridFunction(q.reshape(grid.axis1.points, grid.axis2.points),
                        grid, "husimi")


def husimi_chi_closed(spec, grid):
    """Closed form for the chi state: |L_n(beta(a* + b*))|^2 e^(-|a|^2)/(pi N)."""
    _require_2d(grid)
    n_sum, _ = cat_norm_and_prob(spec)
    alpha = grid.alpha()
    arg = spec.beta * (np.conj(alpha) + np.conj(spec.beta))
    q = (np.abs(assoc_laguerre(spec.n, 0, arg)[spec.n]) ** 2
         * np.exp(-np.abs(alpha) ** 2) / (np.pi * n_sum))
    return GridFunction(q, grid, "husimi")


def husimi_multi_cat_closed(spec, grid):
    """Closed form |alpha^k - beta^k|^(2n) e^(-|alpha|^2) / (pi N_k), in log space."""
    _require_2d(grid)
    alpha = grid.alpha()
    log_norm = multi_cat_log_norm(spec)
    diff = alpha ** spec.k - spec.beta ** spec.k
    with np.errstate(divide="ignore"):
        logq = (2.0 * spec.n * np.log(np.abs(diff)) - np.abs(alpha) ** 2
                - math.log(math.pi) - log_norm)
    q = np.exp(logq)
    q[~np.isfinite(q)] = 0.0  # log(0) at the exact zeros of the pattern
    return GridFunction(q, grid, "husimi")


@dataclass(frozen=True)
class IntegrationSpec:
    """Fixed-step rule for the Wigner y-integral."""

    half_range: float
    step: float

    def __post_init__(self):
        if self.half_range <= 0 or self.step <= 0:
            raise ValueError("half_range and step must be > 0")


def default_integration(state):
    """Range +-(4 + 2 sqrt(<n>)), step <= 0.02: bounds tail and step error
    below 1e-6 for the states exercised here."""
    return IntegrationSpec(half_range=4.0 + 2.0 * math.sqrt(max(state.mean_photon_number(), 0.0)),
                           step=0.02)


def _wavefunction(state, u):
    """<u,0|psi> evaluated with the stable oscillator-function recurrence."""
    return np.tensordot(state.amps, hermite_functions(u, state.cutoff), axes=(0, 0))


def wigner_numeric(state, grid, integration=None):
    """W(x, p) by trapezoidal quadrature of the defining y-integral.

    Raises IntegrationRangeError when the integrand has not decayed at the
    ends of the integration window (boundary magnitude above 1e-6 of the
    global maximum).
    """
    _require_2d(grid)
    if integration is None:
        integration = default_integration(state)
    half, step = integration.half_range, integration.step
    npts = int(math.ceil(2.0 * half / step)) + 1
    y = np.linspace(-half, half, npts)
    dy = y[1] - y[0]
    x = grid.axis1.values
    p = grid.axis2.values
    phase = np.exp(2j * np.outer(y, p))  # (ny, np)
    values = np.empty((x.size, p.size))
    boundary = 0.0
    peak = 0.0
    weights = np.ones(y.size)
    weights[0] = weights[-1] = 0.5
    for i, xi in enumerate(x):
        f = _wavefunction(state, xi - y) * np.conj(_wavefunction(state, xi + y))
        absf = np.abs(f)
        boundary = max(boundary, absf[0], absf[-1])
        peak = max(peak, absf.max())
        values[i] = (dy / np.pi) * np.real((weights * f) @ phase)
    if boundary > 1e-6 * max(peak, 1e-300):
        raise IntegrationRangeError(
            f"wigner_numeric: integrand magnitude {boundary:.3e} at the "
            f"window ends (peak {peak:.3e}); enlarge half_range > {half:.3g}")
    return GridFunction(values, grid, "wigner")


def wigner_cat_closed(spec, grid):
    """Closed double sum for the chi-state Wigner function.

    With z = sqrt(2)(x + ip), c_k the chi amplitudes (the Laguerre values
    L_{n-k}^k(|beta|^2) (-beta)^k / sqrt(k!) over sqrt(N)), j = min(k, m),
    d = |m - k| and u_j^d(|z|^2) = sqrt(j!/(j+d)!) |z|^d L_j^d(|z|^2), the
    pair (k, m) adds

        (1/pi) (-1)^j c_k c_m* e^(i(m-k) arg z) u_j^d(|z|^2) e^(-|z|^2/2).

    This is the conjugate-symmetric transcription of the paper's sum
    (L_k^(m-k)(|z|^2) z^(m-k)/m! for k <= m, L_m^(k-m)(|z|^2) (-z*)^(k-m)/k!
    for k > m); it is validated against the numeric transform.  Each
    diagonal d = |m - k| takes one table of Laguerre values.
    """
    _require_2d(grid)
    n = spec.n
    amps = _chi_amps_unnormalized(n, spec.beta)
    z = math.sqrt(2.0) * grid.alpha()
    z2 = np.abs(z) ** 2
    arg = np.angle(z)
    total = np.zeros_like(z2)
    for d in range(n + 1):
        j = np.arange(n + 1 - d)
        pairs = (-1.0) ** j * amps[:n + 1 - d] * np.conj(amps[d:])
        lag = assoc_laguerre(n - d, d, z2)
        term = np.real(np.tensordot(pairs, lag, axes=(0, 0)) * np.exp(1j * d * arg))
        total += term if d == 0 else 2.0 * term
    n_sum = float(np.vdot(amps, amps).real)
    return GridFunction(total * np.exp(-0.5 * z2) / (np.pi * n_sum), grid, "wigner")


def quadrature_dist(state, x_axis, phi):
    """p(x, phi) = |<x,phi|psi>|^2 over a 1-D x grid (degenerate phi axis)."""
    x = x_axis.values
    fn = hermite_functions(x, state.cutoff)
    k = np.arange(state.dim)
    amp = np.tensordot(np.exp(-1j * k * phi) * state.amps, fn, axes=(0, 0))
    grid = PhaseGrid(x_axis, Axis("phi", phi, phi, 1))
    return GridFunction((np.abs(amp) ** 2)[:, None], grid, "quadrature")


def quadrature_chi_closed(spec, x_axis, phi):
    """Closed Hermite-sum form of p(x, phi) for the chi state.

    p = |sum_k L_{n-k}^k(|beta|^2) w^k H_k(x) / k!|^2 e^(-x^2) / (sqrt(pi) N)
    with w = -beta* e^(i phi) / sqrt(2); the Laguerre and power factors come
    in as the conjugate chi amplitudes times e^(ik phi) / sqrt(2^k k!).
    """
    amps = _chi_amps_unnormalized(spec.n, spec.beta)
    k = np.arange(spec.n + 1)
    coeffs = np.conj(amps) * np.exp(1j * k * phi - 0.5 * (k * math.log(2.0)
                                                          + log_factorial(k)))
    x = x_axis.values
    total = np.zeros(x.size, dtype=complex)
    hk = np.ones_like(x)
    h_prev = np.zeros_like(x)
    for k, c in enumerate(coeffs):
        total += c * hk
        hk, h_prev = 2.0 * x * hk - 2.0 * k * h_prev, hk
    n_sum = float(np.vdot(amps, amps).real)
    vals = np.abs(total) ** 2 * np.exp(-x * x) / (math.sqrt(math.pi) * n_sum)
    grid = PhaseGrid(x_axis, Axis("phi", phi, phi, 1))
    return GridFunction(vals[:, None], grid, "quadrature")
