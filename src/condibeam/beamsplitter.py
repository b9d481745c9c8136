"""Beam-splitter parameters and reference-mode preparations.

A lossless beam splitter is parameterized by a mixing angle and two phases,
giving complex transmittance T = exp(i phi_t) cos(theta) and reflectance
R = exp(i phi_r) sin(theta) with |T|^2 + |R|^2 = 1.  The ordering parameter
of the conditional operator is s = 2/|R|^2 - 1 (> 1 whenever |R| < 1).

Reference modes are prepared as D(alpha) F(a^dag) |0> where F is a
polynomial in the creation operator; :class:`OperatorPolynomial` stores the
coefficients, :class:`ReferencePrep` adds the coherent displacement.
"""

import cmath
import math
import sys

import numpy as np

from . import fock
from .errors import DegenerateBeamSplitterError, DomainError
from .polynomials import log_factorial

__all__ = ["BeamSplitterParams", "OperatorPolynomial", "ReferencePrep"]


class BeamSplitterParams(fock._Record):
    """Mixing angle (radians) and transmittance/reflectance phases."""

    theta: float
    phi_t: float = 0.0
    phi_r: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi_t", "phi_r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def transmittance(self):
        return cmath.exp(1j * self.phi_t) * math.cos(self.theta)

    @property
    def reflectance(self):
        return cmath.exp(1j * self.phi_r) * math.sin(self.theta)

    @property
    def s(self):
        """Ordering parameter 2/|R|^2 - 1 of the conditional operator."""
        r2 = abs(self.reflectance) ** 2
        if r2 == 0.0:
            raise DegenerateBeamSplitterError("s undefined for R = 0")
        return 2.0 / r2 - 1.0

    @property
    def is_balanced(self):
        return abs(abs(self.transmittance) ** 2 - 0.5) < 1e-12

    def swapped(self):
        """Parameters with (T, R) -> (iR, iT).

        Exchanging signal and input-reference states under this replacement
        reproduces the same conditional output up to a global phase.
        """
        return BeamSplitterParams(theta=math.pi / 2 - self.theta,
                                  phi_t=self.phi_r + math.pi / 2,
                                  phi_r=self.phi_t + math.pi / 2)

    def require_nondegenerate(self):
        if abs(self.transmittance) < 1e-15 or abs(self.reflectance) < 1e-15:
            raise DegenerateBeamSplitterError(
                f"closed form needs T != 0 and R != 0 "
                f"(theta = {self.theta!r})")


class OperatorPolynomial(fock._Record):
    """Coefficients c_0..c_d of F(a^dag) = sum_k c_k (a^dag)^k.

    Trailing zero coefficients are trimmed so the degree is well defined.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0j,)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def one(cls):
        return cls((1.0,))

    @classmethod
    def fock_monomial(cls, n):
        """F with F(a^dag)|0> = |n>, i.e. c_n = 1/sqrt(n!); DomainError from
        n = 301 on, where c_n is no longer a normal float."""
        c = [0.0] * (n + 1)
        c[n] = math.exp(-0.5 * math.lgamma(n + 1))
        if c[n] < sys.float_info.min:
            raise DomainError(f"Fock reference |{n}>: 1/sqrt(n!) leaves the float range")
        return cls(tuple(c))

    @classmethod
    def from_state_amplitudes(cls, amps):
        """Coefficients of the F that prepares the given Fock amplitudes."""
        amps = np.asarray(amps, dtype=complex)
        k = np.arange(len(amps))
        return cls(tuple(amps * np.exp(-0.5 * log_factorial(k))))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def state_amplitudes(self, dim):
        """Fock amplitudes of F(a^dag)|0>, i.e. c_k sqrt(k!)."""
        if self.degree >= dim:
            raise ValueError(
                f"polynomial degree {self.degree} does not fit dimension {dim}")
        out = np.zeros(dim, dtype=complex)
        k = np.arange(self.degree + 1)
        out[: self.degree + 1] = np.asarray(self.coeffs) * np.exp(0.5 * log_factorial(k))
        return out

    def normalized(self):
        """Scale coefficients so that || F(a^dag)|0> || = 1."""
        n = np.linalg.norm(self.state_amplitudes(self.degree + 1))
        if n == 0.0:
            raise ValueError("cannot normalize the zero polynomial")
        return OperatorPolynomial(tuple(c / n for c in self.coeffs))


class ReferencePrep(fock._Record):
    """A reference-mode preparation D(displacement) F(a^dag) |0>."""

    poly: OperatorPolynomial
    displacement: complex = 0j

    def __post_init__(self):
        if not cmath.isfinite(self.displacement):
            raise ValueError(f"displacement must be finite, got {self.displacement!r}")

    @classmethod
    def fock(cls, n, displacement=0j):
        return cls(OperatorPolynomial.fock_monomial(n), displacement)

    @classmethod
    def vacuum(cls):
        return cls(OperatorPolynomial.one(), 0j)

    @classmethod
    def coherent(cls, alpha):
        return cls(OperatorPolynomial.one(), alpha)

    def state(self, policy):
        """The prepared state as a FockVector (tail-checked)."""
        base = fock.FockVector(self.poly.state_amplitudes(policy.dim), policy.cutoff)
        if self.displacement != 0:
            policy.check_displacement(self.displacement, "ReferencePrep.state")
            base = fock.displace(self.displacement, base)
        policy.check_tail(base.amps, "ReferencePrep.state")
        return base

    def normalized(self):
        return ReferencePrep(self.poly.normalized(), self.displacement)
