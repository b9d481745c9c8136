"""Exception hierarchy.

Domain errors (truncation, degenerate optics, impossible measurement
outcomes) all derive from :class:`DomainError` so the CLI can map them to a
single exit code; configuration problems derive from :class:`ConfigError`.
:mod:`fock` raises every :class:`TruncationError` (:class:`CutoffExceededError`
for a level that does not exist).
"""

__all__ = ["CondibeamError", "ConfigError", "DomainError", "CutoffExceededError",
           "CutoffMismatchError", "TruncationError", "DegenerateBeamSplitterError",
           "ZeroProbabilityError", "IntegrationRangeError"]


class CondibeamError(Exception):
    """Base class for all library errors."""


class ConfigError(CondibeamError):
    """Invalid experiment configuration (unknown key, bad value, ...)."""


class DomainError(CondibeamError):
    """Base class for physics/numerics errors raised by library operations."""


class CutoffMismatchError(DomainError):
    """Two objects built for different Fock-space cutoffs were combined."""


class TruncationError(DomainError):
    """A state, operator or overlap does not fit the truncated Fock space."""

    def __init__(self, message, tail_mass=None):
        super().__init__(message)
        self.tail_mass = tail_mass


class CutoffExceededError(TruncationError):
    """A requested photon number or operator power does not fit the cutoff."""


class DegenerateBeamSplitterError(DomainError):
    """Closed-form construction with T = 0 or R = 0 (formulas divide by both)."""


class ZeroProbabilityError(DomainError):
    """Conditioning on a measurement outcome of (numerically) zero probability."""


class IntegrationRangeError(DomainError):
    """Numeric quadrature range too small for the state's support."""

