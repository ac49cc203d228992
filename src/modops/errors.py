"""Exception types raised by the toolkit.

Every failure that a caller may want to catch programmatically gets its own
class; numerical residuals travel on the exception instance where useful.
"""


class ModopsError(Exception):
    """Base class for all toolkit errors."""


class ResidualError(ModopsError):
    """A failed numerical check; the offending residual is ``residual``."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnknownFiber(ModopsError):
    """A fiber label is not part of the algebra's index."""


class SingularResolvent(ModopsError):
    """(1 + T*T) is numerically singular; bounded transform is unreliable."""


class NotDense(ModopsError):
    """Density certificate failed: the gap of (1 - z*z) is below tolerance."""


class NotIsometry(ModopsError):
    """u*u differs from the identity beyond tolerance."""


class NotCoisometry(ModopsError):
    """u u* differs from the identity beyond tolerance."""


class RestrictionIdentityViolated(ResidualError):
    """The square-root intertwining identity for restrictions fails.

    The hypothesis (u*(1-z*z)u)^{1/2} = (1-z*z)^{1/2} u does not hold within
    tolerance; the offending residual is attached.
    """


class ExtensionIdentityViolated(ResidualError):
    """The square-root intertwining identity for extensions fails."""


class NotRestriction(ResidualError):
    """Witness identities fail: z_S is not the transform of a restriction."""


class GridTooCoarse(ModopsError):
    """Grid parameters are below the documented minimum."""


class NotCirculant(ModopsError):
    """A matrix that should be a Hermitian circulant fails that check."""


class UnexpectedKernelDim(ModopsError):
    """Numerical kernel dimension differs from the expected value."""

    def __init__(self, message, dimension=None):
        super().__init__(message)
        self.dimension = dimension


class DomainViolation(ResidualError):
    """An element lies outside the operator's domain beyond tolerance."""


class GaugeNotContinuous(ModopsError):
    """Gauge field fails the linear-in-step continuity bound."""


class MalformedSpec(ModopsError):
    """An input spec file cannot be parsed; the message names the line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
