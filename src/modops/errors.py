"""Exception types raised by the toolkit.

Every failure that a caller may want to catch programmatically gets its own
class; numerical residuals travel on the exception instance where useful.
"""


class ModopsError(Exception):
    """Base class for all toolkit errors."""


class NotPSD(ModopsError):
    """Input is not positive semidefinite (or not Hermitian) within tolerance."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class UnknownFiber(ModopsError):
    """A fiber label is not part of the algebra's index."""


class NotMultiplication(ModopsError):
    """Operator is not multiplication by a symbol within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularResolvent(ModopsError):
    """(1 + T*T) is numerically singular; bounded transform is unreliable."""


class NotDense(ModopsError):
    """Density certificate failed: the gap of (1 - z*z) is below tolerance."""


class NotIsometry(ModopsError):
    """u*u differs from the identity beyond tolerance."""


class NotCoisometry(ModopsError):
    """u u* differs from the identity beyond tolerance."""


class RestrictionIdentityViolated(ModopsError):
    """The square-root intertwining identity for restrictions fails.

    The hypothesis (u*(1-z*z)u)^{1/2} = (1-z*z)^{1/2} u does not hold within
    tolerance; the offending residual is attached.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ExtensionIdentityViolated(ModopsError):
    """The square-root intertwining identity for extensions fails."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotRestriction(ModopsError):
    """Witness identities fail: z_S is not the transform of a restriction."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class GridTooCoarse(ModopsError):
    """Grid parameters are below the documented minimum."""


class NotCirculant(ModopsError):
    """A matrix that should be a Hermitian circulant fails that check."""


class UnexpectedKernelDim(ModopsError):
    """Numerical kernel dimension differs from the expected value."""

    def __init__(self, message, dimension=None):
        super().__init__(message)
        self.dimension = dimension


class DomainViolation(ModopsError):
    """An element lies outside the operator's domain beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class GaugeNotContinuous(ModopsError):
    """Gauge field fails the linear-in-step continuity bound."""


class IllDefined(ModopsError):
    """Two representations of the same vector map to different images."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MalformedSpec(ModopsError):
    """An input spec file cannot be parsed; the message names the line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
