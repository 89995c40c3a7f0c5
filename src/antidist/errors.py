"""Exception taxonomy shared across the package."""


class AntidistError(Exception):
    """Base class for all package-specific errors."""


class SingularSystem(AntidistError):
    """The Gram weight system has no unique solution (degenerate state set)."""


class ZeroVector(AntidistError, ValueError):
    """A state vector with (numerically) zero norm was supplied."""


class NormOutOfRange(AntidistError, ValueError):
    """A state vector's norm deviates too far from 1 to be a rounding artifact."""


class NotPsd(AntidistError, ValueError):
    """A candidate POVM effect is not positive semidefinite."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"effect {index} is not positive semidefinite")


class NotNormalized(AntidistError, ValueError):
    """Candidate POVM effects do not sum to the identity."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"effects sum to identity only up to {residual:.3e}")


class DuplicateState(AntidistError, ValueError):
    """Two members of a state set coincide as operators (up to global phase)."""


class CountMismatch(AntidistError, ValueError):
    """POVM outcome count does not match the number of states."""


class WrongDimension(AntidistError, ValueError):
    """Operation restricted to a specific Hilbert-space dimension."""


class OverlappingSets(AntidistError, ValueError):
    """The two state sets to be united share a state."""


class DimensionOne(AntidistError, ValueError):
    """The doubling construction needs dimension at least 2."""


class FixedPoint(AntidistError, ValueError):
    """The group action fixes the base state; the orbit is a single point."""


class NotScalarOnSupport(AntidistError, ValueError):
    """The orbit sum is not a scalar multiple of the span projector."""


class TooLarge(AntidistError, ValueError):
    """Requested group order exceeds the supported size."""


class RankTooSmall(AntidistError, ValueError):
    """The certified projector has rank < 2; the measurement formula needs r >= 2."""


class ShapeMismatch(AntidistError, ValueError):
    """Chart pieces have inconsistent shapes."""


class InvalidChart(AntidistError, ValueError):
    """Chart does not satisfy the completion identities."""


class FileFormatError(AntidistError, ValueError):
    """An input document could not be parsed into the expected structure."""
