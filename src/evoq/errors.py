"""Exception types shared across the library."""


class EvoqError(Exception):
    """Base class for all library-specific errors."""


class GridError(EvoqError):
    """A time grid does not meet an operation's requirements."""


class PairingError(EvoqError):
    """Two signals cannot be paired (grid, weight or dimension mismatch)."""


class WindowError(EvoqError):
    """A support window lies outside the time grid."""


class PoleError(EvoqError):
    """A material law was evaluated at a pole."""


class NonFiniteSignalError(EvoqError, ValueError):
    """A signal would hold a non-finite sample, as when a solve overflows."""


class SymbolError(EvoqError):
    """A spectral symbol produced non-finite entries."""


class NotInvertibleError(EvoqError):
    """An inverse was requested where no bounded inverse exists."""


class PreconditionError(EvoqError):
    """An operation was called outside its admissible parameter range."""


class NonCoerciveError(EvoqError):
    """The coercivity certificate failed; carries where the minimum sat."""

    def __init__(self, message, min_location=None):
        super().__init__(message)
        self.min_location = min_location


class NotSkewError(EvoqError):
    """A matrix failed the skew-selfadjointness check."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class DefinitenessError(EvoqError):
    """A coefficient matrix misses a required definiteness property."""


class SolverError(EvoqError):
    """A frequency block could not be solved."""


class OracleError(EvoqError):
    """The time-stepping oracle hit a singular step matrix."""


class UnsupportedLawError(EvoqError):
    """The operation needs a material law of a more restricted form."""


class SizeGuardError(EvoqError):
    """Dense assembly would exceed the configured size guard."""


class ConsistencyError(EvoqError):
    """Two routes that must agree produced different verdicts."""


class SchemaError(EvoqError):
    """An instance configuration failed validation."""
