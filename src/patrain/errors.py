"""Exception types shared across the package."""


class PatrainError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficiencyError(PatrainError, ValueError):
    """Design matrix is rank deficient or too ill conditioned to invert."""


class InvalidNoiseError(PatrainError):
    """Noise variance is not strictly positive."""


class PilotAllocationError(PatrainError):
    """Requested pilot count is incompatible with the design order."""


class DimensionMismatchError(PatrainError):
    """Inputs that must share a dimension do not."""


class CsvFormatError(PatrainError):
    """A CSV file does not follow the expected schema."""


class ConvergenceError(PatrainError):
    """An iterative search stopped at its iteration cap without converging."""


class InvalidPriorError(PatrainError, ValueError):
    """Prior mean or covariance is non-finite, not Hermitian or not PSD."""


class NonFiniteInputError(PatrainError, ValueError):
    """An input array holds NaN or infinite entries."""


class InvalidInputError(PatrainError, ValueError):
    """An input lies outside the domain of the function it was passed to."""
