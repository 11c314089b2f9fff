"""Exception types shared across the library."""


class NormfitError(Exception):
    """Base class for all library-specific errors."""


class PersistentDegeneracy(NormfitError):
    """Every resampling attempt produced a degenerate point set."""


class TooFewNeighbors(NormfitError):
    """Neighborhood is too small for the requested sample size."""


class EmptyCandidates(NormfitError):
    """A mode solver was given no candidates."""


class ParseError(NormfitError):
    """A cloud or config file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NormalNotUnit(NormfitError):
    """A normal read from file deviates too far from unit length."""


class ConfigError(NormfitError):
    """Unknown or malformed configuration key/value."""
