"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class SedtkError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(SedtkError):
    """Array dims differ from what the operation requires."""


class EmptyBatchError(SedtkError):
    """A batch must contain at least one item."""


class InvalidParameterError(SedtkError, ValueError):
    """A scalar parameter is outside its documented domain."""


class InvalidFilterLenError(InvalidParameterError):
    """Delta filter length must be odd and at least 3."""


class EmptyAudioError(SedtkError):
    """An audio clip with zero samples cannot be processed."""


class ConfigInvalidError(SedtkError):
    """A configuration object violates its invariants."""


class ParseError(SedtkError):
    """Malformed input file; carries the offending path and line number."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            prefix += f"{line}:" if line is not None else ""
            prefix += " "
        super().__init__(prefix + message)


class InvalidIntervalError(ParseError):
    """Event offset must be strictly greater than its onset."""


class NonContiguousFramesError(ParseError):
    """Frame indices of a score track must run 0..T-1 without gaps."""


class ScoreOutOfRangeError(ParseError):
    """Frame scores must lie in [0, 1]."""


class UnknownClassError(SedtkError):
    """No threshold is defined for this class and no default was given."""


class UnsortedInputError(SedtkError):
    """Candidates must be sorted by onset and non-overlapping."""


class EmptyGridError(SedtkError):
    """A tuning grid must contain at least one configuration."""


class UsageError(SedtkError):
    """Bad command line; maps to exit code 1."""


class DegenerateClassWarning(UserWarning):
    """A class lacks positives or negatives and is excluded from the macro mean."""
