"""Exception hierarchy shared across the package.

Argument-level misuse (negative quantities, non-positive prices where a
ratio is required) raises plain :class:`ValueError`. The classes below
cover data and file level failures, so the CLI can map them to distinct
exit codes.
"""

__all__ = [
    "HvdcArbError",
    "ParseError",
    "DuplicateRowError",
    "ValidationError",
    "ConfigConflictError",
    "InvalidLossError",
    "AlignmentError",
    "ResolutionError",
    "CapacityError",
]


class HvdcArbError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HvdcArbError):
    """A file or stream could not be parsed against its documented schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateRowError(ParseError):
    """The same (timestep, region) pair appeared more than once."""


class ValidationError(HvdcArbError):
    """Loaded data violates a model invariant."""


class ConfigConflictError(ValidationError):
    """A link declares both a loss fraction and a length-derived loss that disagree."""


class InvalidLossError(ValidationError):
    """A derived loss fraction reaches or exceeds 1 (link would consume all power)."""


class AlignmentError(HvdcArbError):
    """Price series and capacity profile do not cover the same horizon.

    ``missing`` maps each source that lacks a timestep another covers to every
    such timestep, sorted. The horizon rule builds it when it is first read, so
    an error that is only printed costs no more than its message, which lists at
    most five sources.
    """

    def __init__(self, message: str, missing: dict[str, tuple[int, ...]] | None = None):
        super().__init__(message)
        self._missing = missing or {}  # the mapping, or (from the horizon rule) its builder

    @property
    def missing(self) -> dict[str, tuple[int, ...]]:
        if callable(self._missing):
            self._missing = self._missing()
        return self._missing


class ResolutionError(HvdcArbError):
    """A referenced region, link, or timestep does not exist in the loaded data."""


class CapacityError(HvdcArbError):
    """A requested wheeling quantity exceeds what a link leg can carry."""

    def __init__(self, message: str, binding_link: str = ""):
        super().__init__(message)
        self.binding_link = binding_link
