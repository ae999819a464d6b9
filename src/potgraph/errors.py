"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "PotgraphError",
    "SequenceParseError",
    "DomainError",
    "BudgetExceededError",
    "InternalCheckError",
]


class PotgraphError(Exception):
    """Base class for every error raised by this package."""


class SequenceParseError(PotgraphError, ValueError):
    """Malformed degree-sequence text; pinpoints the offending span."""

    def __init__(self, message: str, text: str = "", start: int = 0, end: int = 0):
        super().__init__(message)
        self.text = text
        self.start = start
        self.end = end


class DomainError(PotgraphError, ValueError):
    """Input lies outside an operation's documented domain."""


class BudgetExceededError(PotgraphError, RuntimeError):
    """Search node budget ran out before the answer was certain.

    Raised instead of returning a possibly wrong verdict; callers that want
    an answer must retry with a larger budget.
    """

    def __init__(self, message: str, sequence: object = None, nodes: int = 0):
        super().__init__(message)
        self.sequence = sequence
        self.nodes = nodes


class InternalCheckError(PotgraphError, RuntimeError):
    """A self-check failed (for example a witness that does not verify)."""
