"""Shared exception types."""


class DomainError(ValueError):
    """Invalid input: malformed value, point outside domain, unknown letter."""


class CapExceeded(RuntimeError):
    """An iteration budget ran out before the search finished."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class InvariantError(AssertionError):
    """A soundness check failed: the library computed something inconsistent."""


def check(holds: bool, message: str) -> None:
    """Raise InvariantError unless the condition holds.  Unlike assert, the
    check also runs under python -O."""
    if not holds:
        raise InvariantError(message)
