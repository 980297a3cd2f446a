"""Exception types shared across the package."""


class HitSetError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HitSetError):
    """Malformed instance text; carries the offending line number.

    ``kind`` is one of ``"malformed"``, ``"vertex-range"``,
    ``"duplicate-edge"`` or ``"negative-weight"``.
    """

    def __init__(self, line: int, kind: str, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.kind = kind


class BudgetExceededError(HitSetError):
    """Copy enumeration or weight decomposition hit its budget; the message names which."""


class InvalidColoringError(HitSetError):
    """A supplied colouring leaves some pattern copy monochromatic."""


class VerificationError(HitSetError):
    """An internal consistency check failed; this always indicates a bug."""
