"""Exception hierarchy for the ordfair library."""


class OrdfairError(Exception):
    """Base class for all library errors."""


class InvalidInstanceError(OrdfairError):
    """Raised when an instance or allocation violates a structural invariant."""


class InvalidConfigError(OrdfairError):
    """Raised for malformed generator or experiment configuration."""


class ParseError(OrdfairError):
    """Raised when a file in one of the text formats cannot be parsed."""


class StructuralMismatchError(OrdfairError):
    """Input does not meet an allocator's structural precondition
    (not ordered, not top-n)."""


class PreconditionError(OrdfairError):
    """A documented operation precondition does not hold."""


class OracleLimitError(OrdfairError):
    """Brute-force oracle invoked beyond its configured size limit."""


class ZeroMaximinError(OrdfairError):
    """Normalization requested for an agent whose maximin value is zero."""


class InvariantViolationError(OrdfairError):
    """An internal invariant that should be guaranteed failed at runtime.

    These are surfaced, never swallowed: they indicate either a bug or a
    genuine counterexample to a guarantee the code relies on.
    """
