"""Exception hierarchy shared by all modules."""


class TogliattiError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(TogliattiError):
    """An argument violates a documented precondition on its value."""


class ParseError(TogliattiError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(TogliattiError):
    """An operation was called on a system outside its domain."""


class StructureFailureError(TogliattiError):
    """A structural hypothesis failed; carries a concrete witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalError(TogliattiError):
    """Cross-validated sub-verdicts disagree; signals a bug, never resolved silently."""


class BudgetExhaustedError(TogliattiError):
    """Search budget ran out; carries the partial result and how far the
    search got."""

    def __init__(self, message, partial=None, progress=None):
        super().__init__(message)
        self.partial = partial
        self.progress = progress
