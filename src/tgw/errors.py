"""Shared exception types.  CLI exit codes: usage errors map to 2, resource
caps to 3, failed certificates to 1."""


class TgwError(Exception):
    pass


class ParseError(TgwError):
    """Lexical or syntactic error; `offset` is the 1-based byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SignatureError(TgwError):
    pass


class PreconditionError(TgwError):
    """An operation's stated precondition failed."""


class ResourceCapError(TgwError):
    """A configured desk-scale cap was exceeded (never silent truncation).
    Where known, `cap` names the cap, `limit` is its value and `observed` the
    value that passed it."""

    def __init__(self, message, cap=None, limit=None, observed=None):
        super().__init__(message)
        self.cap, self.limit, self.observed = cap, limit, observed


class EvaluationCapError(ResourceCapError):
    """Quantifier-depth cap exceeded during model evaluation."""


class InternalConsistencyError(TgwError):
    """A construction failed its own re-verification; indicates a bug."""
