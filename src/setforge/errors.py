"""Exception hierarchy shared by all setforge modules."""


class SetforgeError(Exception):
    """Base class for every error raised by this package."""


class KindError(SetforgeError):
    """An operation received a value of the wrong kind (e.g. union of a non-set)."""


class OutsideDomainError(SetforgeError):
    """Function application at a point outside the function's domain."""


class AmbiguousApplicationError(SetforgeError):
    """Function application on a relation that is not a partial function."""


class RangeError(SetforgeError):
    """Sequence indexing or tail outside the valid range."""


class MissingFieldError(SetforgeError):
    """Record projection on an absent field."""


class NotGroundError(SetforgeError):
    """A ground value was required but the input contains variables."""


class ParseError(SetforgeError):
    """Syntax error in spec-language source text."""

    def __init__(self, message, line, col, token=None):
        self.message = message
        self.line = line
        self.col = col
        self.token = token
        where = f"line {line}, column {col}"
        if token is not None:
            where += f" at {token!r}"
        super().__init__(f"{message} ({where})")


class FormulaError(SetforgeError):
    """Ill-formed formula: bad arity, unknown constraint kind, binder clash."""


class UnknownName(SetforgeError):
    """A built-in goal or transition was asked for by a name it does not have."""


class NotEnabled(SetforgeError):
    """A state transition's precondition does not hold; no state change."""


class NoSuchPacket(SetforgeError):
    """Selected packet is not in the current soup."""


class UnknownNode(SetforgeError):
    """Packet destination has no entry in the configuration's node map."""


class ScheduleError(SetforgeError):
    """A schedule selector failed; carries the 1-based step number."""

    def __init__(self, step, message):
        self.step = step
        super().__init__(f"schedule step {step}: {message}")


class RejectedTransaction(SetforgeError):
    """Transaction failed the validity predicate."""


class StackUnderflow(SetforgeError):
    """Machine stack has fewer entries than the instruction needs."""


class BalanceUnderflow(SetforgeError):
    """A debit would make an account balance negative."""
