"""Exception taxonomy shared across the package.

Everything raised on purpose derives from TraceGenusError so CLI code can
separate expected domain refusals from genuine bugs.
"""


class TraceGenusError(Exception):
    """Base class for all deliberate errors."""


class ParseError(TraceGenusError):
    """Polynomial text that matches neither input grammar."""


class DegenerateInputError(TraceGenusError):
    """Zero integer, constant polynomial, or other empty-content input."""


class ReducibleInputError(TraceGenusError):
    """Field-level operation applied to a reducible polynomial.

    Carries the irreducible factors so callers can report them.
    """

    def __init__(self, message, factors=None):
        super().__init__(message)
        self.factors = factors or []


class NonMonicInputError(TraceGenusError):
    """Field-level operation applied to a non-monic polynomial."""


class InvalidPrimeError(TraceGenusError):
    """A prime argument that is composite, or 2 where an odd prime is required."""


class SingularFormError(TraceGenusError):
    """Singular symmetric matrix passed to the signature routine."""


class WildRamificationError(TraceGenusError):
    """Invariant that only exists for tame splittings requested at a wild prime."""


class OutOfDomainError(TraceGenusError):
    """Arguments outside an operation's stated domain."""


class FactorizationLimitError(TraceGenusError):
    """Composite cofactor too large for the deterministic factoring schedule."""


class InternalConsistencyError(TraceGenusError):
    """A cross-checked identity failed; signals a bug, not bad input."""
