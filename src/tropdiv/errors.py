"""Exception hierarchy shared across the package."""


class TropdivError(Exception):
    """Base class for all package errors."""


class GraphError(TropdivError, ValueError):
    """Invalid graph data: bad lengths, disconnected graph, point off an edge."""


class GenericityError(TropdivError, ValueError):
    """Edge lengths violate the genericity condition required by a construction."""


class PreconditionError(TropdivError, ValueError):
    """A documented precondition of an operation does not hold."""


class ReductionCapError(TropdivError, RuntimeError):
    """The divisor reduction exceeded its hard event cap (internal error)."""


class SearchCapError(TropdivError, RuntimeError):
    """The dependence search exceeded a cap: its candidate cap, or the
    family size it accepts (then ``message`` says so)."""

    def __init__(self, cap: int, message: str | None = None):
        super().__init__(message or f"dependence search exceeded candidate cap {cap}")
        self.cap = cap


class TheoremViolation(TropdivError, AssertionError):
    """A statement that should hold for all valid inputs was falsified.

    Raised instead of returning a wrong answer; the test harness treats
    this as a failure of the property under test, not a usage error.
    """
