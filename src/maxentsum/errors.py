"""Exception types and argument checks shared across the package."""

import numbers


class MaxentsumError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MaxentsumError, ValueError):
    """A probability or weight vector failed validation."""


class DomainError(MaxentsumError, ValueError):
    """An argument lies outside an operation's documented domain."""


class NotASpecialCaseError(DomainError):
    """No closed-form expression exists for the requested (n, r)."""


class PreconditionError(MaxentsumError, ValueError):
    """A check was invoked on input that violates its stated precondition."""


class BudgetExceededError(MaxentsumError, RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


def is_real(value) -> bool:
    """True when ``value`` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Raise :class:`DomainError` unless ``value`` is an integer >= ``least``."""
    if type(value) is int and value >= least:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
