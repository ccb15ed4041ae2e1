"""Exception hierarchy shared by all phimi modules."""


class PhimiError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PhimiError):
    """A scalar (or array entry) fell outside the admissible interval.

    Carries the offending value and the interval so optimizers can use it
    as an infeasibility signal.
    """

    def __init__(self, value, interval, what="value"):
        self.value = value
        self.interval = interval
        super().__init__(f"{what} {value!r} outside {interval}")


class ConjugateDomainError(DomainError):
    """The conjugate argument left its domain (infeasible parameter)."""


class BoundsError(PhimiError):
    """Parameter vector outside the model's box constraints."""


class SupportError(PhimiError):
    """Point outside the model's support (e.g. unknown category)."""


class LengthMismatchError(PhimiError):
    """Paired vectors of unequal length."""


class OptimFailureError(PhimiError):
    """Too many optimizer runs failed to converge."""


class RouteMismatchError(PhimiError):
    """Calibration route incompatible with the model or divergence."""


class FoldContextError(PhimiError):
    """A calibration needs the whole sample, but the context holds only a
    held-out fold of it."""


class DegenerateInputError(PhimiError):
    """Input with no variation where variation is required."""


class SingularityError(PhimiError):
    """A matrix required to be invertible is numerically singular."""


class ParseError(PhimiError):
    """Malformed text input; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingValueError(ParseError):
    """A required cell is empty."""
