"""Exception types shared across the package."""


class NonExactDivision(ArithmeticError):
    """A division expected to be exact left a nonzero remainder.

    Raised by polynomial division and by the integer steps of the
    recurrence that builds b(m, .).
    """


class EvalAtZero(ZeroDivisionError):
    """A Laurent polynomial was evaluated at x = 0."""


class DegenerateParameters(ValueError):
    """A terminating series hit a vanishing lower Pochhammer factor."""


class OutOfRange(ValueError):
    """An index argument lies outside its documented range."""


class PoleAtSample(ZeroDivisionError):
    """A substitution sample landed on a pole of the variable change."""


class SizeLimitExceeded(ValueError):
    """Requested size is beyond the configured brute-force cap."""
