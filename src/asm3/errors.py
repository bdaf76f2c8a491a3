"""Exception types shared across the package."""


class NonExactDivision(ArithmeticError):
    """A division expected to be exact left a nonzero remainder.

    Raised by polynomial division and by the integer steps of the
    recurrence that builds b(m, .).
    """


class DegenerateParameters(ValueError):
    """A terminating series hit a vanishing lower Pochhammer factor."""


class OutOfRange(ValueError):
    """An index or size argument lies outside its documented range."""


class PoleAtSample(ZeroDivisionError):
    """A sample point hit a pole: x = 0, or a zero of a denominator."""
