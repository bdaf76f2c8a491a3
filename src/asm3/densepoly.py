"""Dense polynomials in one variable t with exact rational coefficients.

A DensePoly is the tuple of its Fraction coefficients, constant term
first, with trailing zeros trimmed.  It multiplies by another DensePoly
and evaluates by its own Horner rule; like a LaurentPoly it is immutable
by convention and unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import OutOfRange
from .qfield import _rational

Scalar = Union[int, Fraction]


class DensePoly:
    """Coefficient vector (constant term first), trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [Fraction(_rational(v)) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DensePoly(out)

    def __eq__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def eval_at(self, v):
        """Horner evaluation; v may be a Fraction or live in Q(s)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        if isinstance(acc, int):
            acc = Fraction(acc)
        return acc

    def reversed_poly(self, deg: int | None = None) -> "DensePoly":
        """Coefficients reversed with respect to the given degree."""
        if deg is None:
            deg = self.degree
        if deg < self.degree:
            raise OutOfRange("reversal degree below actual degree")
        return DensePoly(self.coeff(deg - i) for i in range(deg + 1))

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)!r})"
