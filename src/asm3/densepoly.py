"""Dense polynomials in one variable t with exact rational coefficients.

A DensePoly is a dense, rational view of one LaurentPoly with exponents
0..degree.  Its ring operations, +, - and *, are LaurentPoly's; reading
a coefficient builds a Fraction, evaluation is its own Horner rule, and
like a LaurentPoly it is unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import OutOfRange
from .laurent import LaurentPoly
from .qfield import _RATIONAL_TYPES, _rational

Scalar = Union[int, Fraction]


def _wrap(p: LaurentPoly) -> "DensePoly":
    self = object.__new__(DensePoly)
    self._p = p
    return self


def _operand(other):
    # the LaurentPoly or rational scalar to combine with, or None when
    # other is neither (a Q(s) element included)
    if isinstance(other, DensePoly):
        return other._p
    if isinstance(other, _RATIONAL_TYPES):
        return other
    return None


class DensePoly:
    """Coefficient vector (constant term first), trailing zeros trimmed."""

    __slots__ = ("_p",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._p = LaurentPoly({k: _rational(v) for k, v in enumerate(coeffs)})

    @property
    def coeffs(self):
        return tuple(self.coeff(k) for k in range(self.degree + 1))

    @property
    def degree(self) -> int:
        return -1 if self._p.is_zero else self._p.max_exp

    def coeff(self, k: int) -> Fraction:
        return self._p.coeff(k).ra

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _wrap(self._p + other)

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _wrap(self._p - other)

    def __mul__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _wrap(self._p * other)

    def __eq__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self._p == other

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
