"""Polynomials in one variable t as coefficient tuples, constant term first.

`horner` evaluates such a tuple at an int, a Fraction or a point of
Q(s); it is the one evaluation rule the checks use on them.  A DensePoly
is the tuple of its Fraction coefficients with trailing zeros trimmed,
and its one operation is the product that glues h3_poly together; like a
LaurentPoly it is immutable by convention and unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .qfield import _rational

Scalar = Union[int, Fraction]


def horner(coeffs, v):
    """Value at v of the polynomial with these coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


class DensePoly:
    """Coefficient vector (constant term first), trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [Fraction(_rational(v)) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DensePoly(out)

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)!r})"
