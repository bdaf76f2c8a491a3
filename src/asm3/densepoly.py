"""Polynomials in one variable t as coefficient tuples, constant term first.

`horner` evaluates such a tuple at an int, a Fraction or a point of
Q(s); it is the one evaluation rule the checks use on them.  At a point
of Q(s) it runs on the point's integer triple over the coefficients'
common denominator and reduces once, at the end.  A DensePoly
is the tuple of its Fraction coefficients with trailing zeros trimmed,
and its one operation is the product that glues h3_poly together, an
integer convolution of the numerators over each operand's common
denominator; like a LaurentPoly it is immutable by convention and
unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .qfield import QsElem, _rational, _reduced

Scalar = Union[int, Fraction]


def horner(coeffs, v):
    """Value at v of the polynomial with these rational coefficients."""
    if not (coeffs and isinstance(v, QsElem)):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * v + c
        return acc
    # with v = (a + b*s)/e and c_k = n_k/d, the value is
    # sum_k n_k (a + b*s)^k e^(K-k) / (d e^K), K the degree, by Horner
    d, nums = _over_common(coeffs)
    a, b, e = v.a, v.b, v.d
    x, y = nums[-1], 0
    e_pow = 1
    for n in reversed(nums[:-1]):
        e_pow *= e
        x, y = x * a - 3 * y * b + n * e_pow, x * b + y * a
    return _reduced(x, y, d * e_pow)


def _over_common(coeffs) -> tuple:
    # (d, numerators) with every Fraction coefficient equal to numerator/d
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


class DensePoly:
    """Coefficient vector (constant term first), trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # a Fraction is kept, not built a second time
        c = [v if isinstance(v, Fraction) else Fraction(_rational(v)) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        if not (self.coeffs and other.coeffs):
            return DensePoly()
        # the numerators over each operand's common denominator convolve
        # in integers; each output coefficient is one Fraction
        da, left = _over_common(self.coeffs)
        db, right = _over_common(other.coeffs)
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                out[i + j] += a * b
        d = da * db
        # leading coefficients are nonzero, so the product keeps its top
        prod = object.__new__(DensePoly)
        prod.coeffs = tuple(Fraction(v, d) for v in out)
        return prod

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)!r})"
