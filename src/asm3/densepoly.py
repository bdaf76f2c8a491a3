"""Polynomials in one variable t as coefficient tuples, constant term first.

`horner` is the one Horner loop over such a tuple.  It returns the
homogeneous value sum_k c_k a^k b^(K-k), K the degree: the value at a
for b = 1, and b^K times the value at a/b otherwise, so no caller
divides.  verify reads the oracle's polynomials at integer weights
through it, hyper.hyp sums its series at u/v, and tq.transform_checks
evaluates its coefficient tuples at pairs of points of Q(s).  When a or b is in
Q(s) it runs on the points' integer triples over the coefficients'
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

from .qfield import QsElem, _lift, _rational, _reduced

Scalar = Union[int, Fraction]


def horner(coeffs, a, b=1):
    """sum_k c_k a^k b^(K-k) over the coefficients c_0..c_K; 0 for ()."""
    if not (coeffs and (isinstance(a, QsElem) or isinstance(b, QsElem))):
        acc = 0
        b_pow = 1
        for c in reversed(coeffs):
            acc = acc * a + c * b_pow
            b_pow *= b
        return acc
    # with a = (a1 + a2*s)/ad, b = (b1 + b2*s)/bd and c_k = n_k/d, the
    # value is sum_k n_k A^k B^(K-k) / (d (ad bd)^K) over the integer
    # pairs A = (a1 + a2*s) bd and B = (b1 + b2*s) ad, by Horner in A
    d, nums = _over_common(coeffs)
    a, b = _lift(a), _lift(b)
    a1, a2 = a.a * b.d, a.b * b.d
    b1, b2 = b.a * a.d, b.b * a.d
    x, y = nums[-1], 0
    p, r = 1, 0  # B^(K-k)
    for n in reversed(nums[:-1]):
        p, r = p * b1 - 3 * r * b2, p * b2 + r * b1
        x, y = x * a1 - 3 * y * a2 + n * p, x * a2 + y * a1 + n * r
    return _reduced(x, y, d * (a.d * b.d) ** (len(nums) - 1))


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
