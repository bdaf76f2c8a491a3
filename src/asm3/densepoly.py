"""Polynomials in one variable t, constant term first.

`horner` is the one Horner loop over such a tuple.  It returns the
homogeneous value sum_k c_k a^k b^(K-k), K the degree: the value at a
for b = 1, and b^K times the value at a/b otherwise, so no caller
divides.  verify reads the oracle's polynomials at integer weights
through it, hyper.hyp sums its series at u/v, and tq.transform_checks
evaluates integer numerator tuples at pairs of points of Q(s).  When a
or b is in Q(s) the coefficients must be ints, a Fraction raising
TypeError: it runs on the points' integer triples and reduces once, at
the end.  A DensePoly is stored as a LaurentPoly is, integer numerators
over one denominator: `nums`, constant term first with trailing zeros
trimmed, over `den`, an int > 0 with gcd(den, *nums) = 1, so equal
polynomials have equal fields, and zero is ((), 1).  `coeffs` reads its
Fraction coefficients.  Its one operation is the product that glues
h3_poly together, a convolution of the numerators over the product of
the denominators; like a LaurentPoly it is immutable by convention and
unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable

from .qfield import QsElem, _lift, _reduced


def horner(coeffs, a, b=1):
    """sum_k c_k a^k b^(K-k) over the coefficients c_0..c_K; 0 for ()."""
    if not (coeffs and (isinstance(a, QsElem) or isinstance(b, QsElem))):
        acc = 0
        b_pow = 1
        for c in reversed(coeffs):
            acc = acc * a + c * b_pow
            b_pow *= b
        return acc
    # with a = (a1 + a2*s)/ad and b = (b1 + b2*s)/bd, the value is
    # sum_k c_k A^k B^(K-k) / (ad bd)^K over the integer pairs
    # A = (a1 + a2*s) bd and B = (b1 + b2*s) ad, by Horner in A; a
    # non-integer coefficient makes the gcd of _reduced raise TypeError
    a, b = _lift(a), _lift(b)
    a1, a2 = a.a * b.d, a.b * b.d
    b1, b2 = b.a * a.d, b.b * a.d
    x, y = coeffs[-1], 0
    p, r = 1, 0  # B^(K-k)
    for n in reversed(coeffs[:-1]):
        p, r = p * b1 - 3 * r * b2, p * b2 + r * b1
        x, y = x * a1 - 3 * y * a2 + n * p, x * a2 + y * a1 + n * r
    return _reduced(x, y, (a.d * b.d) ** (len(coeffs) - 1))


class DensePoly:
    """sum_k nums[k]/den * t^k, in canonical form."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int] = (), den: int = 1):
        nums = [index(v) for v in nums]
        den = index(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        while nums and not nums[-1]:
            nums.pop()
        if den < 0:
            den, nums = -den, [-v for v in nums]
        g = gcd(den, *nums)
        self.nums = tuple(v // g for v in nums)
        self.den = den // g

    @property
    def coeffs(self) -> tuple:
        """The Fraction coefficients, constant term first."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        left, right = self.nums, other.nums
        # a zero operand leaves out empty or all zeros, which trim to zero
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                out[i + j] += a * b
        return DensePoly(out, self.den * other.den)

    def __repr__(self):
        return f"DensePoly({self.nums!r}, {self.den!r})"
