"""Exact arithmetic in the quadratic field Q(s), where s**2 = -3.

This field contains the primitive sixth root of unity q = (1 + s)/2,
which satisfies q - 1/q = s and q**6 = 1, and the primitive cube root
w = q**2.  That is all the irrationality the rest of the package ever
needs.  An element is stored as one reduced integer triple (a, b, d)
meaning (a + b*s)/d, with d > 0 and gcd(a, b, d) = 1, so equal values
have equal triples.  Every ring operation is integer arithmetic plus one
three-way gcd, and a difference adds the negation; a Fraction is built
only to print an element.  There is no floating point anywhere.
Elements compare equal to ints and Fractions of the same value, and are
unhashable.  QsElem is a ring type: nothing in the package divides in
Q(s), so there is no inverse and no `/`, and a negative power raises
TypeError.  A LaurentPoly is over Q and refuses a QsElem coefficient or
point: the shift equation meets the cube roots only through the factors
1 + w^k + w^-k, which are 3 or 0 by k mod 3, so tq_check reads them as
integers, and transform_checks evaluates its coefficient tuples at pairs
of points of Q(s) through the homogeneous rule densepoly.horner.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

Rational = Union[int, Fraction]

# the scalar types that mix with QsElem in arithmetic and comparison,
# and the only coefficient types of a LaurentPoly
_RATIONAL_TYPES = (int, Fraction)


def _rational(v) -> Rational:
    # v itself when it is an int or a Fraction; anything else raises, a
    # float included, which Fraction(v) would read as its exact binary value
    if not isinstance(v, _RATIONAL_TYPES):
        raise TypeError(f"expected an int or a Fraction, got {type(v).__name__}")
    return v


def _reduced(a: int, b: int, d: int) -> "QsElem":
    # internal fast path for (a + b*s)/d with integer a, b and d > 0
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    self = object.__new__(QsElem)
    self.a = a
    self.b = b
    self.d = d
    return self


def _lift(v) -> "QsElem | None":
    # a scalar operand as a QsElem; None when it is neither a QsElem nor a
    # rational.  Every mixed operation here lifts through this; the hot
    # operations test for a QsElem first and skip the call
    if isinstance(v, QsElem):
        return v
    if isinstance(v, _RATIONAL_TYPES):
        # an int or a Fraction is in lowest terms already, so its triple
        # needs no gcd
        self = object.__new__(QsElem)
        self.a = v.numerator
        self.b = 0
        self.d = v.denominator
        return self
    return None


class QsElem:
    """Element (a + b*s)/d of Q(s), in lowest terms.  Immutable by convention.

    Both parts must be int or Fraction, anything else raises TypeError.
    An int or a Fraction may sit on either side of `*` and `==`, but only
    on the right of `+` and `-`: `S + 1` is an element and `1 + S` raises
    TypeError, as no code in the package puts a rational left of a sum.
    There is no __bool__, since no code in the package tests an element
    for truth, so every element is truthy: compare with 0 instead.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, ra: Rational = 0, sb: Rational = 0):
        if not (isinstance(ra, _RATIONAL_TYPES) and isinstance(sb, _RATIONAL_TYPES)):
            raise TypeError("the parts of a QsElem must be int or Fraction")
        p, q = ra.numerator, ra.denominator
        r, t = sb.numerator, sb.denominator
        a, b, d = p * t, r * q, q * t
        g = gcd(a, b, d)
        self.a = a // g
        self.b = b // g
        self.d = d // g

    def conjugate(self) -> "QsElem":
        return _reduced(self.a, -self.b, self.d)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, QsElem) else _lift(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = other if isinstance(other, QsElem) else _lift(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - 3 * b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QsElem":
        # a ring has no negative powers: n < 0 raises TypeError, as a
        # non-int exponent does
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        base = self
        result = ONE
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QsElem):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, _RATIONAL_TYPES):
            return (
                not self.b
                and self.a == other.numerator
                and self.d == other.denominator
            )
        return NotImplemented

    def __repr__(self):
        return f"QsElem({Fraction(self.a, self.d)!r}, {Fraction(self.b, self.d)!r})"


ZERO = QsElem(0, 0)
ONE = QsElem(1, 0)
S = QsElem(0, 1)
Q = QsElem(Fraction(1, 2), Fraction(1, 2))     # primitive sixth root of unity
QBAR = Q.conjugate()                           # its inverse
OMEGA = Q * Q                                  # primitive cube root of unity
OMEGA_BAR = OMEGA.conjugate()
