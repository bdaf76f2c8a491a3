"""Sparse Laurent polynomials in one variable x over Q.

Exponents are ints and coefficients are ints or Fractions; anything
else, a QsElem, a float or a str included, raises TypeError.  Every
family tq builds (f, g, h, q, p, v and phi) is rational, and tq reads
the shift equation y(x) + y(w*x) + y(x/w) = 0 coefficient by
coefficient, so no polynomial needs Q(s).  A polynomial is one
denominator `_d`, an int > 0, over one integer lane `_a = {k: a}`,
meaning the sum of a_k/d * x^k.  The form is canonical: no zero entry,
gcd(d, every a) = 1, and d = 1 for the zero polynomial, so equal
polynomials have equal `_d` and `_a`.  The dict suits the thin supports
that show up here (steps of 6 between -3m-2 and 3m+2).  Every ring
operation is integer arithmetic plus one content gcd, and `eval_at`
builds one Fraction.  Instances are immutable and unhashable.
`divide_exact` takes only divisors that are monic with integer
coefficients, the only kind the quotient families divide by.
`vanishes` tests whether a sum of products c * M * P is zero without
building any of them: tq writes each identity it checks (a contiguous
relation, a step of phi, a differential equation, a series form) as one
such residue over polynomials its builders have already made.

>>> p = LaurentPoly({1: 1, -1: -1})
>>> p * p == LaurentPoly({2: 1, 0: -2, -2: 1})
True
>>> (p * p * p).divide_exact(p) == p * p
True
>>> half = LaurentPoly({0: Fraction(1, 2)})
>>> vanishes((2, p, half), (-1, LaurentPoly.one(), p))
True
>>> vanishes((Fraction(1, 3), p, p), (1, p, p))
False
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .errors import NonExactDivision, PoleAtSample
from .qfield import _RATIONAL_TYPES

Scalar = Union[int, Fraction]


def _poly(a: dict, d: int) -> "LaurentPoly":
    # the canonical form of the sum of a_k/d * x^k, for d > 0 and a lane
    # without zero entries
    if not a:
        d = 1
    elif d != 1:
        g = gcd(d, *a.values())
        if g != 1:
            d //= g
            a = {k: v // g for k, v in a.items()}
    self = object.__new__(LaurentPoly)
    self._a = a
    self._d = d
    return self


def _sum(x: dict, u: int, y: dict, v: int) -> dict:
    # u*x + v*y for two lanes, without the entries that cancel
    c = {k: a * u for k, a in x.items()}
    for k, a in y.items():
        a *= v
        if k in c:
            a += c[k]
            if not a:
                del c[k]
                continue
        c[k] = a
    return c


def _quotient(lane: dict, div: dict, dlo: int, dhi: int) -> dict:
    # the exact quotient of a nonempty lane by the monic integer lane div,
    # whose support spans dlo..dhi
    nlo, nhi = min(lane), max(lane)
    width = dhi - dlo
    if nhi - nlo < width:
        raise NonExactDivision("divisor support is wider than dividend")
    num = [lane.get(k, 0) for k in range(nlo, nhi + 1)]
    terms = [(k - dlo, a) for k, a in div.items() if k != dhi]
    quot = {}
    for i in range(nhi - nlo - width, -1, -1):
        c = num[i + width]
        if c:
            quot[nlo - dlo + i] = c
            for j, a in terms:
                num[i + j] -= c * a
    if any(num[:width]):
        raise NonExactDivision("nonzero remainder")
    return quot


def _operand(v) -> "LaurentPoly | None":
    # the other side of +, - or ==: a rational becomes a constant
    # polynomial, and None stands for an unsupported type
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, _RATIONAL_TYPES):
        return _poly({0: v.numerator} if v else {}, v.denominator)
    return None


class LaurentPoly:
    __slots__ = ("_a", "_d")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        coeffs = coeffs or {}
        for v in coeffs.values():
            if not isinstance(v, _RATIONAL_TYPES):
                raise TypeError(f"coefficient of type {type(v).__name__}")
        # the coefficients over their lcm, as one integer lane
        d = lcm(*(v.denominator for v in coeffs.values()))
        lane = {k: v.numerator * (d // v.denominator) for k, v in coeffs.items()}
        p = LaurentPoly.from_lane(lane, d)
        self._a, self._d = p._a, p._d

    @classmethod
    def from_lane(cls, lane: Mapping[int, int], d: int) -> "LaurentPoly":
        """The polynomial sum of lane[k]/d * x^k.

        Exponents, lane values and d are ints, d nonzero; anything else
        raises TypeError.  One content gcd brings the lane to the
        canonical form, so this is the constructor for coefficients
        already held as integers over one denominator.
        """
        d = operator.index(d)
        if not d:
            raise ZeroDivisionError("zero denominator")
        sign = 1 if d > 0 else -1
        a = {}
        for k, v in lane.items():
            k, v = operator.index(k), operator.index(v)
            if v:
                a[k] = sign * v
        return _poly(a, sign * d)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._a

    @property
    def support(self):
        """The exponents of the nonzero terms, in no particular order."""
        return self._a.keys()

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return min(self._a)

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return max(self._a)

    # -- ring operations ------------------------------------------------

    def _combine(self, other, sign: int):
        # self + sign*other over the lcm of the two denominators
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        m = lcm(d, e)
        return _poly(_sum(self._a, m // d, other._a, sign * (m // e)), m)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            acc: dict = {}
            right = list(other._a.items())
            for k1, c1 in self._a.items():
                for k2, c2 in right:
                    k = k1 + k2
                    if k in acc:
                        acc[k] += c1 * c2
                    else:
                        acc[k] = c1 * c2
            lane = {k: v for k, v in acc.items() if v}
            return _poly(lane, self._d * other._d)
        if isinstance(other, _RATIONAL_TYPES):
            n = other.numerator
            lane = {k: v * n for k, v in self._a.items()} if n else {}
            return _poly(lane, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._d == other._d and self._a == other._a

    # -- the operations the identity checks are built from --------------

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den, for den monic with integer coefficients.

        The quotient families divide only by (x - 1/x)^n, or that times
        x + 2 + 1/x, and over such a divisor every step of the long
        division of the dividend's integer lane is exact in integers.
        Any other nonzero divisor raises ValueError, a zero one
        ZeroDivisionError, and a remainder NonExactDivision.
        """
        if not isinstance(den, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        div, dlo, dhi = den._a, den.min_exp, den.max_exp
        if den._d != 1 or div[dhi] != 1:
            raise ValueError("divisor is not monic with integer coefficients")
        if self.is_zero:
            return LaurentPoly()
        return _poly(_quotient(self._a, div, dlo, dhi), self._d)

    def invert_x(self) -> "LaurentPoly":
        """p(x) -> p(1/x); an involution on the support."""
        return _poly({-k: v for k, v in self._a.items()}, self._d)

    def eval_at(self, x0: Scalar) -> Fraction:
        """Exact value at a nonzero rational point, as a Fraction.

        With x0 = n/e, one integer Horner pass over lo..hi builds
        S = sum_k a_k n^(k-lo) e^(hi-k), and the value is
        S n^lo / (d e^hi), reduced once.
        """
        if not isinstance(x0, _RATIONAL_TYPES):
            raise TypeError(f"point of type {type(x0).__name__}")
        if not x0:
            raise PoleAtSample("Laurent polynomial evaluated at x = 0")
        if self.is_zero:
            return Fraction(0)
        n, e = x0.numerator, x0.denominator
        lane, lo, hi = self._a, self.min_exp, self.max_exp
        acc, e_pow = lane[hi], 1
        for k in range(hi - 1, lo - 1, -1):
            e_pow *= e
            acc *= n
            if k in lane:
                acc += lane[k] * e_pow
        # times n^lo / e^hi, each power on the side its sign puts it
        num = acc * n ** max(lo, 0) * e ** max(-hi, 0)
        den = self._d * n ** max(-lo, 0) * e ** max(hi, 0)
        return Fraction(num, den)

    def euler_d(self) -> "LaurentPoly":
        """Euler derivative x * d/dx: multiplies each term by its exponent."""
        return _poly({k: k * v for k, v in self._a.items() if k}, self._d)

    def __repr__(self):
        d = self._d
        terms = (f"({Fraction(v, d)})*x^{k}" for k, v in sorted(self._a.items()))
        return "LaurentPoly[" + (" + ".join(terms) or "0") + "]"


def vanishes(*terms) -> bool:
    """True when the sum of c * M * P over the terms (c, M, P) is zero.

    c is an int or a Fraction, anything else raising TypeError, and M
    and P are LaurentPolys.  Each term is scaled by one integer weight
    to the lcm of the terms' denominators c.den * M._d * P._d, and
    every product of the two lanes lands in one integer dict keyed by
    exponent, so no gcd is taken and no polynomial is built.
    """
    for c, left, right in terms:
        if not isinstance(c, _RATIONAL_TYPES):
            raise TypeError(f"coefficient of type {type(c).__name__}")
        if not (isinstance(left, LaurentPoly) and isinstance(right, LaurentPoly)):
            raise TypeError("factors must be LaurentPolys")
    dens = [c.denominator * left._d * right._d for c, left, right in terms]
    d = lcm(*dens)
    acc: dict = {}
    for (c, left, right), den in zip(terms, dens):
        w = c.numerator * (d // den)
        if not w:
            continue
        lane = right._a.items()
        for k1, a in left._a.items():
            a *= w
            for k2, b in lane:
                k = k1 + k2
                if k in acc:
                    acc[k] += a * b
                else:
                    acc[k] = a * b
    return not any(acc.values())
