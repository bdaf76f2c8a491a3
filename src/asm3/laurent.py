"""Sparse Laurent polynomials in one variable x over Q(s).

Exponents are ints and coefficients live in Q(s), given as int, Fraction
or QsElem; anything else raises TypeError, and rationals embed with a
zero s-part.  A polynomial is stored as one denominator `_d`, an int > 0,
and two integer lanes `_a = {k: a}` and `_b = {k: b}`, meaning the sum
of (a_k + b_k*s)/d * x^k.  The form is canonical: neither lane holds a
zero entry, gcd(d, every a, every b) = 1, and the zero polynomial has
d = 1, so equal polynomials have equal `_d`, `_a` and `_b`.  A rational
polynomial, as almost every family in tq is, keeps one int per term and
an empty s-lane, and every operation skips an empty lane.  The dicts
suit the thin supports that show up here (arithmetic progressions of
step 6 between -3m-2 and 3m+2).  Every ring operation is integer
arithmetic plus one content gcd per result; a QsElem is built only where
a value is read (`eval_at`, `repr`).  `from_lane` builds a rational
polynomial straight from integers over one denominator, and the
constructor sends a dict of rational coefficients down that path.
Instances are immutable, every operation returns a fresh polynomial,
and they are unhashable.  `divide_exact` takes only divisors that are
monic with integer coefficients, the only kind the quotient families
divide by.

>>> p = LaurentPoly({1: 1, -1: -1})
>>> p * p == LaurentPoly({2: 1, 0: -2, -2: 1})
True
>>> (p * p * p).divide_exact(p) == p * p
True
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Mapping, Union

from .errors import NonExactDivision, PoleAtSample
from .qfield import _RATIONAL_TYPES, QsElem, _lift, _reduced

Scalar = Union[int, Fraction, QsElem]


def _poly(a: dict, b: dict, d: int) -> "LaurentPoly":
    # the canonical form of the sum of (a_k + b_k*s)/d * x^k over the
    # lanes a and b, for d > 0 and lanes without zero entries
    if not (a or b):
        d = 1
    elif d != 1:
        g = gcd(d, *a.values(), *b.values())
        if g != 1:
            d //= g
            a = {k: v // g for k, v in a.items()}
            b = {k: v // g for k, v in b.items()}
    self = object.__new__(LaurentPoly)
    self._a = a
    self._b = b
    self._d = d
    return self


def _nonzero(lane: dict) -> dict:
    return {k: v for k, v in lane.items() if v}


def _sum(x: dict, u: int, y: dict, v: int) -> dict:
    # u*x + v*y for two lanes, without the entries that cancel
    c = {k: a * u for k, a in x.items()} if u else {}
    if v:
        for k, a in y.items():
            a *= v
            if k in c:
                a += c[k]
                if not a:
                    del c[k]
                    continue
            c[k] = a
    return c


def _times(a: dict, b: dict, ea: int, eb: int) -> tuple:
    # the lanes of (a + b*s) * (ea + eb*s)
    if not eb:
        return {k: v * ea for k, v in a.items()}, {k: v * ea for k, v in b.items()}
    return _sum(a, ea, b, -3 * eb), _sum(a, eb, b, ea)


def _conv(x: dict, y: dict, acc: dict, f: int) -> None:
    # adds f times the product of the lanes x and y into acc; an empty
    # lane adds nothing, so a rational operand costs one product
    if not (x and y):
        return
    right = list(y.items())
    for k1, c1 in x.items():
        if f != 1:
            c1 *= f
        for k2, c2 in right:
            k = k1 + k2
            if k in acc:
                acc[k] += c1 * c2
            else:
                acc[k] = c1 * c2


def _pair_pow(a: int, b: int, n: int) -> tuple:
    # (a + b*s) ** n as an integer pair, n >= 0
    ra, rb = 1, 0
    while n:
        if n & 1:
            ra, rb = ra * a - 3 * rb * b, ra * b + rb * a
        a, b = a * a - 3 * b * b, 2 * a * b
        n >>= 1
    return ra, rb


def _quotient(lane: dict, div: dict, dlo: int, dhi: int) -> dict:
    # the exact quotient of one lane by the monic integer lane div, whose
    # support spans dlo..dhi
    if not lane:
        return {}
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
    # the other side of +, - or ==: a scalar becomes a constant polynomial,
    # and None stands for an unsupported type
    if isinstance(v, LaurentPoly):
        return v
    w = _lift(v)
    return None if w is None else LaurentPoly({0: w})


class LaurentPoly:
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        coeffs = coeffs or {}
        if all(isinstance(v, _RATIONAL_TYPES) for v in coeffs.values()):
            # rational coefficients, the common case, go over their lcm
            # as one integer lane
            d = lcm(*(v.denominator for v in coeffs.values()))
            lane = {k: v.numerator * (d // v.denominator) for k, v in coeffs.items()}
            p = LaurentPoly.from_lane(lane, d)
        else:
            lifted = {}
            for k, v in coeffs.items():
                k = operator.index(k)  # a float or str exponent raises
                q = _lift(v)
                if q is None:
                    raise TypeError(f"coefficient of type {type(v).__name__}")
                lifted[k] = q
            d = lcm(*(q.d for q in lifted.values()))
            p = _poly(
                {k: q.a * (d // q.d) for k, q in lifted.items() if q.a},
                {k: q.b * (d // q.d) for k, q in lifted.items() if q.b},
                d,
            )
        self._a, self._b, self._d = p._a, p._b, p._d

    @classmethod
    def from_lane(cls, lane: Mapping[int, int], d: int) -> "LaurentPoly":
        """The rational polynomial sum of lane[k]/d * x^k.

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
        return _poly(a, {}, sign * d)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return min(chain(self._a, self._b))

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return max(chain(self._a, self._b))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        m = lcm(d, e)
        u, v = m // d, m // e
        return _poly(_sum(self._a, u, other._a, v), _sum(self._b, u, other._b, v), m)

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __neg__(self):
        return _poly(*_times(self._a, self._b, -1, 0), self._d)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            a1, b1, a2, b2 = self._a, self._b, other._a, other._b
            ra: dict = {}
            rb: dict = {}
            _conv(a1, a2, ra, 1)
            _conv(b1, b2, ra, -3)
            _conv(a1, b2, rb, 1)
            _conv(b1, a2, rb, 1)
            return _poly(_nonzero(ra), _nonzero(rb), self._d * other._d)
        if isinstance(other, _RATIONAL_TYPES):
            n, e = other.numerator, other.denominator
            if not n:
                return LaurentPoly()
            return _poly(*_times(self._a, self._b, n, 0), self._d * e)
        w = _lift(other)
        if w is None:
            return NotImplemented
        if not w:
            return LaurentPoly()
        return _poly(*_times(self._a, self._b, w.a, w.b), self._d * w.d)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return (
            self._d == other._d and self._a == other._a and self._b == other._b
        )

    # -- the operations the identity checks are built from --------------

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den, for den monic with integer coefficients.

        The quotient families divide only by (x - 1/x)^n, or that times
        x + 2 + 1/x, and over such a divisor each lane of the dividend
        divides apart, every step of its long division exact in
        integers.  Any other nonzero divisor raises ValueError, a zero
        one ZeroDivisionError, and a remainder NonExactDivision.
        """
        if not isinstance(den, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        div, dlo, dhi = den._a, den.min_exp, den.max_exp
        if den._d != 1 or den._b or div.get(dhi) != 1:
            raise ValueError("divisor is not monic with integer coefficients")
        if self.is_zero:
            return LaurentPoly()
        quot_a = _quotient(self._a, div, dlo, dhi)
        quot_b = _quotient(self._b, div, dlo, dhi)
        return _poly(quot_a, quot_b, self._d)

    def substitute_scale(self, c: Scalar) -> "LaurentPoly":
        """p(x) -> p(c*x) for a nonzero scalar c; c = 0 hits the pole x = 0."""
        w = _lift(c)
        if w is None:
            raise TypeError(f"scale factor of type {type(c).__name__}")
        if not w:
            raise PoleAtSample("Laurent polynomial scaled or evaluated at x = 0")
        if self.is_zero:
            return LaurentPoly()
        # c = (wa + wb*s)/wd: the term k picks up (wa + wb*s)^(k-lo) over
        # wd^(hi-lo), times wd^(hi-k), and the whole polynomial c^lo
        wa, wb, wd = w.a, w.b, w.d
        lo, hi = self.min_exp, self.max_exp
        pa, pb, prev = 1, 0, lo
        lane_a, lane_b = self._a, self._b
        out_a, out_b = {}, {}
        for k in sorted(lane_a.keys() | lane_b.keys()):
            ga, gb = _pair_pow(wa, wb, k - prev)
            pa, pb, prev = pa * ga - 3 * pb * gb, pa * gb + pb * ga, k
            f = wd ** (hi - k)
            a, b = lane_a.get(k, 0), lane_b.get(k, 0)
            x, y = (a * pa - 3 * b * pb) * f, (a * pb + b * pa) * f
            if x:
                out_a[k] = x
            if y:
                out_b[k] = y
        if lo < 0:
            # c^lo = (1/c)^-lo, and 1/c = wd*(wa - wb*s)/(wa^2 + 3*wb^2)
            wa, wb, wd = wd * wa, -wd * wb, wa * wa + 3 * wb * wb
        ea, eb = _pair_pow(wa, wb, abs(lo))
        d = self._d * w.d ** (hi - lo) * wd ** abs(lo)
        return _poly(*_times(out_a, out_b, ea, eb), d)

    def invert_x(self) -> "LaurentPoly":
        """p(x) -> p(1/x); an involution on the support."""
        return _poly(
            {-k: v for k, v in self._a.items()},
            {-k: v for k, v in self._b.items()},
            self._d,
        )

    def eval_at(self, x0: Scalar) -> QsElem:
        """Exact value at a nonzero point of Q(s), by substitute_scale."""
        p = self.substitute_scale(x0)
        return _reduced(sum(p._a.values()), sum(p._b.values()), p._d)

    def euler_d(self) -> "LaurentPoly":
        """Euler derivative x * d/dx: multiplies each term by its exponent."""
        return _poly(
            {k: k * v for k, v in self._a.items() if k},
            {k: k * v for k, v in self._b.items() if k},
            self._d,
        )

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        bits = []
        for k in sorted(self._a.keys() | self._b.keys()):
            v = _reduced(self._a.get(k, 0), self._b.get(k, 0), self._d)
            if k == 0:
                bits.append(f"({v})")
            elif k == 1:
                bits.append(f"({v})*x")
            else:
                bits.append(f"({v})*x^{k}")
        return "LaurentPoly[" + " + ".join(bits) + "]"
