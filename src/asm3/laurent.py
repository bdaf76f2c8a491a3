"""Sparse Laurent polynomials in one variable x over Q(s).

Exponents are ints and coefficients live in Q(s), given as int, Fraction
or QsElem; anything else raises TypeError, and rationals embed with a
zero s-part.  A polynomial is stored as one denominator `_d`, an int > 0,
and a dict `_c = {k: (a, b)}` of integer pairs, meaning the sum of
(a_k + b_k*s)/d * x^k.  The form is canonical: no pair is (0, 0),
gcd(d, every a, every b) = 1, and the zero polynomial has d = 1, so
equal polynomials have equal `_d` and `_c`.  The dict suits the thin
supports that show up here (arithmetic progressions of step 6 between
-3m-2 and 3m+2).  Every ring operation is integer arithmetic plus one
content gcd per result; a QsElem is built only where a value is read
(`eval_at`, `repr`).  Instances are immutable, every operation returns
a fresh polynomial, and they are unhashable.
`lincomb` folds a whole sum of rational multiples of polynomials in one
integer pass, over one denominator and with one content gcd.
`divide_exact` takes only divisors that are monic with integer
coefficients, the only kind the quotient families divide by.

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
from .qfield import _RATIONAL_TYPES, QsElem, _lift, _rational, _reduced

Scalar = Union[int, Fraction, QsElem]


def _poly(c: dict, d: int) -> "LaurentPoly":
    # the canonical form of the sum of (a + b*s)/d * x^k over
    # c = {k: (a, b)}, for d > 0 and integer pairs none of which is (0, 0)
    if not c:
        d = 1
    elif d != 1:
        g = gcd(d, *chain.from_iterable(c.values()))
        if g != 1:
            d //= g
            c = {k: (a // g, b // g) for k, (a, b) in c.items()}
    self = object.__new__(LaurentPoly)
    self._c = c
    self._d = d
    return self


def _times(c: dict, ea: int, eb: int) -> dict:
    # the pairs of c, each times ea + eb*s
    return {k: (a * ea - 3 * b * eb, a * eb + b * ea) for k, (a, b) in c.items()}


def _pair_pow(a: int, b: int, n: int) -> tuple:
    # (a + b*s) ** n as an integer pair, n >= 0
    ra, rb = 1, 0
    while n:
        if n & 1:
            ra, rb = ra * a - 3 * rb * b, ra * b + rb * a
        a, b = a * a - 3 * b * b, 2 * a * b
        n >>= 1
    return ra, rb


def lincomb(polys, coeffs) -> "LaurentPoly":
    """Sum of c * p over zip(polys, coeffs), for rational coefficients c.

    Every term c * p is put over the lcm of the terms' denominators and
    their integer pairs are added up, so the sum takes one content gcd
    instead of one per term.  A coefficient that is not an int or a
    Fraction raises TypeError.
    """
    terms = []
    for p, c in zip(polys, coeffs):
        n, e = _rational(c).as_integer_ratio()
        if n and p._c:
            terms.append((p._c, n, e * p._d))
    d = lcm(*(e for _, _, e in terms))
    acc: dict = {}
    for c, n, e in terms:
        f = n * (d // e)
        for k, (a, b) in c.items():
            pair = acc.get(k)
            if pair is None:
                acc[k] = [a * f, b * f]
            else:
                pair[0] += a * f
                pair[1] += b * f
    return _poly({k: (a, b) for k, (a, b) in acc.items() if a or b}, d)


def _operand(v) -> "LaurentPoly | None":
    # the other side of +, - or ==: a scalar becomes a constant polynomial,
    # and None stands for an unsupported type
    if isinstance(v, LaurentPoly):
        return v
    w = _lift(v)
    return None if w is None else LaurentPoly({0: w})


class LaurentPoly:
    __slots__ = ("_c", "_d")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        lifted = {}
        if coeffs:
            for k, v in coeffs.items():
                k = operator.index(k)  # a float or str exponent raises
                q = _lift(v)
                if q is None:
                    raise TypeError(f"coefficient of type {type(v).__name__}")
                if q:
                    lifted[k] = q
        # each QsElem is in lowest terms, so over the lcm of their
        # denominators the pairs are already canonical
        d = lcm(*(q.d for q in lifted.values()))
        self._c = {k: (q.a * (d // q.d), q.b * (d // q.d)) for k, q in lifted.items()}
        self._d = d

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return max(self._c)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        m = lcm(d, e)
        u, v = m // d, m // e
        c = {k: (a * u, b * u) for k, (a, b) in self._c.items()}
        for k, (a, b) in other._c.items():
            if k in c:
                x, y = c[k]
                x += a * v
                y += b * v
                if x or y:
                    c[k] = (x, y)
                else:
                    del c[k]
            else:
                c[k] = (a * v, b * v)
        return _poly(c, m)

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __neg__(self):
        return _poly({k: (-a, -b) for k, (a, b) in self._c.items()}, self._d)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            ra: dict = {}
            rb: dict = {}
            right = list(other._c.items())
            for k1, (a1, b1) in self._c.items():
                t1 = 3 * b1
                for k2, (a2, b2) in right:
                    k = k1 + k2
                    if k in ra:
                        ra[k] += a1 * a2 - t1 * b2
                        rb[k] += a1 * b2 + b1 * a2
                    else:
                        ra[k] = a1 * a2 - t1 * b2
                        rb[k] = a1 * b2 + b1 * a2
            c = {k: (a, rb[k]) for k, a in ra.items() if a or rb[k]}
            return _poly(c, self._d * other._d)
        if isinstance(other, _RATIONAL_TYPES):
            n, e = other.numerator, other.denominator
            if not n:
                return LaurentPoly()
            c = {k: (a * n, b * n) for k, (a, b) in self._c.items()}
            return _poly(c, self._d * e)
        w = _lift(other)
        if w is None:
            return NotImplemented
        if not w:
            return LaurentPoly()
        return _poly(_times(self._c, w.a, w.b), self._d * w.d)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._d == other._d and self._c == other._c

    # -- the operations the identity checks are built from --------------

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den, for den monic with integer coefficients.

        The quotient families divide only by (x - 1/x)^n, or that times
        x + 2 + 1/x, and over such a divisor every step of the long
        division is exact in the dividend's integer pairs.  Any other
        nonzero divisor raises ValueError, a zero one ZeroDivisionError,
        and a remainder NonExactDivision.
        """
        if not isinstance(den, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        div, dlo, dhi = den._c, den.min_exp, den.max_exp
        if den._d != 1 or div[dhi] != (1, 0) or any(b for _, b in div.values()):
            raise ValueError("divisor is not monic with integer coefficients")
        if self.is_zero:
            return LaurentPoly()
        nlo, nhi = self.min_exp, self.max_exp
        width = dhi - dlo
        if nhi - nlo < width:
            raise NonExactDivision("divisor support is wider than dividend")
        num = self._c
        na = [num[k][0] if k in num else 0 for k in range(nlo, nhi + 1)]
        nb = [num[k][1] if k in num else 0 for k in range(nlo, nhi + 1)]
        terms = [(k - dlo, a) for k, (a, _) in div.items() if k != dhi]
        quot = {}
        for i in range(nhi - nlo - width, -1, -1):
            ca, cb = na[i + width], nb[i + width]
            if not (ca or cb):
                continue
            quot[nlo - dlo + i] = (ca, cb)
            for j, a in terms:
                na[i + j] -= ca * a
                nb[i + j] -= cb * a
        if any(na[:width]) or any(nb[:width]):
            raise NonExactDivision("nonzero remainder")
        return _poly(quot, self._d)

    def substitute_scale(self, c: Scalar) -> "LaurentPoly":
        """p(x) -> p(c*x) for a nonzero scalar c; c = 0 hits the pole x = 0."""
        w = _lift(c)
        if w is None:
            raise TypeError(f"scale factor of type {type(c).__name__}")
        if not w:
            raise PoleAtSample("Laurent polynomial scaled or evaluated at x = 0")
        if not self._c:
            return LaurentPoly()
        # c = (wa + wb*s)/wd: the term k picks up (wa + wb*s)^(k-lo) over
        # wd^(hi-lo), times wd^(hi-k), and the whole polynomial c^lo
        wa, wb, wd = w.a, w.b, w.d
        lo, hi = self.min_exp, self.max_exp
        pa, pb, prev = 1, 0, lo
        out = {}
        for k in sorted(self._c):
            ga, gb = _pair_pow(wa, wb, k - prev)
            pa, pb, prev = pa * ga - 3 * pb * gb, pa * gb + pb * ga, k
            a, b = self._c[k]
            f = wd ** (hi - k)
            out[k] = ((a * pa - 3 * b * pb) * f, (a * pb + b * pa) * f)
        if lo < 0:
            # c^lo = (1/c)^-lo, and 1/c = wd*(wa - wb*s)/(wa^2 + 3*wb^2)
            wa, wb, wd = wd * wa, -wd * wb, wa * wa + 3 * wb * wb
        ea, eb = _pair_pow(wa, wb, abs(lo))
        return _poly(_times(out, ea, eb), self._d * w.d ** (hi - lo) * wd ** abs(lo))

    def invert_x(self) -> "LaurentPoly":
        """p(x) -> p(1/x); an involution on the support."""
        return _poly({-k: v for k, v in self._c.items()}, self._d)

    def eval_at(self, x0: Scalar) -> QsElem:
        """Exact value at a nonzero point of Q(s), by substitute_scale."""
        p = self.substitute_scale(x0)
        return _reduced(
            sum(a for a, _ in p._c.values()), sum(b for _, b in p._c.values()), p._d
        )

    def euler_d(self) -> "LaurentPoly":
        """Euler derivative x * d/dx: multiplies each term by its exponent."""
        return _poly({k: (k * a, k * b) for k, (a, b) in self._c.items() if k}, self._d)

    def __repr__(self):
        if not self._c:
            return "LaurentPoly(0)"
        bits = []
        for k in sorted(self._c):
            v = _reduced(*self._c[k], self._d)
            if k == 0:
                bits.append(f"({v})")
            elif k == 1:
                bits.append(f"({v})*x")
            else:
                bits.append(f"({v})*x^{k}")
        return "LaurentPoly[" + " + ".join(bits) + "]"
