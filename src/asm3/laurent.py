"""Sparse Laurent polynomials in one variable x over Q(s).

Exponents are ints and coefficients live in Q(s), given as int, Fraction
or QsElem; anything else raises TypeError, and rationals embed with a
zero s-part.  The representation is a dict from integer exponents to nonzero
coefficients, which suits the thin supports that show up here
(arithmetic progressions of step 6 between -3m-2 and 3m+2).  Instances
are immutable, every operation returns a fresh polynomial, and they are
unhashable, like the QsElem coefficients they hold.

>>> p = LaurentPoly({1: 1, -1: -1})
>>> p * p == LaurentPoly({2: 1, 0: -2, -2: 1})
True
>>> (p * p * p).divide_exact(p) == p * p
True
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Union

from .errors import NonExactDivision, PoleAtSample
from .qfield import ZERO, QsElem, _lift

Scalar = Union[int, Fraction, QsElem]


def _operand(v) -> "LaurentPoly | None":
    # the other side of +, - or ==: a scalar becomes a constant polynomial,
    # and None stands for an unsupported type
    if isinstance(v, LaurentPoly):
        return v
    w = _lift(v)
    return None if w is None else LaurentPoly._clean({0: w})


class LaurentPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                k = operator.index(k)  # a float or str exponent raises
                q = _lift(v)
                if q is None:
                    raise TypeError(f"coefficient of type {type(v).__name__}")
                if q:
                    c[k] = q
        self._c = c

    @classmethod
    def _clean(cls, c: dict) -> "LaurentPoly":
        # internal fast path: values are QsElem, zeros may be present
        self = object.__new__(cls)
        self._c = {k: v for k, v in c.items() if v}
        return self

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

    def coeff(self, k: int) -> QsElem:
        return self._c.get(k, ZERO)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, ZERO) + v
        return LaurentPoly._clean(c)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __neg__(self):
        return LaurentPoly._clean({k: -v for k, v in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            acc: dict = {}
            for k1, v1 in self._c.items():
                for k2, v2 in other._c.items():
                    k = k1 + k2
                    prod = v1 * v2
                    if k in acc:
                        acc[k] = acc[k] + prod
                    else:
                        acc[k] = prod
            return LaurentPoly._clean(acc)
        w = _lift(other)
        if w is None:
            return NotImplemented
        return LaurentPoly._clean({k: v * w for k, v in self._c.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self._c == other._c

    # -- the operations the identity checks are built from --------------

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den.

        Raises ZeroDivisionError on a zero divisor and NonExactDivision
        when the division leaves a remainder.  Since x is a unit here,
        the division normalises both operands to ordinary polynomials
        with nonzero constant term and long-divides those.
        """
        if not isinstance(den, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        nlo, nhi = self.min_exp, self.max_exp
        dlo, dhi = den.min_exp, den.max_exp
        num = [self.coeff(k) for k in range(nlo, nhi + 1)]
        div = [den.coeff(k) for k in range(dlo, dhi + 1)]
        if len(num) < len(div):
            raise NonExactDivision("divisor support is wider than dividend")
        lead_inv = div[-1].inverse()
        quot = [ZERO] * (len(num) - len(div) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = num[i + len(div) - 1] * lead_inv
            quot[i] = c
            if c:
                for j, d in enumerate(div):
                    num[i + j] = num[i + j] - c * d
        if any(num[: len(div) - 1]):
            raise NonExactDivision("nonzero remainder")
        offset = nlo - dlo
        return LaurentPoly._clean({offset + i: c for i, c in enumerate(quot)})

    def substitute_scale(self, c: Scalar) -> "LaurentPoly":
        """p(x) -> p(c*x) for a nonzero scalar c; c = 0 hits the pole x = 0."""
        w = _lift(c)
        if w is None:
            raise TypeError(f"scale factor of type {type(c).__name__}")
        if not w:
            raise PoleAtSample("Laurent polynomial scaled or evaluated at x = 0")
        if not self._c:
            return LaurentPoly()
        exps = sorted(self._c)
        pw = w ** exps[0]
        out = {}
        prev = exps[0]
        for k in exps:
            pw = pw * w ** (k - prev)
            prev = k
            out[k] = self._c[k] * pw
        return LaurentPoly._clean(out)

    def invert_x(self) -> "LaurentPoly":
        """p(x) -> p(1/x); an involution on the support."""
        return LaurentPoly._clean({-k: v for k, v in self._c.items()})

    def eval_at(self, x0: Scalar) -> QsElem:
        """Exact value at a nonzero point of Q(s), by substitute_scale."""
        return sum(self.substitute_scale(x0)._c.values(), ZERO)

    def euler_d(self) -> "LaurentPoly":
        """Euler derivative x * d/dx: multiplies each term by its exponent."""
        return LaurentPoly._clean({k: v * k for k, v in self._c.items()})

    def __repr__(self):
        if not self._c:
            return "LaurentPoly(0)"
        bits = []
        for k, v in sorted(self._c.items()):
            if k == 0:
                bits.append(f"({v})")
            elif k == 1:
                bits.append(f"({v})*x")
            else:
                bits.append(f"({v})*x^{k}")
        return "LaurentPoly[" + " + ".join(bits) + "]"
