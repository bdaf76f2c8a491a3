"""Dense polynomials in one variable t with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _trim(coeffs):
    c = [Fraction(v) for v in coeffs]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


class DensePoly:
    """Coefficient vector (constant term first), trailing zeros trimmed."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._c = _trim(coeffs)

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._c):
            return self._c[k]
        return Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DensePoly((other,))
        if not isinstance(other, DensePoly):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return DensePoly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DensePoly((other,))
        if not isinstance(other, DensePoly):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return DensePoly(self.coeff(i) - other.coeff(i) for i in range(n))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return DensePoly(-v for v in self._c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DensePoly(v * other for v in self._c)
        if not isinstance(other, DensePoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return DensePoly()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if not a:
                continue
            for j, b in enumerate(other._c):
                out[i + j] += a * b
        return DensePoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DensePoly((other,))
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self._c == other._c

    __hash__ = None

    def eval_at(self, v):
        """Horner evaluation; v may be a Fraction or live in Q(s)."""
        acc = 0
        for c in reversed(self._c):
            acc = acc * v + c
        if isinstance(acc, int):
            acc = Fraction(acc)
        return acc

    def reversed_poly(self, deg: int | None = None) -> "DensePoly":
        """Coefficients reversed with respect to the given degree."""
        if deg is None:
            deg = self.degree
        if deg < self.degree:
            raise ValueError("reversal degree below actual degree")
        return DensePoly(self.coeff(deg - i) for i in range(deg + 1))

    def is_palindromic(self) -> bool:
        return self._c == self._c[::-1]

    def __repr__(self):
        return f"DensePoly({list(self._c)!r})"
